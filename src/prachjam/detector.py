"""Correlation receiver deciding which preamble signatures were sent.

For each configured root sequence the averaged PRACH bins are multiplied
by the conjugate spectrum of that root and inverse-transformed into a
delay profile, where a transmitted cyclic shift concentrates into a single
tap. The profile is segmented into one ``shift_step``-tap signature window
per usable shift, anchored at the tap where that shift lands and extending
forward so that propagation delay (which spreads the peak by
``delay * L_RA / dft_size`` taps) stays inside the transmitted signature's
window. A window is reported when its peak exceeds ``threshold_factor``
times the profile's mean with the peak excluded - a relative floor, so
jamming raises the decision threshold along with the interference.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .prach import PrachOccasion
from .zc import generate_zc

__all__ = [
    "DetectorConfig",
    "Detection",
    "DetectionResult",
    "detect_preambles",
    "signatures_detected",
    "delay_profile",
    "profile_bins",
    "calibrate_threshold",
    "DEFAULT_THRESHOLD_FACTOR",
]

# Calibrated for a 1e-3 false-alarm rate per occasion on 139-bin profiles
# with shift_step 13 and a single root (see calibrate_threshold).
DEFAULT_THRESHOLD_FACTOR = 12.35

# Windows more than 120 dB below the profile peak are numerical dust left
# by an exact-zero floor (noiseless loopback) and are never reported.
_FLOOR_GUARD = 1e-12


@dataclass(frozen=True)
class DetectorConfig:
    threshold_factor: float = DEFAULT_THRESHOLD_FACTOR
    shift_step: int = 13
    roots: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if self.threshold_factor <= 1:
            raise ValueError("threshold_factor must be > 1")
        if self.shift_step < 1:
            raise ValueError("shift_step must be >= 1")
        if not self.roots:
            raise ValueError("root list must be nonempty")


class Detection(NamedTuple):
    root: int
    signature: int
    metric: float


@dataclass(frozen=True, eq=False)
class DetectionResult:
    detected: list[Detection]
    noise_floor: float
    occasion: PrachOccasion | None = None

    def reports(self, signature: tuple[int, int]) -> bool:
        """Whether the (root, window) pair ``signature`` was detected."""
        return any((d.root, d.signature) == signature for d in self.detected)


_REFERENCE_CACHE: dict[tuple[int, int], np.ndarray] = {}
_WINDOW_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _reference_spectrum(root: int, length: int) -> np.ndarray:
    key = (root, length)
    ref = _REFERENCE_CACHE.get(key)
    if ref is None:
        ref = np.conj(np.fft.fft(generate_zc(root, length).samples))
        _REFERENCE_CACHE[key] = ref
    return ref


def _window_indices(length: int, step: int) -> np.ndarray:
    """Profile taps of each signature window, shape (n_windows, step).

    The cyclic shift ``w * step`` lands at tap ``(-w * step) mod length``;
    window ``w`` starts there and runs forward, where time delay pushes the
    peak. Leftover taps (length mod step) sit above window 0 as a guard.
    """
    key = (length, step)
    idx = _WINDOW_CACHE.get(key)
    if idx is None:
        n_windows = length // step
        anchors = (-step * np.arange(n_windows)) % length
        idx = (anchors[:, None] + np.arange(step)[None, :]) % length
        _WINDOW_CACHE[key] = idx
    return idx


def delay_profile(bins: np.ndarray, root: int) -> np.ndarray:
    """Complex delay profile ``ifft(bins * conj(fft(zc(root))))`` of bins ``(..., L)``.

    The cyclic shift ``s`` of the root concentrates into tap ``(-s) mod L``;
    a time delay of ``d`` samples moves the peak forward by
    ``d * L / dft_size`` taps.
    """
    return np.fft.ifft(bins * _reference_spectrum(root, bins.shape[-1]))


def profile_bins(profile: np.ndarray, root: int) -> np.ndarray:
    """The bins whose delay profile against ``root`` is ``profile``."""
    return np.fft.fft(profile) / _reference_spectrum(root, profile.shape[-1])


def _decide(profile: np.ndarray, cfg: DetectorConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The detection rule on delay profiles ``(..., L)``.

    Returns the peak power of each signature window ``(..., W)``, the floor
    (the mean power with the profile peak excluded) and which windows pass
    ``threshold_factor`` times the guarded floor ``(..., W)``.
    """
    length = profile.shape[-1]
    pdp = np.abs(profile) ** 2
    peak = pdp.max(axis=-1)
    floor = (pdp.sum(axis=-1) - peak) / (length - 1)
    peaks = pdp[..., _window_indices(length, cfg.shift_step)].max(axis=-1)
    limit = cfg.threshold_factor * np.maximum(floor, peak * _FLOOR_GUARD)
    # Transposed, the windows broadcast against their row's limit, and a
    # single profile compares against a scalar.
    return peaks, floor, (peaks.T > limit).T


def detect_preambles(
    bins: np.ndarray,
    cfg: DetectorConfig,
    occasion: PrachOccasion | None = None,
) -> DetectionResult:
    """Decide which (root, signature window) pairs are present in the bins."""
    bins = np.asarray(bins, dtype=complex)
    if bins.ndim != 1 or bins.size < cfg.shift_step:
        raise ValueError(
            f"expected at least {cfg.shift_step} averaged PRACH bins, got shape "
            f"{bins.shape}"
        )
    detected: list[Detection] = []
    floors: list[float] = []
    for root in cfg.roots:
        peaks, floor, hits = _decide(delay_profile(bins, root), cfg)
        floors.append(float(floor))
        detected += [Detection(root, int(w), float(peaks[w])) for w in np.flatnonzero(hits)]
    return DetectionResult(
        detected=detected, noise_floor=min(floors), occasion=occasion
    )


def signatures_detected(
    profiles: np.ndarray, windows: np.ndarray, cfg: DetectorConfig
) -> np.ndarray:
    """Whether ``detect_preambles`` reports window ``windows[i]`` in row ``i``.

    ``profiles`` has shape ``(M, L)``: the delay profile of each row
    against the root of the signature it is judged for.
    """
    return _decide(profiles, cfg)[2][np.arange(len(profiles)), windows]


def calibrate_threshold(
    target_far: float,
    trials: int,
    cfg: DetectorConfig,
    rng: np.random.Generator,
    l_ra: int = 139,
) -> float:
    """Smallest threshold factor whose noise-only false-alarm rate per
    occasion does not exceed ``target_far``.

    The decision statistic is scale free, so calibration runs on
    unit-variance noise bins and the result applies at any noise level.
    Bisection stops at a 1 % relative tolerance on the factor.
    """
    if not 0 < target_far < 1:
        raise ValueError("target_far must be in (0, 1)")
    if trials < 10 / target_far:
        raise ValueError(
            f"insufficient trials: need at least {int(np.ceil(10 / target_far))} "
            f"for target_far {target_far}"
        )
    # Noise-only decision statistic per trial: best window peak over floor.
    stats = np.full(trials, -np.inf)
    chunk = 4096
    for start in range(0, trials, chunk):
        m = min(chunk, trials - start)
        bins = (
            rng.standard_normal((m, l_ra)) + 1j * rng.standard_normal((m, l_ra))
        ) / np.sqrt(2.0)
        best = stats[start : start + m]  # a view: updated in place
        for root in cfg.roots:
            peaks, floor, _ = _decide(delay_profile(bins, root), cfg)
            np.maximum(best, peaks.max(axis=-1) / floor, out=best)

    def far(factor: float) -> float:
        return float(np.mean(stats > factor))

    lo, hi = 1.0, float(stats.max()) + 1.0
    while (hi - lo) / lo > 0.01:
        mid = 0.5 * (lo + hi)
        if far(mid) <= target_far:
            hi = mid
        else:
            lo = mid
    return hi
