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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .prach import PrachOccasion
from .zc import generate_zc

__all__ = [
    "DetectorConfig",
    "Detection",
    "DetectionResult",
    "DelayProfile",
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
        if not 1 < self.threshold_factor < math.inf:  # false for NaN too
            raise ConfigError(
                f"threshold_factor must be > 1 and finite, got {self.threshold_factor}"
            )
        if self.shift_step < 1:
            raise ConfigError("shift_step must be >= 1")
        if not self.roots:
            raise ConfigError("root list must be nonempty")


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


# Both caches hand the same array to every caller, so it is read-only.
@functools.cache
def _reference_spectrum(root: int, length: int) -> np.ndarray:
    ref = np.conj(np.fft.fft(generate_zc(root, length).samples))
    ref.setflags(write=False)
    return ref


@functools.cache
def _window_indices(length: int, step: int) -> np.ndarray:
    """Profile taps of each signature window, shape (n_windows, step).

    The cyclic shift ``w * step`` lands at tap ``(-w * step) mod length``;
    window ``w`` starts there and runs forward, where time delay pushes the
    peak. Leftover taps (length mod step) sit above window 0 as a guard.
    """
    anchors = (-step * np.arange(length // step)) % length
    idx = (anchors[:, None] + np.arange(step)[None, :]) % length
    idx.setflags(write=False)
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


def _floor_and_limit(power: np.ndarray, cfg: DetectorConfig) -> tuple[np.ndarray, np.ndarray]:
    """The floor of delay-profile powers ``|profile|**2`` ``(..., L)`` (the
    mean power with the profile peak excluded) and the power a window's
    peak must exceed: ``threshold_factor`` times the guarded floor."""
    peak = power.max(axis=-1)
    floor = (power.sum(axis=-1) - peak) / (power.shape[-1] - 1)
    return floor, cfg.threshold_factor * np.maximum(floor, peak * _FLOOR_GUARD)


def _decide(power: np.ndarray, cfg: DetectorConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The detection rule on delay-profile powers ``(..., L)``.

    Returns the peak power of each signature window ``(..., W)``, the floor
    and which windows pass the limit (``_floor_and_limit``) ``(..., W)``.
    """
    floor, limit = _floor_and_limit(power, cfg)
    peaks = power[..., _window_indices(power.shape[-1], cfg.shift_step)].max(axis=-1)
    # Transposed, the windows broadcast against their row's limit, and a
    # single profile compares against a scalar.
    return peaks, floor, (peaks.T > limit).T


class DelayProfile(NamedTuple):
    """The delay profile ``taps`` ``(L,)`` of some bins against ``root``,
    as ``delay_profile(bins, root)`` gives it."""

    root: int
    taps: np.ndarray


def detect_preambles(
    bins: np.ndarray | DelayProfile,
    cfg: DetectorConfig,
    occasion: PrachOccasion | None = None,
) -> DetectionResult:
    """Decide which (root, signature window) pairs are present in the bins.

    ``bins`` are averaged PRACH bins ``(L,)``, or a ``DelayProfile`` of
    them: its own root is then judged on its taps as they are, and every
    other configured root on the bins ``profile_bins`` rebuilds from them
    (once, and only if such a root exists).
    """
    own, values = bins if isinstance(bins, DelayProfile) else (None, bins)
    values = np.asarray(values, dtype=complex)
    if values.ndim != 1 or values.size < cfg.shift_step:
        raise ValueError(
            f"expected at least {cfg.shift_step} averaged PRACH bins, got shape "
            f"{values.shape}"
        )
    if own is None:
        bins = values
    elif any(root != own for root in cfg.roots):
        bins = profile_bins(values, own)
    detected: list[Detection] = []
    floors: list[float] = []
    for root in cfg.roots:
        profile = values if root == own else delay_profile(bins, root)
        peaks, floor, hits = _decide(np.abs(profile) ** 2, cfg)
        floors.append(float(floor))
        detected += [Detection(root, int(w), float(peaks[w])) for w in np.flatnonzero(hits)]
    return DetectionResult(
        detected=detected, noise_floor=min(floors), occasion=occasion
    )


def signatures_detected(
    power: np.ndarray, windows: np.ndarray, cfg: DetectorConfig
) -> np.ndarray:
    """Whether ``detect_preambles`` reports window ``windows[i]`` in row ``i``.

    ``power`` has shape ``(M, L)``: the tap powers ``|profile|**2`` of each
    row's delay profile against the root of the signature it is judged for.
    Only each row's own window is gathered.
    """
    taps = _window_indices(power.shape[-1], cfg.shift_step)[windows]
    peaks = power[np.arange(len(power))[:, None], taps].max(axis=-1)
    return peaks > _floor_and_limit(power, cfg)[1]


# Rows of noise-only trials drawn and judged at once. A trial is one row of
# the stream (L uniforms, or 2 * L normals), so any block size gives the same
# statistics, and 512 rows (about 0.55 MB per array at L = 139) keep a block
# in a core's L2 cache through the draw and `_decide`'s window gather.
_BLOCK = 512


def _noise_statistics(
    trials: int, cfg: DetectorConfig, rng: np.random.Generator, l_ra: int
) -> np.ndarray:
    """Noise-only decision statistic per trial: best window peak over floor.

    One root's delay profile of white bins is white, so its tap powers are
    i.i.d. standard exponential and are drawn as such, ``-log(1 - u)``.
    Several roots' profiles come from the same bins and are dependent, so
    those trials draw unit-variance complex bins, as interleaved (re, im)
    normals like ``BinChannel.draw``, and transform them.
    """
    stats = np.full(trials, -np.inf)
    for start in range(0, trials, _BLOCK):
        m = min(_BLOCK, trials - start)
        best = stats[start : start + m]  # a view: updated in place
        if len(cfg.roots) == 1:
            power = rng.random((m, l_ra))
            np.subtract(1.0, power, out=power)
            np.log(power, out=power)
            power *= -1.0
            powers = [power]
        else:
            bins = rng.standard_normal((m, l_ra, 2)).view(complex)[..., 0] / np.sqrt(2.0)
            powers = (np.abs(delay_profile(bins, root)) ** 2 for root in cfg.roots)
        for power in powers:
            peaks, floor, _ = _decide(power, cfg)
            np.maximum(best, peaks.max(axis=-1) / floor, out=best)
    return stats


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
    unit-variance noise (``_noise_statistics``) and the result applies at
    any noise level.
    Bisection stops at a 1 % relative tolerance on the factor.
    """
    if not 0 < target_far < 1:
        raise ValueError("target_far must be in (0, 1)")
    if trials < 10 / target_far:
        raise ValueError(
            f"insufficient trials: need at least {int(np.ceil(10 / target_far))} "
            f"for target_far {target_far}"
        )
    stats = _noise_statistics(trials, cfg, rng, l_ra)

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
