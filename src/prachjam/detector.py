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
from .prach import PrachConfig, PrachOccasion
from .zc import generate_zc

__all__ = [
    "DetectorConfig",
    "Detection",
    "DetectionResult",
    "DelayProfile",
    "detect_preambles",
    "window_detected",
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
        factor = self.threshold_factor  # as in the JSON loader, a bool is no number
        if isinstance(factor, bool) or not isinstance(factor, (int, float)):
            raise ConfigError(f"threshold_factor must be a number, got {factor!r}")
        if not 1 < factor < math.inf:  # false for NaN too
            raise ConfigError(f"threshold_factor must be > 1 and finite, got {factor}")
        length = PrachConfig.preamble_length
        if type(self.shift_step) is not int:
            raise ConfigError(f"shift_step must be an int, got {self.shift_step!r}")
        if self.shift_step < 1:
            raise ConfigError("shift_step must be >= 1")
        if self.shift_step > length:
            raise ConfigError(f"shift_step must be at most the preamble length {length}")
        if not (isinstance(self.roots, tuple) and all(type(r) is int for r in self.roots)):
            raise ConfigError(f"roots must be a tuple of ints, got {self.roots!r}")
        if not self.roots:
            raise ConfigError("root list must be nonempty")
        usable = {r for r in self.roots if 0 < r < length and math.gcd(r, length) == 1}
        if len(usable) < len(self.roots):  # a duplicate or an unusable root
            raise ConfigError(f"roots must be distinct roots in [1, {length}) coprime "
                              f"with {length}, got {list(self.roots)}")


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


def _floor_and_limit(total, peak, length: int, cfg: DetectorConfig, maximum=np.maximum):
    """The floor of ``length`` tap powers ``|profile|**2`` summing to ``total``
    and peaking at ``peak`` (their mean with the peak excluded) and the power a
    window's peak must exceed: ``threshold_factor`` times the guarded floor.
    ``maximum`` is the builtin ``max`` on Python floats: no numpy scalar dispatch."""
    floor = (total - peak) / (length - 1)
    return floor, cfg.threshold_factor * maximum(floor, peak * _FLOOR_GUARD)


def _decide(power: np.ndarray, cfg: DetectorConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The detection rule on delay-profile powers ``(..., L)``: batches of
    full rows (calibration, a campaign's dense later sends) go through it.

    Returns the peak power of each signature window ``(..., W)``, the floor
    and which windows pass the limit (``_floor_and_limit``) ``(..., W)``.
    """
    floor, limit = _floor_and_limit(power.sum(-1), power.max(-1), power.shape[-1], cfg)
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
    least = max(cfg.shift_step, 2)  # one tap would leave none for the floor
    if values.ndim != 1 or values.size < least:
        raise ValueError(
            f"expected at least {least} averaged PRACH bins, got shape {values.shape}"
        )
    if own is None:
        bins = values
    elif cfg.roots != (own,):  # the roots are distinct
        bins = profile_bins(values, own)
    # ``_decide`` on one profile, from Python floats: the same arithmetic.
    detected, floors = [], []
    for root in cfg.roots:
        power = np.abs(values if root == own else delay_profile(bins, root)) ** 2
        peak, total = float(np.maximum.reduce(power)), float(np.add.reduce(power))
        floor, limit = _floor_and_limit(total, peak, values.size, cfg, max)
        floors.append(floor)
        if peak > limit:  # else no window's peak can pass
            peaks = power[_window_indices(values.size, cfg.shift_step)].max(axis=-1).tolist()
            detected += [Detection(root, w, p) for w, p in enumerate(peaks) if p > limit]
    return DetectionResult(detected=detected, noise_floor=min(floors), occasion=occasion)


def window_detected(window, rest_sum, rest_peak, length: int, cfg: DetectorConfig):
    """Whether ``detect_preambles`` reports a window of tap powers ``window`` ``(M, s)``
    of ``length``-tap profiles whose other powers sum to ``rest_sum``, peak at ``rest_peak``."""
    peak, total = window.max(axis=-1), window.sum(axis=-1) + rest_sum
    return peak > _floor_and_limit(total, np.maximum(peak, rest_peak), length, cfg)[1]


def _fisher_tail(n: int, x_min: float):
    """Fisher's ``P(g > x)`` (Proc. R. Soc. A 125, 1929), g the largest share of the
    sum of ``n`` i.i.d. exponentials, its derivative and a rounding bound for x >= ``x_min``:
    ``sum((-1)**(k-1) C(n, k) (1 - k x)**(n-1), 1 <= k <= 1/x)``. At n = 126 and
    ``x = f / (f + 138)``, float64 gives it to 2e-14 (relative) for f >= 4,
    1.3e-12 at 3, 8e-9 at 2 and 1.8e-5 at 1.5; below 1.3, to no digit."""
    k = np.arange(1, math.floor(1 / x_min) + 1)
    c = np.array([(-1.0) ** (j + 1) * math.comb(n, j) for j in k.tolist()])

    def tail(x):
        base = np.maximum(1 - np.multiply.outer(x, k), 0)
        low = base ** (n - 2)
        return (low * base) @ c, (1 - n) * (low @ (c * k)), 2**-52 * ((low * base) @ abs(c))

    return tail


def _fisher_quantile(log_v: np.ndarray, n: int, x0: float) -> np.ndarray:
    """The ``g >= x0`` where ``_fisher_tail`` is ``exp(log_v)``: Newton's method on the near
    linear ``log(-log(P))`` from the sum's first term, to a step below 1e-8 of x (<= 8 steps)."""
    tail, target = _fisher_tail(n, x0), np.log(-log_v)
    x = -np.expm1((log_v - math.log(n)) / (n - 1))
    for _ in range(12):
        p, slope, _ = tail(x)
        step = (np.log(-np.log(p)) - target) * p * np.log(p) / slope
        x = np.maximum(x - step, x0)
        if np.all(np.abs(step) <= 1e-8 * x):
            break
    return x


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
    l_ra: int = PrachConfig.preamble_length,
) -> float:
    """A threshold factor whose noise-only false-alarm rate per occasion on
    these ``trials`` draws is at most ``target_far``: a bisection's upper end
    at 1 % relative tolerance, so up to 1 % above the smallest such factor
    (12.3025, exceeded by 48 of criterion 5's 50,000 draws, against 12.2521).

    The decision statistic is scale free, so calibration runs on unit-variance
    noise (``_noise_statistics``) and the result applies at any noise level.
    """
    if not 0 < target_far < 1:
        raise ValueError("target_far must be in (0, 1)")
    if trials < 10 / target_far:
        raise ValueError(
            f"insufficient trials: need at least {int(np.ceil(10 / target_far))} "
            f"for target_far {target_far}"
        )
    if l_ra < cfg.shift_step:
        raise ValueError(f"l_ra {l_ra} is below the detector's shift_step {cfg.shift_step}")
    if l_ra < 2:
        raise ValueError(f"l_ra {l_ra} is below 2: a floor needs a tap besides the peak")
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
