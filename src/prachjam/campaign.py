"""Interval-based measurement campaigns and their summary metrics.

A campaign is a series of independent intervals. In each interval the
jammer runs for the whole span while the UE appears after a lead delay,
retries a preamble every 100 ms until a random-access procedure succeeds,
and disappears before the jammer stops. Occasions are simulated as their
averaged PRACH bins (``channel.bin_channel``). An unanswered UE sends on a
fixed schedule (``ue_step`` stepped with no RAR), so the campaign draws
the signatures of all its transmissions at once and judges them in
batches with no transform, on the tap powers of their delay profiles:
white bins times the constant-modulus ZC reference stay white, with the
same variance, so each tap is its mean plus complex normal noise: an
exponential power, and a uniform phase that is drawn with it only on the
few taps where the mean is not zero. The first transmission, the one
that decides when the UE is heard at once, is drawn as a complex row
instead. An interval reads one random stream. Its transmissions are judged
first, each on its own run of the stream, in two blocks: the first alone,
then the other K - 1 at once, which a record run judges only when the
first is missed and a logged run always.

A record run then computes its record in closed form. Msg2 to Msg4 are
delivered reliably and the single UE wins its contention, so it connects
at the first transmission detected, or sends all K unheard. Only that
deciding transmission is rebuilt as a complex profile (its other phases
read on from the stream) that ``detect_preambles`` judges as it is and
must agree with the batch verdict. A logged run (``detection_log`` or
``event_trace``) steps every occasion through the RA machines instead,
rebuilding and checking each sent transmission the same way.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict
from fractions import Fraction
from typing import Any, NamedTuple

import numpy as np

from .channel import ChannelConfig, bin_channel, superpose
from .detector import (
    DelayProfile, DetectorConfig, delay_profile, detect_preambles, signatures_detected,
)
from .errors import ConfigError, SimulationError
from .jammer import JammerConfig, bin_moments, generate_jamming_frame
from .prach import (
    SUBCARRIERS_PER_PRB,
    CellConfig,
    PrachConfig,
    PrachOccasion,
    PRESETS,
    check_slot,
    jammer_resource_budget,
    load_record,
    occasion_time_ms,
    occasions_between,
    occasions_in_frame,
    occupancy_factors,
)
from .rafsm import (
    GnbRaContext,
    Msg3,
    PreambleTx,
    UeState,
    gnb_step,
    make_ue,
    ue_step,
)
from .waveform import cp_length, demap_prach, preamble_bins
from .zc import cyclic_shift, generate_zc

# demap_prach, generate_jamming_frame, occasion_time_ms, occasions_in_frame and
# superpose are unused here but kept importable: perfbench/run.py uses these names
# (tests/test_campaign.py::test_benchmark_names_stay_in_campaign).

__all__ = [
    "CampaignConfig",
    "IntervalRecord",
    "MetricsSummary",
    "Logs",
    "interval_seed",
    "run_interval",
    "run_campaign",
    "compute_metrics",
    "load_campaign_config",
    "build_summary_payload",
    "record_to_dict",
    "record_from_dict",
]

SCHEMA_VERSION = 1

SEEDING_RULE = (
    "v8: interval_seed(i) = uint64(little-endian) of blake2b(digest_size=8, "
    "data=pack('<QQ', base_seed, i)); interval stream = numpy.random.default_rng("
    "interval_seed(i)), drawing the validity flag (random()), then the signatures "
    "of all K scheduled preambles (integers(n_signatures, size=K)), then per "
    "preamble in transmit order the noise of its delay profile ifft(bins * conj(fft("
    "zc(root)))) against its own root, whose L taps are mu[n] plus white noise with "
    "the variance of the bins, mu the UE's mean profile with its taps below 1e-12 of "
    "its peak set to 0: for the first preamble, and for every preamble if one of the "
    "UE's mean profiles has nonzero taps on L/2 of its taps or more, 2*L standard "
    "normals, the interleaved (re, im) parts of the noise; for each other one L + w "
    "uniforms u (random()), L for E = -log(1 - u), then w phase fractions F for its "
    "nonzero taps of mu in tap order, padded with its first zero taps to w, the most "
    "of any mean profile, tap n being mu[n] + sqrt(2 * std**2 * E[n]) * exp(1j * ("
    "angle(mu[n]) + 2 * pi * F[n])), std the deviation per part of the jammer and "
    "noise; the kernel judges the tap powers, and a stepped preamble is judged on "
    "its complex profile (other roots on its bins fft(profile) / conj(fft(zc(root)))"
    "); a logged run draws all K preambles, then reads on in occasion order: "
    "random(L) for F at the other taps of each stepped polar preamble, and 2*L "
    "standard normals for each occasion without a preamble; a record depends on "
    "no draw after the first preamble detected"
)


@dataclass(frozen=True)
class CampaignConfig:
    n_intervals: int
    interval_duration: float  # seconds of UE activity per interval
    spectrum: JammerConfig
    channel: ChannelConfig
    detector: DetectorConfig
    prach: PrachConfig
    cell: CellConfig
    base_seed: int
    jammer_lead: float = 10.0
    jammer_lag: float = 10.0
    ue_startup_delay: float = 0.5
    invalid_probability: float = 0.0
    detection_log: bool = False
    event_trace: bool = False

    def __post_init__(self) -> None:
        if self.n_intervals < 1:
            raise ConfigError("n_intervals must be ≥ 1")
        if not 0 < self.interval_duration < math.inf:  # false for NaN too
            raise ConfigError(
                f"interval_duration must be > 0 and finite, got {self.interval_duration}"
            )
        for name in ("jammer_lead", "jammer_lag", "ue_startup_delay"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be >= 0 and finite, got {getattr(self, name)}")
        if not 0 <= self.invalid_probability <= 1:
            raise ConfigError("invalid_probability must be in [0, 1]")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError(f"base_seed must be in [0, 2**64), got {self.base_seed}")
        if self.channel.ue_delay_samples >= cp_length(self.cell):
            raise ConfigError(
                "ue_delay_samples must be smaller than the cyclic prefix "
                f"({cp_length(self.cell)} samples)"
            )
        check_slot(self.prach, self.cell)
        top = self.prach.freq_offset + self.prach.freq_occasions * self.prach.prach_prbs
        if top > self.cell.n_prb:
            raise ConfigError(f"prach.freq_offset + prach.freq_occasions * 12 = {top} PRBs "
                              f"lie outside the carrier's cell.n_prb {self.cell.n_prb}")
        length, roots = self.prach.preamble_length, self.detector.roots
        if len(set(roots)) < len(roots) or any(
            not 1 <= r < length or math.gcd(r, length) != 1 for r in roots
        ):
            raise ConfigError(
                f"detector.roots must be distinct roots in [1, {length}) coprime "
                f"with the preamble length {length}, got {list(roots)}"
            )
        if self.detector.shift_step > length:
            raise ConfigError(
                f"detector.shift_step must be at most the preamble length {length}"
            )
        # The bins hold the UE (the unit), the jammer and the noise. A tap is at
        # most sqrt(L) times its bins' amplitude, twice that with the noise's
        # tail; the detector sums L tap powers and scales their floor by its factor.
        levels = {
            f"spectrum.snr_db {self.spectrum.snr_db:g}": self.spectrum.amplitude,
            f"channel.noise_sigma {self.channel.noise_sigma:g}": self.channel.noise_sigma,
        }
        bound = 2 * length * (1 + sum(levels.values()))
        if not math.isfinite(bound * bound):
            raise ConfigError(
                f"{max(levels, key=levels.get)} overflows the sum of {length} tap powers"
            )
        if not math.isfinite(self.detector.threshold_factor * bound * bound):
            raise ConfigError(f"detector.threshold_factor {self.detector.threshold_factor:g} "
                              f"overflows the detector's limit on {length} tap powers")


@dataclass(frozen=True)
class IntervalRecord:
    """Outcome of one campaign interval."""

    index: int
    valid: bool
    preambles_sent: int
    preambles_detected: int
    ra_succeeded: bool
    time_to_success: float | None
    seed: int


@dataclass(frozen=True)
class MetricsSummary:
    """Aggregated campaign metrics (ratios kept as exact rationals).

    ``n_ra_s``/``n_ra_u`` count valid intervals with/without a successful
    random access, ``n_e`` the invalid intervals, ``n_p_j`` the preambles
    sent but never detected over all valid intervals. ``e_s`` is the
    success ratio over valid intervals, ``e_p_j`` the per-preamble
    survival ratio, and the mean counters average preambles per valid
    interval (``mean_preambles_per_interval`` from the jammed+received
    sum). That sum is also the number of preambles sent: a UE connects at
    its first preamble detected, so a record's detected count is
    ``int(ra_succeeded)`` (``record_from_dict`` refuses any other).
    """

    n_intervals: int
    n_ra_s: int
    n_ra_u: int
    n_e: int
    n_p_j: int
    mean_preambles_per_interval: Fraction
    e_p_j: Fraction | None
    e_s: Fraction


class Logs(NamedTuple):
    """The ``detections.jsonl`` and ``events.jsonl`` lines of a run, in
    occasion order; a list stays empty unless its config flag is set."""

    detections: list[dict[str, Any]]
    events: list[dict[str, Any]]


def detection_entry(interval: int, occ: PrachOccasion, result, transmitted) -> dict[str, Any]:
    """The ``detections.jsonl`` line of ``result``; ``transmitted`` is the
    UE's (root, window) if it sent."""
    return {
        "interval": interval,
        "sfn": occ.sfn,
        "slot": occ.slot,
        "occasion_index": occ.occasion_index,
        "transmitted_signature": transmitted,
        "detections": [[d.root, d.signature, d.metric] for d in result.detected],
        "noise_floor": result.noise_floor,
    }


def interval_seed(base_seed: int, index: int) -> int:
    """Documented per-interval seed derivation (see ``SEEDING_RULE``)."""
    data = struct.pack("<QQ", base_seed, index)
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


# Both caches are keyed on the inputs they depend on, never on a seed.
@functools.lru_cache(maxsize=16)
def _schedule(prach: PrachConfig, cell: CellConfig, first_ms: float, off_ms: float):
    """The ``(instant, occasion)`` pairs at which a UE that never receives a
    RAR sends a preamble (what it offers to send does not matter here)."""
    ue, sends = make_ue(0, first_ms), []
    offer = PreambleTx(signature=(0, 0), occasion_key=(0, 0, 0))
    for t, occ in occasions_between(prach, cell, first_ms, off_ms):
        if ue_step(ue, t, [], offer) is not None:
            sends.append((t, occ))
    return tuple(sends)


def _ue_instants(cfg: CampaignConfig) -> tuple[float, float, float]:
    """When the UE turns on, first tries to send and turns off, in ms of an interval."""
    ue_on = cfg.jammer_lead * 1000.0
    return ue_on, ue_on + cfg.ue_startup_delay * 1000.0, ue_on + cfg.interval_duration * 1000.0


def _ue_sends(cfg: CampaignConfig):
    """``_ue_instants`` and the UE's ``_schedule``. A UE that never sends
    would be tallied as a jammed interval, so that is a config error."""
    ue_on, first_ms, ue_off = _ue_instants(cfg)
    sends = _schedule(cfg.prach, cfg.cell, first_ms, ue_off)
    if not sends:
        raise ConfigError(
            f"the UE never sends a preamble: no PRACH occasion from its first attempt "
            f"at {first_ms:g} ms to its switch-off at {ue_off:g} ms"
        )
    return ue_on, first_ms, ue_off, sends


# Mean-profile taps below this fraction of their row's peak are FFT round-off
# (a preamble's own shift is a single tap) and become exactly zero.
_ROUND_OFF = 1e-12


class _Means(NamedTuple):
    """The mean delay profile of each of the UE's preambles against its own
    root, ``ifft(ue_mean[n] * ref(root_n))``, with its round-off taps
    (``_ROUND_OFF``) set to zero, in the forms the kernel reads."""

    profile: np.ndarray  # (n, L) complex
    magnitude: np.ndarray  # (n, L) abs(profile)
    phase: np.ndarray  # (n, L) angle(profile), 0 where the profile is
    # (n, width) the nonzero taps of each row, padded with its first zero
    # taps; None when some row has nonzero taps on half its length or more
    taps: np.ndarray | None


@functools.lru_cache(maxsize=16)
def _bins(prach, cell, spectrum, channel, det):
    """The UE's signatures (as a tuple and an array), the bin-domain
    channel of its occasions and the mean delay profiles of its preambles
    (``_Means``)."""
    length = prach.preamble_length
    signatures = tuple((r, s) for r in det.roots for s in range(length // det.shift_step))
    preambles = np.array([
        preamble_bins(cyclic_shift(generate_zc(root, length), s * det.shift_step), 1.0)
        for root, s in signatures
    ])
    jam = bin_moments(spectrum)
    first = prach.freq_offset * SUBCARRIERS_PER_PRB
    chan = bin_channel(preambles, *jam, channel, first, cell.dft_size)
    sig_array = np.array(signatures)
    profiles = np.array([delay_profile(m, r) for m, (r, _) in zip(chan.ue_mean, signatures)])
    magnitude = np.abs(profiles)
    round_off = magnitude < _ROUND_OFF * magnitude.max(axis=-1, keepdims=True)
    profiles[round_off] = magnitude[round_off] = 0.0
    width = int(np.count_nonzero(profiles, axis=-1).max())
    # Polar draws pay only where the nonzero taps are few (see _judged). A
    # stable sort puts each row's nonzero taps first, in order.
    if 2 * width < length:
        taps = np.argsort(profiles == 0, axis=-1, kind="stable")[:, :width]
    else:
        taps = None
    means = _Means(profiles, magnitude, np.angle(profiles), taps)
    for shared in (chan.ue_mean, sig_array, *means):  # every later caller gets these
        if shared is not None:
            shared.setflags(write=False)
    return signatures, sig_array, chan, means


def _judged(chan, means, sig_array, det_cfg, rng, idx, polar=True):
    """One block of transmissions of the signatures ``idx``: ``(profile_of,
    hits)``, ``profile_of(j, rng)`` the complex delay profile of row ``j``
    (see ``_polar_powers`` for ``rng``) and ``hits`` whether each row's own
    signature is detected.

    Rows are drawn in polar form (``_polar_powers``) and judged on their
    tap powers, but drawn as complex rows (``chan.draw``) where ``polar`` is
    false, and where a mean profile has nonzero taps on half its length or
    more (``means.taps`` is None): each of those taps needs its phase, and
    a cosine costs more than a normal pair there.
    """
    if polar and means.taps is not None:
        power, profile_of = _polar_powers(chan.std, means, rng, idx)
    else:
        rows = chan.draw(rng, means.profile[idx], len(idx))
        power, profile_of = np.abs(rows) ** 2, lambda j, rng: rows[j]
    return profile_of, signatures_detected(power, sig_array[idx, 1], det_cfg)


def _polar_powers(std, means, rng, idx):
    """The tap powers ``(rows, L)`` of transmissions of the signatures
    ``idx``, and the function ``profile_of(j, rng)`` giving row ``j``'s
    complex delay profile.

    A tap's noise is complex normal with standard deviation ``std`` per
    part, drawn in polar form: power ``P = 2 * std**2 * E`` with
    ``E = -log(1 - u)`` standard exponential, and a uniform phase
    ``2 * pi * F`` measured from the mean's. The tap's power is then
    ``P + |mu| * (|mu| + 2 * sqrt(P) * cos(2 * pi * F))``, which is ``P``
    where the mean ``mu`` is zero: a row reads L + w uniforms, ``E`` and
    then ``F`` at its w taps ``means.taps[i]``. Only a rebuilt row draws its
    other ``F``, as ``rng.random(L)``.
    """
    length, cols = means.profile.shape[-1], means.taps[idx]
    draws = rng.random((len(idx), length + cols.shape[-1]))
    turns = draws[:, length:].copy()
    # Transformed whole, the contiguous draw is faster than its E columns.
    np.subtract(1.0, draws, out=draws)
    np.log(draws, out=draws)
    draws *= -2 * std**2
    power = draws[:, :length]
    at, mean = (np.arange(len(idx))[:, None], cols), means.magnitude[idx[:, None], cols]
    tap = power[at]
    power[at] = tap + mean * (mean + 2 * np.sqrt(tap) * np.cos(2 * np.pi * turns))

    def profile_of(j, rng):
        i, noise, turn = idx[j], power[j].copy(), rng.random(length)
        noise[cols[j]], turn[cols[j]] = tap[j], turns[j]
        phase = means.phase[i] + 2 * np.pi * turn
        return means.profile[i] + np.sqrt(noise) * np.exp(1j * phase)

    return power, profile_of


def run_interval(cfg: CampaignConfig, index: int) -> tuple[IntervalRecord, Logs]:
    """Simulate interval ``index``: its record and its log lines.

    The jammer (when enabled) transmits in every occasion of every PRACH
    slot from t=0 until lead + duration + lag; the UE is active from
    t=lead until lead + duration and sends its first preamble after the
    configured startup delay. ``time_to_success`` is measured from the UE
    start. A logged run simulates every occasion of that span, whether the
    jammer is enabled or not; its record equals the one without logs (see
    ``SEEDING_RULE``).
    """
    ue_on, first_ms, ue_off, sends = _ue_sends(cfg)
    seed = interval_seed(cfg.base_seed, index)
    rng = np.random.default_rng(seed)
    valid = bool(rng.random() >= cfg.invalid_probability)
    signatures, sig_array, chan, means = _bins(
        cfg.prach, cfg.cell, cfg.spectrum, cfg.channel, cfg.detector
    )
    sig_idx = rng.integers(len(signatures), size=len(sends))
    logged, logs = cfg.detection_log or cfg.event_trace, Logs([], [])
    # Judge first, in two blocks: the first send alone, as the complex row
    # that is checked when the UE is heard at once, then the other K - 1,
    # which a record run needs only when the first is missed.
    first_of, hits = _judged(chan, means, sig_array, cfg.detector, rng, sig_idx[:1], polar=False)
    profiles_of = [first_of]
    if logged or not hits[0]:
        rest_of, rest = _judged(chan, means, sig_array, cfg.detector, rng, sig_idx[1:])
        profiles_of, hits = [first_of, rest_of], np.concatenate([hits, rest])

    def checked(n: int, occ: PrachOccasion):
        """The detector's result on send ``n``'s complex profile, rebuilt (its
        other phases read on from the stream), which must agree with the
        kernel's verdict ``hits[n]``."""
        signature = signatures[sig_idx[n]]
        row = DelayProfile(signature[0], profiles_of[n > 0](max(n - 1, 0), rng))
        result = detect_preambles(row, cfg.detector, occasion=occ)
        if result.reports(signature) != hits[n]:
            raise SimulationError(
                f"interval {index}: kernel and detector disagree on preamble {n}"
            )
        return result

    if not logged:
        # The record in closed form: the UE connects at the first send
        # detected (Msg2 to Msg4 are reliable, and it wins its contention),
        # or sends all K unheard. Only that send is checked.
        k = int(hits.argmax()) if hits.any() else len(hits) - 1
        t, occ = sends[k]
        checked(k, occ)
        hit = bool(hits[k])
        return IntervalRecord(index, valid, k + 1, int(hit), hit,
                              (t - ue_on) / 1000.0 if hit else None, seed), logs

    def log_event(t: float, ue) -> None:
        if cfg.event_trace:
            logs.events.append({"interval": index, "time_ms": t,
                                "entity": f"ue{ue.unique_id}", "transition": ue.state.value})

    ue, ctx = make_ue(index + 1, first_ms), GnbRaContext()
    detected = 0
    success_ms: float | None = None
    for t, occ in occasions_between(cfg.prach, cfg.cell, 0.0, ue_off + cfg.jammer_lag * 1000.0):
        active, tx = ue_on <= t < ue_off and ue.state is not UeState.CONNECTED, None
        if active:
            n, prev_state = ue.preambles_sent, ue.state
            key = (occ.sfn, occ.slot, occ.occasion_index)
            offer = PreambleTx(signatures[sig_idx[n]], key) if n < len(sends) else None
            tx = ue_step(ue, t, [], offer)
            if ue.state is not prev_state:
                log_event(t, ue)
        if tx is not None:
            result = checked(n, occ)
            detected += int(hits[n])
        else:
            result = detect_preambles(chan.draw(rng, chan.idle_mean, 1)[0], cfg.detector,
                                      occasion=occ)
        if cfg.detection_log:
            transmitted = None if tx is None else tx.signature
            logs.detections.append(detection_entry(index, occ, result, transmitted))
        rars = gnb_step(ctx, result, [])
        msg3 = ue_step(ue, t, rars) if active and rars else None
        if isinstance(msg3, Msg3):
            log_event(t, ue)
            ue_step(ue, t, gnb_step(ctx, None, [msg3]))
            log_event(t, ue)
            if ue.state is UeState.CONNECTED:
                success_ms = t

    return IntervalRecord(
        index=index,
        valid=valid,
        preambles_sent=ue.preambles_sent,
        preambles_detected=detected,
        ra_succeeded=success_ms is not None,
        time_to_success=None if success_ms is None else (success_ms - ue_on) / 1000.0,
        seed=seed,
    ), logs


def run_campaign(cfg: CampaignConfig, threads: int = 1) -> tuple[list[IntervalRecord], Logs]:
    """Run all intervals: their records and their log lines, in interval order.

    Intervals are independent, each reading only its own stream, so they
    may run in parallel, logged or not. ``compute_metrics`` aggregates the
    records.
    """
    if threads < 0:
        raise ConfigError(f"threads must be >= 0, got {threads}")
    _ue_sends(cfg)
    indices = range(cfg.n_intervals)
    if threads == 0:
        # The CPUs this process may run on (taskset, cpusets), not the host's.
        if hasattr(os, "sched_getaffinity"):
            threads = len(os.sched_getaffinity(0))
        else:
            threads = os.cpu_count() or 1
    if threads > 1:
        # An interval can take under a millisecond: hand each worker a few
        # large chunks rather than one interval per round trip.
        chunksize = max(1, len(indices) // (4 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(
                    run_interval,
                    itertools.repeat(cfg, len(indices)),
                    indices,
                    chunksize=chunksize,
                )
            )
    else:
        results = [run_interval(cfg, i) for i in indices]
    logs = Logs([], [])
    for _, (detections, events) in results:
        logs.detections.extend(detections)
        logs.events.extend(events)
    return [record for record, _ in results], logs


def compute_metrics(records: list[IntervalRecord]) -> MetricsSummary:
    """Exact-rational evaluation of the campaign metrics from the tallies."""
    if not records:
        raise ValueError("cannot compute metrics from an empty record list")
    n_intervals = len(records)
    valid = [r for r in records if r.valid]
    n_e = n_intervals - len(valid)
    if not valid:
        raise SimulationError("all intervals invalid; metrics are undefined")
    n_ra_s = sum(1 for r in valid if r.ra_succeeded)
    n_ra_u = len(valid) - n_ra_s
    n_p_j = sum(r.preambles_sent - r.preambles_detected for r in valid)
    denom = n_p_j + n_ra_s
    return MetricsSummary(
        n_intervals=n_intervals,
        n_ra_s=n_ra_s,
        n_ra_u=n_ra_u,
        n_e=n_e,
        n_p_j=n_p_j,
        mean_preambles_per_interval=Fraction(denom, len(valid)),
        e_p_j=Fraction(n_ra_s, denom) if denom > 0 else None,
        e_s=Fraction(n_ra_s, len(valid)),
    )


# --- JSON representations -----------------------------------------------------

def record_to_dict(record: IntervalRecord) -> dict[str, Any]:
    return asdict(record)


def record_from_dict(data: dict[str, Any]) -> IntervalRecord:
    """Read a record, which must also be consistent with itself."""
    r = load_record(IntervalRecord, data, "record")
    if r.preambles_sent < 1:
        # A campaign whose UE has no PRACH occasion is refused before it runs.
        raise ConfigError(f"record.preambles_sent {r.preambles_sent} is below 1")
    if not 0 <= r.preambles_detected <= r.preambles_sent:
        raise ConfigError(
            f"record.preambles_detected {r.preambles_detected} is not in "
            f"[0, preambles_sent {r.preambles_sent}]"
        )
    if r.ra_succeeded != (r.time_to_success is not None):
        raise ConfigError(
            f"record.ra_succeeded {r.ra_succeeded} does not match time_to_success "
            f"{r.time_to_success}"
        )
    if r.ra_succeeded and r.preambles_detected == 0:
        raise ConfigError("record.ra_succeeded is true but no preamble was detected")
    if r.time_to_success is not None and r.time_to_success < 0:
        raise ConfigError(f"record.time_to_success {r.time_to_success} is negative")
    if r.preambles_detected != int(r.ra_succeeded):
        # The UE connects at its first preamble detected and sends no more.
        raise ConfigError(
            f"record.preambles_detected {r.preambles_detected} is not "
            f"{int(r.ra_succeeded)}, with ra_succeeded {r.ra_succeeded}"
        )
    return r


def build_summary_payload(
    cfg: CampaignConfig, metrics: MetricsSummary
) -> dict[str, Any]:
    """The summary document written next to the records (minus timestamp)."""
    def frac(f: Fraction | None):
        return None if f is None else f"{f.numerator}/{f.denominator}"

    return {
        "schema_version": SCHEMA_VERSION,
        "seeding": SEEDING_RULE,
        "base_seed": cfg.base_seed,
        "n_intervals": metrics.n_intervals,
        "metrics": {
            "n_ra_s": metrics.n_ra_s,
            "n_ra_u": metrics.n_ra_u,
            "n_e": metrics.n_e,
            "n_p_j": metrics.n_p_j,
            "mean_preambles_per_interval": float(metrics.mean_preambles_per_interval),
            "mean_preambles_per_interval_exact": frac(
                metrics.mean_preambles_per_interval
            ),
            "e_p_j": None if metrics.e_p_j is None else float(metrics.e_p_j),
            "e_p_j_ppm": (
                None if metrics.e_p_j is None else float(metrics.e_p_j * 1_000_000)
            ),
            "e_p_j_exact": frac(metrics.e_p_j),
            "e_s": float(metrics.e_s),
            "e_s_exact": frac(metrics.e_s),
        },
        "occupancy": occupancy_factors(cfg.prach, cfg.cell),
        "jammer_budget": jammer_resource_budget(cfg.prach, cfg.cell),
        # Its fields and its format-A2 constants.
        "prach": {name: getattr(cfg.prach, name) for name in PrachConfig.__annotations__},
        "cell": {**asdict(cfg.cell), "sample_rate": cfg.cell.sample_rate,
                 "cp_samples": cp_length(cfg.cell)},
        "spectrum": asdict(cfg.spectrum),
        "channel": asdict(cfg.channel),
        "detector": asdict(cfg.detector),
        "campaign": {
            "interval_duration": cfg.interval_duration,
            "jammer_lead": cfg.jammer_lead,
            "jammer_lag": cfg.jammer_lag,
            "ue_startup_delay": cfg.ue_startup_delay,
            "invalid_probability": cfg.invalid_probability,
        },
    }


# --- Campaign JSON loading ----------------------------------------------------

def load_campaign_config(data: dict[str, Any]) -> CampaignConfig:
    """Build a CampaignConfig from a parsed JSON document.

    Every section is read by ``load_record``: unknown fields are rejected
    and each value must have the JSON type of its field. Cell and PRACH
    parameters come either from a named ``preset`` or from explicit
    ``prach``/``cell`` sections, not both.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"campaign must be a JSON object, got {data!r}")
    top = dict(data)
    version = top.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}")

    if "preset" in top:
        if "prach" in top or "cell" in top:
            raise ConfigError("preset and explicit prach/cell sections are exclusive")
        preset = top.pop("preset")
        if type(preset) is not str or preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (available: {sorted(PRESETS)})")
        prach_cfg, cell = PRESETS[preset]
    elif "prach" in top and "cell" in top:
        prach_cfg = load_record(PrachConfig, top.pop("prach"), "prach")
        cell = load_record(CellConfig, top.pop("cell"), "cell")
    else:
        raise ConfigError("either a preset or prach and cell sections are required")

    spectrum = load_record(JammerConfig, top.pop("spectrum", {}), "spectrum")
    channel = load_record(ChannelConfig, top.pop("channel", {}), "channel")
    detector = load_record(DetectorConfig, top.pop("detector", {}), "detector")
    return load_record(
        CampaignConfig, top, "campaign", spectrum=spectrum, channel=channel,
        detector=detector, prach=prach_cfg, cell=cell,
    )
