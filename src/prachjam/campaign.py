"""Interval-based measurement campaigns and their summary metrics.

A campaign is a series of independent intervals. In each interval the
jammer runs for the whole span while the UE appears after a lead delay,
retries a preamble every 100 ms until a random-access procedure succeeds,
and disappears before the jammer stops. Occasions are simulated as their
averaged PRACH bins (``channel.bin_channel``). An unanswered UE sends on
a fixed schedule (``ue_step`` stepped with no RAR), so the campaign knows
its K transmissions up front. An interval reads one random stream in the
order README's statement of the seeding rule gives, which ``judge_sends``
alone holds here. The detector judges the first send, which decides when
the UE is heard at once, on its complex delay profile. The kernel judges
the other K - 1 at once on their tap powers, which a record run needs only
when the first is missed and a logged run always.

Every run then computes its record in closed form. Msg2 to Msg4 are
delivered reliably and the single UE wins its contention, so it connects
at the first transmission detected, or sends all K unheard. A record run
rebuilds a later deciding transmission as a complex profile (the rest of
it read on from the stream) that ``detect_preambles`` judges as it is
and must agree with the kernel's verdict. A logged run (``detection_log``
or ``event_trace``) also steps every occasion through the RA machines,
rebuilding and checking each later transmission the same way, and its UE
must reach the closed-form record: as many preambles sent, and connected
at the same instant or not at all.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import struct
from dataclasses import dataclass, asdict
from fractions import Fraction
from typing import Any, NamedTuple

import numpy as np

from .channel import BinChannel, ChannelConfig, bin_channel, superpose
from .detector import (
    DelayProfile, DetectorConfig, _decide, _fisher_quantile, _fisher_tail, _window_indices,
    delay_profile, detect_preambles, window_detected,
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
    "check_record",
]

SCHEMA_VERSION = 1

# The tag of the seeding rule, recorded in summary.json. README states the
# rule: the interval seeds, their stream and the order of its draws.
SEEDING_RULE = "v12"


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
        # The bins hold the UE (the unit), the jammer and the noise. A tap is at
        # most sqrt(L) times its bins' amplitude, twice that with the noise's
        # tail; the detector sums L tap powers and scales their floor by its factor.
        levels = {
            f"spectrum.snr_db {self.spectrum.snr_db:g}": self.spectrum.amplitude,
            f"channel.noise_sigma {self.channel.noise_sigma:g}": self.channel.noise_sigma,
        }
        length = self.prach.preamble_length
        bound, top = 2 * length * (1 + sum(levels.values())), max(levels, key=levels.get)
        if not math.isfinite(bound * bound):
            raise ConfigError(f"{top} overflows the sum of {length} tap powers")
        if not math.isfinite(self.detector.threshold_factor * bound * bound):
            raise ConfigError(f"{top} with detector.threshold_factor "
                              f"{self.detector.threshold_factor:g} overflows the "
                              f"detector's limit on {length} tap powers")


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
    survival ratio, and ``mean_preambles_per_interval`` averages the
    jammed+received sum over valid intervals. That sum is also the number
    of preambles sent: a UE connects at its first preamble detected, so a
    record's detected count is ``int(ra_succeeded)`` (``check_record``
    refuses any other).
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
    """The seed of interval ``index``, as README's seeding rule derives it."""
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


def _ue_sends(cfg: CampaignConfig):
    """When the UE turns on, first tries to send and turns off, in ms of an
    interval, and its ``_schedule``. A UE that never sends would be tallied
    as a jammed interval, so that is a config error."""
    ue_on = cfg.jammer_lead * 1000.0
    first_ms = ue_on + cfg.ue_startup_delay * 1000.0
    ue_off = ue_on + cfg.interval_duration * 1000.0
    sends = _schedule(cfg.prach, cfg.cell, first_ms, ue_off)
    if not sends:
        raise ConfigError(
            f"the UE never sends a preamble: no PRACH occasion from its first attempt "
            f"at {first_ms:g} ms to its switch-off at {ue_off:g} ms"
        )
    return ue_on, first_ms, ue_off, sends


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """PCG64's 256 seed bits: an interval seed's blake2b digest as 4 little-endian words."""

    def __init__(self, seed: int):
        digest = hashlib.blake2b(struct.pack("<Q", seed), digest_size=32).digest()
        self.words = np.array(struct.unpack("<4Q", digest), dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"seed words are 4 of numpy.uint64, not {n_words} of {dtype}")
        return self.words


def _stream(cfg: CampaignConfig, index: int):
    """Interval ``index``'s seed, stream and validity flag (its first read)."""
    seed = interval_seed(cfg.base_seed, index)
    rng = np.random.Generator(np.random.PCG64(_SeedWords(seed)))
    return seed, rng, bool(rng.random() >= cfg.invalid_probability)


def _closed_form(index, k, hit, seed, valid, ue_on, sends) -> IntervalRecord:
    """Interval ``index``'s record if send ``k`` is its first heard (Msg2 to
    Msg4 are reliable and the UE wins its contention) or, unheard, its last."""
    time = (sends[k][0] - ue_on) / 1000.0 if hit else None
    return IntervalRecord(index, valid, k + 1, int(hit), hit, time, seed)


# Mean-profile taps below this fraction of their row's peak are FFT round-off
# (a preamble's own shift is a single tap) and become exactly zero.
_ROUND_OFF = 1e-12


class _Channel(NamedTuple):
    """The UE's occasions for ``detector`` (``_bins``): its signatures, their
    bins' draw and, in the forms the kernel reads, each preamble's mean delay profile
    ``ifft(ue_mean[n] * ref(root_n))`` against its own root, round-off taps zeroed."""

    signatures: tuple[tuple[int, int], ...]  # (root, window) of preamble n
    sig_array: np.ndarray  # (n, 2) the same
    bins: BinChannel
    detector: DetectorConfig
    profile: np.ndarray  # (n, L) complex
    phase: np.ndarray  # (n, L) angle(profile), 0 where the profile is
    # None unless each row's w nonzero taps lie in its window: its taps (n, L), the
    # nonzero ones first, each part in tap order, abs(profile) there (n, w); w,
    # x0 = f / (f + L - 1) and log P(g > x0) for the other L - w taps.
    taps: np.ndarray | None
    own_magnitude: np.ndarray | None
    reduced: tuple[int, float, float] | None


@functools.lru_cache(maxsize=16)
def _bins(prach, cell, spectrum, channel, det):
    """The ``_Channel`` of the UE's occasions for the detector ``det``."""
    length, step = prach.preamble_length, det.shift_step
    signatures = tuple((r, s) for r in det.roots for s in range(length // step))
    preambles = np.array([
        preamble_bins(cyclic_shift(generate_zc(root, length), s * step), 1.0)
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
    nonzero = profiles != 0
    w, x0 = int(nonzero.sum(-1).max()), det.threshold_factor / (det.threshold_factor + length - 1)
    own = nonzero[np.arange(len(nonzero))[:, None], _window_indices(length, step)[sig_array[:, 1]]]
    # Rebuilds with g < x0 take 1 / P(g < x0) tries: keep P >= 1e-3, and known to 1e-6.
    taps = own_magnitude = reduced = None
    if (np.all(own.sum(-1) == w)  # so every row has its w nonzero taps in its window
            and (q := _fisher_tail(length - w, x0)(x0))[2] < 1e-6 * (1 - q[0]) and q[0] < 0.999):
        taps = np.argsort(~nonzero, axis=-1, kind="stable")
        reduced = (w, x0, math.log(q[0]) if q[0] else -math.inf)
        own_magnitude = np.take_along_axis(magnitude, taps[:, :w], axis=-1)
    phase = np.angle(profiles)
    for shared in (chan.ue_mean, sig_array, profiles, phase, taps, own_magnitude):
        if shared is not None:  # every later caller gets these
            shared.setflags(write=False)
    return _Channel(signatures, sig_array, chan, det, profiles, phase, taps, own_magnitude,
                    reduced)


def judge_sends(channel, rng, sig_idx, every, occasion=None):
    """Draw and judge an interval's sends from ``rng`` on ``channel`` (``_bins``)
    with its detector, in the order of README's seeding rule: ``(hits, first,
    profile_of, sig_idx)``. ``sig_idx`` holds the signatures of the K sends, or
    is K: then the first's is drawn before its row, and the K - 1 later ones
    only when they are judged. The detector judges the first send's complex row
    at ``occasion``, with result ``first``. When ``every`` is set or the first is
    missed, the kernel judges the other K - 1 at once, drawn reduced where
    ``channel.taps`` is set (``_noise_like``: ``_decide`` judges their whole tap
    powers only in Fisher's tail), else as complex rows that ``_decide`` judges in
    their own windows. ``hits``, a bool array, says whether
    each send judged is detected, ``sig_idx`` holds their signatures, and
    ``profile_of(n, rng)`` is send ``n``'s complex delay profile, rebuilt from ``rng``.
    """
    chan, det, n_sig = channel.bins, channel.detector, len(channel.signatures)
    s0 = rng.integers(n_sig) if isinstance(sig_idx, int) else sig_idx[0]
    own, row = channel.signatures[s0], chan.draw(rng, channel.profile[s0], 1)[0]
    first = detect_preambles(DelayProfile(own[0], row), det, occasion=occasion)
    hit = first.reports(own)
    if hit and not every:
        return np.array([hit]), first, lambda n, rng: row, (s0,)
    if isinstance(sig_idx, int):
        sig_idx = np.concatenate(([s0], rng.integers(n_sig, size=sig_idx - 1)))
    later = sig_idx[1:]
    if channel.taps is not None:
        later_hits, later_of = _noise_like(channel, rng, later)
    else:
        rows = chan.draw(rng, channel.profile[later], len(later))
        decided, later_of = _decide(np.abs(rows) ** 2, det)[2], lambda j, rng: rows[j]
        later_hits = decided[np.arange(len(later)), channel.sig_array[later, 1]]
    hits = np.concatenate(([hit], later_hits))
    return hits, first, lambda n, rng: later_of(n - 1, rng) if n else row, sig_idx


def _noise_like(channel, rng, idx):
    """The verdicts of sends of the signatures ``idx``, and ``profile_of(j, rng)``
    rebuilding send ``j``'s profile. A send draws its w mean taps in polar form:
    power ``P = theta * E``, ``theta = 2 * std**2``, at a uniform phase ``2 * pi *
    F`` from the mean's, so ``|tap|**2 = P + |mu| * (|mu| + 2 * sqrt(P) * cos(2 *
    pi * F))``. Its n = L - w other taps' power sum ``S`` is Gamma(n, theta),
    independent of their largest share, Fisher's g (Devroye 1986). A hit needs the
    profile's peak above x0 times its sum, so a g below x0 leaves the verdict to the
    mean taps and ``S``. So g is drawn, by inversion, only in its tail, and only
    there are the other taps drawn before the verdict, which ``_decide`` gives."""
    (w, x0, log_q0), m, (_, length) = channel.reduced, len(idx), channel.taps.shape
    det, n, theta = channel.detector, length - w, 2 * channel.bins.std**2
    # One row per quantity: reductions over a send's taps run along columns.
    draws = rng.random((2 * w + 1, m))
    logs, turns = draws[: w + 1], draws[w + 1 :]
    np.log(np.subtract(1.0, logs, out=logs), out=logs)
    tap, log_v = logs[:w], logs[w]
    tap *= -theta
    pool = rng.gamma(n, theta, m)
    mean = channel.own_magnitude[idx].T
    power = tap + mean * (mean + 2 * np.sqrt(tap) * np.cos(2 * np.pi * turns))
    hits = window_detected(power.T, pool, length, det)
    tail = np.flatnonzero(log_v <= log_q0)
    full = np.empty((len(tail), length))  # the tail's tap powers, judged whole
    if len(tail):
        g = _fisher_quantile(log_v[tail], n, x0).tolist()
        for row, j, g_j in zip(full, tail.tolist(), g):
            # g * S at integers(n) among the other taps, then the rest below it.
            order, top, spot = channel.taps[idx[j]], g_j * float(pool[j]), int(rng.integers(n))
            others = _pool(rng, n - 1, pool[j] - top, g_j / (1 - g_j))
            row[order[:w]], row[order[w:]] = power[:, j], np.insert(others, spot, top)
        hits[tail] = _decide(full, det)[2][np.arange(len(tail)), channel.sig_array[idx[tail], 1]]
    tail_row = dict(zip(tail.tolist(), full))

    def profile_of(j, rng):
        i, order, turn = idx[j], channel.taps[idx[j]], rng.random(length)
        turn[order[:w]] = turns[:, j]
        noise = np.empty(length)
        noise[order[w:]] = tail_row[j][order[w:]] if j in tail_row else _pool(rng, n, pool[j], x0)
        noise[order[:w]] = tap[:, j]
        return channel.profile[i] + np.sqrt(noise) * np.exp(
            1j * (channel.phase[i] + 2 * np.pi * turn))

    return hits, profile_of


def _pool(rng, count, total, share):
    """``count`` exponential tap powers summing to ``total``, drawn until their
    largest is below ``share`` times their sum."""
    while True:
        e = rng.random(count)
        np.negative(np.log(np.subtract(1.0, e, out=e), out=e), out=e)
        drawn = float(np.add.reduce(e))  # Python floats skip numpy's scalar dispatch
        if float(np.maximum.reduce(e)) < share * drawn:
            return e * (float(total) / drawn)


def run_interval(cfg: CampaignConfig, index: int) -> tuple[IntervalRecord, Logs]:
    """Simulate interval ``index``: its record and its log lines.

    The jammer (when enabled) transmits in every occasion of every PRACH
    slot from t=0 until lead + duration + lag; the UE is active from
    t=lead until lead + duration and sends its first preamble after the
    configured startup delay. ``time_to_success`` is measured from the UE
    start. ``judge_sends``, the one place that holds the stream's order,
    draws and judges the sends. A logged run simulates every occasion of
    that span, jammer enabled or not, and raises ``SimulationError`` unless
    its RA machines reach the closed-form record that both runs return.
    """
    ue_on, first_ms, ue_off, sends = _ue_sends(cfg)
    seed, rng, valid = _stream(cfg, index)
    channel = _bins(cfg.prach, cfg.cell, cfg.spectrum, cfg.channel, cfg.detector)
    signatures, chan, det = channel.signatures, channel.bins, channel.detector
    logged, logs = cfg.detection_log or cfg.event_trace, Logs([], [])
    hits, first, profile_of, sig_idx = judge_sends(channel, rng, len(sends), logged,
                                                   sends[0][1])

    def checked(n: int, occ: PrachOccasion):
        """The detector's result on send ``n``: the first's, or a later one's on
        its rebuilt complex profile, which must agree with the kernel's verdict."""
        if n == 0:
            return first
        signature = signatures[sig_idx[n]]
        row = DelayProfile(signature[0], profile_of(n, rng))
        result = detect_preambles(row, det, occasion=occ)
        if result.reports(signature) != hits[n]:
            raise SimulationError(f"interval {index}: kernel and detector disagree on "
                                  f"preamble {n}")
        return result

    k = int(hits.argmax())  # the first send heard, or 0 if none is
    heard = bool(hits[k])
    k = k if heard else len(hits) - 1
    t_k = sends[k][0] if heard else None
    record = _closed_form(index, k, heard, seed, valid, ue_on, sends)
    if not logged:
        checked(k, sends[k][1])  # only a later deciding send is rebuilt
        return record, logs

    def log_event(t: float, ue) -> None:
        if cfg.event_trace:
            logs.events.append({"interval": index, "time_ms": t,
                                "entity": f"ue{ue.unique_id}", "transition": ue.state.value})

    ue, ctx = make_ue(index + 1, first_ms), GnbRaContext()
    connected_ms: float | None = None
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
        else:
            result = detect_preambles(chan.draw(rng, chan.idle_mean, 1)[0], det, occasion=occ)
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
                connected_ms = t

    if (ue.preambles_sent, connected_ms) != (k + 1, t_k):
        raise SimulationError(
            f"interval {index}: the RA machines sent {ue.preambles_sent} preambles and "
            f"connected at {connected_ms} ms, the record {k + 1} and {t_k} ms"
        )
    return record, logs


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
    # A pool starts all its workers at the first submit: no more than there are intervals.
    threads = min(threads, len(indices))
    if threads > 1:
        # Imported here: a serial run loads no multiprocessing. An interval can take
        # under a millisecond: hand each worker a few large chunks, not one interval each.
        from concurrent.futures import ProcessPoolExecutor
        chunksize = max(1, len(indices) // (4 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_interval, itertools.repeat(cfg, len(indices)), indices,
                                    chunksize=chunksize))
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
    """Read a record: each field must have its JSON type. ``check_record``
    holds it to a config."""
    return load_record(IntervalRecord, data, "record")


def check_record(cfg: CampaignConfig, index: int, record: IntervalRecord) -> IntervalRecord:
    """``record`` if ``run_interval(cfg, index)`` writes it for its outcome
    (``ra_succeeded``, and a success's ``preambles_sent``; a failure sends
    all K), else a ``ConfigError`` naming the first field that differs. Only
    a re-run judges the outcome: a success at send K edited to K unheard passes.
    """
    ue_on, _, _, sends = _ue_sends(cfg)
    k = record.preambles_sent - 1 if record.ra_succeeded else len(sends) - 1
    if not 0 <= k < len(sends):
        raise ConfigError(f"record.preambles_sent {record.preambles_sent} is not in "
                          f"[1, {len(sends)}], the UE's scheduled sends")
    seed, _, valid = _stream(cfg, index)
    expected = _closed_form(index, k, record.ra_succeeded, seed, valid, ue_on, sends)
    for name, value in asdict(expected).items():
        if getattr(record, name) != value:
            raise ConfigError(f"record.{name} {getattr(record, name)!r} is not {value!r}, "
                              f"interval {index}'s under this config")
    return record


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
    if type(version) is not int or version != SCHEMA_VERSION:
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
