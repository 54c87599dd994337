"""Interval-based measurement campaigns and their summary metrics.

A campaign is a series of independent intervals. In each interval the
jammer runs for the whole span while the UE appears after a lead delay,
retries a preamble every 100 ms until a random-access procedure succeeds,
and disappears before the jammer stops. Occasions are simulated as their
averaged PRACH bins (``channel.bin_channel``). An unanswered UE sends on a
fixed schedule (``ue_step`` stepped with no RAR), so the campaign draws
the signatures of all its transmissions at once, draws the transmissions
as delay profiles and judges them in batches with no transform (white
bins times the constant-modulus ZC reference stay white, with the same
variance). Every occasion that is simulated runs one loop body: the UE
steps, a sent row goes back to bins, ``detect_preambles`` must agree with
the batch verdict, and the RA machines answer. A record run steps only the
transmission that decides; a logged run steps every occasion.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace
from fractions import Fraction
from typing import Any

import numpy as np

from .channel import ChannelConfig, bin_channel, superpose
from .detector import (
    DetectorConfig, delay_profile, detect_preambles, profile_bins, signatures_detected,
)
from .errors import ConfigError, SimulationError
from .jammer import JammerConfig, amplitude_from_snr, bin_moments, generate_jamming_frame
from .prach import (
    SUBCARRIERS_PER_PRB,
    CellConfig,
    PrachConfig,
    PrachOccasion,
    PRESETS,
    jammer_resource_budget,
    load_cell_config,
    load_prach_config,
    load_record,
    occasion_time_ms,
    occasions_between,
    occasions_in_frame,
    occupancy_factors,
)
from .rafsm import (
    RETRY_PERIOD_MS,
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
    "LogCollector",
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
    "v4: interval_seed(i) = uint64(little-endian) of blake2b(digest_size=8, "
    "data=pack('<QQ', base_seed, i)); interval stream = numpy.random.default_rng("
    "interval_seed(i)), drawing the validity flag (random()), then the signatures "
    "of all K scheduled preambles (integers(n_signatures, size=K)), then per "
    "preamble in transmit order 2*L standard normals, the interleaved (re, im) "
    "parts of the jammer and noise in its delay profile ifft(bins * conj(fft(zc("
    "root)))) against its own root, whose L taps are white with the variance of "
    "the bins; the transmission that decides goes back to bins as fft(profile) / "
    "conj(fft(zc(root))); a logged run draws the bins of an occasion without a "
    "preamble from numpy.random.default_rng("
    "numpy.random.SeedSequence(interval_seed(i), spawn_key=(sfn, slot, "
    "occasion_index)))"
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
    preamble_amplitude: float = 1.0
    ue_startup_delay: float = 0.5
    invalid_probability: float = 0.0
    detection_log: bool = False
    event_trace: bool = False

    def __post_init__(self) -> None:
        if self.n_intervals < 1:
            raise ConfigError("n_intervals must be ≥ 1")
        if self.interval_duration <= 0:
            raise ConfigError("interval_duration must be positive")
        if self.jammer_lead < 0 or self.jammer_lag < 0:
            raise ConfigError("jammer_lead/jammer_lag must be >= 0")
        if self.preamble_amplitude < 0:
            raise ConfigError("preamble_amplitude must be >= 0")
        if self.ue_startup_delay < 0:
            raise ConfigError("ue_startup_delay must be >= 0")
        if not 0 <= self.invalid_probability <= 1:
            raise ConfigError("invalid_probability must be in [0, 1]")
        if self.channel.ue_delay_samples >= cp_length(self.cell):
            raise ConfigError(
                "ue_delay_samples must be smaller than the cyclic prefix "
                f"({cp_length(self.cell)} samples)"
            )
        if self.prach.preamble_length > self.cell.dft_size:
            raise ConfigError("preamble does not fit the cell's grid")


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
    sum, ``mean_preambles_sent_per_interval`` from the raw sent counts;
    they differ only when detected-but-unsuccessful preambles exist).
    """

    n_intervals: int
    n_ra_s: int
    n_ra_u: int
    n_e: int
    n_p_j: int
    mean_preambles_per_interval: Fraction
    mean_preambles_sent_per_interval: Fraction
    e_p_j: Fraction | None
    e_s: Fraction


class LogCollector:
    """Accumulates optional detection-log and event-trace JSON lines.

    Every entry names the interval it belongs to.
    """

    def __init__(self) -> None:
        self.detections: list[dict[str, Any]] = []
        self.events: list[dict[str, Any]] = []

    def detection(self, interval: int, occ: PrachOccasion, result, transmitted) -> None:
        """Log ``result``; ``transmitted`` is the UE's (root, window) if it sent."""
        self.detections.append(
            {
                "interval": interval,
                "sfn": occ.sfn,
                "occasion_index": occ.occasion_index,
                "transmitted_signature": transmitted,
                "detections": [
                    [d.root, d.signature, d.metric] for d in result.detected
                ],
                "noise_floor": result.noise_floor,
            }
        )

    def event(self, interval: int, time_ms: float, entity: str, transition: str) -> None:
        self.events.append(
            {
                "interval": interval,
                "time_ms": time_ms,
                "entity": entity,
                "transition": transition,
            }
        )


def interval_seed(base_seed: int, index: int) -> int:
    """Documented per-interval seed derivation (see ``SEEDING_RULE``)."""
    data = struct.pack("<QQ", base_seed & 0xFFFFFFFFFFFFFFFF, index)
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


def occasion_rng(seed: int, occ: PrachOccasion) -> np.random.Generator:
    """The keyed stream of one occasion of the interval seeded ``seed``.

    The key goes into ``spawn_key`` rather than the entropy: SeedSequence
    pads short entropy with zeros, so ``default_rng([seed, 0, 0])`` would
    repeat the interval stream ``default_rng(seed)``.
    """
    key = (occ.sfn, occ.slot, occ.occasion_index)
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


# Both caches are keyed on the inputs they depend on, never on a seed.
@functools.lru_cache(maxsize=16)
def _schedule(prach: PrachConfig, cell: CellConfig, first_ms: float, off_ms: float):
    """The ``(instant, occasion)`` pairs at which a UE that never receives a
    RAR sends a preamble (what it offers to send does not matter here)."""
    ue, sends = make_ue(0, first_ms), []
    offer = PreambleTx(signature=(0, 0), occasion_key=(0, 0, 0))
    for t, occ in occasions_between(prach, cell, first_ms, off_ms):
        ue, tx = ue_step(ue, t, [], offer)
        if tx is not None:
            sends.append((t, occ))
    return tuple(sends)


@functools.lru_cache(maxsize=16)
def _bins(prach, cell, spectrum, channel, det, amplitude):
    """The UE's signatures (as a tuple and an array), the bin-domain
    channel of its occasions and the mean delay profile of each preamble,
    ``ifft(ue_mean[n] * ref(root_n))`` against its own root."""
    length = prach.preamble_length
    signatures = tuple((r, s) for r in det.roots for s in range(length // det.shift_step))
    preambles = np.array([
        preamble_bins(cyclic_shift(generate_zc(root, length), s * det.shift_step), amplitude)
        for root, s in signatures
    ])
    jam = bin_moments(spectrum, amplitude_from_snr(amplitude, spectrum.snr_db))
    first = prach.freq_offset * SUBCARRIERS_PER_PRB
    chan = bin_channel(preambles, *jam, channel, first, cell.dft_size)
    sig_array = np.array(signatures)
    profiles = np.array([delay_profile(m, r) for m, (r, _) in zip(chan.ue_mean, signatures)])
    for shared in (chan.ue_mean, sig_array, profiles):  # every later caller gets these
        shared.setflags(write=False)
    return signatures, sig_array, chan, profiles


# Rows per batch grow 1, 2, 4, ... to this cap: early hits stay cheap, memory small.
_MAX_CHUNK = 64


def _judged(chan, profiles, sig_array, det_cfg, rng, sig_idx):
    """The UE's transmissions in chunks ``(start, rows, hits)``: the first
    transmission's index, the delay profiles of the chunk and whether each
    one's own signature is detected."""
    start, size = 0, 1
    while start < len(sig_idx):
        idx = sig_idx[start : start + size]
        rows = chan.draw(rng, profiles[idx], len(idx))
        yield start, rows, signatures_detected(rows, sig_array[idx, 1], det_cfg)
        start += len(idx)
        size = min(2 * size, _MAX_CHUNK)


def run_interval(
    cfg: CampaignConfig,
    index: int,
    collector: LogCollector | None = None,
) -> IntervalRecord:
    """Simulate interval ``index`` and tally its outcome.

    The jammer (when enabled) transmits in every occasion of every PRACH
    slot from t=0 until lead + duration + lag; the UE is active from
    t=lead until lead + duration and sends its first preamble after the
    configured startup delay. ``time_to_success`` is measured from the UE
    start. A run with a collector simulates and logs every occasion; its
    record equals the one without (see ``SEEDING_RULE``).
    """
    seed = interval_seed(cfg.base_seed, index)
    rng = np.random.default_rng(seed)
    valid = bool(rng.random() >= cfg.invalid_probability)
    ue_on = cfg.jammer_lead * 1000.0
    ue_off = ue_on + cfg.interval_duration * 1000.0
    first_ms = ue_on + cfg.ue_startup_delay * 1000.0
    sends = _schedule(cfg.prach, cfg.cell, first_ms, ue_off)
    signatures, sig_array, chan, profiles = _bins(
        cfg.prach, cfg.cell, cfg.spectrum, cfg.channel, cfg.detector, cfg.preamble_amplitude
    )
    sig_idx = rng.integers(len(signatures), size=len(sends))
    chunks = _judged(chan, profiles, sig_array, cfg.detector, rng, sig_idx)

    def log_event(t: float, ue) -> None:
        if collector is not None:
            collector.event(index, t, f"ue{ue.unique_id}", ue.state.value)

    ue = make_ue(index + 1, first_ms)
    steps = ()
    # A logged UE takes its (row, verdict) pairs from the chunks one at a time.
    transmissions = (pair for _, rows, hits in chunks for pair in zip(rows, hits))
    if collector is not None:
        end_ms = ue_off + cfg.jammer_lag * 1000.0 if cfg.spectrum.enabled else ue_off
        steps = occasions_between(cfg.prach, cfg.cell, 0.0, end_ms)
    elif sends:
        # Only the transmission that decides: the first one detected, or the last.
        for start, rows, hits in chunks:
            j = int(hits.argmax()) if hits.any() else len(hits) - 1
            if hits[j]:
                break
        k = start + j
        ue = replace(ue, preambles_sent=k, retry_timer_ms=first_ms + k * RETRY_PERIOD_MS)
        steps, transmissions = sends[k : k + 1], iter([(rows[j], hits[j])])

    ctx = GnbRaContext()
    detected = 0
    success_ms: float | None = None
    for t, occ in steps:
        active, tx = ue_on <= t < ue_off and ue.state is not UeState.CONNECTED, None
        if active:
            n, prev_state = ue.preambles_sent, ue.state
            key = (occ.sfn, occ.slot, occ.occasion_index)
            offer = PreambleTx(signatures[sig_idx[n]], key) if n < len(sends) else None
            ue, tx = ue_step(ue, t, [], offer)
            if ue.state is not prev_state:
                log_event(t, ue)
        if tx is not None:
            profile, hit = next(transmissions)
            row = profile_bins(profile, tx.signature[0])
        else:
            row = chan.draw(occasion_rng(seed, occ), chan.idle_mean, 1)[0]
        result = detect_preambles(row, cfg.detector, occasion=occ)
        if tx is not None:
            if result.reports(tx.signature) != hit:
                raise SimulationError(
                    f"interval {index}: kernel and detector disagree on preamble {n}"
                )
            detected += int(hit)
        if collector is not None:
            collector.detection(index, occ, result, None if tx is None else tx.signature)
        ctx, rars = gnb_step(ctx, result, [])
        ue, msg3 = ue_step(ue, t, rars) if active and rars else (ue, None)
        if isinstance(msg3, Msg3):
            log_event(t, ue)
            ctx, msg4s = gnb_step(ctx, None, [msg3])
            ue, _ = ue_step(ue, t, msg4s)
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
    )


def run_campaign(
    cfg: CampaignConfig,
    threads: int = 1,
    collector: LogCollector | None = None,
) -> tuple[list[IntervalRecord], MetricsSummary]:
    """Run all intervals and aggregate the summary metrics.

    Intervals are independent, each with its own derived seed, so they may
    run in parallel; results are always ordered by interval index. Log
    collection simulates every occasion and forces serial execution.
    """
    if threads < 0:
        raise ConfigError(f"threads must be >= 0, got {threads}")
    indices = range(cfg.n_intervals)
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads > 1 and collector is None:
        # An interval can take under a millisecond: hand each worker a few
        # large chunks rather than one interval per round trip.
        chunksize = max(1, len(indices) // (4 * threads))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(
                pool.map(
                    run_interval,
                    itertools.repeat(cfg, len(indices)),
                    indices,
                    chunksize=chunksize,
                )
            )
    else:
        records = [run_interval(cfg, i, collector) for i in indices]
    return records, compute_metrics(records)


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
    sent_total = sum(r.preambles_sent for r in valid)
    denom = n_p_j + n_ra_s
    return MetricsSummary(
        n_intervals=n_intervals,
        n_ra_s=n_ra_s,
        n_ra_u=n_ra_u,
        n_e=n_e,
        n_p_j=n_p_j,
        mean_preambles_per_interval=Fraction(denom, len(valid)),
        mean_preambles_sent_per_interval=Fraction(sent_total, len(valid)),
        e_p_j=Fraction(n_ra_s, denom) if denom > 0 else None,
        e_s=Fraction(n_ra_s, len(valid)),
    )


# --- JSON representations -----------------------------------------------------

def record_to_dict(record: IntervalRecord) -> dict[str, Any]:
    return asdict(record)


def record_from_dict(data: dict[str, Any]) -> IntervalRecord:
    """Read a record, which must also be consistent with itself."""
    r = load_record(IntervalRecord, data, "record")
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
            "mean_preambles_sent_per_interval": float(
                metrics.mean_preambles_sent_per_interval
            ),
            "mean_preambles_sent_per_interval_exact": frac(
                metrics.mean_preambles_sent_per_interval
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
        "prach": asdict(cfg.prach),
        "cell": {**asdict(cfg.cell), "cp_samples": cp_length(cfg.cell)},
        "spectrum": asdict(cfg.spectrum),
        "channel": asdict(cfg.channel),
        "detector": asdict(cfg.detector),
        "campaign": {
            "interval_duration": cfg.interval_duration,
            "jammer_lead": cfg.jammer_lead,
            "jammer_lag": cfg.jammer_lag,
            "preamble_amplitude": cfg.preamble_amplitude,
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
    ``prach``/``cell`` sections, not both. The detector's ``shift_step``
    and ``roots`` default to the cell's.
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
        prach_cfg = load_prach_config(top.pop("prach"))
        cell = load_cell_config(top.pop("cell"))
    else:
        raise ConfigError("either a preset or prach and cell sections are required")

    spectrum = load_record(JammerConfig, top.pop("spectrum", {}), "spectrum")
    channel = load_record(ChannelConfig, top.pop("channel", {}), "channel")
    detector = load_record(
        DetectorConfig, top.pop("detector", {}), "detector",
        shift_step=cell.shift_step, roots=cell.prach_root_indices,
    )
    return load_record(
        CampaignConfig, top, "campaign", spectrum=spectrum, channel=channel,
        detector=detector, prach=prach_cfg, cell=cell,
    )
