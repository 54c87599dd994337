"""Interval-based measurement campaigns and their summary metrics.

A campaign is a series of independent intervals. In each interval the
jammer runs for the whole span while the UE appears after a lead delay,
retries a preamble every 100 ms until a random-access procedure succeeds,
and disappears before the jammer stops. Occasions are simulated as their
averaged PRACH bins (``channel.bin_channel``). An unanswered UE sends on a
fixed schedule, so its transmissions are judged in batches and only the
first detected one goes through ``detect_preambles`` and the RA machines;
a logged run steps every occasion through them.
"""
from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, fields, replace
from fractions import Fraction
from typing import Any

import numpy as np

from .channel import ChannelConfig, bin_channel, superpose
from .detector import DetectorConfig, detect_preambles, signatures_detected
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
    occasion_time_ms,
    occasions_between,
    occasions_in_frame,
    occupancy_factors,
)
from .rafsm import (
    RAR_WINDOW_MS,
    GnbRaContext,
    Msg3,
    PreambleTx,
    UeState,
    gnb_step,
    make_ue,
    transmit_schedule,
    ue_step,
)
from .waveform import cp_length, demap_prach, preamble_bins
from .zc import cyclic_shift, generate_zc

# demap_prach, generate_jamming_frame, occasion_time_ms, occasions_in_frame and
# superpose are unused here but kept importable: perfbench/run.py uses these names.

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
    "v3: interval_seed(i) = uint64(little-endian) of blake2b(digest_size=8, "
    "data=pack('<QQ', base_seed, i)); interval stream = numpy.random.default_rng("
    "interval_seed(i)), drawing the validity flag (random()), then the signatures "
    "of all K scheduled preambles (integers(n_signatures, size=K)), then per "
    "preamble in transmit order 2*L standard normals, the interleaved (re, im) "
    "parts of the jammer and noise in its L averaged PRACH bins; a logged run "
    "draws those of an occasion without a preamble from numpy.random.default_rng("
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

    def detection(self, interval: int, occ: PrachOccasion, result) -> None:
        self.detections.append(
            {
                "interval": interval,
                "sfn": occ.sfn,
                "occasion_index": occ.occasion_index,
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
    return transmit_schedule(occasions_between(prach, cell, first_ms, off_ms), first_ms)


@functools.lru_cache(maxsize=16)
def _bins(prach, cell, spectrum, channel, det, amplitude):
    """The UE's signatures (as a tuple and an array) and the bin-domain
    channel of its occasions."""
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
    for shared in (chan.ue_mean, sig_array):  # every later caller gets these arrays
        shared.setflags(write=False)
    return signatures, sig_array, chan


# Rows per batch grow 1, 2, 4, ... to this cap: early hits stay cheap, memory small.
_MAX_CHUNK = 64


def _first_hit(chan, sig_array, det_cfg, rng, sig_idx) -> tuple[int, np.ndarray]:
    """Index of the first transmission whose own signature is detected, and
    its bins; ``len(sig_idx)`` and the last row when there is none."""
    start, size = 0, 1
    while True:
        idx = sig_idx[start : start + size]
        rows = chan.draw(rng, chan.ue_mean[idx], len(idx))
        hits = np.flatnonzero(signatures_detected(rows, sig_array[idx], det_cfg))
        if hits.size:
            return start + int(hits[0]), rows[hits[0]]
        start += len(idx)
        if start >= len(sig_idx):
            return start, rows[-1]
        size = min(2 * size, _MAX_CHUNK)


def _take_rars(ue, ctx, rars, t, rng, log_event):
    """The UE reads an occasion's RARs; its own one runs Msg3 and Msg4."""
    ue, action = ue_step(ue, t, rars, rng)
    if isinstance(action, Msg3):
        log_event(t, ue)
        ctx, msg4s = gnb_step(ctx, None, [action])
        ue, _ = ue_step(ue, t, msg4s, rng)
        log_event(t, ue)
    return ue, ctx


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
    signatures, sig_array, chan = _bins(
        cfg.prach, cfg.cell, cfg.spectrum, cfg.channel, cfg.detector, cfg.preamble_amplitude
    )
    # A logged UE draws its signatures itself: the same draws, one at a time.
    ue_rng = copy.deepcopy(rng) if collector is not None else None
    sig_idx = rng.integers(len(signatures), size=len(sends))

    def log_event(t: float, ue) -> None:
        if collector is not None:
            collector.event(index, t, f"ue{ue.unique_id}", ue.state.value)

    ue = make_ue(index + 1, signatures, first_ms)
    ctx = GnbRaContext()
    detected = 0
    success_ms: float | None = None
    if collector is None and sends:
        k, row = _first_hit(chan, sig_array, cfg.detector, rng, sig_idx)
        hit, k = k < len(sends), min(k, len(sends) - 1)
        t, occ = sends[k]
        signature = signatures[sig_idx[k]]
        result = detect_preambles(row, cfg.detector, occasion=occ)
        detected = int(result.reports(signature))
        if detected != hit:
            raise SimulationError(f"interval {index}: kernel and detector disagree on preamble {k}")
        # The UE as it waits for the RAR of preamble k.
        key = (occ.sfn, occ.slot, occ.occasion_index)
        ue = replace(ue, state=UeState.WAIT_RAR, preambles_sent=k + 1, chosen_signature=signature,
                     tx_occasion=key, tx_deadline_ms=t + RAR_WINDOW_MS)
        ctx, rars = gnb_step(ctx, result, [])
        ue, ctx = _take_rars(ue, ctx, rars, t, rng, log_event)
        if ue.state is UeState.CONNECTED:
            success_ms = t
    elif collector is not None:
        end_ms = ue_off + cfg.jammer_lag * 1000.0 if cfg.spectrum.enabled else ue_off
        for t, occ in occasions_between(cfg.prach, cfg.cell, 0.0, end_ms):
            ue_active = ue_on <= t < ue_off and ue.state is not UeState.CONNECTED
            tx = None
            if ue_active:
                prev_state = ue.state
                key = (occ.sfn, occ.slot, occ.occasion_index)
                ue, action = ue_step(ue, t, [], ue_rng, occasion_key=key)
                tx = action if isinstance(action, PreambleTx) else None
                if ue.state is not prev_state:
                    log_event(t, ue)
            if tx is not None:
                mean = chan.ue_mean[[signatures.index(tx.signature)]]
                row = chan.draw(rng, mean, 1)[0]
            else:
                row = chan.draw(occasion_rng(seed, occ), chan.idle_mean, 1)[0]
            result = detect_preambles(row, cfg.detector, occasion=occ)
            collector.detection(index, occ, result)
            ctx, rars = gnb_step(ctx, result, [])
            if tx is not None:
                detected += result.reports(tx.signature)
            if ue_active and rars:
                ue, ctx = _take_rars(ue, ctx, rars, t, ue_rng, log_event)
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
    allowed = {f.name for f in fields(IntervalRecord)}
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"unknown field '{sorted(unknown)[0]}' in interval record")
    missing = allowed - set(data)
    if missing:
        raise ConfigError(f"missing field '{sorted(missing)[0]}' in interval record")
    return IntervalRecord(
        index=int(data["index"]),
        valid=bool(data["valid"]),
        preambles_sent=int(data["preambles_sent"]),
        preambles_detected=int(data["preambles_detected"]),
        ra_succeeded=bool(data["ra_succeeded"]),
        time_to_success=(
            None if data["time_to_success"] is None else float(data["time_to_success"])
        ),
        seed=int(data["seed"]),
    )


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

_TOP_LEVEL_REQUIRED = {"n_intervals", "interval_duration", "base_seed", "spectrum", "channel"}
_TOP_LEVEL_OPTIONAL = {
    "schema_version",
    "jammer_lead",
    "jammer_lag",
    "preamble_amplitude",
    "ue_startup_delay",
    "invalid_probability",
    "detection_log",
    "event_trace",
    "preset",
    "prach",
    "cell",
    "detector",
}


def _check_fields(data: dict, required: set[str], optional: set[str], section: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a JSON object")
    unknown = set(data) - required - optional
    if unknown:
        raise ConfigError(f"unknown field '{sorted(unknown)[0]}' in {section}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing field '{sorted(missing)[0]}' in {section}")


def load_campaign_config(data: dict[str, Any]) -> CampaignConfig:
    """Build a CampaignConfig from a parsed JSON document.

    Unknown fields are rejected everywhere. Cell and PRACH parameters come
    either from a named ``preset`` or from explicit ``prach``/``cell``
    sections, not both.
    """
    _check_fields(data, _TOP_LEVEL_REQUIRED, _TOP_LEVEL_OPTIONAL, "campaign config")
    if data.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {data.get('schema_version')}"
        )

    if "preset" in data:
        if "prach" in data or "cell" in data:
            raise ConfigError("preset and explicit prach/cell sections are exclusive")
        preset = data["preset"]
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset '{preset}' (available: {sorted(PRESETS)})"
            )
        prach_cfg, cell = PRESETS[preset]
    else:
        if "prach" not in data or "cell" not in data:
            raise ConfigError("either a preset or prach and cell sections are required")
        prach_cfg = load_prach_config(data["prach"])
        cell = load_cell_config(data["cell"])

    spec_data = dict(data["spectrum"])
    _check_fields(
        spec_data, {"kind", "snr_db"}, {"enabled", "s1_literal"}, "spectrum"
    )
    spectrum = JammerConfig(
        kind=spec_data["kind"],
        snr_db=float(spec_data["snr_db"]),
        enabled=bool(spec_data.get("enabled", True)),
        s1_literal=bool(spec_data.get("s1_literal", False)),
    )

    chan_data = dict(data["channel"])
    _check_fields(
        chan_data,
        {"noise_sigma"},
        {"ue_gain", "jammer_gain", "ue_delay_samples"},
        "channel",
    )
    channel = ChannelConfig(
        noise_sigma=float(chan_data["noise_sigma"]),
        ue_gain=float(chan_data.get("ue_gain", 1.0)),
        jammer_gain=float(chan_data.get("jammer_gain", 1.0)),
        ue_delay_samples=int(chan_data.get("ue_delay_samples", 0)),
    )

    det_data = dict(data.get("detector", {}))
    _check_fields(
        det_data, set(), {"threshold_factor", "shift_step", "roots"}, "detector"
    )
    det_kwargs: dict[str, Any] = {
        "shift_step": int(det_data.get("shift_step", cell.shift_step)),
        "roots": tuple(det_data.get("roots", cell.prach_root_indices)),
    }
    if "threshold_factor" in det_data:
        det_kwargs["threshold_factor"] = float(det_data["threshold_factor"])
    try:
        detector = DetectorConfig(**det_kwargs)
    except ValueError as exc:
        raise ConfigError(f"bad detector config: {exc}") from exc

    return CampaignConfig(
        n_intervals=int(data["n_intervals"]),
        interval_duration=float(data["interval_duration"]),
        spectrum=spectrum,
        channel=channel,
        detector=detector,
        prach=prach_cfg,
        cell=cell,
        base_seed=int(data["base_seed"]),
        jammer_lead=float(data.get("jammer_lead", 10.0)),
        jammer_lag=float(data.get("jammer_lag", 10.0)),
        preamble_amplitude=float(data.get("preamble_amplitude", 1.0)),
        ue_startup_delay=float(data.get("ue_startup_delay", 0.5)),
        invalid_probability=float(data.get("invalid_probability", 0.0)),
        detection_log=bool(data.get("detection_log", False)),
        event_trace=bool(data.get("event_trace", False)),
    )
