"""Interval-based measurement campaigns and their summary metrics.

A campaign is a series of independent intervals. In each interval the
jammer runs for the whole span while the UE appears after a lead delay,
retries a preamble every 100 ms until a random-access procedure succeeds,
and disappears before the jammer stops. Intervals are simulated on a
virtual clock that visits only PRACH occasions. Each occasion draws its
jammer and noise from its own keyed random stream, so an occasion can be
skipped without disturbing any other: without logs only the occasions in
which the UE transmits are simulated, and the cost of an interval scales
with the preambles sent rather than the simulated duration.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, fields
from fractions import Fraction
from typing import Any

import numpy as np

from .channel import ChannelConfig, superpose
from .detector import DetectorConfig, detect_preambles
from .errors import ConfigError, SimulationError
from .jammer import JammerConfig, amplitude_from_snr, generate_jamming_frame
from .prach import (
    FRAME_MS,
    CellConfig,
    PrachConfig,
    PrachOccasion,
    PRESETS,
    jammer_resource_budget,
    load_cell_config,
    load_prach_config,
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
    next_transmit_ms,
    ue_step,
)
from .waveform import IqFrame, cp_length, demap_prach, frame_length, modulate_preamble
from .zc import cyclic_shift, generate_zc

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
    "v2: interval_seed(i) = uint64(little-endian) of "
    "blake2b(digest_size=8, data=pack('<QQ', base_seed, i)); "
    "interval stream = numpy.random.default_rng(interval_seed(i)), "
    "drawing the validity flag, then each preamble's signature; "
    "occasion stream = numpy.random.default_rng(numpy.random.SeedSequence("
    "interval_seed(i), spawn_key=(sfn, slot, occasion_index))), "
    "drawing that occasion's jammer, then its channel noise"
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


def occasion_time_ms(occ: PrachOccasion, cell: CellConfig) -> float:
    """Start instant of an occasion on the campaign clock, in ms."""
    slots = 1 << cell.numerology
    return (
        occ.sfn * 10.0
        + occ.slot * (1.0 / slots)
        + occ.start_symbol / (14.0 * slots)
    )


def _signature_space(det: DetectorConfig, preamble_length: int):
    n_shifts = preamble_length // det.shift_step
    return tuple((root, s) for root in det.roots for s in range(n_shifts))


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
    start.

    Only an occasion in which the UE transmits can change the record: a
    RAR is accepted only for the UE's own transmit occasion. Without a
    collector the interval therefore visits just those occasions, jumping
    from one possible transmission to the next, and ends once the UE has
    connected or left. With a collector every occasion is simulated and
    logged. Both draw from the same keyed streams (see ``SEEDING_RULE``),
    so they produce the same record.
    """
    prach_cfg, cell, det_cfg = cfg.prach, cfg.cell, cfg.detector
    seed = interval_seed(cfg.base_seed, index)
    rng = np.random.default_rng(seed)
    lead_ms = cfg.jammer_lead * 1000.0
    ue_on = lead_ms
    ue_off = lead_ms + cfg.interval_duration * 1000.0
    jam_end = ue_off + cfg.jammer_lag * 1000.0
    end_ms = jam_end if cfg.spectrum.enabled and collector is not None else ue_off

    valid = bool(rng.random() >= cfg.invalid_probability)

    signatures = _signature_space(det_cfg, prach_cfg.preamble_length)
    ue = make_ue(
        unique_id=index + 1,
        signatures=signatures,
        first_attempt_ms=ue_on + cfg.ue_startup_delay * 1000.0,
    )
    ctx = GnbRaContext()
    amp = cfg.preamble_amplitude
    a_f = amplitude_from_snr(amp, cfg.spectrum.snr_db)
    n_frame = frame_length(cell)
    preamble_cache: dict[tuple[int, int], IqFrame] = {}

    def log_event(t: float) -> None:
        if collector is not None:
            collector.event(index, t, f"ue{ue.unique_id}", ue.state.value)

    preambles_detected = 0
    ra_succeeded = False
    time_to_success: float | None = None

    sfn = 0
    while True:
        if collector is None:
            # Next event: the frame of the UE's next possible transmission
            # (never, once it has connected).
            sfn = max(sfn, int(min(next_transmit_ms(ue), end_ms) // FRAME_MS))
        if sfn * FRAME_MS >= end_ms:
            break
        for occ in occasions_in_frame(prach_cfg, cell, sfn):
            t = occasion_time_ms(occ, cell)
            if t >= end_ms:
                break
            if collector is None and t < next_transmit_ms(ue):
                continue  # the UE is silent here: nothing can change the record
            jam_active = cfg.spectrum.enabled and t < jam_end
            ue_active = ue_on <= t < ue_off and ue.state is not UeState.CONNECTED
            key = (occ.sfn, occ.slot, occ.occasion_index)
            occ_rng = occasion_rng(seed, occ)

            tx: PreambleTx | None = None
            if ue_active:
                prev_state = ue.state
                ue, action = ue_step(ue, t, [], rng, occasion_key=key)
                if isinstance(action, PreambleTx):
                    tx = action
                if ue.state is not prev_state:
                    log_event(t)

            ue_frame = None
            if tx is not None:
                # All occasions share one frequency placement, so waveforms
                # can be cached per signature.
                root, shift_idx = tx.signature
                ue_frame = preamble_cache.get(tx.signature)
                if ue_frame is None:
                    seq = cyclic_shift(
                        generate_zc(root, prach_cfg.preamble_length),
                        shift_idx * det_cfg.shift_step,
                    )
                    ue_frame = modulate_preamble(seq, occ, cell, amp)
                    preamble_cache[tx.signature] = ue_frame

            jam_frame = (
                generate_jamming_frame(cfg.spectrum, occ, cell, a_f, occ_rng)
                if jam_active
                else None
            )
            rx = superpose(
                ue_frame,
                jam_frame,
                cfg.channel,
                occ_rng,
                num_samples=n_frame,
                sample_rate=cell.sample_rate,
            )
            _, avg_bins = demap_prach(rx, occ, cell)
            result = detect_preambles(avg_bins, det_cfg, occasion=occ)
            if collector is not None:
                collector.detection(index, occ, result)

            ctx, rars = gnb_step(ctx, result, [])
            if tx is not None:
                hits = {(d.root, d.signature) for d in result.detected}
                if tx.signature in hits:
                    preambles_detected += 1

            if ue_active and rars:
                ue, action = ue_step(ue, t, rars, rng)
                if isinstance(action, Msg3):
                    log_event(t)
                    ctx, msg4s = gnb_step(ctx, None, [action])
                    ue, _ = ue_step(ue, t, msg4s, rng)
                    log_event(t)
                    if ue.state is UeState.CONNECTED and not ra_succeeded:
                        ra_succeeded = True
                        time_to_success = (t - ue_on) / 1000.0
        sfn += 1

    return IntervalRecord(
        index=index,
        valid=valid,
        preambles_sent=ue.preambles_sent,
        preambles_detected=preambles_detected,
        ra_succeeded=ra_succeeded,
        time_to_success=time_to_success,
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
