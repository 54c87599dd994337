#!/usr/bin/env python3
"""Benchmark of prachjam interval campaigns and detector calibration.

Run from the root of a checkout (the sources are imported from ``src/``):

    python3 perfbench/run.py --workload s1_design --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics. ``--trace 1`` times it untraced for half the time, runs one
batch of intervals on a process pool, then replays the same operations
through ``prachjam.cli.main`` with a span around every call into a layer,
and prints the per-layer metrics. Every operation's output is checked.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. README.md
describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"

if not (SRC / "prachjam" / "__init__.py").is_file() or not CONFIGS.is_dir():
    raise SystemExit(f"perfbench: no prachjam sources and configs under {ROOT}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import prachjam  # noqa: E402
import prachjam.campaign  # noqa: E402
import prachjam.cli  # noqa: E402
from prachjam import calibrate_threshold, load_campaign_config, run_campaign  # noqa: E402
from prachjam.campaign import (  # noqa: E402
    interval_seed,
    occasion_time_ms,
    record_from_dict,
    record_to_dict,
)
from prachjam.rafsm import RETRY_PERIOD_MS  # noqa: E402

from tracer import Tracer  # noqa: E402

# The speed gauge keeps the unwrapped FFTs, so a traced run does not count
# the gauge's own FFTs.
FFT, IFFT = np.fft.fft, np.fft.ifft

if Path(prachjam.__file__).resolve().parent != (SRC / "prachjam").resolve():
    raise SystemExit(f"perfbench: imported prachjam from {prachjam.__file__}, not {SRC}")


# --- Workloads ----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # file under configs/
    kind: str  # "connect", "saturate" or "calibrate": what the output check expects
    overrides: tuple[tuple[str, object], ...] = ()  # dotted keys, as `prachjam --set`

    @property
    def campaign(self) -> bool:
        return self.kind != "calibrate"


WORKLOADS = {
    w.name: w
    for w in (
        # The UE connects on its first preamble; nearly every occasion is
        # jammer-only work on the S1 time-domain path.
        Workload("s1_design", "s1_60s.json", "connect"),
        # The UE never connects and sends a preamble every retry period.
        # At the shipped threshold (12.35, a 1e-3 false-alarm rate per
        # occasion) about 3e-4 of the UE's preambles are "detected" by a
        # false alarm in its own window, so one interval in six would
        # connect; at 30 that chance is below 1e-6 per interval.
        Workload(
            "s2_saturated",
            "s2_60s.json",
            "saturate",
            (("spectrum.snr_db", -24.0), ("detector.threshold_factor", 30.0)),
        ),
        Workload("calibrate", "s1_60s.json", "calibrate"),
    )
}

# The shortened interval of --tiny, for the benchmark's own tests.
TINY = (("interval_duration", 1.5), ("jammer_lead", 0.2), ("jammer_lag", 0.2))

# A traced campaign run also times one run_campaign call that hands each
# worker process (one per core, at most MAX_WORKERS) this many intervals.
INTERVALS_PER_WORKER = 2
MAX_WORKERS = 8

# Calibration at this target runs 100,000 noise-only trials (the CLI's rule,
# 10 / target_far), about a second on one core.
CALIBRATION_FAR = 1e-4
# The factor at 1e-4 measured with 2,000,000 trials is 14.91. With 100,000
# trials about 10 trials exceed it. The bounds are the factors at false-alarm
# rates of 4.7e-4 and 1e-5 (tail slope 2.56 per decade, from 12.35 at 1e-3):
# 100,000 trials land outside them with probability below 1e-7 each side.
CALIBRATION_FACTOR_RANGE = (13.2, 17.5)

SETUP_REPEATS = 9
SETUP_PROBE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from prachjam import load_campaign_config\n"
    "load_campaign_config(json.loads(sys.argv[2]))\n"
)

# The speed of a CPU of a shared virtual machine changes by up to 1.7x
# within seconds, independently on each CPU, and process CPU time follows
# it. Untraced runs therefore pin themselves to one CPU and sample its
# speed while they work: every GAUGE_PERIOD_S a signal handler times a
# fixed numpy kernel that does not touch prachjam. Each timing, less the
# handler's own time, is scaled to a CPU on which that kernel takes
# REFERENCE_NOMINAL_S: its median time on the 2-core x86-64 VM where
# BASELINE.json was measured.
REFERENCE_REPS = 25
REFERENCE_NOMINAL_S = 0.00285
GAUGE_PERIOD_S = 0.05
BRACKET_SAMPLES = 4

LAYERS = (
    "prach.occasions_in_frame",
    "jammer.generate_jamming_frame",
    "channel.superpose",
    "waveform.demap_prach",
    "detector.detect_preambles",
    "rafsm.ue_step",
    "rafsm.gnb_step",
)

END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in LAYERS
       for stat, unit in (("calls", "count/op"), ("us_per_call", "us"))},
    "numpy.fft.calls_per_occasion": "count",
    "numpy.fft.points_per_occasion": "count",
    "detector.calibrate_threshold.us_per_trial": "us",
    "campaign.us_per_occasion": "us",
    "campaign.run_interval.self_us_per_occasion": "us",
    "campaign.occasions_simulated": "count/interval",
    "campaign.occasions_after_decision": "count/interval",
    "campaign.useful_occasion_ratio": "ratio",
    "campaign.pool_efficiency": "ratio",
    "cli.main.self_s": "s",
    "cli.records_bytes": "B/interval",
    "trace.overhead_ratio": "ratio",
    "trace.span_coverage": "ratio",
}


def settings(wl: Workload, tiny: bool, base_seed: int, n_intervals: int):
    """Every value the workload sets on top of its config file."""
    out = list(wl.overrides) + [("base_seed", base_seed)]
    if wl.campaign:
        out.append(("n_intervals", n_intervals))
        if tiny:
            out.extend(TINY)
    return out


def config_doc(wl: Workload, tiny: bool, base_seed: int, n_intervals: int = 1) -> dict:
    doc = json.loads((CONFIGS / wl.config).read_text())
    for dotted, value in settings(wl, tiny, base_seed, n_intervals):
        node = doc
        *parents, leaf = dotted.split(".")
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return doc


def op_seed(seed: int, j: int) -> int:
    """Base seed of the workload's ``j``-th operation."""
    return seed * 65536 + j


def calibration_trials(target_far: float) -> int:
    """Trial count ``prachjam calibrate`` uses for ``target_far``."""
    return int(max(20_000, math.ceil(10 / target_far)))


# --- Output checks ------------------------------------------------------------

def expected_preambles(cfg) -> int:
    """Preambles sent by a UE that never connects: one per retry period
    from its first attempt until it leaves."""
    active_ms = (cfg.interval_duration - cfg.ue_startup_delay) * 1000.0
    return math.ceil(active_ms / RETRY_PERIOD_MS)


def bad_records(wl: Workload, cfg, records) -> int:
    """Number of intervals whose record is missing or fails the check."""
    if len(records) != cfg.n_intervals:
        return cfg.n_intervals
    bad = 0
    for i, r in enumerate(records):
        ok = (
            r.index == i
            and r.seed == interval_seed(cfg.base_seed, i)
            and r.valid
            and 0 <= r.preambles_detected <= r.preambles_sent
        )
        if wl.kind == "connect":
            ok = ok and r.ra_succeeded and r.time_to_success is not None
            ok = ok and r.preambles_sent >= 1
        else:
            ok = ok and not r.ra_succeeded and r.time_to_success is None
            ok = ok and r.preambles_sent == expected_preambles(cfg)
            ok = ok and r.preambles_detected == 0
        bad += not ok
    return bad


def run_passes(wl: Workload, records) -> bool:
    """Checks on a whole run: ``e_s`` and the mean preambles per interval."""
    if not records:
        return False
    sent = sum(r.preambles_sent for r in records) / len(records)
    succeeded = sum(r.ra_succeeded for r in records)
    if wl.kind == "connect":
        return succeeded == len(records) and sent <= 2
    return succeeded == 0


def factor_ok(factor: float) -> bool:
    lo, hi = CALIBRATION_FACTOR_RANGE
    return lo <= factor <= hi


def records_sha256(records) -> str:
    """sha256 of records.jsonl as ``prachjam simulate`` writes it."""
    text = "".join(json.dumps(record_to_dict(r), sort_keys=True) + "\n" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()


# --- Timing -------------------------------------------------------------------

def reference_seconds() -> float:
    """Wall time of a fixed numpy kernel shaped like occasion work."""
    rng = np.random.default_rng(0)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        x = rng.standard_normal(512).view(complex)
        y = IFFT(x)
        for _ in range(4):
            acc += float(np.abs(FFT(y)[:139]).sum())
        acc += float((np.abs(IFFT(x[:139])) ** 2).max())
    return time.perf_counter() - t0


def plain_time(fn):
    """``(result, seconds, seconds)``: ``fn()`` timed, without scaling."""
    t0 = time.perf_counter()
    out = fn()
    dt = time.perf_counter() - t0
    return out, dt, dt


class Gauge:
    """Samples the CPU's speed with the reference kernel while work runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the signal handler

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_seconds())
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn):
        """``(result, seconds, seconds at nominal speed)`` of ``fn()``,
        less the time the samples took."""
        n0, spent0 = len(self.samples), self.spent
        out, wall, _ = plain_time(fn)
        dt = wall - (self.spent - spent0)
        taken = self.samples[n0:] or [reference_seconds()]
        return out, dt, dt * REFERENCE_NOMINAL_S / statistics.mean(taken)

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent sampling: a clock for
        spans that a sample may interrupt."""
        return time.perf_counter() - self.spent

    def bracket(self, fn):
        """Like ``time``, but samples only just before and after ``fn()``:
        for short work in a child process, which a sample taken during it
        would preempt and disturb."""
        before = [reference_seconds() for _ in range(BRACKET_SAMPLES)]
        out, dt, _ = plain_time(fn)
        after = [reference_seconds() for _ in range(BRACKET_SAMPLES)]
        self.samples += before + after
        return out, dt, dt * REFERENCE_NOMINAL_S / statistics.mean(before + after)


@dataclass
class Ops:
    """Operations of one phase: seconds per unit of work, outputs, failures."""

    seconds: list[float] = field(default_factory=list)  # per interval or per trial
    scaled: list[float] = field(default_factory=list)  # the same at nominal speed
    outputs: list = field(default_factory=list)  # per operation: records or factor
    attempted: int = 0
    failed: int = 0


def attempt(fn):
    """``(result, failed)``; an exception is reported and counted as failed."""
    try:
        return fn(), False
    except Exception:  # the benchmark counts a raising operation and goes on
        traceback.print_exc()
        return None, True


def repeat_for(seconds: float, step, limit: int | None = None) -> None:
    """Call ``step()`` (which returns its duration) until the next call would
    probably overrun ``seconds``, at most ``limit`` times; always once."""
    start = time.perf_counter()
    durations: list[float] = []
    while not durations or (
        (limit is None or len(durations) < limit)
        and time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        durations.append(step())


def campaign_op(wl, tiny, seed, j, batch, workers, ops: Ops, timer=plain_time) -> float:
    cfg = load_campaign_config(config_doc(wl, tiny, op_seed(seed, j), batch))
    (out, raised), dt, scaled = timer(
        lambda: attempt(lambda: run_campaign(cfg, threads=workers))
    )
    records = [] if raised else out[0]
    ops.attempted += batch
    ops.failed += batch if raised else bad_records(wl, cfg, records)
    ops.seconds.append(dt / batch)
    ops.scaled.append(scaled / batch)
    ops.outputs.append(records)
    return dt


def calibrate_op(wl, seed, j, ops: Ops, timer=plain_time) -> float:
    cfg = load_campaign_config(config_doc(wl, False, op_seed(seed, j)))
    trials = calibration_trials(CALIBRATION_FAR)
    rng = np.random.default_rng(cfg.base_seed)
    (factor, raised), dt, scaled = timer(
        lambda: attempt(
            lambda: calibrate_threshold(
                CALIBRATION_FAR, trials, cfg.detector, rng, l_ra=cfg.prach.preamble_length
            )
        )
    )
    ops.attempted += 1
    ops.failed += raised or not factor_ok(factor)
    ops.seconds.append(dt / trials)
    ops.scaled.append(scaled / trials)
    ops.outputs.append(factor)
    return dt


def time_workload(wl, tiny, seed, seconds, timer=plain_time) -> Ops:
    """Serial operations 0, 1, ... for about ``seconds``."""
    ops = Ops()

    def step() -> float:
        j = len(ops.seconds)
        if wl.campaign:
            return campaign_op(wl, tiny, seed, j, 1, 1, ops, timer)
        return calibrate_op(wl, seed, j, ops, timer)

    repeat_for(seconds, step)
    return ops


def warm_up(wl: Workload) -> None:
    """Fill the module caches (ZC references, window indices, FFT plans)."""
    if wl.campaign:
        doc = config_doc(wl, True, 0)
        doc.update(interval_duration=0.6, jammer_lead=0.1, jammer_lag=0.1)
        run_campaign(load_campaign_config(doc))
    else:
        detector = load_campaign_config(config_doc(wl, False, 0)).detector
        calibrate_threshold(1e-3, 20_000, detector, np.random.default_rng(0))


def setup_seconds(wl: Workload, tiny: bool, seed: int, timer=plain_time) -> float:
    """Median time of a fresh interpreter that imports prachjam and loads
    and validates the workload config."""
    doc = json.dumps(config_doc(wl, tiny, op_seed(seed, 0)))
    probe = [sys.executable, "-c", SETUP_PROBE, str(SRC), doc]
    return statistics.median(
        timer(lambda: subprocess.run(probe, cwd=ROOT, check=True, timeout=60))[2]
        for _ in range(SETUP_REPEATS)
    )


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- Traced replay ------------------------------------------------------------

def span_targets():
    campaign, cli = prachjam.campaign, prachjam.cli
    spans = [
        (cli, "run_campaign", "campaign.run_campaign", None),
        (cli, "calibrate_threshold", "detector.calibrate_threshold", None),
        (campaign, "run_interval", "campaign.run_interval", None),
        (campaign, "occasions_in_frame", "prach.occasions_in_frame", None),
        (campaign, "generate_jamming_frame", "jammer.generate_jamming_frame", None),
        (campaign, "superpose", "channel.superpose", None),
        (campaign, "demap_prach", "waveform.demap_prach", None),
        (campaign, "detect_preambles", "detector.detect_preambles",
         lambda bins, cfg, occasion=None: occasion),
        (campaign, "ue_step", "rafsm.ue_step", None),
        (campaign, "gnb_step", "rafsm.gnb_step", None),
    ]
    points = lambda a, *rest, **kw: int(np.size(a))  # noqa: E731
    counters = [
        (np.fft, "fft", "numpy.fft", points),
        (np.fft, "ifft", "numpy.fft", points),
    ]
    return spans, counters


@dataclass
class Replay:
    """Operations replayed through ``prachjam.cli.main`` under the tracer."""

    tracer: Tracer
    seconds: list[float] = field(default_factory=list)  # per interval or trial
    scaled: list[float] = field(default_factory=list)  # the same at nominal speed
    outputs: list = field(default_factory=list)
    records_bytes: int = 0
    wall: float = 0.0


def replay(wl, tiny, seed, seconds, n_ops, out_dir: Path) -> Replay:
    """Run operations 0.. of the untraced phase again via ``cli.main``
    until ``seconds`` pass or all ``n_ops`` are done. Operations are scaled
    to nominal speed as untraced ones are; the spans' clock stops while
    the gauge samples, so no span holds sampling time."""
    gauge = Gauge()
    rep = Replay(Tracer(clock=gauge.clock))
    main = rep.tracer.span("cli.main", prachjam.cli.main)
    spans, counters = span_targets()

    def step() -> float:
        j = len(rep.seconds)
        argv = ["simulate" if wl.campaign else "calibrate",
                "--config", str(CONFIGS / wl.config), "--out", str(out_dir)]
        sets = settings(wl, tiny, op_seed(seed, j), 1)
        if not wl.campaign:
            sets.append(("target_far", CALIBRATION_FAR))
        for key, value in sets:
            argv += ["--set", f"{key}={json.dumps(value)}"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            (status, raised), dt, scaled = gauge.time(lambda: attempt(lambda: main(argv)))
        units = 1
        if raised or status != 0:
            rep.outputs.append(None)  # counted as a mismatch
        elif wl.campaign:
            raw = (out_dir / "records.jsonl").read_bytes()
            rep.records_bytes += len(raw)
            rep.outputs.append(
                [record_from_dict(json.loads(line)) for line in raw.splitlines()]
            )
        else:
            rep.outputs.append(stdout.getvalue().split()[1])
            units = calibration_trials(CALIBRATION_FAR)
        rep.seconds.append(dt / units)
        rep.scaled.append(scaled / units)
        return dt

    t0 = gauge.clock()
    with rep.tracer.installed(spans, counters), gauge.sampling():
        repeat_for(seconds, step, limit=n_ops)
    rep.wall = gauge.clock() - t0
    return rep


def layer_metrics(wl, tiny, rep: Replay, serial_s: float, pool_efficiency: float):
    """Per-layer numbers of a traced replay. ``serial_s`` is the untraced
    time per interval (or per trial) at nominal speed."""
    tracer = rep.tracer
    stats = tracer.by_name()
    ops = len(rep.outputs)
    records = [r for batch in rep.outputs if wl.campaign and batch for r in batch]
    occasions = stats.get("detector.detect_preambles", (0, 0.0))[0]
    trials = 0 if wl.campaign else ops * calibration_trials(CALIBRATION_FAR)
    m: dict[str, float] = {}
    for layer in LAYERS:
        calls, secs = stats.get(layer, (0, 0.0))
        m[f"{layer}.calls"] = calls / ops
        m[f"{layer}.us_per_call"] = 1e6 * secs / calls if calls else 0.0
    # On calibrate an occasion is one noise-only trial.
    units = occasions or trials
    m["numpy.fft.calls_per_occasion"] = tracer.counts["numpy.fft.calls"] / units
    m["numpy.fft.points_per_occasion"] = tracer.counts["numpy.fft.points"] / units
    cal_secs = stats.get("detector.calibrate_threshold", (0, 0.0))[1]
    m["detector.calibrate_threshold.us_per_trial"] = 1e6 * cal_secs / trials if trials else 0.0
    per_interval = occasions / ops
    m["campaign.us_per_occasion"] = 1e6 * serial_s / per_interval if per_interval else 0.0
    ri_secs = stats.get("campaign.run_interval", (0, 0.0))[1]
    m["campaign.run_interval.self_us_per_occasion"] = (
        1e6 * ri_secs / occasions if occasions else 0.0
    )
    m["campaign.occasions_simulated"] = per_interval
    m["campaign.occasions_after_decision"] = after_decision(tracer, records, wl, tiny) / ops
    m["campaign.useful_occasion_ratio"] = (
        sum(r.preambles_sent for r in records) / occasions if occasions else 0.0
    )
    m["campaign.pool_efficiency"] = pool_efficiency
    cli_calls, cli_secs = stats["cli.main"]
    m["cli.main.self_s"] = cli_secs / cli_calls
    m["cli.records_bytes"] = rep.records_bytes / len(records) if records else 0.0
    m["trace.overhead_ratio"] = statistics.median(rep.scaled) / serial_s
    m["trace.span_coverage"] = tracer.root_seconds() / rep.wall
    return m


def after_decision(tracer: Tracer, records, wl, tiny) -> int:
    """Occasions simulated after the interval's record could no longer
    change: after the UE connected, or after it left."""
    if not records:
        return 0
    cfg = load_campaign_config(config_doc(wl, tiny, 0))
    lead_ms = cfg.jammer_lead * 1000.0
    interval_spans = [
        sid for sid, name in enumerate(tracer.names) if name == "campaign.run_interval"
    ]
    decided = {
        sid: lead_ms + 1000.0 * (r.time_to_success if r.ra_succeeded else cfg.interval_duration)
        for sid, r in zip(interval_spans, records)
    }
    count = 0
    for sid, occ in tracer.tags.items():
        parent = tracer.parents[sid]
        if parent in decided:
            # 1e-6 ms absorbs the rounding of time_to_success (s) back to ms.
            count += occasion_time_ms(occ, cfg.cell) > decided[parent] + 1e-6
    return count


# --- Run facts and output -----------------------------------------------------

def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def current_cpu() -> int:
    """The CPU this process runs on (field 39 of /proc/self/stat)."""
    try:
        stat = Path("/proc/self/stat").read_text()
        return int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return min(os.sched_getaffinity(0))


def measure_untraced(wl, seed, seconds, tiny, facts):
    # The setup probes inherit the pinning, so the gauge samples their CPU.
    cpu = current_cpu()
    os.sched_setaffinity(0, {cpu})
    warm_up(wl)
    gauge = Gauge()
    setup_s = setup_seconds(wl, tiny, seed, gauge.bracket)
    with gauge.sampling():
        ops = time_workload(wl, tiny, seed, seconds, gauge.time)
    facts["cpu"] = cpu
    facts["cpu_speed"] = REFERENCE_NOMINAL_S / statistics.median(gauge.samples)
    facts["wall_ops_per_s"] = 1.0 / statistics.median(ops.seconds)
    metrics = {
        "ops_per_s": 1.0 / statistics.median(ops.scaled),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib(),
    }
    return ops, True, metrics


def measure_traced(wl, seed, seconds, tiny, facts, spans_path):
    # Serial phase and replay run on one CPU and are scaled to nominal speed
    # alike, so trace.overhead_ratio compares like with like. The pool gets
    # every CPU back.
    cpus = os.sched_getaffinity(0)
    cpu = current_cpu()
    os.sched_setaffinity(0, {cpu})
    facts["cpu"] = cpu
    warm_up(wl)
    gauge = Gauge()
    with gauge.sampling():
        ops = time_workload(wl, tiny, seed, seconds / 2, gauge.time)
    serial_s = statistics.median(ops.seconds)
    correct = True
    pool_efficiency = 0.0
    if wl.campaign:
        # The pool runs interval 0 of operation 0 with its batch: same record.
        os.sched_setaffinity(0, cpus)
        workers = min(nproc(), MAX_WORKERS)
        pool = Ops()
        batch = INTERVALS_PER_WORKER * workers
        campaign_op(wl, tiny, seed, 0, batch, workers, pool)
        os.sched_setaffinity(0, {cpu})
        ops.attempted += pool.attempted
        ops.failed += pool.failed
        correct &= pool.outputs[0][:1] == ops.outputs[0]
        # Both rates unscaled: the gauge cannot follow work on several CPUs.
        pool_efficiency = serial_s / (workers * pool.seconds[0])
        facts["workers"] = workers
    out_dir = OUT / f"{wl.name}-{os.getpid()}"
    try:
        rep = replay(wl, tiny, seed, seconds / 2, len(ops.outputs), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    expected = ops.outputs if wl.campaign else [f"{f:.6g}" for f in ops.outputs]
    mismatched = sum(a != b for a, b in zip(rep.outputs, expected))
    ops.attempted += len(rep.outputs)
    ops.failed += mismatched
    if wl.campaign:
        facts["traced_records_sha256"] = records_sha256(rep.outputs[0] or [])
    if spans_path is not None:
        rep.tracer.write(spans_path)
    nominal_s = statistics.median(ops.scaled)
    return ops, correct, layer_metrics(wl, tiny, rep, nominal_s, pool_efficiency)


def measure(wl: Workload, seed: int, seconds: float, trace: bool, tiny: bool,
            spans_path: Path | None):
    facts = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "workers": 1, "nproc": nproc(),
        "loadavg_before": os.getloadavg(), "python": platform.python_version(),
        "numpy": np.__version__, "prachjam": prachjam.__version__, "commit": commit(),
    }
    if trace:
        ops, correct, metrics = measure_traced(wl, seed, seconds, tiny, facts, spans_path)
    else:
        ops, correct, metrics = measure_untraced(wl, seed, seconds, tiny, facts)
    if wl.campaign:
        correct &= run_passes(wl, [r for batch in ops.outputs for r in batch])
        facts["records_sha256"] = records_sha256(ops.outputs[0])
    facts["base_seeds"] = [op_seed(seed, j) for j in range(len(ops.outputs))]
    facts["loadavg_after"] = os.getloadavg()
    facts["error_rate"] = ops.failed / ops.attempted
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": bool(correct and ops.failed == 0),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return facts, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shorten every interval (for the benchmark's own tests)")
    parser.add_argument("--spans", type=Path, help="with --trace 1, write the spans here")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    facts, result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), args.tiny, args.spans)
    print("facts " + json.dumps(facts, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {facts['error_rate']:.6g} ({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
