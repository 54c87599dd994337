"""Tests of the benchmark itself: metrics emitted, output checks, tracing.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

import numpy as np  # noqa: E402
import prachjam.campaign  # noqa: E402
import prachjam.cli  # noqa: E402
import prachjam.detector  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_spec_names_the_metrics_and_workloads_run_emits():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny", "--spans", str(spans))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    lines = [json.loads(line) for line in spans.read_text().splitlines()]
    assert lines and all(s["parent"] < s["id"] for s in lines)
    if workload == "s1_design":
        # Per occasion: jammer FFT + IFFT, four demapping FFTs and one
        # detector IFFT; per interval: one cached preamble (FFT + IFFT).
        occasions = values["campaign.occasions_simulated"]
        assert values["numpy.fft.calls_per_occasion"] * occasions == pytest.approx(
            7 * occasions + 2
        )


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "s1_design", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def tiny_campaign(name: str, seed: int = 5, n_intervals: int = 2):
    wl = run.WORKLOADS[name]
    cfg = run.load_campaign_config(run.config_doc(wl, True, seed, n_intervals))
    records, _ = run.run_campaign(cfg)
    return wl, cfg, records


def test_saturated_check_rejects_corrupted_records_and_wrong_counts():
    wl, cfg, records = tiny_campaign("s2_saturated")
    assert run.bad_records(wl, cfg, records) == 0 and run.run_passes(wl, records)
    first, second = records
    assert run.bad_records(wl, cfg, [replace(first, seed=first.seed ^ 1), second]) == 1
    assert run.bad_records(wl, cfg, [first, replace(second, index=0)]) == 1
    assert run.bad_records(wl, cfg, [first, replace(
        second, preambles_sent=second.preambles_sent - 1)]) == 1
    assert run.bad_records(wl, cfg, [replace(
        first, preambles_detected=first.preambles_sent + 1), second]) == 1
    assert run.bad_records(wl, cfg, [first, replace(second, preambles_detected=1)]) == 1
    assert run.bad_records(wl, cfg, [first]) == 2
    connected = replace(first, ra_succeeded=True, time_to_success=0.6)
    assert not run.run_passes(wl, [connected, second])


def test_connect_check_rejects_unconnected_intervals():
    wl, cfg, records = tiny_campaign("s1_design")
    assert run.bad_records(wl, cfg, records) == 0 and run.run_passes(wl, records)
    failed = replace(records[0], ra_succeeded=False, time_to_success=None)
    assert run.bad_records(wl, cfg, [failed, records[1]]) == 1
    chatty = [replace(r, preambles_sent=3) for r in records]
    assert run.bad_records(wl, cfg, chatty) == 0 and not run.run_passes(wl, chatty)


def test_saturated_interval_count_at_full_length():
    wl = run.WORKLOADS["s2_saturated"]
    cfg = run.load_campaign_config(run.config_doc(wl, False, 0))
    assert run.expected_preambles(cfg) == 595


def test_calibration_check_brackets_the_reference_factor():
    assert run.factor_ok(14.91)
    assert not run.factor_ok(prachjam.detector.DEFAULT_THRESHOLD_FACTOR)  # 1e-3
    assert not run.factor_ok(20.0)


def test_traced_replay_matches_untraced_and_restores_the_modules(tmp_path):
    originals = (prachjam.campaign.detect_preambles, np.fft.fft, prachjam.cli.main)
    wl = run.WORKLOADS["s1_design"]
    ops = run.time_workload(wl, True, 7, 1e-3)
    rep = run.replay(wl, True, 7, 1e-3, len(ops.outputs), tmp_path)
    assert rep.outputs and rep.outputs == ops.outputs[: len(rep.outputs)]
    assert rep.tracer.by_name()["detector.detect_preambles"][0] > 0
    assert (prachjam.campaign.detect_preambles, np.fft.fft, prachjam.cli.main) == originals


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    leaf = tracer.span("leaf", lambda: time.sleep(0.002))

    def outer():
        leaf()
        leaf()

    tracer.span("outer", outer)()
    assert tracer.names == ["outer", "leaf", "leaf"]
    assert tracer.parents == [-1, 0, 0]
    dur, own = tracer.durations(), tracer.self_times()
    assert own[0] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert own.sum() == pytest.approx(tracer.root_seconds())
    assert tracer.by_name()["leaf"][0] == 2


def test_spans_exclude_speed_samples():
    gauge = run.Gauge()
    tracer = Tracer(clock=gauge.clock)
    tracer.span("sampled", lambda: gauge._tick(signal.SIGALRM, None))()
    assert gauge.spent > 0 and tracer.durations()[0] < 0.1 * gauge.spent
