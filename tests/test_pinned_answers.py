"""Answers pinned to the values of the current model.

A refactor of the receiver, the campaign or the RA machine must leave
these numbers exactly as they are; a change that moves them changes the
model and has to say so (and bump ``SEEDING_RULE`` if the draws moved).
Criterion 9 only compares two runs of the same code, so it cannot catch
such a drift.
"""
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prachjam.campaign
from prachjam.campaign import (
    SEEDING_RULE, build_summary_payload, compute_metrics, interval_seed, load_campaign_config,
    run_campaign,
)
from prachjam.cli import main
from prachjam.detector import DelayProfile, DetectorConfig, calibrate_threshold, profile_bins

from helpers import CALIBRATED_FACTORS

ROOT = Path(__file__).resolve().parent.parent
QUICK = ROOT / "configs" / "quick.json"

# (preambles_sent, preambles_detected, time_to_success) per interval of
# quick.json (10 x 2 s, S1 at -16 dB) with the spectrum varied. S1 and S2
# give equally distributed bins and draw them from the same stream, so their
# records are the same.
_JAMMED = (19, 0, None)
_JAMMED_RECORDS = (
    [_JAMMED] * 2 + [(15, 1, 1.5195)] + [_JAMMED] * 2 + [(14, 1, 1.4195), (9, 1, 0.9195)]
    + [_JAMMED] * 3
)
PINNED_RECORDS = {
    "S1": _JAMMED_RECORDS,
    "S2": _JAMMED_RECORDS,
    "off": [(1, 1, 0.1195)] * 10,
}

SPECTRA = {
    "S1": {},
    "S2": {"kind": "S2"},
    "off": {"enabled": False},
}


@pytest.mark.parametrize("name", sorted(PINNED_RECORDS))
def test_quick_campaign_records(name):
    doc = json.loads(QUICK.read_text())
    doc["spectrum"].update(SPECTRA[name])
    cfg = load_campaign_config(doc)
    records, _ = run_campaign(cfg)
    got = [(r.preambles_sent, r.preambles_detected, r.time_to_success) for r in records]
    assert got == PINNED_RECORDS[name]
    for i, r in enumerate(records):
        assert (r.index, r.valid, r.seed) == (i, True, interval_seed(cfg.base_seed, i))
        assert r.ra_succeeded == (r.time_to_success is not None)


@pytest.mark.parametrize("roots, factor", list(CALIBRATED_FACTORS.items()))
def test_calibrated_factor(roots, factor):
    cfg = DetectorConfig(roots=roots)
    rng = np.random.default_rng(20240601)
    assert calibrate_threshold(1e-3, 50_000, cfg, rng) == factor


# summary.json of quick.json (minus ``generated_at``) as serialized: a
# loader that changes a value's JSON type (1.0 read back as 1) moves it.
PINNED_SUMMARY = (
    '{"base_seed": 20240601, "campaign": {"interval_duration": 2.0, '
    '"invalid_probability": 0.0, "jammer_lag": 0.5, "jammer_lead": 0.5, '
    '"ue_startup_delay": 0.1}, "cell": {"cell_bandwidth": 40000000.0, '
    '"cp_samples": 18, "dft_size": 256, "n_prb": 12, "numerology": 1, '
    '"sample_rate": 7680000.0}, "channel": {"noise_sigma": 0.7071067811865476, '
    '"ue_delay_samples": 0}, "detector": {"roots": [1], "shift_step": 13, '
    '"threshold_factor": 12.35}, "jammer_budget": '
    '{"active_span_per_period_ms": 0.42857142857142855, "bandwidth_hz": '
    '4170000.0, "duty_period_ms": 20.0}, "metrics": {"e_p_j": '
    '0.017543859649122806, "e_p_j_exact": "1/57", "e_p_j_ppm": '
    '17543.859649122805, "e_s": 0.3, "e_s_exact": "3/10", '
    '"mean_preambles_per_interval": 17.1, "mean_preambles_per_interval_exact": '
    '"171/10", "n_e": 0, "n_p_j": 168, "n_ra_s": 3, "n_ra_u": 7}, '
    '"n_intervals": 10, "occupancy": {"bandwidth": 0.10425, "period": 0.5, '
    '"ratio": 0.002233928571428571, "temporal": 0.04285714285714286}, "prach": '
    '{"duration_symbols": 4, "freq_occasions": 1, "freq_offset": 0, '
    '"occasions_per_slot": 3, "prach_prbs": 12, "prach_subframes_per_frame": '
    '1, "preamble_format": "A2", "preamble_length": 139, "sfn_modulus": 2, '
    '"sfn_remainder": 1, "slot_in_subframe": 1, '
    '"slots_per_subframe_with_prach": 1, "start_symbol": 0, "subframe_number": '
    '9}, "schema_version": 1, "seeding": "v12", "spectrum": {"enabled": true, '
    '"kind": "S1", "snr_db": -16.0}}'
)


def test_quick_summary_payload():
    cfg = load_campaign_config(json.loads(QUICK.read_text()))
    metrics = compute_metrics(run_campaign(cfg)[0])
    payload = json.dumps(build_summary_payload(cfg, metrics), sort_keys=True)
    assert payload == PINNED_SUMMARY


# sha256 of detections.jsonl and events.jsonl of quick.json at 3 intervals
# with both logs on: the logged run steps every occasion, so these pin each
# occasion's detections and noise floor and each UE transition.
PINNED_LOGS = {
    "S1": (
        "8448776c4779c8c353ed2783b673e076970b0e49c7932aaf15f1e0084fb713df",
        "1a61cce48fedecd1adfe5c73cfa2ea23fe4891ff55aa3bbee3ca29797b10755f",
    ),
    "roots_1_2_5": (
        "a309b2664e3807ffd631fdadaf3a6692bd1a003d7419106926e0850eeb0ef033",
        "7001e467ff6f1d74b28128b8b4d202ce72b0becca13d5fefbaff7cab8e72062d",
    ),
}

LOG_OVERRIDES = {
    "S1": [],
    "roots_1_2_5": ["detector.roots=[1,2,5]", "spectrum.snr_db=-12"],
}


def logged_quick_run(name, out):
    sets = ["n_intervals=3", "detection_log=true", "event_trace=true", *LOG_OVERRIDES[name]]
    argv = ["simulate", "--config", str(QUICK), "--out", str(out)]
    assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(PINNED_LOGS))
def test_quick_logs(name, tmp_path):
    logged_quick_run(name, tmp_path)
    digests = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("detections.jsonl", "events.jsonl")
    )
    assert digests == PINNED_LOGS[name]


@pytest.mark.parametrize("name", sorted(PINNED_LOGS))
def test_quick_logs_judge_like_the_round_trip(name, tmp_path, monkeypatch):
    # A stepped send is judged on the delay profile the kernel holds. Taken
    # back to bins first, and transformed again in the detector, it must
    # give the same records, events and verdicts, its floats within round-off.
    profile = logged_quick_run(name, tmp_path / "profile")
    detect, sends = prachjam.campaign.detect_preambles, []

    def round_trip(bins, det_cfg, occasion=None):
        if isinstance(bins, DelayProfile):
            sends.append(occasion)
            bins = profile_bins(bins.taps, bins.root)
        return detect(bins, det_cfg, occasion=occasion)

    monkeypatch.setattr(prachjam.campaign, "detect_preambles", round_trip)
    bins = logged_quick_run(name, tmp_path / "bins")
    records = [json.loads(line) for line in (bins / "records.jsonl").read_text().splitlines()]
    assert len(sends) == sum(r["preambles_sent"] for r in records) > 0
    for f in ("records.jsonl", "preambles.csv", "events.jsonl"):
        assert (profile / f).read_text() == (bins / f).read_text()
    lines = [(d / "detections.jsonl").read_text().splitlines() for d in (profile, bins)]
    assert len(lines[0]) == len(lines[1]) == 3 * 450
    for got, want in zip(*lines):
        got, want = json.loads(got), json.loads(want)
        assert got.keys() == want.keys()
        assert got["transmitted_signature"] == want["transmitted_signature"]
        assert [d[:2] for d in got["detections"]] == [d[:2] for d in want["detections"]]
        np.testing.assert_allclose(
            [d[2] for d in got["detections"]] + [got["noise_floor"]],
            [d[2] for d in want["detections"]] + [want["noise_floor"]],
            rtol=1e-12,
        )
        rest = {k: v for k, v in got.items() if k not in ("detections", "noise_floor")}
        assert rest == {k: want[k] for k in rest}


def test_readme_names_the_current_seeding_rule():
    # The README's statement of the rule in force must move with the code.
    readme = (ROOT / "README.md").read_text()
    named = re.search(r"\(seeding rule (v\d+), recorded", readme)
    assert named is not None
    assert SEEDING_RULE == named.group(1)
    assert f'`"seeding": "{SEEDING_RULE}"`' in readme


def test_readme_rebuilds_the_interval_stream():
    # The README's few lines of numpy rebuild an interval's stream from its
    # record's seed: the same validity flag, then the same state.
    (rebuild,) = re.findall(r"```py\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    cfg = load_campaign_config(json.loads(QUICK.read_text()))
    for i in range(20):
        seed, rng, valid = prachjam.campaign._stream(cfg, i)
        scope = {"seed": seed}
        exec(rebuild, scope)
        assert valid == (scope["rng"].random() >= cfg.invalid_probability)
        assert rng.bit_generator.state == scope["rng"].bit_generator.state


def test_readme_library_example_runs(tmp_path):
    # The README's library example, run as a reader would run it: a fresh
    # interpreter with only the package on its path. Only a campaign on
    # several workers loads the process pool and so multiprocessing.
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    example += "import sys\nprint('multiprocessing' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", example], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"\[Detection\(root=1, signature=1, metric=[\d.]+\)\]\nFalse\n",
                        done.stdout)
