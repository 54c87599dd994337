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
    SEEDING_RULE, _bins, _judged, _schedule, _ue_instants, build_summary_payload,
    compute_metrics, detection_entry, interval_seed, load_campaign_config, run_campaign,
)
from prachjam.cli import main
from prachjam.detector import (
    DelayProfile, DetectorConfig, calibrate_threshold, detect_preambles, profile_bins,
)
from prachjam.prach import occasions_between

ROOT = Path(__file__).resolve().parent.parent
QUICK = ROOT / "configs" / "quick.json"

# (preambles_sent, preambles_detected, time_to_success) per interval of
# quick.json (10 x 2 s, S1 at -16 dB) with the spectrum varied, under
# seeding rule v8 (as under v6: v7 and v8 moved only the logs' draws). S1 and
# S2 give equally distributed bins and draw them from the same stream, so
# their records are the same.
_JAMMED = (19, 0, None)
_JAMMED_RECORDS = (
    [_JAMMED] * 6 + [(17, 1, 1.7195), _JAMMED, (13, 1, 1.3195), _JAMMED]
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


# calibrate_threshold(1e-3, 50,000 trials) per detector root set, seeded with
# quick.json's base_seed; test_detector checks the several-roots factor
# against the closed form.
CALIBRATED_FACTORS = {(1,): 12.302488491048589, (1, 2, 5): 13.721947376669078}


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
    '"ue_startup_delay": 0.1}, "cell": '
    '{"cell_bandwidth": 40000000.0, "cp_samples": 18, "dft_size": 256, "n_prb": '
    '12, "numerology": 1, "sample_rate": 7680000.0}, "channel": {'
    '"noise_sigma": 0.7071067811865476, "ue_delay_samples": 0}, '
    '"detector": {"roots": [1], "shift_step": 13, "threshold_factor": 12.35}, '
    '"jammer_budget": '
    '{"active_span_per_period_ms": 0.42857142857142855, "bandwidth_hz": 4170000.0, '
    '"duty_period_ms": 20.0}, "metrics": {"e_p_j": 0.01098901098901099, '
    '"e_p_j_exact": "1/91", "e_p_j_ppm": 10989.010989010989, "e_s": 0.2, '
    '"e_s_exact": "1/5", "mean_preambles_per_interval": 18.2, '
    '"mean_preambles_per_interval_exact": "91/5", '
    '"n_e": 0, "n_p_j": 180, '
    '"n_ra_s": 2, "n_ra_u": 8}, "n_intervals": 10, "occupancy": {"bandwidth": '
    '0.10425, "period": 0.5, "ratio": 0.002233928571428571, "temporal": '
    '0.04285714285714286}, "prach": {"duration_symbols": 4, "freq_occasions": 1, '
    '"freq_offset": 0, "occasions_per_slot": 3, "prach_prbs": 12, '
    '"prach_subframes_per_frame": 1, "preamble_format": "A2", "preamble_length": '
    '139, "sfn_modulus": 2, "sfn_remainder": 1, "slot_in_subframe": 1, '
    '"slots_per_subframe_with_prach": 1, "start_symbol": 0, "subframe_number": 9}, '
    '"schema_version": 1, "seeding": "v8: interval_seed(i) = uint64(little-endian) '
    "of blake2b(digest_size=8, data=pack('<QQ', base_seed, i)); interval stream = "
    'numpy.random.default_rng(interval_seed(i)), drawing the validity flag '
    '(random()), then the signatures of all K scheduled preambles '
    '(integers(n_signatures, size=K)), then per preamble in transmit order the '
    'noise of its delay profile ifft(bins * conj(fft(zc(root)))) against its own '
    'root, whose L taps are mu[n] plus white noise with the variance of the bins, '
    "mu the UE's mean profile with its taps below 1e-12 of its peak set to 0: for "
    "the first preamble, and for every preamble if one of the UE's mean profiles "
    'has nonzero taps on L/2 of its taps or more, 2*L standard normals, the '
    'interleaved (re, im) parts of the noise; for each other one L + w uniforms u '
    '(random()), L for E = -log(1 - u), then w phase fractions F for its nonzero '
    'taps of mu in tap order, padded with its first zero taps to w, the most of '
    'any mean profile, tap n being mu[n] + sqrt(2 * std**2 * E[n]) * exp(1j * '
    '(angle(mu[n]) + 2 * pi * F[n])), std the deviation per part of the jammer and '
    'noise; the kernel judges the tap powers, and a stepped preamble is judged on '
    'its complex profile (other roots on its bins fft(profile) / conj(fft(zc(root)))'
    '); a logged run draws all K preambles, then reads on in occasion order: '
    'random(L) for F at the other taps of each stepped polar preamble, and 2*L '
    'standard normals for each occasion without a preamble; a record depends on '
    'no draw after the first preamble detected", '
    '"spectrum": {"enabled": true, '
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
        "186da7fe436cf408be05ad6da1f03b0a9fd3201e1e3899c9bdc90656f6fe1a69",
        "422078caa76be74cd6de01394d7e369d70597eec2ef464e10e2b3da93c361905",
    ),
    "roots_1_2_5": (
        "b41d32756bc593b31b57f3431efe03a3b9e305cd1f5ffb1e47de2c4f62135320",
        "a187ac6931afcddf65acef55f1655ee0e29d66082fdea979540dfeec2638982a",
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


def test_quick_log_replays_from_the_interval_stream(tmp_path):
    # Interval 0 of the logged quick.json, rebuilt by hand from its one
    # stream: the validity flag, the signatures, both of the kernel's blocks,
    # then the idle occasions before the UE's first send, drawn in one call,
    # give its first log lines.
    logged_quick_run("S1", tmp_path)
    lines = (tmp_path / "detections.jsonl").read_text().splitlines()
    cfg = load_campaign_config(json.loads(QUICK.read_text()))
    _, first_ms, ue_off = _ue_instants(cfg)
    sends = _schedule(cfg.prach, cfg.cell, first_ms, ue_off)
    signatures, sig_array, chan, means = _bins(
        cfg.prach, cfg.cell, cfg.spectrum, cfg.channel, cfg.detector
    )
    rng = np.random.default_rng(interval_seed(cfg.base_seed, 0))
    rng.random()
    sig_idx = rng.integers(len(signatures), size=len(sends))
    _judged(chan, means, sig_array, cfg.detector, rng, sig_idx[:1], polar=False)
    _judged(chan, means, sig_array, cfg.detector, rng, sig_idx[1:])
    idle = [occ for _, occ in occasions_between(cfg.prach, cfg.cell, 0.0, sends[0][0])]
    rows = rng.standard_normal((len(idle), cfg.prach.preamble_length, 2))
    rows = rows.view(complex)[..., 0] * chan.std + chan.idle_mean
    entries = [
        detection_entry(0, occ, detect_preambles(row, cfg.detector, occasion=occ), None)
        for occ, row in zip(idle, rows)
    ]
    assert len(idle) == 90
    assert [json.dumps(d, sort_keys=True) for d in entries] == lines[: len(idle)]
    assert json.loads(lines[len(idle)])["transmitted_signature"] is not None


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
    named = re.search(r"\(seeding rule (v\d+), recorded", (ROOT / "README.md").read_text())
    assert named is not None
    assert SEEDING_RULE.startswith(named.group(1) + ":")


def test_readme_library_example_runs(tmp_path):
    # The README's library example, run as a reader would run it: a fresh
    # interpreter with only the package on its path.
    (example,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", example], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"\[Detection\(root=1, signature=1, metric=[\d.]+\)\]\n", done.stdout)
