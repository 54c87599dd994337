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
    SEEDING_RULE, _bins, _ue_sends, build_summary_payload,
    compute_metrics, detection_entry, interval_seed, load_campaign_config, run_campaign,
)
from prachjam.cli import main
from prachjam.detector import (
    DelayProfile, DetectorConfig, calibrate_threshold, detect_preambles, profile_bins,
)
from prachjam.prach import occasions_between

from helpers import CALIBRATED_FACTORS, interval_stream

ROOT = Path(__file__).resolve().parent.parent
QUICK = ROOT / "configs" / "quick.json"

# (preambles_sent, preambles_detected, time_to_success) per interval of
# quick.json (10 x 2 s, S1 at -16 dB) with the spectrum varied, under
# seeding rule v12 (v11 heard interval 4 at send 2, v9 and v10 intervals 7
# and 8 at sends 6 and 4, v8 intervals 6 and 8 at sends 17 and 13).
# S1 and S2 give equally distributed bins and draw them from the same
# stream, so their records are the same.
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
    '9}, "schema_version": 1, "seeding": "v12: interval_seed(i) = '
    "uint64(little-endian) of blake2b(digest_size=8, data=pack('<QQ', "
    'base_seed, i)); interval stream = '
    'numpy.random.Generator(numpy.random.PCG64(w)), w the 4 little-endian '
    "uint64 words of blake2b(digest_size=32, data=pack('<Q', "
    'interval_seed(i))) that PCG64 takes as its generate_state(4, uint64), '
    "drawing the validity flag (random()), the first preamble's signature "
    '(integers(n_signatures)), then the noise of its delay profile ifft(bins * '
    'conj(fft(zc(root)))) against its own root: L taps mu[n] plus white noise '
    "of variance theta = 2 * std**2 (std that of the bins' parts), mu its mean "
    'with taps below 1e-12 of its peak set to 0, as 2*L standard normals '
    '(interleaved re, im); only if that preamble is not detected or the run is '
    'logged, the signatures of the K - 1 later preambles '
    '(integers(n_signatures, size=K - 1)), then their noise: 2*L standard '
    'normals for each in turn unless every mu has w nonzero taps, all in its '
    'own window, and 1 - Q(x0) >= 1e-3 with a float64 rounding bound under '
    '1e-6 of it; else random((2 * w + 1, K - 1)), column j for preamble j + 1: '
    'E = -log(1 - u) at the w nonzero taps M of its mu (in tap order), v = 1 - '
    'u, and phase fractions F at M, tap n being mu[n] + sqrt(theta * E[n]) * '
    'exp(1j * (angle(mu[n]) + 2 * pi * F[n])), then the power sums S of the n '
    '= L - w other taps, gamma(n, theta, size=K - 1), then for each preamble '
    'with v <= Q(x0) in turn integers(n) for the place of g * S, Q(g) = v, '
    'among its other taps in tap order and -log(1 - random(n - 1)) until their '
    'largest is below g / (1 - g) times their sum, scaled to sum S - g * S; '
    'such a preamble is detected as the detector judges its L tap powers in '
    "its own window, any other if M's peak P exceeds f * max((S_M + S - P) / "
    "(L - 1), 1e-12 * P), S_M M's power sum, Q(x) = sum((-1)**(k-1) * C(n, k) "
    '* (1 - k * x)**(n - 1), 1 <= k <= 1/x), x0 = f / (f + L - 1); then in '
    'occasion order each such preamble the detector judges after the first '
    'reads random(L) for F at its other taps, then, unless v <= Q(x0), -log(1 '
    '- random(n)) until their largest is below x0 times their sum, scaled to '
    'sum S; a logged run reads 2*L standard normals for each occasion without '
    'a preamble; a record depends on no draw of a preamble after the first '
    'detected", "spectrum": {"enabled": true, "kind": "S1", "snr_db": -16.0}}'
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


def test_quick_log_replays_from_the_interval_stream(tmp_path):
    # Interval 0 of the logged quick.json, rebuilt by hand from its one
    # stream: the validity flag, the first send's signature and complex row,
    # the other K - 1 signatures, 2w + 1 uniforms for each other send and
    # their K - 1 Gamma variates (no send of this interval falls in Fisher's
    # tail, so nothing more is read for them), then the idle occasions before
    # the UE's first send, drawn in one call, give its first log lines; the
    # first send's row gives the line after them.
    logged_quick_run("S1", tmp_path)
    lines = (tmp_path / "detections.jsonl").read_text().splitlines()
    cfg = load_campaign_config(json.loads(QUICK.read_text()))
    sends = _ue_sends(cfg)[3]
    channel = _bins(cfg.prach, cfg.cell, cfg.spectrum, cfg.channel, cfg.detector)
    chan = channel.bins
    rng = interval_stream(interval_seed(cfg.base_seed, 0))
    rng.random()
    own = rng.integers(len(channel.signatures))
    first_row = chan.draw(rng, channel.profile[own], 1)[0]
    rng.integers(len(channel.signatures), size=len(sends) - 1)
    (w, _, log_q0) = channel.reduced
    v = 1.0 - rng.random((2 * w + 1, len(sends) - 1))[w]
    assert np.all(np.log(v) > log_q0)
    rng.gamma(cfg.prach.preamble_length - w, 2 * chan.std**2, len(sends) - 1)
    idle = [occ for _, occ in occasions_between(cfg.prach, cfg.cell, 0.0, sends[0][0])]
    rows = rng.standard_normal((len(idle), cfg.prach.preamble_length, 2))
    rows = rows.view(complex)[..., 0] * chan.std + chan.idle_mean
    entries = [
        detection_entry(0, occ, detect_preambles(row, cfg.detector, occasion=occ), None)
        for occ, row in zip(idle, rows)
    ]
    first_row = DelayProfile(channel.signatures[own][0], first_row)
    first = detect_preambles(first_row, cfg.detector, occasion=sends[0][1])
    entries.append(detection_entry(0, sends[0][1], first, channel.signatures[own]))
    assert len(idle) == 90
    assert [json.dumps(d, sort_keys=True) for d in entries] == lines[: len(idle) + 1]


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
