"""Answers pinned to the values of the current model.

A refactor of the receiver, the campaign or the RA machine must leave
these numbers exactly as they are; a change that moves them changes the
model and has to say so (and bump ``SEEDING_RULE`` if the draws moved).
Criterion 9 only compares two runs of the same code, so it cannot catch
such a drift.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from prachjam.campaign import (
    build_summary_payload, interval_seed, load_campaign_config, run_campaign,
)
from prachjam.cli import main
from prachjam.detector import DetectorConfig, calibrate_threshold

QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.json"

# (preambles_sent, preambles_detected, time_to_success) per interval of
# quick.json (10 x 2 s, S1 at -16 dB) with the spectrum varied, under
# seeding rule v4. S1 and S2 give equally distributed bins and draw them
# from the same stream, so their records are the same.
_JAMMED = (19, 0, None)
_JAMMED_RECORDS = (
    [_JAMMED] * 3 + [(14, 1, 1.4195)] + [_JAMMED] * 3 + [(13, 1, 1.3195)] + [_JAMMED] * 2
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


@pytest.mark.parametrize(
    "roots, factor",
    [((1,), 12.350357759221463), ((1, 2, 5), 13.577423462921082)],
)
def test_calibrated_factor(roots, factor):
    cfg = DetectorConfig(roots=roots)
    rng = np.random.default_rng(20240601)
    assert calibrate_threshold(1e-3, 50_000, cfg, rng) == factor


# summary.json of quick.json (minus ``generated_at``) as serialized: a
# loader that changes a value's JSON type (1.0 read back as 1) moves it.
PINNED_SUMMARY = (
    '{"base_seed": 20240601, "campaign": {"interval_duration": 2.0, '
    '"invalid_probability": 0.0, "jammer_lag": 0.5, "jammer_lead": 0.5, '
    '"preamble_amplitude": 1.0, "ue_startup_delay": 0.1}, "cell": {"cell_bandwidth": '
    '40000000.0, "cp_samples": 18, "dft_size": 256, "n_prb": 12, "numerology": 1, '
    '"prach_root_indices": [1], "sample_rate": 7680000.0, "shift_step": 13}, '
    '"channel": {"jammer_gain": 1.0, "noise_sigma": 0.7071067811865476, '
    '"ue_delay_samples": 0, "ue_gain": 1.0}, "detector": {"roots": [1], "shift_step": '
    '13, "threshold_factor": 12.35}, "jammer_budget": {"active_span_per_period_ms": '
    '0.42857142857142855, "bandwidth_hz": 4170000.0, "duty_period_ms": 20.0}, '
    '"metrics": {"e_p_j": 0.0111731843575419, "e_p_j_exact": "2/179", "e_p_j_ppm": '
    '11173.184357541899, "e_s": 0.2, "e_s_exact": "1/5", '
    '"mean_preambles_per_interval": 17.9, "mean_preambles_per_interval_exact": '
    '"179/10", "mean_preambles_sent_per_interval": 17.9, '
    '"mean_preambles_sent_per_interval_exact": "179/10", "n_e": 0, "n_p_j": 177, '
    '"n_ra_s": 2, "n_ra_u": 8}, "n_intervals": 10, "occupancy": {"bandwidth": '
    '0.10425, "period": 0.5, "ratio": 0.002233928571428571, "temporal": '
    '0.04285714285714286}, "prach": {"duration_symbols": 4, "freq_occasions": 1, '
    '"freq_offset": 0, "occasions_per_slot": 3, "prach_prbs": 12, '
    '"prach_subframes_per_frame": 1, "preamble_format": "A2", "preamble_length": 139, '
    '"sfn_modulus": 2, "sfn_remainder": 1, "slot_in_subframe": 1, '
    '"slots_per_subframe_with_prach": 1, "start_symbol": 0, "subframe_number": 9}, '
    '"schema_version": 1, "seeding": "v4: interval_seed(i) = uint64(little-endian) of '
    "blake2b(digest_size=8, data=pack('<QQ', base_seed, i)); interval stream = "
    'numpy.random.default_rng(interval_seed(i)), drawing the validity flag '
    '(random()), then the signatures of all K scheduled preambles '
    '(integers(n_signatures, size=K)), then per preamble in transmit order 2*L '
    'standard normals, the interleaved (re, im) parts of the jammer and noise in its '
    'delay profile ifft(bins * conj(fft(zc(root)))) against its own root, whose L '
    'taps are white with the variance of the bins; the transmission that decides goes '
    'back to bins as fft(profile) / conj(fft(zc(root))); a logged run draws the bins '
    'of an occasion without a preamble from '
    'numpy.random.default_rng(numpy.random.SeedSequence(interval_seed(i), '
    'spawn_key=(sfn, slot, occasion_index)))", "spectrum": {"enabled": true, "kind": '
    '"S1", "s1_literal": false, "snr_db": -16.0}}'
)


def test_quick_summary_payload():
    cfg = load_campaign_config(json.loads(QUICK.read_text()))
    _, metrics = run_campaign(cfg)
    payload = json.dumps(build_summary_payload(cfg, metrics), sort_keys=True)
    assert payload == PINNED_SUMMARY


# sha256 of detections.jsonl and events.jsonl of quick.json at 3 intervals
# with both logs on: the logged run steps every occasion, so these pin each
# occasion's detections and noise floor and each UE transition.
PINNED_LOGS = {
    "S1": (
        "8e40bae78b5d41396d180d4eeea62caf9c7c239252aa7540fc0515626292ef83",
        "422078caa76be74cd6de01394d7e369d70597eec2ef464e10e2b3da93c361905",
    ),
    "roots_1_2_5": (
        "d67bacc2d99705447afa1d8749d36c4a9d3519cf6f4ef1f2120fc1f9f7cd25cc",
        "30120a62354ec23106bae155252aa30dfb8b21f362c7e32523fa771eebc3248d",
    ),
}

LOG_OVERRIDES = {
    "S1": [],
    "roots_1_2_5": ["detector.roots=[1,2,5]", "spectrum.snr_db=-12"],
}


@pytest.mark.parametrize("name", sorted(PINNED_LOGS))
def test_quick_logs(name, tmp_path):
    sets = ["n_intervals=3", "detection_log=true", "event_trace=true", *LOG_OVERRIDES[name]]
    argv = ["simulate", "--config", str(QUICK), "--out", str(tmp_path)]
    assert main(argv + [arg for s in sets for arg in ("--set", s)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("detections.jsonl", "events.jsonl")
    )
    assert digests == PINNED_LOGS[name]
