"""Answers pinned to the values of the current model.

A refactor of the receiver, the campaign or the RA machine must leave
these numbers exactly as they are; a change that moves them changes the
model and has to say so (and bump ``SEEDING_RULE`` if the draws moved).
Criterion 9 only compares two runs of the same code, so it cannot catch
such a drift.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from prachjam.campaign import interval_seed, load_campaign_config, run_campaign
from prachjam.detector import DetectorConfig, calibrate_threshold

QUICK = Path(__file__).resolve().parent.parent / "configs" / "quick.json"

# (preambles_sent, preambles_detected, time_to_success) per interval of
# quick.json (10 x 2 s, S1 at -16 dB) with the spectrum varied, under
# seeding rule v3. S1 and S2 give equally distributed bins and draw them
# from the same stream, so their records are the same.
_JAMMED = (19, 0, None)
_JAMMED_RECORDS = (
    [_JAMMED, (8, 1, 0.8195)] + [_JAMMED] * 6 + [(11, 1, 1.1195), (8, 1, 0.8195)]
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
