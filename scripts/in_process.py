#!/usr/bin/env python3
"""Microseconds per call of the campaign's later-send path, in one tree.

    python3 scripts/in_process.py TREE

imports ``prachjam`` from ``TREE/src`` and prints one JSON object: the least
of a few timeit batches after one warm-up call, for ``_noise_like`` on 594
later sends at ``s2_saturated``'s point (S2 at -24 dB, factor 30, on
``configs/s1_60s.json``), one rebuilt send there, a record ``run_interval``
of that point (interval 0), a record interval of S1 at -15 dB (the mean of
intervals 0-19) and a logged ``s1_60s`` interval (interval 0).
"""
import json
import sys
import timeit
from dataclasses import replace
from pathlib import Path

TREE = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(TREE / "src"))

import numpy as np  # noqa: E402

from prachjam.campaign import _bins, _noise_like, load_campaign_config, run_interval  # noqa: E402
from prachjam.jammer import JammerConfig  # noqa: E402

base = load_campaign_config(json.loads((TREE / "configs" / "s1_60s.json").read_text()))
s2 = replace(base, spectrum=JammerConfig("S2", -24.0),
             detector=replace(base.detector, threshold_factor=30.0))
s1_15 = replace(base, spectrum=JammerConfig("S1", -15.0))
logged = replace(base, detection_log=True, event_trace=True)
channel = _bins(s2.prach, s2.cell, s2.spectrum, s2.channel, s2.detector)
idx = np.random.default_rng(1).integers(len(channel.signatures), size=594)
profile_of = _noise_like(channel, np.random.default_rng(2), idx)[1]
rng = np.random.default_rng(3)


def best_us(call, number, repeat=7):
    call()
    return min(timeit.repeat(call, number=number, repeat=repeat)) / number * 1e6


times = {
    "noise_like_594_sends_us": best_us(lambda: _noise_like(channel, rng, idx), 200),
    "rebuilt_send_us": best_us(lambda: profile_of(5, rng), 2000),
    "s2_saturated_interval_us": best_us(lambda: run_interval(s2, 0), 100),
    "s1_minus15db_interval_us": best_us(lambda: [run_interval(s1_15, i) for i in range(20)], 5)
    / 20,
    "s1_60s_logged_interval_us": best_us(lambda: run_interval(logged, 0), 1, repeat=3),
}
print(json.dumps({name: round(us, 2) for name, us in times.items()}))
