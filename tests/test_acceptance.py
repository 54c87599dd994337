"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. The
heavy Monte Carlo criteria use frozen seeds, so every run is reproducible.
"""
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from prachjam.campaign import (
    CampaignConfig,
    IntervalRecord,
    compute_metrics,
    run_campaign,
)
from prachjam.channel import ChannelConfig, superpose
from prachjam.cli import main
from prachjam.detector import DetectorConfig, calibrate_threshold, detect_preambles
from prachjam.jammer import JammerConfig, amplitude_from_snr, generate_jamming_frame
from prachjam.prach import PRESETS, occasions_in_frame, occupancy_ratio
from prachjam.waveform import demap_prach, modulate_preamble
from prachjam.zc import cyclic_shift, generate_zc, periodic_xcorr

from test_prach import enumerate_occupancy, random_config

PRACH, CELL = PRESETS["index98_40mhz_desk"]
OCCASION = occasions_in_frame(PRACH, CELL, 1)[0]
SIGMA_0DB = 1 / np.sqrt(2)  # unit preamble amplitude -> per-bin SNR 0 dB


def report(number: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] criterion {number} ({name}): {detail}")


def preamble_trial_missed(kind, snr_db, det_cfg, trials, seed, waves=None):
    """Fraction of transmitted preambles whose signature window stays silent."""
    jam_cfg = JammerConfig(kind=kind, snr_db=snr_db)
    chan = ChannelConfig(noise_sigma=SIGMA_0DB)
    rng = np.random.default_rng(seed)
    if waves is None:
        root_seq = generate_zc(1, 139)
        waves = [
            modulate_preamble(cyclic_shift(root_seq, 13 * s), OCCASION, CELL, 1.0)
            for s in range(10)
        ]
    missed = 0
    for _ in range(trials):
        sig = int(rng.integers(10))
        jam = generate_jamming_frame(jam_cfg, OCCASION, CELL, rng)
        rx = superpose(waves[sig], jam, chan, rng)
        _, bins = demap_prach(rx, OCCASION, CELL)
        result = detect_preambles(bins, det_cfg)
        if (1, sig) not in {(d.root, d.signature) for d in result.detected}:
            missed += 1
    return missed / trials


def test_criterion_1_zc_property_suite():
    start = time.time()
    roots = list(range(1, 22))  # 21 valid roots for the prime length 139
    ok = True
    for root in roots:
        seq = generate_zc(root, 139)
        ok &= bool(np.max(np.abs(np.abs(seq.samples) - 1.0)) < 1e-12)
        auto = periodic_xcorr(seq, seq, normalize=True)
        ok &= bool(np.max(np.abs(auto.values[1:])) < 1e-9)
        spectrum = np.fft.fft(seq.samples)
        ok &= bool(np.max(np.abs(np.abs(spectrum) - math.sqrt(139))) < 1e-9)
    expected = 1 / math.sqrt(139)
    for i, r1 in enumerate(roots):
        for r2 in roots[i + 1 :]:
            cross = periodic_xcorr(generate_zc(r1, 139), generate_zc(r2, 139))
            ok &= bool(np.max(np.abs(np.abs(cross.values) - expected)) < 1e-9)
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    report(1, "ZC properties", ok, f"{len(roots)} roots, {elapsed:.2f} s")
    assert ok


def test_criterion_2_occupancy_oracle():
    start = time.time()
    ratio = occupancy_ratio(PRACH, CELL)
    preset_ok = abs(ratio - 0.002234) <= 1e-6
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(100):
        config, cell = random_config(rng)
        got = occupancy_ratio(config, cell)
        want = float(enumerate_occupancy(config, cell))
        worst = max(worst, abs(got - want))
    elapsed = time.time() - start
    ok = preset_ok and worst <= 1e-9 and elapsed < 10.0
    report(
        2,
        "occupancy ratio",
        ok,
        f"preset {ratio:.6f}, worst grid-enumeration gap {worst:.2e}, {elapsed:.2f} s",
    )
    assert ok


def test_criterion_3_metrics_oracle():
    rows = {
        "S1-60s": dict(n_i=800, n_e=13, n_s=33, n_pj=343_522, mean=437, ppm=96, es=4.2),
        "S1-600s": dict(n_i=40, n_e=0, n_s=9, n_pj=169_630, mean=4241, ppm=53, es=22.5),
        "S2-60s": dict(n_i=800, n_e=11, n_s=224, n_pj=295_103, mean=374, ppm=758, es=28.4),
    }
    ok = True
    details = []
    for name, row in rows.items():
        records = []
        idx = 0
        for _ in range(row["n_e"]):
            records.append(IntervalRecord(idx, False, 1, 0, False, None, 0))
            idx += 1
        for _ in range(row["n_s"]):
            records.append(IntervalRecord(idx, True, 2, 1, True, 1.0, 0))
            idx += 1
        n_unsucc = row["n_i"] - row["n_e"] - row["n_s"]
        remaining = row["n_pj"] - row["n_s"]
        for i in range(n_unsucc):
            share = remaining // n_unsucc + (1 if i < remaining % n_unsucc else 0)
            records.append(IntervalRecord(idx, True, share, 0, False, None, 0))
            idx += 1
        metrics = compute_metrics(records)
        assert metrics.n_p_j == row["n_pj"]
        mean = metrics.mean_preambles_per_interval
        ppm = metrics.e_p_j * 1_000_000
        es_pct = metrics.e_s * 100
        row_ok = (
            abs(mean - row["mean"]) <= 1
            and abs(ppm - row["ppm"]) <= 1
            and abs(es_pct - Fraction(str(row["es"]))) <= Fraction(1, 10)
        )
        ok &= row_ok
        details.append(f"{name}: mean {float(mean):.2f}, {float(ppm):.1f} ppm, {float(es_pct):.2f} %")
    report(3, "campaign metrics vs recorded series", ok, "; ".join(details))
    assert ok


def test_criterion_4_amplitude_law():
    value = amplitude_from_snr(1.0, -6.0)
    ok = abs(value - 1.995) <= 1e-3
    report(4, "amplitude law", ok, f"amplitude_from_snr(1, -6) = {value:.6f}")
    assert ok


def test_criterion_5_jamming_efficacy():
    start = time.time()
    rng = np.random.default_rng(20240601)
    factor = calibrate_threshold(1e-3, 50_000, DetectorConfig(), rng)
    det_cfg = DetectorConfig(threshold_factor=factor)
    missed = preamble_trial_missed("S1", -6.0, det_cfg, trials=10_000, seed=5150)
    elapsed = time.time() - start
    ok = missed > 0.99 and elapsed < 300.0
    report(
        5,
        "jamming efficacy at the -6 dB design point",
        ok,
        f"calibrated factor {factor:.2f}, missed-detection rate {missed:.4f} "
        f"(required > 0.99), {elapsed:.1f} s",
    )
    assert ok


def test_criterion_6_spectra_comparison():
    rng = np.random.default_rng(20240601)
    factor = calibrate_threshold(1e-3, 50_000, DetectorConfig(), rng)
    det_cfg = DetectorConfig(threshold_factor=factor)
    # Transition-region design point; both spectra at the same amplitude,
    # hence matched expected in-band power.
    trials = 10_000
    missed_s1 = preamble_trial_missed("S1", -12.0, det_cfg, trials, seed=6001)
    missed_s2 = preamble_trial_missed("S2", -12.0, det_cfg, trials, seed=6002)
    # One-sided two-proportion test at 99 %: reject "S1 >= S2" only if S2's
    # missed rate significantly exceeds S1's.
    pooled = (missed_s1 + missed_s2) / 2
    se = math.sqrt(max(pooled * (1 - pooled) * 2 / trials, 1e-12))
    z = (missed_s2 - missed_s1) / se
    ok = z <= 2.326
    report(
        6,
        "S1 at least as disruptive as S2 at matched power",
        ok,
        f"missed S1 {missed_s1:.4f} vs S2 {missed_s2:.4f}, z = {z:.2f} (limit 2.33)",
    )
    assert ok


def test_criterion_7_baseline_sanity():
    start = time.time()
    cfg = CampaignConfig(
        n_intervals=100,
        interval_duration=5.0,  # dozens of retry opportunities; success expected on the first
        spectrum=JammerConfig(kind="S1", snr_db=-6.0, enabled=False),
        channel=ChannelConfig(noise_sigma=SIGMA_0DB),
        detector=DetectorConfig(),
        prach=PRACH,
        cell=CELL,
        base_seed=7007,
    )
    records, _ = run_campaign(cfg, threads=0)
    metrics = compute_metrics(records)
    mean_sent = metrics.mean_preambles_per_interval
    elapsed = time.time() - start
    ok = metrics.e_s == 1 and mean_sent <= 2
    report(
        7,
        "unjammed baseline",
        ok,
        f"e_s = {float(metrics.e_s) * 100:.1f} %, mean preambles to success "
        f"{float(mean_sent):.2f}, {elapsed:.1f} s",
    )
    assert ok
    assert all(r.ra_succeeded for r in records)


def test_criterion_8_contention_exhaustive():
    from test_rafsm import run_exchange
    from prachjam.rafsm import UeState, make_ue

    violations = 0
    for sig_a in range(10):
        for sig_b in range(10):
            ues = {"a": make_ue(1, 0.0), "b": make_ue(2, 0.0)}
            run_exchange(ues, (0, 19, 0), 0.0, {"a": (1, sig_a), "b": (1, sig_b)})
            connected = [n for n, u in ues.items() if u.state is UeState.CONNECTED]
            expected = 1 if sig_a == sig_b else 2
            if len(connected) != expected:
                violations += 1
    ok = violations == 0
    report(
        8,
        "contention resolution over all 2-UE signature assignments",
        ok,
        f"{violations} violations in 100 assignments",
    )
    assert ok


def test_criterion_9_determinism(tmp_path):
    doc = {
        "n_intervals": 4,
        "interval_duration": 1.0,
        "jammer_lead": 0.3,
        "jammer_lag": 0.3,
        "ue_startup_delay": 0.1,
        "base_seed": 99,
        "preset": "index98_40mhz_desk",
        "spectrum": {"kind": "S2", "snr_db": -12.0},
        "channel": {"noise_sigma": SIGMA_0DB},
    }
    cfg_path = tmp_path / "campaign.json"
    cfg_path.write_text(json.dumps(doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "records.jsonl").read_bytes()
    bytes_b = (out_b / "records.jsonl").read_bytes()
    ok = bytes_a == bytes_b
    report(9, "identical records for identical config", ok, f"{len(bytes_a)} bytes compared")
    assert ok
