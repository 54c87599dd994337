"""The campaign's bin-domain occasions against the time-domain waveform.

Campaigns draw an occasion's averaged PRACH bins directly and judge a
batch of them at once. These tests hold that path to the waveform chain
it replaces (``modulate_preamble``, ``generate_jamming_frame``,
``superpose``, ``demap_prach``, ``detect_preambles``): exactly where the
arithmetic allows, and by a two-proportion test on the miss rate where
the two draw different numbers.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from prachjam.campaign import _bins, _first_hit
from prachjam.channel import ChannelConfig, superpose
from prachjam.detector import DetectorConfig, detect_preambles, signatures_detected
from prachjam.jammer import JammerConfig, amplitude_from_snr, generate_jamming_frame
from prachjam.prach import PRESETS, occasions_in_frame
from prachjam.waveform import IqFrame, demap_prach, frame_length, modulate_preamble
from prachjam.zc import cyclic_shift, generate_zc

from test_acceptance import preamble_trial_missed

PRACH, CELL = PRESETS["index98_40mhz_desk"]
OCCASION = occasions_in_frame(PRACH, CELL, 1)[0]
SIGMA_0DB = 1 / np.sqrt(2)


def preamble_wave(signature, occ, amplitude=1.0):
    root, shift = signature
    seq = cyclic_shift(generate_zc(root, PRACH.preamble_length), 13 * shift)
    return modulate_preamble(seq, occ, CELL, amplitude)


@pytest.mark.parametrize("freq_offset", [0, 2])
def test_ue_and_constant_jammer_bins_equal_demapped_waveforms(freq_offset):
    prach = replace(PRACH, freq_offset=freq_offset)
    occ = occasions_in_frame(prach, CELL, 1)[0]
    chan_cfg = ChannelConfig(noise_sigma=0.0, ue_gain=0.8, jammer_gain=1.3, ue_delay_samples=5)
    spectrum = JammerConfig(kind="S1", snr_db=-6.0, s1_literal=True)
    signatures, _, chan = _bins(
        prach, CELL, spectrum, chan_cfg, DetectorConfig(roots=(1, 2)), 0.7
    )
    rng = np.random.default_rng(0)
    for n, signature in enumerate(signatures):
        wave = preamble_wave(signature, occ, 0.7)
        _, bins = demap_prach(superpose(wave, None, chan_cfg, rng), occ, CELL)
        np.testing.assert_allclose(chan.ue_mean[n] - chan.idle_mean, bins, atol=1e-12)
    jam = generate_jamming_frame(spectrum, occ, CELL, amplitude_from_snr(0.7, -6.0), rng)
    _, bins = demap_prach(superpose(None, jam, chan_cfg, rng), occ, CELL)
    np.testing.assert_allclose(bins, chan.idle_mean, atol=1e-12)


@pytest.mark.parametrize("kind", ["S1", "S2", "off"])
def test_jammer_and_noise_power_equal_demapped_waveforms(kind):
    spectrum = JammerConfig(kind="S1" if kind == "off" else kind, snr_db=-6.0,
                            enabled=kind != "off")
    chan_cfg = ChannelConfig(noise_sigma=SIGMA_0DB, jammer_gain=1.3)
    _, _, chan = _bins(PRACH, CELL, spectrum, chan_cfg, DetectorConfig(), 1.0)
    a_f = amplitude_from_snr(1.0, -6.0)
    rng = np.random.default_rng(1)
    silent = IqFrame(np.zeros(frame_length(CELL), dtype=complex), CELL.sample_rate)
    power = []
    for _ in range(1000):
        jam = generate_jamming_frame(spectrum, OCCASION, CELL, a_f, rng) if kind != "off" else silent
        _, bins = demap_prach(superpose(None, jam, chan_cfg, rng), OCCASION, CELL)
        power.append(np.mean(np.abs(bins) ** 2))
    # 139,000 exponential samples: a 2 % tolerance is seven standard errors.
    assert np.mean(power) == pytest.approx(2 * chan.std**2, rel=0.02)
    assert chan.idle_mean == 0


def demapped_rows(roots, snr_db, count, seed):
    """Demapped time-domain occasions of random signatures under S1."""
    signatures = [(r, s) for r in roots for s in range(10)]
    waves = {sig: preamble_wave(sig, OCCASION) for sig in signatures}
    jam_cfg = JammerConfig(kind="S1", snr_db=snr_db)
    a_f = amplitude_from_snr(1.0, snr_db)
    chan_cfg = ChannelConfig(noise_sigma=SIGMA_0DB)
    rng = np.random.default_rng(seed)
    rows, sigs = [], []
    for _ in range(count):
        sig = signatures[rng.integers(len(signatures))]
        jam = generate_jamming_frame(jam_cfg, OCCASION, CELL, a_f, rng)
        rows.append(demap_prach(superpose(waves[sig], jam, chan_cfg, rng), OCCASION, CELL)[1])
        sigs.append(sig)
    return np.array(rows), np.array(sigs)


class ReplayedBins:
    """A stand-in for the bin channel that hands out given rows in order."""

    def __init__(self, rows):
        self.rows = rows
        self.ue_mean = np.arange(len(rows))  # "mean" n selects row n

    def draw(self, rng, mean, rows):
        return self.rows[mean]


@pytest.mark.parametrize("roots", [(1,), (1, 2, 5)])
def test_batched_kernel_decides_like_detect_preambles(roots):
    det = DetectorConfig(roots=roots)
    bins, sigs = demapped_rows(roots, -13.0, 400, seed=sum(roots))
    single = np.array([
        (int(r), int(s)) in {(d.root, d.signature) for d in detect_preambles(row, det).detected}
        for row, (r, s) in zip(bins, sigs)
    ])
    assert 40 < single.sum() < 360
    assert signatures_detected(bins, sigs, det).tolist() == single.tolist()
    # Cut into intervals of 25 transmissions: the kernel's first hit is the
    # first row in which detect_preambles finds the sender's signature.
    rng = np.random.default_rng(0)
    for start in range(0, len(bins), 25):
        idx = np.arange(start, start + 25)
        k, row = _first_hit(ReplayedBins(bins), sigs, det, rng, idx)
        hits = np.flatnonzero(single[idx])
        expected = hits[0] if hits.size else 25
        assert k == expected
        np.testing.assert_array_equal(row, bins[start + min(k, 24)])


@pytest.mark.parametrize("snr_db", [-6.0, -12.0, -18.0])
@pytest.mark.parametrize("kind", ["S1", "S2"])
def test_miss_rate_matches_the_waveform_oracle(kind, snr_db):
    det = DetectorConfig()
    seed = 7000 + 100 * (kind == "S2") - int(snr_db)
    oracle_n, kernel_n = 1500, 8000
    oracle = preamble_trial_missed(kind, snr_db, det, oracle_n, seed)
    signatures, sig_array, chan = _bins(
        PRACH, CELL, JammerConfig(kind=kind, snr_db=snr_db),
        ChannelConfig(noise_sigma=SIGMA_0DB), det, 1.0,
    )
    rng = np.random.default_rng(seed)
    missed = 0
    for _ in range(kernel_n // 2000):
        idx = rng.integers(len(signatures), size=2000)
        rows = chan.draw(rng, chan.ue_mean[idx], len(idx))
        missed += int(np.sum(~signatures_detected(rows, sig_array[idx], det)))
    kernel = missed / kernel_n
    # Two-sided two-proportion z-test at 99 %.
    pooled = (oracle * oracle_n + missed) / (oracle_n + kernel_n)
    se = math.sqrt(max(pooled * (1 - pooled) * (1 / oracle_n + 1 / kernel_n), 1e-12))
    z = (kernel - oracle) / se
    assert abs(z) < 2.576, f"kernel {kernel:.4f} vs oracle {oracle:.4f}, z = {z:.2f}"
