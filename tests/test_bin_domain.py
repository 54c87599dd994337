"""The campaign's bin-domain occasions against the time-domain waveform.

Campaigns draw an occasion's averaged PRACH bins, or a transmission's
delay profile, directly and judge a batch of them at once. These tests
hold that path to the waveform chain it replaces (``modulate_preamble``,
``generate_jamming_frame``, ``superpose``, ``demap_prach``,
``detect_preambles``): exactly where the arithmetic allows, and by a
two-proportion test on the miss rate where the two draw different numbers.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from prachjam.campaign import _bins, _judged
from prachjam.channel import ChannelConfig, superpose
from prachjam.detector import (
    DetectorConfig,
    delay_profile,
    detect_preambles,
    profile_bins,
    signatures_detected,
)
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
    signatures, _, chan, profiles = _bins(
        prach, CELL, spectrum, chan_cfg, DetectorConfig(roots=(1, 2)), 0.7
    )
    rng = np.random.default_rng(0)
    for n, signature in enumerate(signatures):
        wave = preamble_wave(signature, occ, 0.7)
        _, bins = demap_prach(superpose(wave, None, chan_cfg, rng), occ, CELL)
        np.testing.assert_allclose(chan.ue_mean[n] - chan.idle_mean, bins, atol=1e-12)
        np.testing.assert_array_equal(profiles[n], delay_profile(chan.ue_mean[n], signature[0]))
    jam = generate_jamming_frame(spectrum, occ, CELL, amplitude_from_snr(0.7, -6.0), rng)
    _, bins = demap_prach(superpose(None, jam, chan_cfg, rng), occ, CELL)
    np.testing.assert_allclose(bins, chan.idle_mean, atol=1e-12)


@pytest.mark.parametrize("kind", ["S1", "S2", "off"])
def test_jammer_and_noise_power_equal_demapped_waveforms(kind):
    spectrum = JammerConfig(kind="S1" if kind == "off" else kind, snr_db=-6.0,
                            enabled=kind != "off")
    chan_cfg = ChannelConfig(noise_sigma=SIGMA_0DB, jammer_gain=1.3)
    _, _, chan, _ = _bins(PRACH, CELL, spectrum, chan_cfg, DetectorConfig(), 1.0)
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


def profiles_of(bins, roots):
    """The delay profile of each bin row against its own root."""
    out = np.empty_like(bins)
    for root in np.unique(roots):
        out[roots == root] = delay_profile(bins[roots == root], root)
    return out


class ReplayedRows:
    """A stand-in for the bin channel that hands out given rows: with the
    means ``np.arange(len(rows))``, "mean" n selects row n."""

    def __init__(self, rows):
        self.rows = rows

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
    profiles = profiles_of(bins, sigs[:, 0])
    assert signatures_detected(profiles, sigs[:, 1], det).tolist() == single.tolist()
    # Cut into intervals of 25 transmissions: the chunks hand out the rows
    # in order, with the verdicts of detect_preambles.
    rng = np.random.default_rng(0)
    for start in range(0, len(bins), 25):
        idx = np.arange(start, start + 25)
        chunks = list(
            _judged(ReplayedRows(profiles), np.arange(len(bins)), sigs, det, rng, idx)
        )
        starts, rows, hits = zip(*chunks)
        assert [(k, len(r)) for k, r in zip(starts, rows)] == [
            (0, 1), (1, 2), (3, 4), (7, 8), (15, 10)
        ]
        np.testing.assert_array_equal(np.concatenate(rows), profiles[idx])
        assert np.concatenate(hits).tolist() == single[idx].tolist()


@pytest.mark.parametrize("snr_db", [-6.0, -12.0, -18.0])
@pytest.mark.parametrize("kind", ["S1", "S2"])
def test_miss_rate_matches_the_waveform_oracle(kind, snr_db):
    det = DetectorConfig()
    seed = 7000 + 100 * (kind == "S2") - int(snr_db)
    oracle_n, kernel_n = 1500, 8000
    oracle = preamble_trial_missed(kind, snr_db, det, oracle_n, seed)
    # The kernel judges the delay profiles of drawn bin rows here: the
    # campaign's own profile draw is held to this one below.
    missed = missed_bin_rows(JammerConfig(kind=kind, snr_db=snr_db), det, kernel_n, seed)
    z = two_proportion_z(oracle * oracle_n, oracle_n, missed, kernel_n)
    assert abs(z) < 2.576, f"kernel {missed / kernel_n:.4f} vs oracle {oracle:.4f}, z = {z:.2f}"


def missed_bin_rows(spectrum, det, n, seed):
    """Misses among ``n`` transmissions drawn as bin rows and judged on
    their delay profiles."""
    chunk = 2000
    signatures, sig_array, chan, _ = _bins(
        PRACH, CELL, spectrum, ChannelConfig(noise_sigma=SIGMA_0DB), det, 1.0
    )
    rng = np.random.default_rng(seed)
    missed = 0
    for _ in range(n // chunk):
        idx = rng.integers(len(signatures), size=chunk)
        rows = chan.draw(rng, chan.ue_mean[idx], len(idx))
        profiles = profiles_of(rows, sig_array[idx, 0])
        missed += int(np.sum(~signatures_detected(profiles, sig_array[idx, 1], det)))
    return missed


def two_proportion_z(count_a, n_a, count_b, n_b):
    """z of the difference of two proportions under their pooled rate."""
    pooled = (count_a + count_b) / (n_a + n_b)
    se = math.sqrt(max(pooled * (1 - pooled) * (1 / n_a + 1 / n_b), 1e-12))
    return (count_b / n_b - count_a / n_a) / se


@pytest.mark.parametrize("root", [1, 2, 5])
def test_profile_map_is_unitary(root):
    # |FFT(zc)|^2 = L for a prime length L, and ifft carries 1/L, so
    # z -> ifft(z * ref) is unitary: white bins give white profile taps of
    # the same variance, which the campaign draws directly.
    length = PRACH.preamble_length
    assert length == 139
    np.testing.assert_allclose(np.abs(np.fft.fft(generate_zc(root, length).samples)) ** 2,
                               length, rtol=1e-12)
    unit = delay_profile(np.eye(length, dtype=complex), root)
    np.testing.assert_allclose(unit @ unit.conj().T, np.eye(length), atol=1e-12)
    z = np.random.default_rng(root).standard_normal((4, length, 2)).view(complex)[..., 0]
    np.testing.assert_allclose(profile_bins(delay_profile(z, root), root), z, atol=1e-12)


def test_profile_draw_misses_like_the_bin_draw():
    # S1 at -12 dB misses about three preambles in four: the two draws'
    # miss rates agree by a two-sided two-proportion z-test at 99 %.
    det = DetectorConfig(roots=(1, 2, 5))
    spectrum = JammerConfig(kind="S1", snr_db=-12.0)
    n, chunk = 50_000, 2000
    signatures, sig_array, chan, profiles = _bins(
        PRACH, CELL, spectrum, ChannelConfig(noise_sigma=SIGMA_0DB), det, 1.0
    )
    rng = np.random.default_rng(41)
    missed = 0
    for _ in range(n // chunk):
        idx = rng.integers(len(signatures), size=chunk)
        rows = chan.draw(rng, profiles[idx], len(idx))
        missed += int(np.sum(~signatures_detected(rows, sig_array[idx, 1], det)))
    from_bins = missed_bin_rows(spectrum, det, n, seed=42)
    z = two_proportion_z(from_bins, n, missed, n)
    assert 0.6 < missed / n < 0.9
    assert abs(z) < 2.576, f"profiles {missed / n:.4f} vs bins {from_bins / n:.4f}, z = {z:.2f}"
