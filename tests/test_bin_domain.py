"""The campaign's bin-domain occasions against the time-domain waveform.

Campaigns draw an occasion's averaged PRACH bins, or a transmission's
delay-profile tap powers, directly and judge a batch of them at once.
These tests hold that path to the waveform chain it replaces
(``modulate_preamble``, ``generate_jamming_frame``, ``superpose``,
``demap_prach``, ``detect_preambles``) and to the complex draws it
replaced: exactly where the arithmetic allows, and by two-proportion
z-tests on the miss rate and two-sample KS tests on tap powers where
they draw different numbers.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

import prachjam.campaign
from prachjam.campaign import _bins, _judged, _polar_powers
from prachjam.channel import ChannelConfig, superpose
from prachjam.detector import (
    DetectorConfig,
    _decide,
    delay_profile,
    detect_preambles,
    profile_bins,
    signatures_detected,
)
from prachjam.jammer import JammerConfig, generate_jamming_frame
from prachjam.prach import PRESETS, occasions_in_frame
from prachjam.waveform import IqFrame, demap_prach, frame_length, modulate_preamble
from prachjam.zc import cyclic_shift, generate_zc

from helpers import two_proportion_z
from test_acceptance import preamble_trial_missed

PRACH, CELL = PRESETS["index98_40mhz_desk"]
OCCASION = occasions_in_frame(PRACH, CELL, 1)[0]
SIGMA_0DB = 1 / np.sqrt(2)


def preamble_wave(signature, occ):
    root, shift = signature
    seq = cyclic_shift(generate_zc(root, PRACH.preamble_length), 13 * shift)
    return modulate_preamble(seq, occ, CELL, 1.0)


@pytest.mark.parametrize("freq_offset", [0, 2])
def test_ue_and_constant_jammer_bins_equal_demapped_waveforms(freq_offset):
    prach = replace(PRACH, freq_offset=freq_offset)
    occ = occasions_in_frame(prach, CELL, 1)[0]
    # A UE received at gain 0.8 and a jammer at gain 1.3: at the UE's level,
    # the design SNR 20 * log10(1.3 / 0.8) dB lower.
    chan_cfg = ChannelConfig(noise_sigma=0.0, ue_delay_samples=5)
    spectrum = JammerConfig(kind="S1_literal", snr_db=-6.0 - 20 * math.log10(1.3 / 0.8))
    signatures, _, chan, means = _bins(
        prach, CELL, spectrum, chan_cfg, DetectorConfig(roots=(1, 2))
    )
    rng = np.random.default_rng(0)
    for n, signature in enumerate(signatures):
        wave = preamble_wave(signature, occ)
        _, bins = demap_prach(superpose(wave, None, chan_cfg, rng), occ, CELL)
        np.testing.assert_allclose(chan.ue_mean[n] - chan.idle_mean, bins, atol=1e-12)
        np.testing.assert_array_equal(means.profile[n], delay_profile(chan.ue_mean[n], signature[0]))
    jam = generate_jamming_frame(spectrum, occ, CELL, rng)
    _, bins = demap_prach(superpose(None, jam, chan_cfg, rng), occ, CELL)
    np.testing.assert_allclose(bins, chan.idle_mean, atol=1e-12)


@pytest.mark.parametrize("kind", ["S1", "S2", "off"])
def test_jammer_and_noise_power_equal_demapped_waveforms(kind):
    # A jammer received at gain 1.3: 20 * log10(1.3) dB below the design SNR.
    spectrum = JammerConfig(kind="S1" if kind == "off" else kind,
                            snr_db=-6.0 - 20 * math.log10(1.3), enabled=kind != "off")
    chan_cfg = ChannelConfig(noise_sigma=SIGMA_0DB)
    _, _, chan, _ = _bins(PRACH, CELL, spectrum, chan_cfg, DetectorConfig())
    rng = np.random.default_rng(1)
    silent = IqFrame(np.zeros(frame_length(CELL), dtype=complex), CELL.sample_rate)
    power = []
    for _ in range(1000):
        jam = generate_jamming_frame(spectrum, OCCASION, CELL, rng) if kind != "off" else silent
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
    chan_cfg = ChannelConfig(noise_sigma=SIGMA_0DB)
    rng = np.random.default_rng(seed)
    rows, sigs = [], []
    for _ in range(count):
        sig = signatures[rng.integers(len(signatures))]
        jam = generate_jamming_frame(jam_cfg, OCCASION, CELL, rng)
        rows.append(demap_prach(superpose(waves[sig], jam, chan_cfg, rng), OCCASION, CELL)[1])
        sigs.append(sig)
    return np.array(rows), np.array(sigs)


def profiles_of(bins, roots):
    """The delay profile of each bin row against its own root."""
    out = np.empty_like(bins)
    for root in np.unique(roots):
        out[roots == root] = delay_profile(bins[roots == root], root)
    return out


def judged_with_powers(monkeypatch, bins, det, rng, sig_idx):
    """The campaign's two blocks ``(profile_of, power, hits)`` of
    ``_judged`` on the channel ``bins`` (a ``_bins`` result), with the tap
    powers each judged: the first transmission as a complex row, then the
    others."""
    _, sig_array, chan, means = bins
    powers = []

    def recording(power, windows, cfg):
        powers.append(power.copy())
        return signatures_detected(power, windows, cfg)

    monkeypatch.setattr(prachjam.campaign, "signatures_detected", recording)
    blocks = [_judged(chan, means, sig_array, det, rng, sig_idx[:1], polar=False),
              _judged(chan, means, sig_array, det, rng, sig_idx[1:])]
    monkeypatch.undo()
    return [(of, power, hits) for (of, hits), power in zip(blocks, powers)]


@pytest.mark.parametrize("roots", [(1,), (1, 2, 5)])
def test_batched_kernel_decides_like_detect_preambles(roots, monkeypatch):
    det = DetectorConfig(roots=roots)
    bins, sigs = demapped_rows(roots, -13.0, 400, seed=sum(roots))
    single = np.array([
        (int(r), int(s)) in {(d.root, d.signature) for d in detect_preambles(row, det).detected}
        for row, (r, s) in zip(bins, sigs)
    ])
    assert 40 < single.sum() < 360
    power = np.abs(profiles_of(bins, sigs[:, 0])) ** 2
    assert signatures_detected(power, sigs[:, 1], det).tolist() == single.tolist()
    # The kernel's own draws, cut into intervals of 25 transmissions: each
    # row's complex profile, taken back to bins and through
    # detect_preambles, gets the block's verdict.
    channel = _bins(PRACH, CELL, JammerConfig(kind="S1", snr_db=-13.0),
                    ChannelConfig(noise_sigma=SIGMA_0DB), det)
    signatures = channel[0]
    rng = np.random.default_rng(sum(roots))
    verdicts = []
    for _ in range(16):
        idx = rng.integers(len(signatures), size=25)
        blocks = judged_with_powers(monkeypatch, channel, det, rng, idx)
        assert [len(hits) for _, _, hits in blocks] == [1, 24]
        for k, (profile_of, _, hits) in zip((0, 1), blocks):
            for j, hit in enumerate(hits):
                root, window = signatures[idx[k + j]]
                row = profile_bins(profile_of(j, phases(len(verdicts))), root)
                assert detect_preambles(row, det).reports((root, window)) == hit
                verdicts.append(hit)
    assert 40 < sum(verdicts) < 360


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
        PRACH, CELL, spectrum, ChannelConfig(noise_sigma=SIGMA_0DB), det
    )
    rng = np.random.default_rng(seed)
    missed = 0
    for _ in range(n // chunk):
        idx = rng.integers(len(signatures), size=chunk)
        rows = chan.draw(rng, chan.ue_mean[idx], len(idx))
        power = np.abs(profiles_of(rows, sig_array[idx, 0])) ** 2
        missed += int(np.sum(~signatures_detected(power, sig_array[idx, 1], det)))
    return missed


def phases(key):
    """A generator, keyed by ``key``, for ``profile_of`` to draw a rebuilt
    polar row's zero-mean taps' phases from."""
    return np.random.default_rng([9, key])


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


def missed_complex_profiles(channel, det, n, seed):
    """Misses among ``n`` transmissions drawn as complex delay profiles
    (seeding rule v4) and judged on their tap powers."""
    chunk = 2000
    signatures, sig_array, chan, means = channel
    rng = np.random.default_rng(seed)
    missed = 0
    for _ in range(n // chunk):
        idx = rng.integers(len(signatures), size=chunk)
        rows = chan.draw(rng, means.profile[idx], len(idx))
        missed += int(np.sum(~signatures_detected(np.abs(rows) ** 2, sig_array[idx, 1], det)))
    return missed


def test_profile_draw_misses_like_the_bin_draw():
    # S1 at -12 dB misses about three preambles in four: the two draws'
    # miss rates agree by a two-sided two-proportion z-test at 99 %.
    det = DetectorConfig(roots=(1, 2, 5))
    spectrum = JammerConfig(kind="S1", snr_db=-12.0)
    n = 50_000
    channel = _bins(PRACH, CELL, spectrum, ChannelConfig(noise_sigma=SIGMA_0DB), det)
    missed = missed_complex_profiles(channel, det, n, seed=41)
    from_bins = missed_bin_rows(spectrum, det, n, seed=42)
    z = two_proportion_z(from_bins, n, missed, n)
    assert 0.6 < missed / n < 0.9
    assert abs(z) < 2.576, f"profiles {missed / n:.4f} vs bins {from_bins / n:.4f}, z = {z:.2f}"


# The kernel's means: the shipped one, with a single nonzero tap per
# signature, and two with every tap nonzero (the literal S1's constant
# spectrum; a delayed UE, whose shift spreads over the taps, with a phase
# that turns from tap to tap). The kernel draws the last two as complex
# rows, so the polar draw is held to the complex one on them with its
# gather over every tap (``polar_means``). At -12 dB the delayed,
# attenuated UE is missed 99.6 % of the time, so that one runs at -6 dB,
# where the miss rate is about 0.7. Its UE is received at gain 0.8 and its
# jammer at gain 1.3: at the UE's level, the noise 1 / 0.8 times as strong
# and a design SNR 20 * log10(1.3 / 0.8) dB lower.
MEANS = {
    "S1": (JammerConfig(kind="S1", snr_db=-12.0), ChannelConfig(noise_sigma=SIGMA_0DB)),
    "s1_literal": (
        JammerConfig(kind="S1_literal", snr_db=-12.0), ChannelConfig(noise_sigma=SIGMA_0DB),
    ),
    "delay_and_gains": (
        JammerConfig(kind="S1", snr_db=-6.0 - 20 * math.log10(1.3 / 0.8)),
        ChannelConfig(noise_sigma=SIGMA_0DB / 0.8, ue_delay_samples=5),
    ),
}
MEANS_DET = DetectorConfig(roots=(1, 2, 5))


def means_channel(name):
    return _bins(PRACH, CELL, *MEANS[name], MEANS_DET)


def polar_means(means):
    """``means`` as ``_polar_powers`` reads them: where the kernel would
    draw complex rows, with every tap gathered."""
    if means.taps is not None:
        return means
    length = means.profile.shape[-1]
    return means._replace(taps=np.tile(np.arange(length), (len(means.profile), 1)))


def polar_chunks(channel, rng, n, chunk=2000):
    """``(idx, power, profile_of)`` of ``n`` transmissions drawn by
    ``_polar_powers`` in chunks of ``chunk``, the signatures drawn first."""
    signatures, _, chan, means = channel
    means = polar_means(means)
    out = []
    for _ in range(n // chunk):
        idx = rng.integers(len(signatures), size=chunk)
        out.append((idx, *_polar_powers(chan.std, means, rng, idx)))
    return out


@pytest.mark.parametrize("name, seed", [("S1", 51), ("s1_literal", 53), ("delay_and_gains", 57)])
def test_power_draw_misses_like_the_complex_draw(name, seed):
    # The polar draw's tap powers against the complex profiles they
    # replace, 50,000 transmissions each: a two-sided two-proportion z-test
    # at 99 %.
    n = 50_000
    channel = means_channel(name)
    sig_array = channel[1]
    missed = sum(
        int(np.sum(~signatures_detected(power, sig_array[idx, 1], MEANS_DET)))
        for idx, power, _ in polar_chunks(channel, np.random.default_rng(seed), n)
    )
    reference = missed_complex_profiles(channel, MEANS_DET, n, seed=seed + 1000)
    z = two_proportion_z(reference, n, missed, n)
    assert 0.5 < missed / n < 0.9
    assert abs(z) < 2.576, f"powers {missed / n:.4f} vs complex {reference / n:.4f}, z = {z:.2f}"


def test_tap_powers_follow_the_complex_draw():
    # The power of each transmission's mean tap (noncentral) and of a tap
    # 69 further on (zero mean, exponential), from 20,000 transmissions of
    # the polar draw and of the complex draw: two-sample KS tests at 99 %.
    stats = pytest.importorskip("scipy.stats")
    n = 20_000
    channel = means_channel("S1")
    signatures, _, chan, means = channel
    chunks = polar_chunks(channel, np.random.default_rng(71), n)
    idx = np.concatenate([idx for idx, _, _ in chunks])
    power = np.concatenate([power for _, power, _ in chunks])
    reference_rng = np.random.default_rng(72)
    reference_idx = reference_rng.integers(len(signatures), size=n)
    reference = np.abs(chan.draw(reference_rng, means.profile[reference_idx], n)) ** 2
    for shift in (0, 69):
        taps = (means.taps[idx, 0] + shift) % PRACH.preamble_length
        reference_taps = (means.taps[reference_idx, 0] + shift) % PRACH.preamble_length
        assert np.all((means.profile[idx, taps] != 0) == (shift == 0))
        result = stats.ks_2samp(power[np.arange(n), taps],
                                reference[np.arange(n), reference_taps])
        assert result.pvalue > 0.01, f"tap +{shift}: {result}"


@pytest.mark.parametrize("name", sorted(MEANS))
def test_rebuilt_row_power_equals_kernel_power(name, monkeypatch):
    # A transmission that is stepped goes back to a complex profile; its
    # tap powers are the ones judged: in the kernel's blocks, and in the
    # polar draw with every tap gathered.
    channel = means_channel(name)
    rng = np.random.default_rng(81)
    idx = rng.integers(len(channel[0]), size=127)
    chunks = [(power, of) for of, power, _ in
              judged_with_powers(monkeypatch, channel, MEANS_DET, rng, idx)]
    chunks += [(power, of) for _, power, of in polar_chunks(channel, rng, 254, chunk=127)]
    for power, profile_of in chunks:
        rebuilt = np.array([profile_of(j, phases(j)) for j in range(len(power))])
        np.testing.assert_allclose(np.abs(rebuilt) ** 2, power, rtol=1e-12)


@pytest.mark.parametrize("roots", [(1,), (1, 2, 5)])
def test_round_off_rule_zeroes_all_but_the_own_tap(roots):
    # Shipped preset: one nonzero tap per signature, the rest round-off
    # (about 6e-14 against a peak of 11.79) set to 0.
    det = DetectorConfig(roots=roots)
    spectrum = JammerConfig(kind="S1", snr_db=-6.0)
    _, _, _, means = _bins(
        PRACH, CELL, spectrum, ChannelConfig(noise_sigma=SIGMA_0DB), det
    )
    assert (means.profile == 0).sum(axis=-1).tolist() == [138] * len(means.profile)
    np.testing.assert_array_equal(means.magnitude, np.abs(means.profile))
    assert means.taps.shape == (len(means.profile), 1)
    for name in ("s1_literal", "delay_and_gains"):
        means = means_channel(name)[3]
        assert not np.any(means.profile == 0), name
        assert means.taps is None


class Drawn:
    """A generator stand-in whose ``random(shape)`` returns ``values``."""

    def __init__(self, values):
        self.values = values

    def random(self, shape):
        assert np.broadcast_shapes(shape) == self.values.shape
        return self.values.copy()


def test_gathered_taps_only_save_work():
    # The polar draw computes the mean's term on the gathered taps only.
    # Gathering every tap, from the same exponentials and the same phase
    # fractions at the gathered taps, gives the same floats, where the mean
    # is zero too; and a rebuilt row whose other fractions come from
    # the same generator is the same row.
    _, _, chan, means = means_channel("S1")
    n, length = 300, means.profile.shape[-1]
    every = means._replace(taps=np.tile(np.arange(length), (len(means.profile), 1)))
    rng = np.random.default_rng(91)
    idx = rng.integers(len(means.profile), size=n)
    exps, fractions = rng.random((n, length)), rng.random((n, length))
    gathered = fractions[np.arange(n)[:, None], means.taps[idx]]
    few, few_of = _polar_powers(chan.std, means, Drawn(np.hstack([exps, gathered])), idx)
    all_taps, every_of = _polar_powers(chan.std, every, Drawn(np.hstack([exps, fractions])), idx)
    np.testing.assert_array_equal(few, all_taps)
    for j in range(0, n, 7):
        np.testing.assert_array_equal(
            few_of(j, Drawn(fractions[j])), every_of(j, Drawn(fractions[j]))
        )


def test_first_transmission_is_a_complex_row(monkeypatch):
    # The first transmission reads 2 * L standard normals, as chan.draw;
    # each next one reads L + 1 uniforms on this preset: L for its
    # exponentials, then the phase fraction of its one nonzero tap.
    channel = means_channel("S1")
    _, sig_array, chan, means = channel
    length = means.profile.shape[-1]
    assert means.taps.shape == (len(sig_array), 1)
    idx = np.random.default_rng(93).integers(len(sig_array), size=5)
    blocks = judged_with_powers(monkeypatch, channel, MEANS_DET, np.random.default_rng(94), idx)
    rng = np.random.default_rng(94)
    first = chan.draw(rng, means.profile[idx[:1]], 1)
    np.testing.assert_array_equal(blocks[0][0](0, None), first[0])
    u = rng.random((4, length + 1))
    power = -2 * chan.std**2 * np.log(1.0 - u[:, :length])
    at = (np.arange(4), means.taps[idx[1:], 0])
    mean, tap = means.magnitude[idx[1:]][at], power[at]
    power[at] = tap + mean * (mean + 2 * np.sqrt(tap) * np.cos(2 * np.pi * u[:, length]))
    np.testing.assert_array_equal(blocks[1][1], power)


def other_root_alarms(profiles, roots, det):
    """Rows of ``profiles`` (each against its own root in ``roots``) with a
    detection against any other root of ``det``."""
    alarms = np.zeros(len(profiles), dtype=bool)
    for root in det.roots:
        own = roots == root
        bins = profile_bins(profiles[own], root)
        for other in set(det.roots) - {root}:
            alarms[own] |= _decide(np.abs(delay_profile(bins, other)) ** 2, det)[2].any(axis=-1)
    return int(alarms.sum())


def test_other_roots_see_rebuilt_rows_like_complex_rows():
    # A rebuilt polar row reads its zero-mean taps' phases after every
    # block's powers, as the campaign does. Against another root the UE's taps spread
    # over the whole profile, so there those phases count: at a threshold
    # lowered to 8, where other-root false alarms run at about 10 %, their
    # rate on 20,000 rebuilt rows and on 20,000 complex rows agree by a
    # two-sided two-proportion z-test at 99 %.
    n = 20_000
    det = replace(MEANS_DET, threshold_factor=8.0)
    signatures, sig_array, chan, means = means_channel("S1")
    rng = np.random.default_rng(61)
    idx = rng.integers(len(signatures), size=n)
    _, profile_of = _polar_powers(chan.std, means, rng, idx)
    rebuilt = np.array([profile_of(j, rng) for j in range(n)])
    reference_idx = rng.integers(len(signatures), size=n)
    reference = chan.draw(rng, means.profile[reference_idx], n)
    alarms = other_root_alarms(rebuilt, sig_array[idx, 0], det)
    expected = other_root_alarms(reference, sig_array[reference_idx, 0], det)
    z = two_proportion_z(expected, n, alarms, n)
    assert 0.05 < alarms / n < 0.2
    assert abs(z) < 2.576, f"rebuilt {alarms / n:.4f} vs complex {expected / n:.4f}, z = {z:.2f}"
