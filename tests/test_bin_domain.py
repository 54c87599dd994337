"""The campaign's bin-domain occasions against the time-domain waveform.

Campaigns draw an occasion's averaged PRACH bins, or a transmission's
delay profile (where the means are sparse, only its own window and two
numbers for the rest), directly and judge a batch of them at once.
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
from prachjam.campaign import judge_sends
from prachjam.channel import ChannelConfig, superpose
from prachjam.detector import (
    DelayProfile,
    DetectorConfig,
    _decide,
    _window_indices,
    delay_profile,
    detect_preambles,
    profile_bins,
    window_detected,
)
from prachjam.jammer import JammerConfig, generate_jamming_frame
from prachjam.prach import occasions_in_frame
from prachjam.waveform import demap_prach
from prachjam.zc import generate_zc

from helpers import (
    CELL, NOISE_0DB, OCCASION, PRACH, SIGMA_0DB, WAVES, bin_domain, oracle_misses,
    own_window_hits, preamble_wave, received_bins, two_proportion_z,
)


@pytest.mark.parametrize("freq_offset", [0, 2])
def test_ue_and_constant_jammer_bins_equal_demapped_waveforms(freq_offset):
    prach = replace(PRACH, freq_offset=freq_offset)
    occ = occasions_in_frame(prach, CELL, 1)[0]
    # A UE received at gain 0.8 and a jammer at gain 1.3: at the UE's level,
    # the design SNR 20 * log10(1.3 / 0.8) dB lower.
    chan_cfg = ChannelConfig(noise_sigma=0.0, ue_delay_samples=5)
    spectrum = JammerConfig(kind="S1_literal", snr_db=-6.0 - 20 * math.log10(1.3 / 0.8))
    channel = bin_domain(spectrum, chan_cfg, DetectorConfig(roots=(1, 2)), prach)
    chan = channel.bins
    rng = np.random.default_rng(0)
    for n, signature in enumerate(channel.signatures):
        wave = preamble_wave(signature, occ)
        _, bins = demap_prach(superpose(wave, None, chan_cfg, rng), occ, CELL)
        np.testing.assert_allclose(chan.ue_mean[n] - chan.idle_mean, bins, atol=1e-12)
        np.testing.assert_array_equal(channel.profile[n],
                                      delay_profile(chan.ue_mean[n], signature[0]))
    jam = generate_jamming_frame(spectrum, occ, CELL, rng)
    _, bins = demap_prach(superpose(None, jam, chan_cfg, rng), occ, CELL)
    np.testing.assert_allclose(bins, chan.idle_mean, atol=1e-12)


@pytest.mark.parametrize("kind", ["S1", "S2", "off"])
def test_jammer_and_noise_power_equal_demapped_waveforms(kind):
    # A jammer received at gain 1.3: 20 * log10(1.3) dB below the design SNR.
    spectrum = JammerConfig(kind="S1" if kind == "off" else kind,
                            snr_db=-6.0 - 20 * math.log10(1.3), enabled=kind != "off")
    chan_cfg = ChannelConfig(noise_sigma=SIGMA_0DB)
    chan = bin_domain(spectrum, chan_cfg).bins
    _, bins = received_bins(1000, np.random.default_rng(1), spectrum, chan_cfg)
    # 139,000 exponential samples: a 2 % tolerance is seven standard errors.
    assert np.mean(np.abs(bins) ** 2) == pytest.approx(2 * chan.std**2, rel=0.02)
    assert chan.idle_mean == 0


@pytest.mark.parametrize("enabled", [True, False], ids=["S1", "no-jammer"])
def test_received_bins_reads_the_stream_trial_by_trial(enabled, monkeypatch):
    # The oracle draws each trial's index, jamming frame and noise in turn,
    # as a loop of single frames would; a chunk of 2 stacks frames across a
    # chunk boundary. A disabled spectrum reads nothing: it is no jammer.
    monkeypatch.setattr("helpers.CHUNK", 2)
    spectrum = JammerConfig(kind="S1", snr_db=-6.0, enabled=enabled)
    chan_cfg = ChannelConfig(noise_sigma=SIGMA_0DB)
    batched_rng, rng = np.random.default_rng(8), np.random.default_rng(8)
    index, bins = received_bins(3, batched_rng, spectrum, chan_cfg, WAVES)
    for t in range(3):
        sig = rng.integers(len(WAVES))
        jam = generate_jamming_frame(spectrum, OCCASION, CELL, rng) if enabled else None
        _, row = demap_prach(superpose(WAVES[sig], jam, chan_cfg, rng), OCCASION, CELL)
        assert index[t] == sig
        assert np.array_equal(bins[t], row)
    assert batched_rng.random() == rng.random()


def profiles_of(bins, roots):
    """The delay profile of each bin row against its own root."""
    out = np.empty_like(bins)
    for root in np.unique(roots):
        out[roots == root] = delay_profile(bins[roots == root], root)
    return out


def judged_with_powers(monkeypatch, channel, rng, sig_idx):
    """``judge_sends`` on every send of the signatures ``sig_idx``:
    ``(power, profile_of)``, ``power`` the tap powers each send was judged
    on, the first's row by the detector and the others by the kernel."""
    powers = []

    def recording(power, cfg):
        powers.append(power.copy())
        return _decide(power, cfg)

    with monkeypatch.context() as patch:
        patch.setattr(prachjam.campaign, "_decide", recording)
        profile_of = judge_sends(channel, rng, sig_idx, every=True)[2]
    return np.vstack([np.abs(profile_of(0, None)) ** 2, *powers]), profile_of


@pytest.mark.parametrize("roots", [(1,), (1, 2, 5)])
def test_batched_kernel_decides_like_detect_preambles(roots):
    det = DetectorConfig(roots=roots)
    spectrum, chan_cfg = JammerConfig(kind="S1", snr_db=-13.0), ChannelConfig(noise_sigma=SIGMA_0DB)
    # Time-domain occasions of random signatures.
    sent = [(r, s) for r in roots for s in range(10)]
    index, bins = received_bins(400, np.random.default_rng(sum(roots)), spectrum, chan_cfg,
                                [preamble_wave(sig) for sig in sent])
    sigs = np.array(sent)[index]
    single = np.array([
        (int(r), int(s)) in {(d.root, d.signature) for d in detect_preambles(row, det).detected}
        for row, (r, s) in zip(bins, sigs)
    ])
    assert 40 < single.sum() < 360
    power = np.abs(profiles_of(bins, sigs[:, 0])) ** 2
    assert own_window_hits(power, sigs[:, 1], det).tolist() == single.tolist()
    # judge_sends's own draws, in intervals of 25 transmissions: each
    # send's complex profile, taken back to bins and through
    # detect_preambles, gets the verdict judge_sends gave it.
    channel = bin_domain(spectrum, chan_cfg, det)
    signatures = channel.signatures
    rng = np.random.default_rng(sum(roots))
    verdicts = []
    for _ in range(16):
        idx = rng.integers(len(signatures), size=25)
        hits, _, profile_of, _ = judge_sends(channel, rng, idx, every=True)
        assert len(hits) == 25
        for n, hit in enumerate(hits):
            root, window = signatures[idx[n]]
            row = profile_bins(profile_of(n, phases(len(verdicts))), root)
            assert detect_preambles(row, det).reports((root, window)) == hit
            verdicts.append(hit)
    assert 40 < sum(verdicts) < 360


@pytest.mark.parametrize("snr_db", [-6.0, -12.0, -18.0])
@pytest.mark.parametrize("kind", ["S1", "S2"])
def test_miss_rate_matches_the_waveform_oracle(kind, snr_db):
    det = DetectorConfig()
    seed = 7000 + 100 * (kind == "S2") - int(snr_db)
    oracle_n, kernel_n = 1500, 8000
    spectrum = JammerConfig(kind=kind, snr_db=snr_db)
    oracle = oracle_misses(spectrum, det, oracle_n, seed)
    # The kernel judges the delay profiles of drawn bin rows here: the
    # campaign's own profile draw is held to this one below.
    channel = bin_domain(spectrum, det=det)
    missed = missed_rows(channel, kernel_n, seed, as_bins=True)
    z = two_proportion_z(oracle, oracle_n, missed, kernel_n)
    assert abs(z) < 2.576, (
        f"kernel {missed / kernel_n:.4f} vs oracle {oracle / oracle_n:.4f}, z = {z:.2f}"
    )


def missed_rows(channel, n, seed, as_bins):
    """Misses among ``n`` transmissions on ``channel`` drawn in chunks of
    2,000: as bin rows judged on their delay profiles, or as complex delay
    profiles (seeding rule v4) judged on their tap powers."""
    chunk, chan, sig_array = 2000, channel.bins, channel.sig_array
    rng = np.random.default_rng(seed)
    missed = 0
    for _ in range(n // chunk):
        idx = rng.integers(len(sig_array), size=chunk)
        if as_bins:
            rows = profiles_of(chan.draw(rng, chan.ue_mean[idx], chunk), sig_array[idx, 0])
        else:
            rows = chan.draw(rng, channel.profile[idx], chunk)
        power = np.abs(rows) ** 2
        missed += int(np.sum(~own_window_hits(power, sig_array[idx, 1], channel.detector)))
    return missed


def phases(key):
    """A generator, keyed by ``key``, for ``profile_of`` to draw the rest of
    a rebuilt row from."""
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


def test_profile_draw_misses_like_the_bin_draw():
    # S1 at -12 dB misses about three preambles in four: the two draws'
    # miss rates agree by a two-sided two-proportion z-test at 99 %.
    det = DetectorConfig(roots=(1, 2, 5))
    spectrum = JammerConfig(kind="S1", snr_db=-12.0)
    n = 50_000
    channel = bin_domain(spectrum, det=det)
    missed = missed_rows(channel, n, seed=41, as_bins=False)
    from_bins = missed_rows(channel, n, seed=42, as_bins=True)
    z = two_proportion_z(from_bins, n, missed, n)
    assert 0.6 < missed / n < 0.9
    assert abs(z) < 2.576, f"profiles {missed / n:.4f} vs bins {from_bins / n:.4f}, z = {z:.2f}"


# The kernel's means: the shipped one, with a single nonzero tap per
# signature, and two with every tap nonzero (the literal S1's constant
# spectrum; a delayed UE, whose shift spreads over the taps, with a phase
# that turns from tap to tap). The kernel draws the shipped one reduced
# (``_noise_like``) and the last two as complex rows. At -12 dB the delayed,
# attenuated UE is missed 99.6 % of the time, so that one runs at -6 dB,
# where the miss rate is about 0.7. Its UE is received at gain 0.8 and its
# jammer at gain 1.3: at the UE's level, the noise 1 / 0.8 times as strong
# and a design SNR 20 * log10(1.3 / 0.8) dB lower.
MEANS = {
    "S1": (JammerConfig(kind="S1", snr_db=-12.0), NOISE_0DB),
    "s1_literal": (JammerConfig(kind="S1_literal", snr_db=-12.0), NOISE_0DB),
    "delay_and_gains": (
        JammerConfig(kind="S1", snr_db=-6.0 - 20 * math.log10(1.3 / 0.8)),
        ChannelConfig(noise_sigma=SIGMA_0DB / 0.8, ue_delay_samples=5),
    ),
}
MEANS_DET = DetectorConfig(roots=(1, 2, 5))


def means_channel(name, det=MEANS_DET):
    return bin_domain(*MEANS[name], det)


def judged_sends(channel, rng, n, chunk=2000):
    """Hits among ``n`` later sends that ``judge_sends`` judges, in calls of
    ``chunk`` + 1 sends (each call's first send is a complex row, not counted)."""
    hits = 0
    for _ in range(n // chunk):
        idx = rng.integers(len(channel.signatures), size=chunk + 1)
        hits += sum(judge_sends(channel, rng, idx, every=True)[0][1:])
    return hits


# The verdict-rate gate of the reduced draw, family-wise at 99 %: each cell's
# judged later sends hit as often as complex rows (``chan.draw``, judged on
# all their tap powers) by a two-sided two-proportion z-test at 99.8 %
# (Bonferroni over five cells). Cells: S1 in the transition band; S2; a
# jammer-dominated S2 whose hits are own-window false alarms (about 200 ppm);
# a factor of 6, where P(g > x0) = 0.48, so about half the sends take the
# tail branch; and three roots. Columns: spectrum, factor, roots, reduced
# sends, complex rows.
GATE = {
    "S1_-15dB": (JammerConfig(kind="S1", snr_db=-15.0), 12.35, (1,), 40_000, 40_000),
    "S2_-12dB": (JammerConfig(kind="S2", snr_db=-12.0), 12.35, (1,), 40_000, 40_000),
    "S2_-24dB": (JammerConfig(kind="S2", snr_db=-24.0), 12.35, (1,), 1_000_000, 100_000),
    "factor_6": (JammerConfig(kind="S1", snr_db=-15.0), 6.0, (1,), 40_000, 40_000),
    "roots_1_2_5": (JammerConfig(kind="S1", snr_db=-13.0), 12.35, (1, 2, 5), 40_000, 40_000),
}


@pytest.mark.parametrize("name", sorted(GATE))
def test_judged_sends_hit_like_complex_rows(name):
    spectrum, factor, roots, n, n_complex = GATE[name]
    det = DetectorConfig(threshold_factor=factor, roots=roots)
    channel = bin_domain(spectrum, det=det)
    assert channel.taps is not None
    seed = sorted(GATE).index(name)
    hits = judged_sends(channel, np.random.default_rng([101, seed]), n, chunk=20_000)
    missed = missed_rows(channel, n_complex, seed=[103, seed], as_bins=False)
    z = two_proportion_z(n_complex - missed, n_complex, hits, n)
    assert abs(z) < 3.09, f"reduced {hits / n:.6f} vs complex {1 - missed / n_complex:.6f}"


# Dense means against the time-domain chain, family-wise at 99 %: the later
# sends that judge_sends draws as complex rows (the literal S1; the delayed
# UE of MEANS) miss as often as the waveform oracle's occasions by a
# two-sided two-proportion z-test at 99.67 % (Bonferroni over three cells).
# Each cell's miss rate lies mid-range, at about 0.64, 0.85 and 0.70.
# Columns: spectrum, channel.
DENSE = {
    "S1_literal_-12dB": (JammerConfig(kind="S1_literal", snr_db=-12.0), NOISE_0DB),
    "S1_literal_-13dB": (JammerConfig(kind="S1_literal", snr_db=-13.0), NOISE_0DB),
    "delay_and_gains": MEANS["delay_and_gains"],
}


@pytest.mark.parametrize("name", sorted(DENSE))
def test_dense_later_sends_miss_like_the_waveform_oracle(name):
    spectrum, chan_cfg = DENSE[name]
    oracle_n, n = 3000, 40_000
    channel = bin_domain(spectrum, chan_cfg)
    assert channel.taps is None
    seed = sorted(DENSE).index(name)
    oracle = oracle_misses(spectrum, channel.detector, oracle_n, [111, seed], chan_cfg)
    missed = n - judged_sends(channel, np.random.default_rng([113, seed]), n)
    z = two_proportion_z(oracle, oracle_n, missed, n)
    assert abs(z) < 2.935, f"judged {missed / n:.4f} vs oracle {oracle / oracle_n:.4f}, z = {z:.2f}"


@pytest.mark.parametrize("factor, snr_db", [(4.0, -18.0), (8.0, -14.0), (12.35, -12.0),
                                            (30.0, -6.0)])
def test_reduced_verdict_equals_the_full_row(factor, snr_db):
    # Full rows of exponential tap powers plus the shipped mean tap, a third
    # of them with one other tap raised up to 60-fold, so that its share g
    # of the others' sum passes x0 at every factor. From (T's powers, S_O,
    # g) the reduced rule gives every row the verdict _decide gives the
    # whole row, on both sides of x0.
    det = DetectorConfig(threshold_factor=factor)
    spectrum = JammerConfig(kind="S1", snr_db=snr_db)
    channel = bin_domain(spectrum, det=det)
    rows, length, (_, x0, _) = 20_000, PRACH.preamble_length, channel.reduced
    rng = np.random.default_rng(int(factor * 100))
    idx = rng.integers(len(channel.signatures), size=rows)
    theta, taps, at = 2 * channel.bins.std**2, channel.taps[idx, :13], np.arange(rows)
    power = -theta * np.log(1.0 - rng.random((rows, length)))
    mean, tap = np.abs(channel.profile[idx, taps[:, 0]]), power[at, taps[:, 0]]
    power[at, taps[:, 0]] = tap + mean * (
        mean + 2 * np.sqrt(tap) * np.cos(2 * np.pi * rng.random(rows)))
    others = np.ones((rows, length), dtype=bool)
    others[at[:, None], taps] = False
    rest = power[others].reshape(rows, -1)
    raised = at[::3]
    rest[raised, rng.integers(rest.shape[-1], size=len(raised))] *= rng.uniform(1, 60, len(raised))
    power[others] = rest.ravel()
    g = rest.max(axis=-1) / rest.sum(axis=-1)
    top = np.where(g >= x0, g * rest.sum(axis=-1), 0.0)
    reduced = window_detected(power[at[:, None], taps], rest.sum(axis=-1), top, length, det)
    full = own_window_hits(power, channel.sig_array[idx, 1], det)
    for branch in (g >= x0, g < x0):
        assert 0 < full[branch].mean() < 1
    assert np.array_equal(reduced, full)


@pytest.mark.parametrize("factor, reduced", [(1.08, False), (1.1, False), (2.0, False),
                                             (3.0, False), (4.0, True), (1e6, True)])
def test_reduced_draw_needs_sends_below_x0(factor, reduced):
    # Below a factor of about 3.7 fewer than 1e-3 of the sends have g below x0,
    # and below 1.3 Fisher's float64 sum is no probability: those sparse means
    # draw complex rows. Either way every judged send is rebuilt and the
    # detector agrees with its verdict; at 1e6, P(g > x0) underflows to 0.
    det = DetectorConfig(threshold_factor=factor)
    spectrum = JammerConfig(kind="S1", snr_db=-20.0)
    channel = bin_domain(spectrum, det=det)
    assert (channel.taps is not None) == reduced
    idx = np.random.default_rng(5).integers(len(channel.signatures), size=60)
    hits, _, profile_of, _ = judge_sends(channel, np.random.default_rng(6), idx, every=True)
    rng = np.random.default_rng(7)
    for n in range(1, len(idx)):
        root, window = channel.signatures[idx[n]]
        result = detect_preambles(DelayProfile(root, profile_of(n, rng)), det)
        assert result.reports((root, window)) == hits[n]


def rebuilt_sends(channel, rng, n):
    """``(idx, rows)``: ``n`` later sends judged by ``judge_sends`` and their
    rebuilt complex profiles, read on from ``rng`` in send order."""
    idx = rng.integers(len(channel.signatures), size=n + 1)
    profile_of = judge_sends(channel, rng, idx, every=True)[2]
    return idx[1:], np.array([profile_of(j, rng) for j in range(1, n + 1)])


def test_rebuilt_taps_follow_the_complex_draw():
    # 4,000 rebuilt sends at factor 6, where about half take the tail
    # branch: their zero-mean taps' powers over theta are standard
    # exponential (a KS test at 99 % over all of them), the largest of the
    # 126 taps outside their window lies anywhere among them (a chi-square
    # test at 99 %), and their mean taps' powers follow those of complex rows
    # (a two-sample KS test at 99 %).
    stats = pytest.importorskip("scipy.stats")
    det = DetectorConfig(threshold_factor=6.0)
    channel = bin_domain(GATE["factor_6"][0], det=det)
    chan = channel.bins
    rng = np.random.default_rng(71)
    idx, rows = rebuilt_sends(channel, rng, 4000)
    power = np.abs(rows) ** 2 / (2 * chan.std**2)
    zero = channel.profile[idx] == 0
    assert zero.sum(axis=-1).tolist() == [PRACH.preamble_length - 1] * len(idx)
    assert stats.kstest(power[zero], "expon").pvalue > 0.01
    others = power[np.arange(len(idx))[:, None], channel.taps[idx, 13:]]
    place = np.bincount(others.argmax(axis=-1), minlength=126)
    assert stats.chisquare(place).pvalue > 0.01
    reference_idx = rng.integers(len(channel.signatures), size=4000)
    reference = chan.draw(rng, channel.profile[reference_idx], 4000)
    mean_tap = np.abs(reference[np.arange(4000), channel.taps[reference_idx, 0]]) ** 2
    result = stats.ks_2samp(power[~zero] * 2 * chan.std**2, mean_tap)
    assert result.pvalue > 0.01, result


@pytest.mark.parametrize("name", sorted(MEANS))
def test_rebuilt_row_power_equals_kernel_power(name, monkeypatch):
    # A judged send that is rebuilt goes back to a complex profile. Drawn
    # reduced (S1, at factor 6 so that both branches show), its window holds
    # the powers the kernel judged and its other taps sum to S_O and peak at
    # g * S_O in the tail, or below x0 * S_O; drawn as a complex row, its tap
    # powers are the ones judged.
    det = replace(MEANS_DET, threshold_factor=6.0)
    channel = means_channel(name, det)
    idx = np.random.default_rng(81).integers(len(channel.signatures), size=128)
    if channel.taps is None:
        power, profile_of = judged_with_powers(monkeypatch, channel, np.random.default_rng(82),
                                               idx)
        rebuilt = np.array([profile_of(j, phases(j)) for j in range(len(power))])
        np.testing.assert_allclose(np.abs(rebuilt) ** 2, power, rtol=1e-12)
        return
    judged = []

    def recording(window, rest_sum, rest_peak, length, cfg):
        judged.append((window.copy(), rest_sum, rest_peak))
        return window_detected(window, rest_sum, rest_peak, length, cfg)

    with monkeypatch.context() as patch:
        patch.setattr(prachjam.campaign, "window_detected", recording)
        hits, _, profile_of, _ = judge_sends(channel, np.random.default_rng(82), idx, True)
    (window, rest_sum, rest_peak), x0 = judged[0], channel.reduced[1]
    assert 0 < np.count_nonzero(rest_peak) < len(rest_peak)
    for j in range(1, len(idx)):
        power = np.abs(profile_of(j, phases(j))) ** 2
        taps = channel.taps[idx[j]]
        others = power[taps[13:]]
        np.testing.assert_allclose(power[taps[:13]], window[j - 1], rtol=1e-12)
        assert others.sum() == pytest.approx(rest_sum[j - 1], rel=1e-12)
        if rest_peak[j - 1]:
            assert others.max() == pytest.approx(rest_peak[j - 1], rel=1e-12)
        else:
            assert others.max() < x0 * rest_sum[j - 1]
        assert _decide(power, det)[2][channel.sig_array[idx[j], 1]] == hits[j]


@pytest.mark.parametrize("roots", [(1,), (1, 2, 5)])
def test_round_off_rule_zeroes_all_but_the_own_tap(roots):
    # Shipped preset: one nonzero tap per signature, the rest round-off
    # (about 6e-14 against a peak of 11.79) set to 0. It is the first tap of
    # its window.
    det = DetectorConfig(roots=roots)
    spectrum = JammerConfig(kind="S1", snr_db=-6.0)
    channel = bin_domain(spectrum, det=det)
    sig_array = channel.sig_array
    assert (channel.profile == 0).sum(axis=-1).tolist() == [138] * len(channel.profile)
    # Each row's taps: its window's (the nonzero one first), then the rest in order.
    assert np.all(np.sort(channel.taps, axis=-1) == np.arange(139))
    np.testing.assert_array_equal(channel.taps[:, :13], _window_indices(139, 13)[sig_array[:, 1]])
    assert np.all(np.diff(channel.taps[:, 13:]) > 0)
    assert channel.reduced[0] == 1
    assert np.all(channel.profile[np.arange(len(sig_array)), channel.taps[:, 0]] != 0)
    for name in ("s1_literal", "delay_and_gains"):
        channel = means_channel(name)
        assert not np.any(channel.profile == 0), name
        assert channel.taps is None and channel.reduced is None


def test_channel_holds_the_detector_it_was_built_for():
    # judge_sends reads its detector from the channel, whose signatures and
    # x0 that detector set. The cache hands every caller the same channel,
    # so its arrays are read-only.
    det = replace(MEANS_DET, threshold_factor=6.0)
    channel = means_channel("S1", det)
    assert channel.detector == det and means_channel("S1", det) is channel
    assert channel.signatures == tuple((r, w) for r in (1, 2, 5) for w in range(10))
    assert channel.reduced[1] == 6.0 / (6.0 + PRACH.preamble_length - 1)
    for shared in (channel.bins.ue_mean, channel.sig_array, channel.profile, channel.phase,
                   channel.taps, channel.own_magnitude):
        assert not shared.flags.writeable


def test_first_transmission_is_a_complex_row():
    # The first send reads 2 * L standard normals, as chan.draw; the other
    # K - 1 read s + 1 + w uniforms each, as the columns of one block (s = 13
    # window taps and w = 1 phase fraction on this preset), then K - 1
    # Gamma variates S_O. A rebuilt send keeps its window's taps as they
    # were drawn, bit for bit, and its other taps' powers sum to S_O.
    channel = means_channel("S1")
    chan = channel.bins
    (w, _, _), s, length = channel.reduced, MEANS_DET.shift_step, PRACH.preamble_length
    assert (w, s) == (1, 13)
    idx = np.random.default_rng(93).integers(len(channel.signatures), size=5)
    rng, replay = np.random.default_rng(94), np.random.default_rng(94)
    profile_of = judge_sends(channel, rng, idx, every=True)[2]
    first = chan.draw(replay, channel.profile[idx[:1]], 1)[0]
    u = replay.random((s + 1 + w, 4))
    rest = replay.gamma(length - s, 2 * chan.std**2, 4)
    assert rng.random() == replay.random()
    np.testing.assert_array_equal(profile_of(0, None), first)
    for j in range(1, 5):
        i, taps, row = idx[j], channel.taps[idx[j], :s], profile_of(j, phases(j))
        turn = phases(j).random(length)
        turn[taps[:w]] = u[s + 1:, j - 1]
        noise = np.log(1.0 - u[:s, j - 1]) * -(2 * chan.std**2)
        window = channel.profile[i, taps] + np.sqrt(noise) * np.exp(
            1j * (channel.phase[i, taps] + 2 * np.pi * turn[taps]))
        np.testing.assert_array_equal(row[taps], window)
        others = np.abs(np.delete(row, taps)) ** 2
        assert others.sum() == pytest.approx(rest[j - 1], rel=1e-12)


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
    # A rebuilt row reads the rest of its profile after every send's draws,
    # as the campaign does. Against another root the UE's taps spread over
    # the whole profile, so there those taps count: at a threshold lowered
    # to 8, where other-root false alarms run at about 10 %, their rate on
    # 20,000 rebuilt rows and on 20,000 complex rows agree by a two-sided
    # two-proportion z-test at 99 %.
    n = 20_000
    det = replace(MEANS_DET, threshold_factor=8.0)
    channel = means_channel("S1", det)
    rng = np.random.default_rng(61)
    idx, rebuilt = rebuilt_sends(channel, rng, n)
    reference_idx = rng.integers(len(channel.signatures), size=n)
    reference = channel.bins.draw(rng, channel.profile[reference_idx], n)
    alarms = other_root_alarms(rebuilt, channel.sig_array[idx, 0], det)
    expected = other_root_alarms(reference, channel.sig_array[reference_idx, 0], det)
    z = two_proportion_z(expected, n, alarms, n)
    assert 0.05 < alarms / n < 0.2
    assert abs(z) < 2.576, f"rebuilt {alarms / n:.4f} vs complex {expected / n:.4f}, z = {z:.2f}"
