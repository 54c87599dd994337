"""Correlation detector: decisions, calibration and robustness."""
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

import prachjam.detector
from prachjam.channel import ChannelConfig, superpose
from prachjam.detector import (
    DelayProfile,
    DetectorConfig,
    _decide,
    _fisher_quantile,
    _fisher_tail,
    _noise_statistics,
    _window_indices,
    calibrate_threshold,
    delay_profile,
    detect_preambles,
    profile_bins,
)
from prachjam.errors import ConfigError
from prachjam.jammer import JammerConfig
from prachjam.waveform import demap_prach
from prachjam.zc import cyclic_shift, generate_zc

from helpers import (
    CALIBRATED_FACTORS, CELL, OCCASION, oracle_misses, preamble_wave, two_proportion_z,
)

ROOT_SEQ = generate_zc(1, 139)
CFG = DetectorConfig()


def received_bins(window=0, sigma=0.0, rng=None, delay=0, root=1):
    chan = ChannelConfig(noise_sigma=sigma, ue_delay_samples=delay)
    rx = superpose(preamble_wave((root, window)), None, chan, rng or np.random.default_rng(0))
    return demap_prach(rx, OCCASION, CELL)[1]


class TestDecisions:
    def test_noiseless_loopback_single_detection(self):
        result = detect_preambles(received_bins(), CFG, occasion=OCCASION)
        assert [(d.root, d.signature) for d in result.detected] == [(1, 0)]
        assert result.occasion is OCCASION

    def test_zero_input_no_detections(self):
        result = detect_preambles(np.zeros(139, dtype=complex), CFG)
        assert result.detected == []
        assert result.noise_floor == 0.0

    def test_shift_thirteen_fires_window_one(self):
        bins = received_bins(window=1)
        result = detect_preambles(bins, CFG)
        assert [(d.root, d.signature) for d in result.detected] == [(1, 1)]
        # Brute-force correlation over all lags confirms the peak position.
        lags = np.array(
            [
                abs(np.sum(bins * np.conj(np.fft.fft(cyclic_shift(ROOT_SEQ, lag).samples))))
                for lag in range(139)
            ]
        )
        assert int(np.argmax(lags)) == 13

    def test_detected_metric_respects_threshold(self):
        rng = np.random.default_rng(5)
        bins = received_bins(window=2, sigma=0.5, rng=rng)
        result = detect_preambles(bins, CFG)
        for det in result.detected:
            assert det.metric >= CFG.threshold_factor * result.noise_floor

    def test_phase_rotation_invariance(self):
        rng = np.random.default_rng(6)
        bins = received_bins(window=3, sigma=0.7, rng=rng)
        rotated = bins * np.exp(1j * 1.234)
        a = detect_preambles(bins, CFG)
        b = detect_preambles(rotated, CFG)
        assert [(d.root, d.signature) for d in a.detected] == [
            (d.root, d.signature) for d in b.detected
        ]

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            detect_preambles(np.zeros(5, dtype=complex), CFG)

    def test_empty_roots_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            DetectorConfig(roots=())

    @pytest.mark.parametrize("field, value, message", [
        ("roots", (1, 1), "roots must be distinct roots in [1, 139) coprime with 139, got [1, 1]"),
        ("roots", (0,), "roots must be distinct roots in [1, 139) coprime with 139, got [0]"),
        ("roots", (139,), "roots must be distinct roots in [1, 139) coprime with 139, got [139]"),
        ("shift_step", 140, "shift_step must be at most the preamble length 139"),
        # Types the JSON loader makes right, which a library caller may not.
        ("roots", [1], "roots must be a tuple of ints, got [1]"),
        ("roots", (1.0,), "roots must be a tuple of ints, got (1.0,)"),
        ("shift_step", 13.0, "shift_step must be an int, got 13.0"),
        # A bool is not an int, nor a number, as the JSON loader reads them.
        ("roots", (True,), "roots must be a tuple of ints, got (True,)"),
        ("shift_step", True, "shift_step must be an int, got True"),
        ("threshold_factor", "12", "threshold_factor must be a number, got '12'"),
    ])
    def test_config_refuses_what_it_cannot_judge(self, field, value, message):
        # Library callers of detect_preambles, calibrate_threshold and the
        # campaign get the check the JSON loader gives: duplicate roots would
        # report each detection twice.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            DetectorConfig(**{field: value})

    def test_config_takes_the_bounds(self):
        assert DetectorConfig(shift_step=139, roots=(1, 138)).roots == (1, 138)

    @pytest.mark.parametrize("delay", [0, 5, 11, 17])
    def test_delay_within_cp_keeps_window(self, delay):
        # Tap spread from a delay d is at most floor(d * 139 / 256) + 1,
        # well inside one 13-tap window for any CP-legal delay here.
        bins = received_bins(delay=delay)
        result = detect_preambles(bins, CFG)
        assert [(d.root, d.signature) for d in result.detected] == [(1, 0)]


class TestMissedDetectionFloor:
    def test_missed_rate_below_one_percent_at_zero_db(self):
        # Per-bin SNR 0 dB: amplitude 1, per-component sigma 1/sqrt(2), no jammer.
        off = JammerConfig(kind="S1", snr_db=0.0, enabled=False)
        trials = 10_000
        assert oracle_misses(off, CFG, trials, seed=2024) / trials < 0.01


class TestDelayProfileInput:
    """A ``DelayProfile`` is judged like the bins it is the profile of: its
    own root on its taps, the other roots on the bins rebuilt from them."""

    @staticmethod
    def judged_like_its_bins(profile, root, cfg):
        got = detect_preambles(DelayProfile(root, profile), cfg)
        want = detect_preambles(profile_bins(profile, root), cfg)
        assert [d[:2] for d in got.detected] == [d[:2] for d in want.detected]
        np.testing.assert_allclose(
            [d.metric for d in got.detected], [d.metric for d in want.detected], rtol=1e-12
        )
        np.testing.assert_allclose(got.noise_floor, want.noise_floor, rtol=1e-12)
        return [d[:2] for d in got.detected]

    # The profile's own root alone, and in the middle of two others.
    ROOTS = pytest.mark.parametrize("roots, own", [((1,), 1), ((1, 2, 5), 2)], ids=["one", "three"])

    @ROOTS
    def test_random_profiles(self, roots, own):
        # At factor 4 a noise profile passes several windows of each root.
        cfg = DetectorConfig(threshold_factor=4.0, roots=roots)
        rng = np.random.default_rng(21)
        hits = []
        for _ in range(40):
            profile = rng.standard_normal(139) + 1j * rng.standard_normal(139)
            profile[rng.integers(139)] *= 6
            hits += self.judged_like_its_bins(profile, own, cfg)
        assert {root for root, _ in hits} == set(roots)
        assert len(hits) > 40 * len(roots)

    @ROOTS
    def test_all_zero_profile(self, roots, own):
        cfg = DetectorConfig(roots=roots)
        assert self.judged_like_its_bins(np.zeros(139, dtype=complex), own, cfg) == []
        assert detect_preambles(DelayProfile(own, np.zeros(139)), cfg).noise_floor == 0.0

    @ROOTS
    def test_noiseless_loopback(self, roots, own):
        # One tap and FFT dust: the floor guard leaves only the sent window.
        cfg = DetectorConfig(roots=roots)
        profile = delay_profile(received_bins(window=1, root=own), own)
        assert self.judged_like_its_bins(profile, own, cfg) == [(own, 1)]

    def test_short_profile_rejected_like_short_bins(self):
        for short in (np.zeros(5, dtype=complex), DelayProfile(1, np.zeros(5, dtype=complex))):
            with pytest.raises(ValueError, match=r"at least 13 averaged PRACH bins, got shape \(5,\)"):
                detect_preambles(short, CFG)

    def test_one_tap_profile_rejected(self):
        # Its floor would be the mean of no taps.
        cfg = DetectorConfig(shift_step=1)
        for one in (np.ones(1, dtype=complex), DelayProfile(1, np.ones(1))):
            with pytest.raises(ValueError, match=r"at least 2 averaged PRACH bins, got shape \(1,\)"):
                detect_preambles(one, cfg)


class TestOneProfile:
    """``detect_preambles`` judges one profile from Python floats. Every
    metric and floor it reports must be ``_decide``'s on a batch of the same
    powers, with ``==``."""

    ROOTS = TestDelayProfileInput.ROOTS

    @staticmethod
    def judged_like_decide(profiles, own, cfg):
        """``_decide`` per root on the powers of ``profiles`` ``(M, L)``, each
        judged as ``DelayProfile(own, profile)``, which ``detect_preambles``
        must report row by row."""
        powers = {root: [] for root in cfg.roots}
        for profile in profiles:
            bins = profile_bins(profile, own)
            for root in cfg.roots:
                taps = profile if root == own else delay_profile(bins, root)
                powers[root].append(np.abs(taps) ** 2)
        decided = {root: _decide(np.array(rows), cfg) for root, rows in powers.items()}
        for i, profile in enumerate(profiles):
            got = detect_preambles(DelayProfile(own, profile), cfg)
            assert got.detected == [
                (root, w, peaks[i, w])
                for root, (peaks, _, hits) in decided.items() for w in np.flatnonzero(hits[i])
            ]
            assert got.noise_floor == min(floor[i] for _, floor, _ in decided.values())
        return decided

    @ROOTS
    def test_random_profiles(self, roots, own):
        cfg = DetectorConfig(threshold_factor=4.0, roots=roots)
        rng = np.random.default_rng(23)
        profiles = rng.standard_normal((40, 139)) + 1j * rng.standard_normal((40, 139))
        profiles[np.arange(40), rng.integers(139, size=40)] *= 6
        for _, _, hits in self.judged_like_decide(profiles, own, cfg).values():
            assert hits.any(axis=-1).sum() > 20

    @ROOTS
    def test_exact_ties_do_not_pass(self, roots, own):
        # An exact tie at powers that are squares of floats, so that taps
        # sqrt(p) carry them exactly: 137 taps of 189, 2500 in window 3 and
        # 2466 in window 7 make the floor exactly 205.5 and the limit at
        # factor 12 exactly 2466, which window 7 only ties. One ulp more passes.
        cfg = DetectorConfig(threshold_factor=12.0, roots=roots)
        anchors = _window_indices(139, 13)[:, 0]
        power = np.full((2, 139), 189.0)
        power[:, anchors[3]] = 2500.0
        power[:, anchors[7]] = [2466.0, np.nextafter(2466.0, np.inf)]
        peaks, floor, hits = self.judged_like_decide(np.sqrt(power) + 0j, own, cfg)[own]
        assert floor.tolist() == [205.5, 205.5]
        assert peaks[:, 7].tolist() == power[:, anchors[7]].tolist()
        assert hits[:, [3, 7]].tolist() == [[True, False], [True, True]]

    @ROOTS
    def test_peak_in_the_guard_taps(self, roots, own):
        # Taps 13-21 lie in no window: a peak of 100 there over taps of 1
        # passes the limit 12.35 (floor 1), and no window does.
        assert set(range(13, 22)).isdisjoint(_window_indices(139, 13).ravel())
        profiles = np.ones((9, 139), dtype=complex)
        profiles[np.arange(9), np.arange(13, 22)] = 10.0
        peaks, floor, hits = self.judged_like_decide(profiles, own, DetectorConfig(roots=roots))[own]
        assert floor.tolist() == [1.0] * 9 and not hits.any()

    @ROOTS
    def test_floor_guard(self, roots, own):
        # An all-zero profile has floor 0 and reports nothing; a noiseless
        # loopback's floor is at most FFT dust, and the guard passes its
        # window alone.
        profiles = np.array([np.zeros(139), delay_profile(received_bins(window=1, root=own), own)])
        peaks, floor, hits = self.judged_like_decide(profiles, own, DetectorConfig(roots=roots))[own]
        assert floor[0] == 0.0 and floor[1] < 1e-12 * peaks[1].max()
        assert np.flatnonzero(hits[1]).tolist() == [1] and not hits[0].any()


def any_window_hits(bins, cfg):
    """Whether ``detect_preambles`` reports any window in each row of bins
    ``(M, L)``, judged in one batch: one ``_decide`` per root."""
    hits = np.zeros(len(bins), dtype=bool)
    for root in cfg.roots:
        hits |= _decide(np.abs(delay_profile(bins, root)) ** 2, cfg)[2].any(axis=-1)
    return hits


class TestBatchedJudge:
    """``_decide`` on a block of delay profiles reports, row by row, the
    windows ``detect_preambles`` reports on each row's bins."""

    @pytest.mark.parametrize("roots", [(1,), (1, 2, 5)], ids=["one", "three"])
    def test_hit_mask_is_detect_preambles_row_by_row(self, roots):
        # At factor 6 unit noise passes some window in about 30 % of the
        # rows per root, so both sides report plenty to compare.
        cfg = DetectorConfig(threshold_factor=6.0, roots=roots)
        rng = np.random.default_rng(41)
        bins = (rng.standard_normal((300, 139)) + 1j * rng.standard_normal((300, 139))) / np.sqrt(2)
        batched = {
            (int(i), root, int(w))
            for root in roots
            for i, w in zip(*np.nonzero(_decide(np.abs(delay_profile(bins, root)) ** 2, cfg)[2]))
        }
        single = {
            (i, d.root, d.signature)
            for i, row in enumerate(bins)
            for d in detect_preambles(row, cfg).detected
        }
        assert batched == single
        assert {root for _, root, _ in single} == set(roots)
        assert len(single) > 50 * len(roots)
        assert np.flatnonzero(any_window_hits(bins, cfg)).tolist() == sorted({i for i, _, _ in single})


class TestCalibration:
    def test_far_half_is_loose_but_above_one(self):
        factor = calibrate_threshold(0.5, 1000, CFG, np.random.default_rng(1))
        assert 1.0 < factor < 10.0

    def test_recalibrated_far_holds_on_fresh_noise(self):
        rng = np.random.default_rng(77)
        factor = calibrate_threshold(1e-3, 50_000, CFG, rng)
        cfg = DetectorConfig(threshold_factor=factor)
        fresh = np.random.default_rng(78)
        trials = 50_000
        alarms = 0
        chunk = 4096
        for start in range(0, trials, chunk):
            m = min(chunk, trials - start)
            noise = (
                fresh.standard_normal((m, 139)) + 1j * fresh.standard_normal((m, 139))
            ) / np.sqrt(2)
            alarms += int(np.sum(any_window_hits(noise, cfg)))
        assert alarms / trials <= 1.5e-3

    def test_monotone_in_target(self):
        loose = calibrate_threshold(1e-2, 20_000, CFG, np.random.default_rng(3))
        tight = calibrate_threshold(1e-3, 20_000, CFG, np.random.default_rng(3))
        assert loose <= tight

    def test_insufficient_trials_rejected(self):
        with pytest.raises(ValueError, match="insufficient trials"):
            calibrate_threshold(1e-3, 100, CFG, np.random.default_rng(0))

    def test_profile_shorter_than_a_window_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^l_ra 5 is below the detector's shift_step 13$"):
            calibrate_threshold(1e-3, 20_000, CFG, rng, l_ra=5)
        assert rng.random() == np.random.default_rng(0).random()  # refused before drawing

    def test_one_tap_profile_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="^l_ra 1 is below 2: a floor needs a tap besides the peak$"):
            calibrate_threshold(0.5, 1000, DetectorConfig(shift_step=1), rng, l_ra=1)
        assert rng.random() == np.random.default_rng(0).random()  # refused before drawing

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="target_far"):
            calibrate_threshold(0.0, 1000, CFG, np.random.default_rng(0))


def reference_statistics(trials, rng):
    """The one-root noise-only statistic on transformed bins: unit-variance
    complex normal bins, their delay profile against root 1, ``_decide``."""
    stats = []
    for start in range(0, trials, 10_000):
        m = min(10_000, trials - start)
        bins = (rng.standard_normal((m, 139)) + 1j * rng.standard_normal((m, 139))) / np.sqrt(2)
        peaks, floor, _ = _decide(np.abs(delay_profile(bins, 1)) ** 2, CFG)
        stats.append(peaks.max(axis=-1) / floor)
    return np.concatenate(stats)


def fisher_far(gamma, length=139, covered=130):
    """Closed-form noise-only false-alarm rate of one root at factor ``gamma``.

    With i.i.d. exponential tap powers the statistic exceeds ``gamma`` when
    the largest tap holds more than ``x = gamma / (gamma + length - 1)`` of
    the total: Fisher's g (Proc. R. Soc. A 125, 1929),
    ``P(g > x) = sum_k (-1)**(k-1) C(length, k) (1 - k x)**(length - 1)``
    over ``1 <= k <= 1/x``. The windows cover ``covered`` of the taps; the
    guard taps' own small, positive term is left out. A ``Fraction``
    ``gamma`` gives the exact value.
    """
    x = gamma / (gamma + length - 1)
    total = sum(
        (-1) ** (k - 1) * math.comb(length, k) * (1 - k * x) ** (length - 1)
        for k in range(1, math.floor(1 / x) + 1)
    )
    return total * covered / length


def exact_fisher_tail(x, n):
    """Fisher's P(g > x) for ``n`` exponentials as an exact rational."""
    x = Fraction(x)
    return sum((-1) ** (k - 1) * math.comb(n, k) * (1 - k * x) ** (n - 1)
               for k in range(1, math.floor(1 / x) + 1))


# The campaign's reduced draw sums Fisher's tail over the n = 126 taps
# outside a 13-tap window, from x0 = f / (f + 138) up: the float64 sum's
# relative error against the exact one at x0 and above, as its docstring
# states it for each factor f.
FISHER_BOUNDS = {1.5: 2e-5, 2.0: 1e-8, 3.0: 1.3e-12, 4.0: 2e-14, 6.0: 2e-14, 8.0: 2e-14,
                 12.35: 2e-14, 30.0: 2e-14}


@pytest.mark.parametrize("factor", sorted(FISHER_BOUNDS))
def test_fisher_tail_float_sum_meets_its_bound(factor):
    n, x0 = 126, factor / (factor + 138)
    x = np.array([x0, 1.5 * x0, 0.3, 0.6])
    got = _fisher_tail(n, x0)(x)[0]
    want = np.array([float(exact_fisher_tail(v, n)) for v in x])
    assert np.all(np.abs(got / want - 1) <= FISHER_BOUNDS[factor])


@pytest.mark.parametrize("factor", sorted(FISHER_BOUNDS))
def test_fisher_quantile_inverts_the_tail(factor):
    # From 1e-16 to the tail at x0: the quantile lies at or above x0 and the
    # tail there gives the probability back.
    n, x0 = 126, factor / (factor + 138)
    tail = _fisher_tail(n, x0)
    v = np.geomspace(1e-16, tail(x0)[0], 400)
    g = _fisher_quantile(np.log(v), n, x0)
    assert np.all(g >= x0)
    np.testing.assert_allclose(tail(g)[0], v, rtol=2e-12)


class TestOneRootDraw:
    """A one-root calibration draws its tap powers as exponentials; its
    closed form also bounds the several-roots factor."""

    def test_exceeds_like_transformed_bins(self):
        # Two-sided two-proportion z test at 99 % per factor.
        n = 100_000
        drawn = _noise_statistics(n, CFG, np.random.default_rng(31), 139)
        reference = reference_statistics(n, np.random.default_rng(32))
        for gamma in (6.0, 8.0, 10.0):
            z = two_proportion_z(int(np.sum(reference > gamma)), n, int(np.sum(drawn > gamma)), n)
            assert abs(z) <= 2.576, (gamma, z)

    def test_exceeds_like_fisher_g(self):
        # Two-sided 99.9 % interval around the closed form. Below factor 8
        # the guard taps' term, which the closed form leaves out, shows.
        n = 400_000
        stats = _noise_statistics(n, CFG, np.random.default_rng(33), 139)
        for gamma in (8.0, 10.0, 12.35):
            p = fisher_far(gamma)
            z = (np.mean(stats > gamma) - p) / math.sqrt(p * (1 - p) / n)
            assert abs(z) <= 3.291, (gamma, z)

    def test_closed_form_float_sum_is_exact_enough(self):
        for gamma in (3.0, 8.0, 12.35):
            exact = fisher_far(Fraction(gamma))
            assert fisher_far(gamma) == pytest.approx(float(exact), rel=1e-12, abs=0)

    def test_calibrated_factor_meets_the_closed_form(self):
        factor = calibrate_threshold(1e-3, 50_000, CFG, np.random.default_rng(20240601))
        assert fisher_far(factor) <= 1e-3

    def test_pinned_several_roots_factor_lies_within_the_union_bound(self):
        # Each root's profile of white bins is white, so each root alone
        # false-alarms at the one-root rate, and any of three at no more
        # than three times it: within 3.29 sigma of the empirical rate, the
        # pinned factor's rate lies between the two.
        factor = CALIBRATED_FACTORS[(1, 2, 5)]
        sigma = math.sqrt(1e-3 * (1 - 1e-3) / 50_000)
        assert fisher_far(factor) <= 1e-3 + 3.29 * sigma
        assert 3 * fisher_far(factor) >= 1e-3 - 3.29 * sigma

    def test_block_does_not_change_the_statistics(self, monkeypatch):
        # 1,100 trials cross two blocks of 512 and eleven of 97; blocks of
        # 2,048 hold them all. One root also matches a reference that draws
        # its tap powers as one block.
        for roots, seed in itertools.product([(1,), (1, 2, 5)], (0, 1, 2)):
            cfg, stats = DetectorConfig(roots=roots), []
            for block in (97, 512, 2_048):
                monkeypatch.setattr(prachjam.detector, "_BLOCK", block)
                stats.append(_noise_statistics(1_100, cfg, np.random.default_rng(seed), 139))
            assert all(np.array_equal(got, stats[0]) for got in stats[1:]), (roots, seed)
            if roots == (1,):
                power = -np.log(1 - np.random.default_rng(seed).random((1_100, 139)))
                peaks, floor, _ = _decide(power, cfg)
                assert np.array_equal(stats[0], peaks.max(axis=-1) / floor)

    def test_calibrated_factor_brackets_the_closed_form_root(self):
        # The bisection returns a factor within 1 % above the last one that
        # failed the target, so within 3.29 sigma of the empirical rate the
        # closed form meets the target at the factor and misses it 1 % below.
        target, n = 1e-3, 400_000
        factor = calibrate_threshold(target, n, CFG, np.random.default_rng(20240601))
        sigma = math.sqrt(target * (1 - target) / n)
        assert fisher_far(factor) <= target + 3.29 * sigma
        assert fisher_far(factor / 1.01) >= target - 3.29 * sigma
