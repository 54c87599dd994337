"""Zadoff-Chu generation, shifting, correlation and transform properties."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prachjam.zc import ZcSequence, cyclic_shift, generate_zc, periodic_xcorr


def naive_dft(x):
    """O(N^2) reference DFT used as the transform oracle."""
    x = np.asarray(x, dtype=complex)
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * k * m / n)) for m in range(n)])


def naive_xcorr(a, b):
    """O(N^2) reference periodic cross-correlation."""
    n = len(a)
    return np.array(
        [sum(a[k] * np.conj(b[(k + lag) % n]) for k in range(n)) for lag in range(n)]
    )


class TestGenerate:
    def test_first_sample_is_one(self):
        seq = generate_zc(1, 139)
        assert seq.samples[0] == pytest.approx(1 + 0j)

    def test_second_sample_phase(self):
        # High-precision evaluation: k=1 gives exp(j*2*pi/139).
        seq = generate_zc(1, 139)
        assert np.angle(seq.samples[1]) == pytest.approx(2 * math.pi / 139, abs=1e-12)
        assert abs(seq.samples[1]) == pytest.approx(1.0, abs=1e-12)

    def test_unit_magnitude_root2(self):
        seq = generate_zc(2, 139)
        assert np.max(np.abs(np.abs(seq.samples) - 1.0)) < 1e-12

    def test_rejects_even_length(self):
        with pytest.raises(ValueError, match="odd"):
            generate_zc(1, 138)

    def test_rejects_short_length(self):
        with pytest.raises(ValueError, match=">= 3"):
            generate_zc(1, 1)

    def test_rejects_root_out_of_range(self):
        with pytest.raises(ValueError, match="1 <= root < length"):
            generate_zc(0, 139)
        with pytest.raises(ValueError, match="1 <= root < length"):
            generate_zc(139, 139)

    def test_rejects_non_coprime_root(self):
        with pytest.raises(ValueError, match="coprime"):
            generate_zc(3, 9)

    @pytest.mark.parametrize("root, shift, count, message", [
        (3, 0, 9, "root 3 and length 9 must be coprime"),
        (1, 9, 9, r"shift 9 out of range \[0, 9\)"),
        (1, 0, 8, "sample count does not match declared length"),
        (-1, 0, 9, "1 <= root < length, got -1"),
        (10, 0, 9, "1 <= root < length, got 10"),
    ], ids=["non-coprime-root", "shift-out-of-range", "sample-count", "negative-root",
            "root-past-length"])
    def test_sequence_checks(self, root, shift, count, message):
        with pytest.raises(ValueError, match=message):
            ZcSequence(root, 9, shift, np.ones(count, dtype=complex))

    @given(
        length=st.sampled_from([3, 5, 7, 139, 839]),
        root=st.integers(min_value=1, max_value=838),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_magnitude_property(self, length, root):
        root = 1 + (root - 1) % (length - 1)
        if math.gcd(root, length) != 1:
            return
        seq = generate_zc(root, length)
        assert np.max(np.abs(np.abs(seq.samples) - 1.0)) < 1e-12


class TestCyclicShift:
    def test_zero_shift_is_identity(self):
        seq = generate_zc(1, 139)
        shifted = cyclic_shift(seq, 0)
        np.testing.assert_array_equal(shifted.samples, seq.samples)
        assert shifted.shift == 0

    def test_shift_equal_length_rejected(self):
        seq = generate_zc(1, 139)
        with pytest.raises(ValueError, match="out of range"):
            cyclic_shift(seq, 139)
        with pytest.raises(ValueError, match="out of range"):
            cyclic_shift(seq, -1)

    def test_shift_and_inverse_restore(self):
        seq = generate_zc(1, 139)
        back = cyclic_shift(cyclic_shift(seq, 5), 139 - 5)
        np.testing.assert_allclose(back.samples, seq.samples, atol=1e-15)
        assert back.shift == 0

    def test_shift_semantics(self):
        seq = generate_zc(1, 139)
        shifted = cyclic_shift(seq, 7)
        for k in (0, 1, 100, 138):
            assert shifted.samples[k] == seq.samples[(k + 7) % 139]

    @given(s1=st.integers(0, 138), s2=st.integers(0, 138))
    @settings(max_examples=50, deadline=None)
    def test_shift_composes_additively(self, s1, s2):
        seq = generate_zc(3, 139)
        chained = cyclic_shift(cyclic_shift(seq, s1), s2)
        direct = cyclic_shift(seq, (s1 + s2) % 139)
        np.testing.assert_allclose(chained.samples, direct.samples, atol=1e-15)
        assert chained.shift == direct.shift


class TestPeriodicXcorr:
    def test_autocorrelation_is_delta(self):
        seq = generate_zc(1, 139)
        xcorr = periodic_xcorr(seq, seq, normalize=True)
        assert abs(xcorr[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(xcorr[1:])) < 1e-9

    def test_cross_correlation_constant(self):
        a = generate_zc(1, 139)
        b = generate_zc(2, 139)
        xcorr = periodic_xcorr(a, b, normalize=True)
        expected = 1 / math.sqrt(139)
        assert np.max(np.abs(np.abs(xcorr) - expected)) < 1e-9

    def test_zero_input(self):
        xcorr = periodic_xcorr(np.zeros(139), generate_zc(1, 139))
        assert np.max(np.abs(xcorr)) == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            periodic_xcorr(np.zeros(5), np.zeros(7))

    def test_shift_moves_correlation_peak(self):
        seq = generate_zc(1, 139)
        shifted = cyclic_shift(seq, 13)
        xcorr = periodic_xcorr(seq, shifted, normalize=True)
        # a[k] = shifted[(k + (N-13)) % N], so the peak sits at lag N-13.
        assert int(np.argmax(np.abs(xcorr))) == 139 - 13

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([4, 7, 16, 139]),
        normalize=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_oracle(self, seed, n, normalize):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = periodic_xcorr(a, b, normalize=normalize)
        want = naive_xcorr(a, b) / (n if normalize else 1)
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestDft:
    def test_zc_spectrum_is_cazac(self):
        seq = generate_zc(1, 139)
        spectrum = np.fft.fft(seq.samples)
        oracle = naive_dft(seq.samples)
        np.testing.assert_allclose(spectrum, oracle, atol=1e-9)
        assert np.max(np.abs(np.abs(spectrum) - math.sqrt(139))) < 1e-9


class TestCazacFamilies:
    """Cross-root behaviour over a sample of valid roots (prime length)."""

    ROOTS = list(range(1, 21))

    def test_autocorrelations_vanish_off_peak(self):
        for root in self.ROOTS:
            seq = generate_zc(root, 139)
            xcorr = periodic_xcorr(seq, seq, normalize=True)
            assert np.max(np.abs(xcorr[1:])) < 1e-9, f"root {root}"

    def test_cross_correlations_flat(self):
        expected = 1 / math.sqrt(139)
        seqs = {root: generate_zc(root, 139) for root in self.ROOTS}
        for r1 in self.ROOTS:
            for r2 in self.ROOTS:
                if r1 >= r2:
                    continue
                xcorr = periodic_xcorr(seqs[r1], seqs[r2], normalize=True)
                assert (
                    np.max(np.abs(np.abs(xcorr) - expected)) < 1e-9
                ), f"roots {r1},{r2}"

    def test_spectra_flat(self):
        for root in self.ROOTS:
            spectrum = np.fft.fft(generate_zc(root, 139).samples)
            assert np.max(np.abs(np.abs(spectrum) - math.sqrt(139))) < 1e-9
