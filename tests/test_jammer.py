"""Jamming amplitude law, spectra statistics and band confinement."""
import math

import numpy as np
import pytest

from prachjam.errors import ConfigError
from prachjam.jammer import JammerConfig, amplitude_from_snr, generate_jamming_frame
from prachjam.waveform import REPETITIONS, cp_length

from helpers import CELL, OCCASION


def at_amplitude(kind, a_f):
    """A ``kind`` spectrum whose amplitude is ``a_f``."""
    return JammerConfig(kind=kind, snr_db=-20 * math.log10(a_f))


def occupied_bins(frame, n_symbols=REPETITIONS):
    """Per-repetition occupied bins of a jamming frame."""
    cp = cp_length(CELL)
    n = CELL.dft_size
    first, count = OCCASION.first_subcarrier, OCCASION.num_subcarriers
    out = []
    for r in range(n_symbols):
        spectrum = np.fft.fft(frame.samples[cp + r * n : cp + (r + 1) * n]) / np.sqrt(n)
        out.append(spectrum[first : first + count])
    return np.array(out)


class TestAmplitudeLaw:
    def test_zero_db_is_unity(self):
        assert amplitude_from_snr(1.0, 0.0) == pytest.approx(1.0)

    def test_minus_six_db_doubles(self):
        assert amplitude_from_snr(1.0, -6.0) == pytest.approx(1.995, abs=1e-3)

    def test_twenty_db_is_tenth(self):
        assert amplitude_from_snr(1.0, 20.0) == pytest.approx(0.1)

    def test_negative_reference_rejected(self):
        with pytest.raises(ValueError):
            amplitude_from_snr(-1.0, 0.0)


class TestFrames:
    def test_kind_validated(self):
        with pytest.raises(ConfigError, match="kind"):
            JammerConfig(kind="S3", snr_db=0.0)

    @pytest.mark.parametrize("kind", ["S1", "S1_literal", "S2"])
    def test_disabled_spectrum_gives_zero_frame(self, kind):
        cfg = JammerConfig(kind=kind, snr_db=-6.0, enabled=False)
        assert cfg.amplitude == 0.0
        rng = np.random.default_rng(3)
        frame = generate_jamming_frame(cfg, OCCASION, CELL, rng)
        assert np.max(np.abs(frame.samples)) == 0.0
        # It draws nothing, so the generator's next number is its first.
        assert rng.random() == np.random.default_rng(3).random()

    def test_deterministic_frames(self):
        for kind in ("S1", "S2"):
            cfg = at_amplitude(kind, 2.0)
            a = generate_jamming_frame(cfg, OCCASION, CELL, np.random.default_rng(9))
            b = generate_jamming_frame(cfg, OCCASION, CELL, np.random.default_rng(9))
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_repetition_structure(self):
        cfg = JammerConfig(kind="S1", snr_db=0.0)
        frame = generate_jamming_frame(cfg, OCCASION, CELL, np.random.default_rng(5))
        cp = cp_length(CELL)
        n = CELL.dft_size
        first = frame.samples[cp : cp + n]
        for r in range(1, REPETITIONS):
            np.testing.assert_allclose(
                frame.samples[cp + r * n : cp + (r + 1) * n], first, atol=1e-12
            )
        np.testing.assert_allclose(frame.samples[:cp], first[-cp:], atol=1e-12)

    @pytest.mark.parametrize("kind", ["S1", "S1_literal", "S2"])
    def test_band_confinement(self, kind):
        cfg = JammerConfig(kind=kind, snr_db=0.0)
        frame = generate_jamming_frame(cfg, OCCASION, CELL, np.random.default_rng(11))
        cp = cp_length(CELL)
        n = CELL.dft_size
        spectrum = np.fft.fft(frame.samples[cp : cp + n])
        power = np.abs(spectrum) ** 2
        in_band = power[: OCCASION.num_subcarriers].sum()
        out_band = power[OCCASION.num_subcarriers :].sum()
        assert out_band < 1e-6 * in_band

    def test_s2_second_moment(self):
        # Pooled over many draws the mean squared bin magnitude is a_f^2.
        cfg = JammerConfig(kind="S2", snr_db=0.0)
        rng = np.random.default_rng(17)
        values = []
        for _ in range(800):
            frame = generate_jamming_frame(cfg, OCCASION, CELL, rng)
            values.append(occupied_bins(frame, n_symbols=1)[0])
        values = np.concatenate(values)  # > 1e5 bins
        assert len(values) >= 100_000
        assert np.mean(np.abs(values) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_s2_component_variances(self):
        cfg = at_amplitude("S2", 1.4)
        rng = np.random.default_rng(23)
        values = []
        for _ in range(400):
            frame = generate_jamming_frame(cfg, OCCASION, CELL, rng)
            values.append(occupied_bins(frame, n_symbols=1)[0])
        values = np.concatenate(values)
        n = len(values)
        target = cfg.amplitude**2 / 2
        # 3 sigma of the variance estimator for Gaussian components.
        tol = 3 * target * np.sqrt(2 / n)
        assert abs(np.var(values.real) - target) < tol
        assert abs(np.var(values.imag) - target) < tol

    def test_matched_in_band_power(self):
        rng1 = np.random.default_rng(31)
        rng2 = np.random.default_rng(32)
        powers = {}
        for kind, rng in (("S1", rng1), ("S2", rng2)):
            cfg = at_amplitude(kind, 2.0)
            total = 0.0
            count = 0
            for _ in range(800):
                frame = generate_jamming_frame(cfg, OCCASION, CELL, rng)
                bins = occupied_bins(frame, n_symbols=1)[0]
                total += np.sum(np.abs(bins) ** 2)
                count += len(bins)
            powers[kind] = total / count
        assert powers["S1"] == pytest.approx(powers["S2"], rel=0.02)

    def test_literal_spectrum_is_constant(self):
        cfg = at_amplitude("S1_literal", 1.5)
        frame = generate_jamming_frame(cfg, OCCASION, CELL, np.random.default_rng(2))
        bins = occupied_bins(frame, n_symbols=1)[0]
        np.testing.assert_allclose(bins, np.full(139, 1.5 + 0j), atol=1e-9)

    def test_frames_export_as_raw_iq(self, tmp_path):
        from prachjam.waveform import read_iq, write_iq

        cfg = at_amplitude("S2", 2.0)
        frame = generate_jamming_frame(cfg, OCCASION, CELL, np.random.default_rng(8))
        write_iq(frame, tmp_path / "jam.iq")
        loaded = read_iq(tmp_path / "jam.iq")
        np.testing.assert_allclose(loaded.samples, frame.samples, atol=1e-5)
        assert loaded.sample_rate == CELL.sample_rate
