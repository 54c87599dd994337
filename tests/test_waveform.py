"""Preamble modulation, PRACH demapping and raw IQ file I/O."""
import dataclasses

import numpy as np
import pytest

from prachjam.prach import PRESETS, occasions_in_frame
from prachjam.waveform import (
    IqFrame,
    cp_length,
    demap_prach,
    frame_length,
    modulate_preamble,
    read_iq,
    write_iq,
)
from prachjam.zc import generate_zc

PRACH, CELL = PRESETS["index98_40mhz_desk"]
OCCASION = occasions_in_frame(PRACH, CELL, 1)[0]
SEQ = generate_zc(1, 139)


class TestModulate:
    def test_frame_length_full_grid(self):
        _, full_cell = PRESETS["index98_40mhz_full"]
        occ = occasions_in_frame(PRACH, full_cell, 1)[0]
        frame = modulate_preamble(SEQ, occ, full_cell, 1.0)
        assert cp_length(full_cell) == 144
        assert len(frame.samples) == 144 + 4 * 2048

    def test_zero_amplitude_gives_zero_frame(self):
        frame = modulate_preamble(SEQ, OCCASION, CELL, 0.0)
        assert len(frame.samples) == frame_length(CELL)
        assert np.max(np.abs(frame.samples)) == 0.0

    def test_occupied_bins_have_requested_magnitude(self):
        frame = modulate_preamble(SEQ, OCCASION, CELL, 0.7)
        _, avg = demap_prach(frame, OCCASION, CELL)
        assert np.max(np.abs(np.abs(avg) - 0.7)) < 1e-9

    def test_demap_round_trip(self):
        frame = modulate_preamble(SEQ, OCCASION, CELL, 1.0)
        reps, avg = demap_prach(frame, OCCASION, CELL)
        expected = np.fft.fft(SEQ.samples) / np.sqrt(139)
        np.testing.assert_allclose(avg, expected, atol=1e-9)
        for rep in reps:
            np.testing.assert_allclose(rep, expected, atol=1e-9)

    def test_sequence_occasion_mismatch(self):
        short = generate_zc(1, 7)
        with pytest.raises(ValueError, match="does not match"):
            modulate_preamble(short, OCCASION, CELL, 1.0)

    def test_preamble_exceeding_grid(self):
        tiny = dataclasses.replace(CELL, n_prb=2, dft_size=128)
        with pytest.raises(ValueError, match="exceeds"):
            modulate_preamble(SEQ, OCCASION, tiny, 1.0)

    def test_energy_conservation(self):
        frame = modulate_preamble(SEQ, OCCASION, CELL, 1.3)
        cp = cp_length(CELL)
        time_energy = np.sum(np.abs(frame.samples[cp:]) ** 2)
        bin_energy = 4 * 139 * 1.3**2  # four repetitions of the occupied bins
        assert time_energy == pytest.approx(bin_energy, rel=1e-6)


class TestDemap:
    def test_zeros_give_zero_bins(self):
        frame = IqFrame(
            samples=np.zeros(frame_length(CELL), dtype=complex),
            sample_rate=CELL.sample_rate,
        )
        reps, avg = demap_prach(frame, OCCASION, CELL)
        assert np.max(np.abs(avg)) == 0.0

    def test_frame_too_short(self):
        frame = IqFrame(samples=np.zeros(100, dtype=complex), sample_rate=CELL.sample_rate)
        with pytest.raises(ValueError, match="too short"):
            demap_prach(frame, OCCASION, CELL)

    def test_start_offset_beyond_cp(self):
        frame = IqFrame(
            samples=np.zeros(frame_length(CELL), dtype=complex),
            sample_rate=CELL.sample_rate,
            start_offset=cp_length(CELL) + 1,
        )
        with pytest.raises(ValueError, match="tolerance"):
            demap_prach(frame, OCCASION, CELL)

    @pytest.mark.parametrize("delay", [1, 5, 17])
    def test_delay_within_cp_is_phase_ramp(self, delay):
        frame = modulate_preamble(SEQ, OCCASION, CELL, 1.0)
        shifted = np.zeros_like(frame.samples)
        shifted[delay:] = frame.samples[:-delay]
        delayed = IqFrame(samples=shifted, sample_rate=CELL.sample_rate)
        _, avg = demap_prach(delayed, OCCASION, CELL)
        _, ref = demap_prach(frame, OCCASION, CELL)
        # Magnitudes unchanged, phases a pure ramp across the bins.
        np.testing.assert_allclose(np.abs(avg), np.abs(ref), atol=1e-6)
        n = CELL.dft_size
        k = OCCASION.first_subcarrier + np.arange(139)
        expected = ref * np.exp(-2j * np.pi * k * delay / n)
        np.testing.assert_allclose(avg, expected, atol=1e-6)


class TestIqFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        frame = IqFrame(samples=samples, sample_rate=7.68e6, start_offset=3)
        path = tmp_path / "frame.iq"
        write_iq(frame, path)
        loaded = read_iq(path)
        assert loaded.sample_rate == frame.sample_rate
        assert loaded.start_offset == frame.start_offset
        np.testing.assert_allclose(loaded.samples, samples, atol=1e-6)

    def test_interleaved_layout(self, tmp_path):
        frame = IqFrame(
            samples=np.array([1 + 2j, 3 - 4j]), sample_rate=1000.0
        )
        path = tmp_path / "frame.iq"
        write_iq(frame, path)
        raw = np.fromfile(path, dtype="<f4")
        np.testing.assert_allclose(raw, [1, 2, 3, -4])

    def test_odd_float_count_rejected(self, tmp_path):
        path = tmp_path / "bad.iq"
        np.array([1.0, 2.0, 3.0], dtype="<f4").tofile(path)
        (tmp_path / "bad.iq.json").write_text('{"sample_rate": 1, "start_offset": 0}')
        with pytest.raises(ValueError, match="IQ pairs"):
            read_iq(path)
