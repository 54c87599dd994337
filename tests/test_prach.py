"""Occasion scheduling, occupancy ratio and configuration loading."""
import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from prachjam.errors import ConfigError
from prachjam.prach import (
    CellConfig,
    PrachConfig,
    PRESETS,
    is_prach_frame,
    jammer_resource_budget,
    load_record,
    occasions_in_frame,
    occupancy_factors,
    occupancy_ratio,
)

PRACH, CELL = PRESETS["index98_40mhz_desk"]


def enumerate_occupancy(config: PrachConfig, cell: CellConfig) -> Fraction:
    """Brute-force oracle: count occasion resource elements over one period.

    Walks every frame of one PRACH period through the scheduler and tallies
    symbol x subcarrier products, then divides by the period's total grid
    size (symbols times the fractional subcarrier count of the bandwidth).
    """
    period_frames = config.sfn_modulus
    occupied = Fraction(0)
    for sfn in range(period_frames):
        for occ in occasions_in_frame(config, cell, sfn):
            occupied += (
                config.duration_symbols
                * occ.num_subcarriers
                * config.freq_occasions
            )
    symbols_per_frame = 10 * (1 << cell.numerology) * 14
    subcarriers = Fraction(cell.cell_bandwidth) / Fraction(cell.subcarrier_spacing)
    total = period_frames * symbols_per_frame * subcarriers
    return occupied / total


def random_config(rng) -> tuple[PrachConfig, CellConfig]:
    numerology = int(rng.integers(0, 3))
    start_symbol = int(rng.integers(0, 3))
    max_occ = (14 - start_symbol) // 4
    occasions = int(rng.integers(1, max_occ + 1))
    subframe = int(rng.integers(0, 10))
    n_sf = int(rng.integers(1, subframe + 2))
    slot = int(rng.integers(0, 1 << numerology))
    n_sl = int(rng.integers(1, slot + 2))
    modulus = int(rng.integers(1, 9))
    config = PrachConfig(
        freq_occasions=int(rng.integers(1, 4)),
        freq_offset=int(rng.integers(0, 4)),
        sfn_modulus=modulus,
        sfn_remainder=int(rng.integers(0, modulus)),
        subframe_number=subframe,
        slot_in_subframe=slot,
        start_symbol=start_symbol,
        slots_per_subframe_with_prach=n_sl,
        occasions_per_slot=occasions,
        prach_subframes_per_frame=n_sf,
    )
    cell = CellConfig(
        numerology=numerology,
        cell_bandwidth=float(rng.integers(10, 101)) * 1e6,
        n_prb=106,
        dft_size=2048,
        prach_root_indices=(1,),
        shift_step=13,
    )
    return config, cell


class TestFrameRule:
    def test_odd_sfn_matches(self):
        assert is_prach_frame(PRACH, 3) is True

    def test_even_sfn_excluded(self):
        assert is_prach_frame(PRACH, 4) is False

    def test_modulus_one_always_matches(self):
        cfg = dataclasses.replace(PRACH, sfn_modulus=1, sfn_remainder=0)
        assert all(is_prach_frame(cfg, sfn) for sfn in range(20))

    def test_negative_sfn_rejected(self):
        with pytest.raises(ValueError):
            is_prach_frame(PRACH, -1)


class TestOccasions:
    def test_reference_frame_layout(self):
        occs = occasions_in_frame(PRACH, CELL, 1)
        assert len(occs) == 3
        assert all(o.slot == 19 for o in occs)
        assert [o.start_symbol for o in occs] == [0, 4, 8]
        assert [o.occasion_index for o in occs] == [0, 1, 2]

    def test_even_frame_empty(self):
        assert occasions_in_frame(PRACH, CELL, 2) == []

    def test_frequency_placement(self):
        occs = occasions_in_frame(PRACH, CELL, 1)
        assert occs[0].first_subcarrier == 0
        assert occs[0].num_subcarriers == 139

    def test_no_overlapping_symbol_ranges(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            config, cell = random_config(rng)
            for sfn in range(config.sfn_modulus):
                spans = set()
                for occ in occasions_in_frame(config, cell, sfn):
                    for sym in range(
                        occ.start_symbol, occ.start_symbol + config.duration_symbols
                    ):
                        key = (occ.slot, sym)
                        assert key not in spans
                        spans.add(key)

    def test_invalid_slot_for_numerology_rejected(self):
        cfg = dataclasses.replace(PRACH, slot_in_subframe=1)
        cell = dataclasses.replace(CELL, numerology=0)
        with pytest.raises(ConfigError, match="slot_in_subframe"):
            occasions_in_frame(cfg, cell, 1)


class TestOccupancy:
    def test_reference_value(self):
        assert occupancy_ratio(PRACH, CELL) == pytest.approx(0.002234, abs=1e-6)

    def test_every_frame_doubles(self):
        cfg = dataclasses.replace(PRACH, sfn_modulus=1, sfn_remainder=0)
        assert occupancy_ratio(cfg, CELL) == pytest.approx(0.004468, abs=1e-6)

    def test_full_occupancy_limit(self):
        # Saturating each factor takes the product to 1: PRACH in every
        # frame, every symbol of every slot occupied, full band covered.
        factors = occupancy_factors(PRACH, CELL)
        period_saturated = 1.0
        temporal_saturated = factors["temporal"] * (
            10 * (1 << CELL.numerology) * 14
        ) / (
            PRACH.prach_subframes_per_frame
            * PRACH.slots_per_subframe_with_prach
            * PRACH.occasions_per_slot
            * PRACH.duration_symbols
        )
        bandwidth_saturated = factors["bandwidth"] * (
            CELL.cell_bandwidth
            / (CELL.subcarrier_spacing * PRACH.preamble_length * PRACH.freq_occasions)
        )
        assert period_saturated * temporal_saturated * bandwidth_saturated == (
            pytest.approx(1.0, abs=1e-12)
        )

    def test_matches_grid_enumeration(self):
        rng = np.random.default_rng(999)
        for _ in range(100):
            config, cell = random_config(rng)
            got = occupancy_ratio(config, cell)
            want = float(enumerate_occupancy(config, cell))
            assert got == pytest.approx(want, abs=1e-9)

    def test_monotonicity(self):
        base = occupancy_ratio(PRACH, CELL)
        more_freq = dataclasses.replace(PRACH, freq_occasions=2)
        assert occupancy_ratio(more_freq, CELL) >= base
        rarer = dataclasses.replace(PRACH, sfn_modulus=4, sfn_remainder=1)
        assert occupancy_ratio(rarer, CELL) <= base
        wider = dataclasses.replace(CELL, cell_bandwidth=80e6)
        assert occupancy_ratio(PRACH, wider) <= base
        more_slots = dataclasses.replace(PRACH, subframe_number=9,
                                         prach_subframes_per_frame=2)
        assert occupancy_ratio(more_slots, CELL) >= base


class TestBudget:
    def test_reference_budget(self):
        budget = jammer_resource_budget(PRACH, CELL)
        assert budget["bandwidth_hz"] == pytest.approx(4.17e6)
        assert budget["duty_period_ms"] == pytest.approx(20.0)
        assert budget["active_span_per_period_ms"] == pytest.approx(12 / 28, abs=1e-12)

    def test_bandwidth_linear_in_freq_occasions(self):
        doubled = dataclasses.replace(PRACH, freq_occasions=2)
        b0 = jammer_resource_budget(PRACH, CELL)
        b1 = jammer_resource_budget(doubled, CELL)
        assert b1["bandwidth_hz"] == pytest.approx(2 * b0["bandwidth_hz"])
        assert b1["duty_period_ms"] == b0["duty_period_ms"]
        assert b1["active_span_per_period_ms"] == b0["active_span_per_period_ms"]

    def test_numerology_zero_scaling(self):
        cfg = dataclasses.replace(PRACH, slot_in_subframe=0)
        cell = dataclasses.replace(CELL, numerology=0)
        budget = jammer_resource_budget(cfg, cell)
        # Half the subcarrier spacing: half the bandwidth, twice the span.
        assert budget["bandwidth_hz"] == pytest.approx(4.17e6 / 2)
        assert budget["active_span_per_period_ms"] == pytest.approx(2 * 12 / 28)


def load_with(record, section, **values):
    """Load ``record`` as a JSON section holds it, with ``values`` spelled in."""
    data = json.loads(json.dumps({**dataclasses.asdict(record), **values}))
    return load_record(type(record), data, section)


class TestConfigValidation:
    # Format A2 fixes the preamble: its length, format, duration and PRBs are
    # constants of PrachConfig that a section cannot spell.
    def test_bad_preamble_length(self):
        assert PRACH.preamble_length == PrachConfig.preamble_length == 139
        with pytest.raises(ConfigError, match="unknown field 'preamble_length' in prach"):
            load_with(PRACH, "prach", preamble_length=127)

    def test_long_preamble_rejected(self):
        # L = 839 is a long format's; A2 is short, L = 139.
        with pytest.raises(ConfigError, match="unknown field 'preamble_length' in prach"):
            load_with(PRACH, "prach", preamble_length=839)

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="unknown field 'preamble_format' in prach"):
            load_with(PRACH, "prach", preamble_format="B4")

    @pytest.mark.parametrize("name, value", [("duration_symbols", 4), ("prach_prbs", 12)])
    def test_fixed_value_is_not_a_field(self, name, value):
        # Even the one legal value: a section does not spell a constant.
        assert getattr(PRACH, name) == value
        with pytest.raises(ConfigError, match=f"unknown field '{name}' in prach"):
            load_with(PRACH, "prach", **{name: value})

    def test_occasions_must_fit_slot(self):
        with pytest.raises(ConfigError, match="fit"):
            dataclasses.replace(PRACH, start_symbol=4)

    def test_sfn_remainder_bound(self):
        with pytest.raises(ConfigError, match="sfn_remainder"):
            dataclasses.replace(PRACH, sfn_remainder=2)

    def test_cell_dft_power_of_two(self):
        with pytest.raises(ConfigError, match="power of two"):
            dataclasses.replace(CELL, dft_size=300)

    def test_cell_sample_rate_consistency(self):
        # The sample rate is derived, dft_size times the subcarrier spacing.
        assert CELL.sample_rate == 256 * 30e3
        assert dataclasses.replace(CELL, numerology=0).sample_rate == 256 * 15e3
        with pytest.raises(ConfigError, match="unknown field 'sample_rate' in cell"):
            load_with(CELL, "cell", sample_rate=256 * 30e3)


class TestJsonLoading:
    def test_round_trip(self):
        data = dataclasses.asdict(PRACH)
        assert load_record(PrachConfig, data, "prach") == PRACH
        cell_data = dataclasses.asdict(CELL)
        cell_data["prach_root_indices"] = list(cell_data["prach_root_indices"])
        assert load_record(CellConfig, cell_data, "cell") == CELL

    def test_unknown_field_rejected(self):
        data = dataclasses.asdict(PRACH)
        data["bogus"] = 1
        with pytest.raises(ConfigError, match="unknown field 'bogus'"):
            load_record(PrachConfig, data, "prach")

    def test_missing_field_rejected(self):
        data = dataclasses.asdict(PRACH)
        del data["start_symbol"]
        with pytest.raises(ConfigError, match="missing field 'start_symbol'"):
            load_record(PrachConfig, data, "prach")
