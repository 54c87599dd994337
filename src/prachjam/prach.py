"""PRACH occasion scheduling and resource occupancy for one cell.

The physical random access channel occupies a small, periodic set of
time/frequency resources that is fully determined by the cell's PRACH
parameter record. This module decides which frames, slots and symbols
carry PRACH occasions, computes the fraction of the resource grid they
occupy, and derives the time/frequency budget an attacker needs to cover
exactly those resources.
"""
from __future__ import annotations

import itertools
import math
import sys
import types
from dataclasses import MISSING, dataclass, fields, replace
from typing import Any, ClassVar, get_type_hints

from .errors import ConfigError

__all__ = [
    "PrachConfig",
    "CellConfig",
    "PrachOccasion",
    "check_slot",
    "is_prach_frame",
    "occasions_in_frame",
    "occasion_time_ms",
    "occasions_between",
    "occupancy_ratio",
    "occupancy_factors",
    "jammer_resource_budget",
    "load_record",
    "PRESETS",
]

SUBCARRIERS_PER_PRB = 12
SYMBOLS_PER_SLOT = 14
SUBFRAMES_PER_FRAME = 10
FRAME_MS = 10.0
BASE_SCS_HZ = 15_000.0


@dataclass(frozen=True)
class PrachConfig:
    """Expanded PRACH channel parameters (one TS 38.211 configuration row).

    ``sfn_modulus``/``sfn_remainder`` encode the frame rule
    ``sfn mod modulus == remainder``; the remaining fields place the
    occasions inside a PRACH frame.
    """

    # Format A2 fixes these, and TS 38.211 Table 6.3.3.2-1 the PRBs (N_RB^RA).
    preamble_length: ClassVar[int] = 139
    prach_prbs: ClassVar[int] = 12
    preamble_format: ClassVar[str] = "A2"
    duration_symbols: ClassVar[int] = 4

    freq_occasions: int
    freq_offset: int
    sfn_modulus: int
    sfn_remainder: int
    subframe_number: int
    slot_in_subframe: int
    start_symbol: int
    slots_per_subframe_with_prach: int
    occasions_per_slot: int
    prach_subframes_per_frame: int

    def __post_init__(self) -> None:
        if self.sfn_modulus < 1:
            raise ConfigError("sfn_modulus must be >= 1")
        if not 0 <= self.sfn_remainder < self.sfn_modulus:
            raise ConfigError("sfn_remainder must be < sfn_modulus")
        if not 0 <= self.subframe_number < SUBFRAMES_PER_FRAME:
            raise ConfigError("subframe_number must be in [0, 10)")
        if not 0 <= self.start_symbol < SYMBOLS_PER_SLOT:
            raise ConfigError("start_symbol must be in [0, 14)")
        if self.occasions_per_slot < 1:
            raise ConfigError("occasions_per_slot must be >= 1")
        if (
            self.start_symbol + self.occasions_per_slot * self.duration_symbols
            > SYMBOLS_PER_SLOT
        ):
            raise ConfigError("occasions do not fit in the slot")
        if self.freq_occasions < 1:
            raise ConfigError("freq_occasions must be >= 1")
        if self.freq_offset < 0:
            raise ConfigError("freq_offset must be >= 0")
        if self.slot_in_subframe < 0:
            raise ConfigError("slot_in_subframe must be >= 0")
        if not 1 <= self.prach_subframes_per_frame <= self.subframe_number + 1:
            raise ConfigError(
                "prach_subframes_per_frame must fit before subframe_number"
            )
        if not 1 <= self.slots_per_subframe_with_prach <= self.slot_in_subframe + 1:
            raise ConfigError(
                "slots_per_subframe_with_prach must fit before slot_in_subframe"
            )


@dataclass(frozen=True)
class CellConfig:
    """Cell numerology, bandwidth and baseband grid parameters."""

    numerology: int
    cell_bandwidth: float
    n_prb: int
    dft_size: int

    def __post_init__(self) -> None:
        if not 0 <= self.numerology <= 2:
            raise ConfigError(f"numerology must be 0..2, got {self.numerology}")
        if not 0 < self.cell_bandwidth < math.inf:  # false for NaN too
            raise ConfigError(f"cell_bandwidth must be > 0 and finite, got {self.cell_bandwidth}")
        if self.dft_size < self.n_prb * SUBCARRIERS_PER_PRB:
            raise ConfigError("dft_size must cover n_prb * 12 subcarriers")
        if self.dft_size & (self.dft_size - 1) != 0 or self.dft_size <= 0:
            raise ConfigError("dft_size must be a power of two")

    @property
    def subcarrier_spacing(self) -> float:
        return (1 << self.numerology) * BASE_SCS_HZ

    @property
    def slots_per_subframe(self) -> int:
        return 1 << self.numerology

    @property
    def sample_rate(self) -> float:
        return self.dft_size * self.subcarrier_spacing


@dataclass(frozen=True)
class PrachOccasion:
    """One time-domain PRACH occasion inside a frame."""

    sfn: int
    slot: int
    start_symbol: int
    occasion_index: int
    first_subcarrier: int
    num_subcarriers: int


def is_prach_frame(config: PrachConfig, sfn: int) -> bool:
    """True when frame ``sfn`` carries PRACH (``sfn mod x == y``)."""
    if sfn < 0:
        raise ValueError("sfn must be >= 0")
    return sfn % config.sfn_modulus == config.sfn_remainder


def check_slot(config: PrachConfig, cell: CellConfig) -> None:
    """Refuse a PRACH slot that the cell's numerology does not have."""
    if config.slot_in_subframe >= cell.slots_per_subframe:
        raise ConfigError(f"prach.slot_in_subframe {config.slot_in_subframe} does not exist "
                          f"at cell.numerology {cell.numerology}")


def occasions_in_frame(
    config: PrachConfig, cell: CellConfig, sfn: int
) -> list[PrachOccasion]:
    """All PRACH occasions of a frame, empty when the frame carries none.

    PRACH subframes are the consecutive subframes ending at
    ``subframe_number``, and PRACH slots the consecutive slots (within each
    such subframe) ending at ``slot_in_subframe``; the standard single-row
    configurations collapse both to a single subframe/slot.
    """
    check_slot(config, cell)
    if not is_prach_frame(config, sfn):
        return []
    occasions = []
    first_sc = config.freq_offset * SUBCARRIERS_PER_PRB
    for sf_back in range(config.prach_subframes_per_frame - 1, -1, -1):
        subframe = config.subframe_number - sf_back
        for sl_back in range(config.slots_per_subframe_with_prach - 1, -1, -1):
            slot_in_sf = config.slot_in_subframe - sl_back
            slot = subframe * cell.slots_per_subframe + slot_in_sf
            for occ in range(config.occasions_per_slot):
                occasions.append(
                    PrachOccasion(
                        sfn=sfn,
                        slot=slot,
                        start_symbol=config.start_symbol
                        + occ * config.duration_symbols,
                        occasion_index=occ,
                        first_subcarrier=first_sc,
                        num_subcarriers=config.preamble_length,
                    )
                )
    return occasions


def occasion_time_ms(occ: PrachOccasion, cell: CellConfig) -> float:
    """Start instant of an occasion, in ms from the start of frame 0."""
    slots = 1 << cell.numerology
    return (
        occ.sfn * 10.0
        + occ.slot * (1.0 / slots)
        + occ.start_symbol / (14.0 * slots)
    )


def occasions_between(config: PrachConfig, cell: CellConfig, start_ms: float, end_ms: float):
    """``(instant, occasion)`` of every PRACH occasion in the finite ``[start_ms, end_ms)``."""
    if not math.isfinite(end_ms):
        raise ConfigError(f"end_ms must be finite, got {end_ms}")
    frames = itertools.takewhile(lambda sfn: sfn * FRAME_MS < end_ms,
                                 itertools.count(int(start_ms // FRAME_MS)))
    timed = ((occasion_time_ms(occ, cell), occ)
             for sfn in frames for occ in occasions_in_frame(config, cell, sfn))
    return ((t, occ) for t, occ in timed if start_ms <= t < end_ms)


def _symbols_per_period(config: PrachConfig) -> int:
    """PRACH symbols per PRACH period (all occasions of one PRACH frame)."""
    return (
        config.prach_subframes_per_frame
        * config.slots_per_subframe_with_prach
        * config.occasions_per_slot
        * config.duration_symbols
    )


def occupancy_factors(config: PrachConfig, cell: CellConfig) -> dict[str, float]:
    """The three factors of the PRACH resource-occupancy ratio.

    ``period`` is the 10 ms frame duration over the PRACH period,
    ``temporal`` the occupied share of a PRACH frame's symbols and
    ``bandwidth`` the occupied share of the cell bandwidth; the occupancy
    ratio is their product.
    """
    period_ms = config.sfn_modulus * FRAME_MS
    period = FRAME_MS / period_ms
    temporal = _symbols_per_period(config) / (
        SUBFRAMES_PER_FRAME * (1 << cell.numerology) * SYMBOLS_PER_SLOT
    )
    bandwidth = (
        cell.subcarrier_spacing
        * config.preamble_length
        * config.freq_occasions
        / cell.cell_bandwidth
    )
    return {
        "period": period,
        "temporal": temporal,
        "bandwidth": bandwidth,
        "ratio": period * temporal * bandwidth,
    }


def occupancy_ratio(config: PrachConfig, cell: CellConfig) -> float:
    """Fraction of the cell's resource elements occupied by PRACH."""
    return occupancy_factors(config, cell)["ratio"]


def jammer_resource_budget(config: PrachConfig, cell: CellConfig) -> dict[str, float]:
    """Bandwidth and duty cycle needed to cover exactly the PRACH resources.

    Returns the occupied bandwidth in Hz, the repetition period of PRACH
    slots in ms and the active transmit span per period in ms.
    """
    symbol_ms = 1.0 / (SYMBOLS_PER_SLOT * (1 << cell.numerology))
    return {
        "bandwidth_hz": config.preamble_length
        * config.freq_occasions
        * cell.subcarrier_spacing,
        "duty_period_ms": config.sfn_modulus * FRAME_MS,
        "active_span_per_period_ms": _symbols_per_period(config) * symbol_ms,
    }


# --- JSON loading ------------------------------------------------------------

_EXPECTED = {int: "an int", float: "a finite number", bool: "a bool", str: "a string",
             tuple[int, ...]: "a list of ints"}


def _json_value(value: Any, kind: Any, where: str) -> Any:
    """``value`` if it has the JSON type of the annotation ``kind``.

    An int is not a bool, a float is any finite number (stored as float),
    ``tuple[int, ...]`` is a list of ints and ``X | None`` also takes null.
    """
    nullable = isinstance(kind, types.UnionType)
    if nullable:
        if value is None:
            return None
        (kind,) = set(kind.__args__) - {type(None)}
    if kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:
            return float(value)
    elif kind == tuple[int, ...]:
        if type(value) is list and all(type(v) is int for v in value):
            return tuple(value)
    elif type(value) is kind:
        return value
    expected = _EXPECTED[kind] + (" or null" if nullable else "")
    raise ConfigError(f"{where} must be {expected}, got {value!r}")


def load_record(cls, data: dict[str, Any], section: str, **given):
    """Build the dataclass ``cls`` from the JSON object ``data``.

    The allowed keys are the field names, a field without a default is
    required and each value must have the JSON type of its annotation.
    ``given`` holds values the caller built itself; they replace the
    defaults (a key in ``data`` still wins) and are not checked.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{section} must be a JSON object, got {data!r}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown field '{sorted(unknown)[0]}' in {section}")
    required = {f.name for f in fields(cls) if f.default is MISSING}
    missing = required - set(given) - set(data)
    if missing:
        raise ConfigError(f"missing field '{sorted(missing)[0]}' in {section}")
    hints = get_type_hints(cls)
    for name, value in data.items():
        given[name] = _json_value(value, hints[name], f"{section}.{name}")
    try:
        return cls(**given)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"{section}: {exc}") from exc


# --- Named presets -----------------------------------------------------------

# TS 38.211 configuration index 98: short preamble, format A2, PRACH in
# every odd frame, subframe 9, second slot at 30 kHz SCS, three
# four-symbol occasions starting at symbol 0.
_INDEX98 = PrachConfig(
    freq_occasions=1, freq_offset=0, sfn_modulus=2, sfn_remainder=1, subframe_number=9,
    slot_in_subframe=1, start_symbol=0, slots_per_subframe_with_prach=1,
    occasions_per_slot=3, prach_subframes_per_frame=1,
)

# 40 MHz cell at 30 kHz SCS, full 106-PRB grid (61.44 Msps).
_CELL_40MHZ = CellConfig(numerology=1, cell_bandwidth=40e6, n_prb=106, dft_size=2048)

PRESETS: dict[str, tuple[PrachConfig, CellConfig]] = {
    "index98_40mhz_full": (_INDEX98, _CELL_40MHZ),
    # A reduced-rate grid that models only the 12-PRB PRACH subband of the
    # same cell: campaigns stay cheap and the per-bin math is the same.
    "index98_40mhz_desk": (_INDEX98, replace(_CELL_40MHZ, n_prb=12, dft_size=256)),
}
