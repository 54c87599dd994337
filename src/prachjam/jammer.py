"""Jamming waveform synthesis for the investigated spectra.

Every spectrum confines its energy to the subcarriers occupied by the
preamble and is emitted in every occasion of every PRACH slot. Per
occasion one jamming symbol is drawn and transmitted with the same cyclic
prefix + four-repetition structure as a legitimate preamble, which is how
a preamble-path transmitter emits an injected spectrum. At equal amplitude
every spectrum delivers the same expected in-band power.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .prach import CellConfig, PrachOccasion
from .waveform import IqFrame, build_occasion_frame

__all__ = ["JammerConfig", "amplitude_from_snr", "generate_jamming_frame", "bin_moments"]

KINDS = ("S1", "S1_literal", "S2")


@dataclass(frozen=True)
class JammerConfig:
    """Which spectrum to transmit and at which design SNR.

    ``kind`` is ``"S1"`` (band-limited noise), ``"S1_literal"`` (S1 as the
    constant real spectrum, a single impulse-like symbol) or ``"S2"``
    (i.i.d. complex normal bins). ``snr_db`` is the design dial relating
    the jamming amplitude to the legitimate preamble's per-bin amplitude,
    the unit of every level: negative values make the jammer stronger.
    """

    kind: str
    snr_db: float
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"jammer kind must be one of {KINDS}, got '{self.kind}'")
        if not math.isfinite(self.snr_db):
            raise ConfigError(f"snr_db must be finite, got {self.snr_db}")
        try:
            amplitude_from_snr(1.0, self.snr_db)
        except OverflowError:  # a Python float's ** raises rather than give inf
            raise ConfigError(f"snr_db {self.snr_db:g} overflows the jammer's amplitude") from None

    @property
    def amplitude(self) -> float:
        """The per-bin amplitude ``a_f`` at unit preamble amplitude, 0 when disabled."""
        return amplitude_from_snr(1.0, self.snr_db) if self.enabled else 0.0


def amplitude_from_snr(a_n: float, snr_db: float) -> float:
    """Jamming amplitude from the reference amplitude and the design SNR.

    ``a_f = a_n * 10**(-snr_db / 20)``; at -6 dB the jammer is about twice
    the legitimate amplitude.
    """
    if a_n < 0:
        raise ValueError("a_n must be >= 0")
    return a_n * 10.0 ** (-snr_db / 20.0)


def generate_jamming_frame(
    config: JammerConfig,
    occasion: PrachOccasion,
    cell: CellConfig,
    rng: np.random.Generator,
) -> IqFrame:
    """One occasion-spanning jamming frame at the spectrum's amplitude ``a_f``.

    S1 draws band-limited white Gaussian noise in the time domain (its
    occupied bins are scaled to an expected per-bin power of ``a_f**2``);
    S1_literal puts ``a_f`` on every occupied bin; S2 draws each occupied
    bin from the standard complex normal distribution scaled by ``a_f``.
    All other bins are exactly zero, and so is every bin when disabled.
    """
    a_f = config.amplitude
    n = cell.dft_size
    count = occasion.num_subcarriers
    first = occasion.first_subcarrier
    if config.kind == "S2":
        bins = a_f * _standard_complex_normal(rng, count)
    elif config.kind == "S1_literal":
        bins = np.full(count, a_f + 0j)
    else:
        noise = _standard_complex_normal(rng, n)
        spectrum = np.fft.fft(noise)
        bins = spectrum[first : first + count] * (a_f / np.sqrt(n))
    samples = build_occasion_frame(bins, first, cell)
    return IqFrame(samples=samples, sample_rate=cell.sample_rate, start_offset=0)


def bin_moments(config: JammerConfig) -> tuple[complex, float]:
    """Mean and complex variance of every occupied bin that
    ``generate_jamming_frame`` puts on the grid (zero when disabled).

    S1 and S2 draw i.i.d. CN(0, ``a_f**2``) bins; S1_literal is the
    constant ``a_f``, with ``a_f`` the spectrum's ``amplitude``.
    """
    a_f = config.amplitude
    return (complex(a_f), 0.0) if config.kind == "S1_literal" else (0j, a_f**2)


def _standard_complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    # E|z|^2 = 1, i.e. variance 1/2 per real/imag component.
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)
