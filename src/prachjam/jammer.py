"""Jamming waveform synthesis for the two investigated spectra.

Both spectra confine their energy to the subcarriers occupied by the
preamble and are emitted in every occasion of every PRACH slot. Per
occasion one jamming symbol is drawn and transmitted with the same cyclic
prefix + four-repetition structure as a legitimate preamble, which is how
a preamble-path transmitter emits an injected spectrum. At equal amplitude
both spectra deliver the same expected in-band power.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .prach import CellConfig, PrachOccasion
from .waveform import IqFrame, build_occasion_frame

__all__ = ["JammerConfig", "amplitude_from_snr", "generate_jamming_frame"]

KINDS = ("S1", "S2")


@dataclass(frozen=True)
class JammerConfig:
    """Which spectrum to transmit and at which design SNR.

    ``snr_db`` is the design dial relating the jamming amplitude to the
    legitimate preamble's per-bin amplitude: negative values make the
    jammer stronger. ``s1_literal`` selects the constant real spectrum
    (a single impulse-like symbol) instead of band-limited noise for S1.
    """

    kind: str
    snr_db: float
    enabled: bool = True
    s1_literal: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"jammer kind must be one of {KINDS}, got '{self.kind}'")


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
    a_f: float,
    rng: np.random.Generator,
) -> IqFrame:
    """One occasion-spanning jamming frame.

    S1 draws band-limited white Gaussian noise in the time domain (its
    occupied bins are scaled to an expected per-bin power of ``a_f**2``);
    S2 draws each occupied bin from the standard complex normal
    distribution scaled by ``a_f``. All other bins are exactly zero.
    """
    if a_f < 0:
        raise ValueError("a_f must be >= 0")
    n = cell.dft_size
    count = occasion.num_subcarriers
    first = occasion.first_subcarrier
    if config.kind == "S2":
        bins = a_f * _standard_complex_normal(rng, count)
    elif config.s1_literal:
        bins = np.full(count, a_f + 0j)
    else:
        noise = _standard_complex_normal(rng, n)
        spectrum = np.fft.fft(noise)
        bins = spectrum[first : first + count] * (a_f / np.sqrt(n))
    samples = build_occasion_frame(bins, first, cell)
    return IqFrame(samples=samples, sample_rate=cell.sample_rate, start_offset=0)


def _standard_complex_normal(rng: np.random.Generator, size: int) -> np.ndarray:
    # E|z|^2 = 1, i.e. variance 1/2 per real/imag component.
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)
