"""Baseband synthesis of preamble occasions and PRACH bin extraction.

A format A2 preamble occupies four OFDM symbols: one cyclic prefix followed
by four repetitions of the same ``dft_size``-sample symbol. Transforms use
the unitary convention (``ifft * sqrt(N)`` / ``fft / sqrt(N)``) so occupied
bin magnitudes and time-domain energy share the same scale.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .prach import CellConfig, PrachOccasion
from .zc import ZcSequence

__all__ = [
    "IqFrame",
    "REPETITIONS",
    "cp_length",
    "preamble_bins",
    "modulate_preamble",
    "demap_prach",
    "write_iq",
    "read_iq",
]

REPETITIONS = 4  # format A2: cyclic prefix + four repetitions


@dataclass(frozen=True, eq=False)
class IqFrame:
    """A buffer of complex baseband samples.

    ``start_offset`` is the index of the first sample relative to the
    origin of the slot/occasion the frame belongs to (0 for frames produced
    by this package).
    """

    samples: np.ndarray
    sample_rate: float
    start_offset: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.sample_rate < math.inf:  # false for NaN too
            raise ValueError(f"sample_rate must be positive and finite, got {self.sample_rate}")
        if self.samples.ndim == 0 or self.samples.shape[-1] == 0:
            raise ValueError(f"samples must be nonempty, got shape {self.samples.shape}")


def cp_length(cell: CellConfig) -> int:
    """Cyclic prefix length in samples, scaled with the grid size.

    144 samples at a 2048-point grid, shrinking proportionally for reduced
    grids; always at least 1 so a cyclic prefix exists.
    """
    return max(1, round(144 * cell.dft_size / 2048))


def frame_length(cell: CellConfig) -> int:
    """Sample count of one occasion frame: CP plus four repetitions."""
    return cp_length(cell) + REPETITIONS * cell.dft_size


def build_occasion_frame(bins: np.ndarray, first_subcarrier: int, cell: CellConfig) -> np.ndarray:
    """Place occupied bins on the grid and emit CP + 4 repeated symbols."""
    n = cell.dft_size
    if first_subcarrier + len(bins) > n:
        raise ValueError(
            f"{len(bins)} subcarriers at offset {first_subcarrier} exceed the "
            f"{n}-point grid"
        )
    grid = np.zeros(n, dtype=complex)
    grid[first_subcarrier : first_subcarrier + len(bins)] = bins
    symbol = np.fft.ifft(grid) * np.sqrt(n)
    cp = cp_length(cell)
    return np.concatenate([symbol[-cp:], np.tile(symbol, REPETITIONS)])


def preamble_bins(seq: ZcSequence, amplitude: float) -> np.ndarray:
    """The occupied bins of a preamble: the sequence's DFT, every bin of
    magnitude ``amplitude`` (the DFT of a prime-length ZC sequence has
    constant magnitude)."""
    return np.fft.fft(seq.samples) * (amplitude / np.sqrt(seq.length))


def modulate_preamble(
    seq: ZcSequence,
    occasion: PrachOccasion,
    cell: CellConfig,
    amplitude: float,
) -> IqFrame:
    """Synthesize the time-domain waveform of one preamble occasion.

    The preamble's bins are mapped onto the occasion's subcarriers and
    transformed into a cyclic prefix followed by four symbol repetitions.
    """
    if seq.length != occasion.num_subcarriers:
        raise ValueError(
            f"sequence length {seq.length} does not match occasion "
            f"subcarriers {occasion.num_subcarriers}"
        )
    if seq.length > cell.dft_size:
        raise ValueError(
            f"preamble length {seq.length} exceeds dft_size {cell.dft_size}"
        )
    samples = build_occasion_frame(
        preamble_bins(seq, amplitude), occasion.first_subcarrier, cell
    )
    return IqFrame(samples=samples, sample_rate=cell.sample_rate, start_offset=0)


def demap_prach(
    frame: IqFrame, occasion: PrachOccasion, cell: CellConfig
) -> tuple[list[np.ndarray], np.ndarray]:
    """Extract the occupied PRACH bins of each repetition and their average.

    One ``dft_size`` transform is taken at each repetition boundary (after
    the cyclic prefix); the returned average combines the four repetitions
    coherently. Leading axes of ``frame.samples`` stack frames: each
    returned array keeps them.
    """
    n = cell.dft_size
    cp, need = cp_length(cell), frame_length(cell)
    samples = frame.samples
    if samples.shape[-1] < need:
        raise ValueError(
            f"frame too short: {samples.shape[-1]} samples, need {need}"
        )
    if abs(frame.start_offset) > cp:
        raise ValueError(
            f"start_offset {frame.start_offset} beyond cyclic-prefix "
            f"tolerance {cp}"
        )
    first = occasion.first_subcarrier
    symbols = samples[..., cp:need].reshape(*samples.shape[:-1], REPETITIONS, n)
    spectra = np.fft.fft(symbols) * (1.0 / np.sqrt(n))
    reps = spectra[..., first : first + occasion.num_subcarriers]
    return list(np.moveaxis(reps, -2, 0)), reps.mean(axis=-2)


# --- Raw IQ file I/O ----------------------------------------------------------

def write_iq(frame: IqFrame, path: str | Path) -> None:
    """Write interleaved little-endian float32 IQ pairs plus a JSON sidecar."""
    if frame.samples.ndim != 1:
        raise ValueError(
            f"write_iq writes one stream of samples, got shape {frame.samples.shape}"
        )
    path = Path(path)
    interleaved = np.empty(2 * len(frame.samples), dtype="<f4")
    interleaved[0::2] = frame.samples.real
    interleaved[1::2] = frame.samples.imag
    interleaved.tofile(path)
    sidecar = {
        "sample_rate": frame.sample_rate,
        "start_offset": frame.start_offset,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True))


def read_iq(path: str | Path) -> IqFrame:
    """Read a frame written by :func:`write_iq`."""
    path = Path(path)
    raw = np.fromfile(path, dtype="<f4")
    if raw.size % 2 != 0:
        raise ValueError(f"{path}: odd number of float32 values, not IQ pairs")
    samples = raw[0::2].astype(np.float64) + 1j * raw[1::2].astype(np.float64)
    sidecar = json.loads(Path(str(path) + ".json").read_text())
    return IqFrame(
        samples=samples,
        sample_rate=float(sidecar["sample_rate"]),
        start_offset=int(sidecar["start_offset"]),
    )
