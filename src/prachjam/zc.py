"""Zadoff-Chu sequence generation and correlation analysis.

Zadoff-Chu (ZC) sequences are complex exponential sequences with constant
amplitude and zero periodic autocorrelation (CAZAC). 5G NR builds its random
access preambles from cyclic shifts of a small set of ZC root sequences, so
both the transmitter and the correlation receiver in this package are built
on the operations in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

__all__ = [
    "ZcSequence",
    "generate_zc",
    "cyclic_shift",
    "periodic_xcorr",
]


@dataclass(frozen=True, eq=False)
class ZcSequence:
    """A Zadoff-Chu sequence of a given root, length and cyclic shift.

    Attributes
    ----------
    root : int
        Root index, ``1 <= root < length`` and coprime with ``length``.
    length : int
        Number of samples. Odd; prime in all 5G NR uses.
    shift : int
        Cyclic shift applied to the root sequence, in ``[0, length)``.
    samples : np.ndarray
        ``length`` complex values, all of unit magnitude.
    """

    root: int
    length: int
    shift: int
    samples: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.root < self.length:
            raise ValueError(f"root must satisfy 1 <= root < length, got {self.root}")
        if gcd(self.root, self.length) != 1:
            raise ValueError(
                f"root {self.root} and length {self.length} must be coprime"
            )
        if not 0 <= self.shift < self.length:
            raise ValueError(f"shift {self.shift} out of range [0, {self.length})")
        if len(self.samples) != self.length:
            raise ValueError("sample count does not match declared length")


def generate_zc(root: int, length: int) -> ZcSequence:
    """Generate a root Zadoff-Chu sequence.

    The samples are ``exp(j*pi*root*k*(k+1)/length)`` for
    ``k = 0 .. length-1``, the odd-length form used by 5G NR preambles.

    Parameters
    ----------
    root : int
        Root index, ``1 <= root < length`` and coprime with ``length``.
    length : int
        Sequence length. Must be odd and at least 3.

    Returns
    -------
    ZcSequence
        The unshifted root sequence (``shift == 0``).
    """
    if length % 2 == 0:
        raise ValueError(f"length must be odd, got {length}")
    if length < 3:
        raise ValueError(f"length must be >= 3, got {length}")
    k = np.arange(length)
    samples = np.exp(1j * np.pi * root * k * (k + 1) / length)
    return ZcSequence(root=root, length=length, shift=0, samples=samples)


def cyclic_shift(seq: ZcSequence, shift: int) -> ZcSequence:
    """Cyclically shift a sequence: ``result[k] = seq[(k + shift) mod N]``.

    The root and length are preserved; the ``shift`` field accumulates
    modulo N, so shifting by ``s`` and then by ``N - s`` restores the
    original sequence.
    """
    n = seq.length
    if not 0 <= shift < n:
        raise ValueError(f"shift {shift} out of range [0, {n})")
    return ZcSequence(
        root=seq.root,
        length=n,
        shift=(seq.shift + shift) % n,
        samples=np.roll(seq.samples, -shift),
    )


def _as_samples(x: ZcSequence | np.ndarray) -> np.ndarray:
    if isinstance(x, ZcSequence):
        return x.samples
    return np.asarray(x, dtype=complex)


def periodic_xcorr(
    a: ZcSequence | np.ndarray,
    b: ZcSequence | np.ndarray,
    normalize: bool = True,
) -> np.ndarray:
    """Periodic (circular) cross-correlation of two equal-length signals.

    Lag ``l`` holds ``sum_k a[k] * conj(b[(k + l) mod N])``, optionally
    divided by N. For two ZC sequences of the same root this peaks at the
    lag equal to their relative cyclic shift and vanishes elsewhere; for
    distinct roots whose difference is coprime with a prime N the magnitude
    is the constant ``1/sqrt(N)`` (normalized) at every lag.
    """
    sa = _as_samples(a)
    sb = _as_samples(b)
    if sa.shape != sb.shape or sa.ndim != 1:
        raise ValueError(
            f"correlation inputs must be 1-d and equal length, got {sa.shape} vs {sb.shape}"
        )
    # Circular correlation via FFT; reorder so index l matches the sum above.
    r = np.fft.ifft(np.fft.fft(sa) * np.conj(np.fft.fft(sb)))
    values = np.concatenate([r[:1], r[:0:-1]])
    return values / len(sa) if normalize else values

