"""Flat AWGN channel superposing UE, jammer and thermal noise.

``superpose`` does so on time-domain frames; ``bin_channel`` gives the
same channel as seen in the averaged PRACH bins of ``demap_prach``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .waveform import REPETITIONS, IqFrame

__all__ = ["ChannelConfig", "superpose", "BinChannel", "bin_channel"]


@dataclass(frozen=True)
class ChannelConfig:
    """UE timing offset and thermal noise level. The UE arrives at unit
    amplitude and the jammer at the spectrum's ``amplitude``, as they send.

    ``noise_sigma`` is the standard deviation per real/imag component, so
    the complex per-sample noise power is ``2 * noise_sigma**2``.
    """

    noise_sigma: float
    ue_delay_samples: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.noise_sigma < math.inf:  # false for NaN too
            raise ConfigError(f"noise_sigma must be >= 0 and finite, got {self.noise_sigma}")
        if self.ue_delay_samples < 0:
            raise ConfigError("ue_delay_samples must be >= 0")


def superpose(
    ue: IqFrame | None,
    jam: IqFrame | None,
    cfg: ChannelConfig,
    rng: np.random.Generator,
) -> IqFrame:
    """Received frame: delayed UE plus jammer plus noise.

    An absent input contributes zero; at least one must be given.
    """
    if ue is not None and jam is not None:
        if ue.sample_rate != jam.sample_rate:
            raise ConfigError(
                f"sample-rate mismatch: {ue.sample_rate} vs {jam.sample_rate}"
            )
        if len(ue.samples) != len(jam.samples):
            raise ConfigError("UE and jammer frames must span the same occasion")
    ref = ue if ue is not None else jam
    if ref is None:
        raise ConfigError("superpose needs a UE or a jammer frame")
    n = len(ref.samples)

    out = np.zeros(n, dtype=complex)
    if ue is not None:
        d = cfg.ue_delay_samples
        out[d:] += ue.samples[: n - d]
    if jam is not None:
        out += jam.samples
    if cfg.noise_sigma > 0:
        out += cfg.noise_sigma * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
    return IqFrame(samples=out, sample_rate=ref.sample_rate, start_offset=0)


class BinChannel(NamedTuple):
    """Averaged PRACH bins drawn as ``mean + std * (z_re + i z_im)``.

    ``ue_mean[n]`` is the mean while the UE sends preamble ``n``,
    ``idle_mean`` the mean without it, and ``std`` the standard deviation
    of each real and imaginary part of the jammer plus the noise.
    """

    ue_mean: np.ndarray  # (n_preambles, L)
    idle_mean: complex
    std: float

    def draw(self, rng: np.random.Generator, mean, rows: int) -> np.ndarray:
        """``rows`` rows around ``mean`` (bins, or delay profiles, whose noise
        is the same); each row reads its 2 * L standard normals as
        interleaved (re, im) pairs."""
        shape = (rows, self.ue_mean.shape[-1], 2)
        out = rng.standard_normal(shape).view(complex)[..., 0]
        out *= self.std
        out += mean
        return out


def bin_channel(
    preambles: np.ndarray,
    jam_mean: complex,
    jam_variance: float,
    cfg: ChannelConfig,
    first_subcarrier: int,
    dft_size: int,
) -> BinChannel:
    """The bins ``demap_prach`` averages from ``superpose``'s frames.

    The channel is flat, the UE delay stays inside the cyclic prefix and
    demapping is linear. So the bins are the UE's transmitted bins
    ``preambles`` ``(n, L)`` times the delay's phase ramp, plus the
    jammer's bins (mean ``jam_mean``, complex variance ``jam_variance``),
    plus noise whose complex variance ``2 * noise_sigma**2`` the
    repetitions average down.
    """
    subcarriers = first_subcarrier + np.arange(preambles.shape[-1])
    ramp = np.exp(-2j * np.pi * subcarriers * cfg.ue_delay_samples / dft_size)
    variance = jam_variance + 2 * cfg.noise_sigma**2 / REPETITIONS
    return BinChannel(ramp * preambles + jam_mean, jam_mean, math.sqrt(variance / 2))
