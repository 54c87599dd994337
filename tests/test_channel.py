"""Channel superposition: delay, noise statistics."""
import numpy as np
import pytest

from prachjam.channel import ChannelConfig, superpose
from prachjam.errors import ConfigError
from prachjam.jammer import JammerConfig, generate_jamming_frame
from prachjam.waveform import IqFrame

from helpers import CELL, OCCASION, WAVES


def make_frames():
    ue = WAVES[0]
    cfg = JammerConfig(kind="S2", snr_db=0.0)
    jam = generate_jamming_frame(cfg, OCCASION, CELL, np.random.default_rng(4))
    return ue, jam


def test_identity_channel():
    ue, _ = make_frames()
    out = superpose(ue, None, ChannelConfig(noise_sigma=0.0), np.random.default_rng(0))
    np.testing.assert_array_equal(out.samples, ue.samples)


def test_linearity():
    ue, jam = make_frames()
    cfg = ChannelConfig(noise_sigma=0.0)
    rng = np.random.default_rng(0)
    combined = superpose(ue, jam, cfg, rng)
    ue_only = superpose(ue, None, cfg, rng)
    jam_only = superpose(None, jam, cfg, rng)
    np.testing.assert_allclose(
        combined.samples, ue_only.samples + jam_only.samples, atol=1e-12
    )


def test_noise_power():
    sigma = 0.7
    cfg = ChannelConfig(noise_sigma=sigma)
    silent = IqFrame(samples=np.zeros(1_000_000, dtype=complex), sample_rate=1e6)
    out = superpose(None, silent, cfg, np.random.default_rng(123))
    measured = np.mean(np.abs(out.samples) ** 2)
    assert measured == pytest.approx(2 * sigma**2, rel=0.02)


def test_delay_applies_to_ue_only():
    ue, jam = make_frames()
    cfg = ChannelConfig(noise_sigma=0.0, ue_delay_samples=5)
    rng = np.random.default_rng(0)
    out = superpose(ue, jam, cfg, rng)
    np.testing.assert_allclose(out.samples[:5], jam.samples[:5], atol=1e-12)
    np.testing.assert_allclose(
        out.samples[5:], ue.samples[:-5] + jam.samples[5:], atol=1e-12
    )


def test_sample_rate_mismatch():
    ue, jam = make_frames()
    other = IqFrame(samples=jam.samples, sample_rate=jam.sample_rate * 2)
    with pytest.raises(ConfigError, match="sample-rate mismatch"):
        superpose(ue, other, ChannelConfig(noise_sigma=0.0), np.random.default_rng(0))


def test_length_mismatch():
    ue, jam = make_frames()
    other = IqFrame(samples=jam.samples[:-10], sample_rate=jam.sample_rate)
    with pytest.raises(ConfigError, match="same occasion"):
        superpose(ue, other, ChannelConfig(noise_sigma=0.0), np.random.default_rng(0))


def test_negative_parameters_rejected():
    with pytest.raises(ConfigError):
        ChannelConfig(noise_sigma=-1.0)


def test_no_frame_rejected():
    with pytest.raises(ConfigError, match="needs a UE or a jammer frame"):
        superpose(None, None, ChannelConfig(noise_sigma=0.0), np.random.default_rng(0))


@pytest.mark.parametrize("stacked", ["ue", "jam"])
def test_stacked_frame_rejected(stacked):
    # A frame of stacked occasions (as demap_prach takes) is refused by shape.
    ue, jam = make_frames()
    frames = {"ue": ue, "jam": jam}
    frames[stacked] = IqFrame(np.stack([frames[stacked].samples] * 3), ue.sample_rate)
    message = r"^superpose takes one frame each, got shape \(3, 1042\)$"
    with pytest.raises(ConfigError, match=message):
        superpose(frames["ue"], frames["jam"], ChannelConfig(noise_sigma=0.0),
                  np.random.default_rng(0))
