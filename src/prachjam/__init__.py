"""Link-level simulator of smart jamming against the 5G NR PRACH.

The package models the uplink random-access path of one cell: Zadoff-Chu
preamble generation, PRACH occasion scheduling, format A2 waveform
synthesis, the narrowband jamming spectra, an AWGN channel, a correlation
detector, the 4-step contention-based random-access procedure, and an
interval-based measurement campaign with its summary metrics.
"""
from .channel import ChannelConfig, superpose
from .campaign import (
    CampaignConfig,
    IntervalRecord,
    MetricsSummary,
    compute_metrics,
    interval_seed,
    load_campaign_config,
    run_campaign,
    run_interval,
)
from .detector import (
    DetectorConfig,
    Detection,
    DetectionResult,
    calibrate_threshold,
    detect_preambles,
)
from .errors import ConfigError, SimulationError
from .jammer import JammerConfig, amplitude_from_snr, generate_jamming_frame
from .prach import (
    CellConfig,
    PrachConfig,
    PrachOccasion,
    PRESETS,
    is_prach_frame,
    jammer_resource_budget,
    occasions_in_frame,
    occupancy_ratio,
)
from .rafsm import GnbRaContext, UeRaState, UeState, gnb_step, make_ue, ue_step
from .waveform import IqFrame, demap_prach, modulate_preamble, read_iq, write_iq
from .zc import CorrelationProfile, ZcSequence, cyclic_shift, generate_zc, periodic_xcorr

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "CellConfig",
    "ChannelConfig",
    "ConfigError",
    "CorrelationProfile",
    "Detection",
    "DetectionResult",
    "DetectorConfig",
    "GnbRaContext",
    "IntervalRecord",
    "IqFrame",
    "JammerConfig",
    "MetricsSummary",
    "PRESETS",
    "PrachConfig",
    "PrachOccasion",
    "SimulationError",
    "UeRaState",
    "UeState",
    "ZcSequence",
    "amplitude_from_snr",
    "calibrate_threshold",
    "compute_metrics",
    "cyclic_shift",
    "demap_prach",
    "detect_preambles",
    "generate_jamming_frame",
    "gnb_step",
    "interval_seed",
    "is_prach_frame",
    "jammer_resource_budget",
    "load_campaign_config",
    "make_ue",
    "modulate_preamble",
    "occasions_in_frame",
    "occupancy_ratio",
    "periodic_xcorr",
    "read_iq",
    "run_campaign",
    "run_interval",
    "superpose",
    "ue_step",
    "write_iq",
]
