"""Code the test modules share: no test module imports another."""
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from prachjam.campaign import IntervalRecord, _bins
from prachjam.channel import ChannelConfig, superpose
from prachjam.detector import (
    Detection, DetectionResult, DetectorConfig, _decide, delay_profile,
)
from prachjam.jammer import generate_jamming_frame
from prachjam.prach import PRESETS, CellConfig, PrachConfig, occasions_in_frame, occupancy_ratio
from prachjam.rafsm import GnbRaContext, Msg3, PreambleTx, RarEvent, gnb_step, ue_step
from prachjam.waveform import IqFrame, demap_prach, modulate_preamble
from prachjam.zc import cyclic_shift, generate_zc

PRACH, CELL = PRESETS["index98_40mhz_desk"]
OCCASION = occasions_in_frame(PRACH, CELL, 1)[0]
SIGMA_0DB = 1 / np.sqrt(2)  # unit preamble amplitude -> per-bin SNR 0 dB
NOISE_0DB = ChannelConfig(noise_sigma=SIGMA_0DB)
CHUNK = 1000  # frames demapped in one stack, 17 MB of samples


def two_proportion_z(count_a, n_a, count_b, n_b):
    """z of the difference of two proportions under their pooled rate."""
    pooled = (count_a + count_b) / (n_a + n_b)
    se = math.sqrt(max(pooled * (1 - pooled) * (1 / n_a + 1 / n_b), 1e-12))
    return (count_b / n_b - count_a / n_a) / se


def preamble_wave(signature, occasion=OCCASION):
    """The unit-amplitude frame of ``signature``, a (root, window) pair."""
    root, window = signature
    seq = cyclic_shift(generate_zc(root, PRACH.preamble_length), 13 * window)
    return modulate_preamble(seq, occasion, CELL, 1.0)


WAVES = [preamble_wave((1, window)) for window in range(10)]


def received_bins(trials, rng, spectrum, channel, waves=None):
    """``(index, bins)``: the averaged PRACH bins of ``trials`` occasions,
    each the frame ``waves[index[t]]`` (none when ``waves`` is None, and
    ``index`` None) plus a ``spectrum`` jamming frame and ``channel``'s noise.

    Each trial reads ``rng`` in turn, one call at a time: its wave's index,
    its jamming frame, then its noise. Only the demapping takes stacks of
    ``CHUNK`` frames, so the chunk size moves no bin.
    """
    index = None if waves is None else np.empty(trials, dtype=int)
    bins = []
    for start in range(0, trials, CHUNK):
        frames = []
        for t in range(start, min(start + CHUNK, trials)):
            ue = None
            if waves is not None:
                index[t] = rng.integers(len(waves))
                ue = waves[index[t]]
            jam = generate_jamming_frame(spectrum, OCCASION, CELL, rng)
            frames.append(superpose(ue, jam, channel, rng).samples)
        stack = IqFrame(np.stack(frames), CELL.sample_rate)
        bins.append(demap_prach(stack, OCCASION, CELL)[1])
    return index, np.concatenate(bins)


def own_window_hits(power, windows, det):
    """``_decide``'s verdict on each row of tap powers ``power`` ``(M, L)``
    in its own window ``windows[i]``."""
    return _decide(power, det)[2][np.arange(len(power)), windows]


def oracle_misses(spectrum, det, trials, seed, channel=NOISE_0DB):
    """Missed preambles among ``trials`` occasions of root 1's ten
    signatures under ``spectrum`` and ``channel`` (per-bin noise at 0 dB by
    default), each judged in its own window."""
    index, bins = received_bins(trials, np.random.default_rng(seed), spectrum, channel, WAVES)
    return int(np.sum(~own_window_hits(np.abs(delay_profile(bins, 1)) ** 2, index, det)))


def bin_domain(spectrum, channel=NOISE_0DB, det=DetectorConfig(), prach=PRACH):
    """The campaign's channel of the UE's occasions (``campaign._bins``) on
    the shipped cell, per-bin noise at 0 dB and the shipped detector by default."""
    return _bins(prach, CELL, spectrum, channel, det)


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


def occupancy_gaps(seed):
    """``occupancy_ratio`` less the grid enumeration for 100 random configs."""
    rng = np.random.default_rng(seed)
    configs = [random_config(rng) for _ in range(100)]
    return [occupancy_ratio(*config) - float(enumerate_occupancy(*config)) for config in configs]


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
    )
    return config, cell


def detections_for(signatures, occasion=None):
    return DetectionResult(
        detected=[Detection(root=r, signature=s, metric=100.0) for r, s in signatures],
        noise_floor=1.0,
        occasion=occasion,
    )


def run_exchange(ues, occasion_key, now, signatures, detected_signatures=None):
    """One occasion: each UE offered its signature, detection stub, RAR/Msg3/Msg4."""
    ctx = GnbRaContext()
    txs = {}
    for name, ue in ues.items():
        action = ue_step(ue, now, [], PreambleTx(signatures[name], occasion_key))
        if isinstance(action, PreambleTx):
            txs[name] = action
    if detected_signatures is None:
        detected_signatures = {tx.signature for tx in txs.values()}
    rars = gnb_step(ctx, detections_for(detected_signatures), [])
    # Patch occasion keys since the stub result has no occasion attached.
    rars = [RarEvent(PreambleTx(r.preamble.signature, occasion_key), r.tid) for r in rars]
    msg3s = []
    for ue in ues.values():
        action = ue_step(ue, now, rars)
        if isinstance(action, Msg3):
            msg3s.append(action)
    msg4s = gnb_step(ctx, None, msg3s)
    for ue in ues.values():
        ue_step(ue, now, msg4s)
    return ctx


def synthetic_records(n_intervals, n_invalid, n_success, jammed_total):
    """Record set with prescribed aggregate tallies."""
    records = []
    idx = 0
    for _ in range(n_invalid):
        records.append(IntervalRecord(idx, False, 5, 0, False, None, 0))
        idx += 1
    for _ in range(n_success):
        records.append(IntervalRecord(idx, True, 2, 1, True, 1.0, 0))
        idx += 1
    n_unsucc = n_intervals - n_invalid - n_success
    remaining = jammed_total - n_success  # each success contributed sent-detected=1
    for i in range(n_unsucc):
        share = remaining // n_unsucc + (1 if i < remaining % n_unsucc else 0)
        records.append(IntervalRecord(idx, True, share, 0, False, None, 0))
        idx += 1
    return records


def small_config(tmp_path, **extra) -> Path:
    doc = {
        "n_intervals": 3,
        "interval_duration": 1.0,
        "jammer_lead": 0.3,
        "jammer_lag": 0.3,
        "ue_startup_delay": 0.1,
        "base_seed": 42,
        "preset": "index98_40mhz_desk",
        "spectrum": {"kind": "S2", "snr_db": -16.0},
        "channel": {"noise_sigma": 0.7071067811865476},
    }
    doc.update(extra)
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(doc))
    return path


# calibrate_threshold(1e-3, 50,000 trials) per detector root set, seeded with
# quick.json's base_seed; test_detector checks the several-roots factor
# against the closed form.
CALIBRATED_FACTORS = {(1,): 12.302488491048589, (1, 2, 5): 13.721947376669078}

# perfbench/run.py imports these names from prachjam.campaign or patches
# them there; the benchmark breaks if one goes away.
BENCHMARK_NAMES = [
    "occasions_in_frame", "generate_jamming_frame", "superpose", "demap_prach",
    "detect_preambles", "ue_step", "gnb_step", "run_interval", "occasion_time_ms",
    "interval_seed", "record_from_dict", "record_to_dict",
]
