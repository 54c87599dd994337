"""Campaign protocol, metric formulas and determinism."""
import copy
import functools
import json
import math
import re
from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prachjam.campaign
import prachjam.cli
import prachjam.prach
from prachjam.campaign import (
    CampaignConfig,
    IntervalRecord,
    _schedule,
    check_record,
    compute_metrics,
    interval_seed,
    load_campaign_config,
    occasion_time_ms,
    record_from_dict,
    record_to_dict,
    run_campaign,
    run_interval,
)
from prachjam.channel import ChannelConfig
from prachjam.cli import _build_parser
from prachjam.detector import Detection, DetectorConfig
from prachjam.errors import ConfigError, SimulationError
from prachjam.jammer import JammerConfig
from prachjam.prach import (
    CellConfig, PrachConfig, jammer_resource_budget, occasions_between,
    occasions_in_frame, occupancy_factors,
)
from prachjam.rafsm import PreambleTx, make_ue, ue_step

from helpers import (
    BENCHMARK_NAMES, CELL, PRACH, SIGMA_0DB, interval_stream, random_config, replay_interval,
    synthetic_records,
)


def make_config(**overrides) -> CampaignConfig:
    base = dict(
        n_intervals=2,
        interval_duration=2.0,
        spectrum=JammerConfig(kind="S1", snr_db=-6.0),
        channel=ChannelConfig(noise_sigma=SIGMA_0DB),
        detector=DetectorConfig(),
        prach=PRACH,
        cell=CELL,
        base_seed=1234,
        jammer_lead=0.3,
        jammer_lag=0.3,
        ue_startup_delay=0.1,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestMetricFormulas:
    @pytest.mark.parametrize(
        "n_i,n_e,n_s,n_pj,mean_lo,mean_hi,ppm_lo,ppm_hi,es_lo,es_hi",
        [
            (800, 13, 33, 343_522, 436, 438, 95, 97, 4.1, 4.3),
            (40, 0, 9, 169_630, 4240, 4242, 52, 54, 22.4, 22.6),
            (800, 11, 224, 295_103, 373, 375, 757, 759, 28.3, 28.5),
        ],
    )
    def test_campaign_series_oracle(
        self, n_i, n_e, n_s, n_pj, mean_lo, mean_hi, ppm_lo, ppm_hi, es_lo, es_hi
    ):
        records = synthetic_records(n_i, n_e, n_s, n_pj)
        metrics = compute_metrics(records)
        assert metrics.n_e == n_e
        assert metrics.n_ra_s == n_s
        assert metrics.n_ra_u == n_i - n_e - n_s
        assert metrics.n_p_j == n_pj
        mean = metrics.mean_preambles_per_interval
        assert mean == Fraction(n_pj + n_s, n_i - n_e)
        assert mean_lo <= float(mean) <= mean_hi
        ppm = float(metrics.e_p_j * 1_000_000)
        assert ppm_lo <= ppm <= ppm_hi
        es = float(metrics.e_s * 100)
        assert es_lo <= es <= es_hi

    def test_degenerate_single_interval(self):
        records = [IntervalRecord(0, True, 1, 1, True, 0.1, 0)]
        metrics = compute_metrics(records)
        assert metrics.mean_preambles_per_interval == 1
        assert metrics.e_p_j == 1
        assert metrics.e_s == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_metrics([])

    def test_all_invalid_rejected(self):
        records = [IntervalRecord(0, False, 1, 0, False, None, 0)]
        with pytest.raises(SimulationError, match="invalid"):
            compute_metrics(records)

    @given(
        data=st.lists(
            st.tuples(
                st.booleans(),  # valid
                st.integers(0, 500),  # detected (bounded below sent)
                st.integers(0, 500),  # extra sent on top of detected
                st.booleans(),  # succeeded
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_identities_against_brute_force(self, data):
        records = []
        for i, (valid, detected, extra, succeeded) in enumerate(data):
            sent = detected + extra
            if succeeded and detected == 0:
                detected, sent = 1, max(sent, 1)
            records.append(
                IntervalRecord(i, valid, sent, detected, succeeded and valid, None, 0)
            )
        if not any(r.valid for r in records):
            records.append(IntervalRecord(len(records), True, 1, 1, True, 1.0, 0))
        metrics = compute_metrics(records)

        # Brute-force re-evaluation straight from the record list.
        n_i = len(records)
        n_e = sum(1 for r in records if not r.valid)
        n_s = sum(1 for r in records if r.valid and r.ra_succeeded)
        n_u = sum(1 for r in records if r.valid and not r.ra_succeeded)
        n_pj = sum(r.preambles_sent - r.preambles_detected for r in records if r.valid)
        assert metrics.n_ra_s + metrics.n_ra_u + metrics.n_e == n_i
        assert metrics.n_ra_s == n_s and metrics.n_ra_u == n_u and metrics.n_e == n_e
        assert metrics.n_p_j == n_pj
        assert metrics.e_s == Fraction(n_s, n_i - n_e)
        if n_pj + n_s > 0:
            assert metrics.e_p_j == Fraction(n_s, n_pj + n_s)
        assert metrics.mean_preambles_per_interval == Fraction(n_pj + n_s, n_i - n_e)


class TestSeeding:
    def test_documented_rule_is_stable(self):
        # Frozen values guard the documented blake2b derivation.
        assert interval_seed(0, 0) == 1041621211125469266
        assert interval_seed(1234, 5) == 615431646176257150
        assert interval_seed(1234, 0) != interval_seed(1234, 1)

    def test_stream_is_pcg64_seeded_from_the_blake2b_words(self):
        # After its validity flag each interval stream is where numpy's PCG64
        # seeding arithmetic, redone in Python ints on the seed's blake2b
        # words, is after one draw, and the flag agrees.
        cfg = make_config(invalid_probability=0.5)
        for i in range(300):
            seed, rng, valid = prachjam.campaign._stream(cfg, i)
            replay = interval_stream(seed)
            assert valid == (replay.random() >= 0.5)
            assert rng.bit_generator.state == replay.bit_generator.state

    def test_seed_words_refuse_other_requests(self):
        # The words are PCG64's 256 bits: any other request, such as
        # MT19937's 624 uint32 words, is refused.
        words = prachjam.campaign._SeedWords(interval_seed(1234, 0))
        for n_words, dtype in [(4, np.uint32), (3, np.uint64), (5, np.uint64), (4, np.int64)]:
            with pytest.raises(ValueError, match=f"^seed words are 4 of numpy.uint64, not {n_words} "):
                words.generate_state(n_words, dtype)
        with pytest.raises(ValueError, match="^seed words are 4 of numpy.uint64, not 624 "):
            np.random.MT19937(words)
        assert words.generate_state(4, np.uint64).dtype == np.uint64

    def test_first_draws_are_uniform(self):
        # The validity flag's draw, the first random() of 20,000 consecutive
        # interval streams, is U(0, 1): Kolmogorov-Smirnov at the 0.1 % level.
        stats = pytest.importorskip("scipy.stats")
        first = [interval_stream(interval_seed(20240601, i)).random() for i in range(20_000)]
        assert stats.kstest(first, "uniform").pvalue > 1e-3

    def test_record_round_trip(self):
        record = IntervalRecord(3, True, 10, 1, True, 1.25, 99)
        assert record_from_dict(record_to_dict(record)) == record

    @pytest.mark.parametrize(
        "changes, message",
        [
            # record_from_dict refuses a field of the wrong JSON type ...
            ({"extra": 1}, "unknown field 'extra' in record"),
            ({"ra_succeeded": "no"}, "record.ra_succeeded must be a bool"),
            ({"index": 1.0}, "record.index must be an int"),
            ({"preambles_sent": True}, "record.preambles_sent must be an int"),
            ({"time_to_success": "1.5"},
             "record.time_to_success must be a finite number or null"),
            # ... and check_record a record that run_interval cannot write.
            # Interval 0 connects at its first send, at t seconds, and a UE
            # that is never heard sends all K of its scheduled sends.
            ({"preambles_detected": 2}, "record.preambles_detected 2 is not 1"),
            ({"preambles_detected": -1}, "record.preambles_detected -1 is not 1"),
            ({"time_to_success": None}, "record.time_to_success None is not {t}"),
            ({"ra_succeeded": False}, "record.preambles_sent 1 is not {K}"),
            ({"time_to_success": -0.5}, "record.time_to_success -0.5 is not {t}"),
            ({"preambles_detected": 0}, "record.preambles_detected 0 is not 1"),
            ({"preambles_sent": 0},
             r"record.preambles_sent 0 is not in \[1, {K}\], the UE's scheduled sends"),
            ({"preambles_sent": 3, "ra_succeeded": False, "time_to_success": None},
             "record.preambles_sent 3 is not {K}"),
            ({"preambles_sent": 3, "preambles_detected": 2},
             "record.preambles_detected 2 is not 1, interval 0's under this config"),
        ],
        ids=["extra", "ra_succeeded", "index", "preambles_sent", "time_to_success",
             "detected_above_sent", "detected_negative", "success_without_time",
             "time_without_success", "negative_time", "success_without_detection",
             "nothing_sent", "detection_without_success", "two_detected"],
    )
    def test_bad_record_rejected(self, changes, message):
        cfg = make_config()
        record = run_interval(cfg, 0)[0]
        assert (record.preambles_sent, record.ra_succeeded) == (1, True)
        assert check_record(cfg, 0, record_from_dict(record_to_dict(record))) == record
        data = {**record_to_dict(record), **changes}
        sends = prachjam.campaign._ue_sends(cfg)[3]
        message = message.format(t=record.time_to_success, K=len(sends))
        with pytest.raises(ConfigError, match=message):
            check_record(cfg, 0, record_from_dict(data))


# quick.json (S1 at -16 dB, 19 sends) changed per section: the cells where
# run_interval is held to README's replay. Columns: the changes, the intervals
# of a logged run, and whether the later sends judged must fall both in
# Fisher's tail and out of it (at factor 6 about a third fall in it).
REPLAY_CELLS = {
    "S1": ({}, 3, False),
    "S2_factor_6": ({"spectrum": {"kind": "S2"}, "detector": {"threshold_factor": 6.0}}, 8, True),
    "S2_-24dB_factor_30": (
        {"spectrum": {"kind": "S2", "snr_db": -24.0}, "detector": {"threshold_factor": 30.0}},
        2, False),
    "S1_literal_-12dB": ({"spectrum": {"kind": "S1_literal", "snr_db": -12.0}}, 3, False),
    "delayed_ue": ({"channel": {"ue_delay_samples": 5}}, 2, False),
    "roots_1_2_5_-12dB": ({"spectrum": {"snr_db": -12.0}, "detector": {"roots": [1, 2, 5]}},
                          3, False),
    "jammer_off": ({"spectrum": {"enabled": False}}, 2, False),
}


class TestIntervals:
    def test_deterministic_records(self):
        cfg = make_config(n_intervals=3)
        records_a, _ = run_campaign(cfg)
        records_b, _ = run_campaign(cfg)
        assert records_a == records_b

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"spectrum": JammerConfig(kind="S2", snr_db=-6.0)},
            {"spectrum": JammerConfig(kind="S1", snr_db=-6.0, enabled=False)},
            {"spectrum": JammerConfig(kind="S1_literal", snr_db=-6.0)},
            {"invalid_probability": 0.5},
            # The UE retries, so the record path judges both blocks.
            {"spectrum": JammerConfig(kind="S1", snr_db=-18.0)},
            # A UE received at gain 0.8 and a jammer at gain 1.3, at the UE's level.
            {
                "spectrum": JammerConfig(kind="S2", snr_db=-14.0 - 20 * math.log10(1.3 / 0.8)),
                "channel": ChannelConfig(noise_sigma=SIGMA_0DB / 0.8, ue_delay_samples=5),
            },
            {
                "spectrum": JammerConfig(kind="S1", snr_db=-16.0),
                "detector": DetectorConfig(roots=(1, 2, 5)),
            },
        ],
        ids=["S1", "S2", "jammer_off", "s1_literal", "invalid_half", "S1_retrying",
             "delay_and_gains", "roots_1_2_5"],
    )
    def test_fast_path_matches_log_path(self, overrides):
        cfg = make_config(n_intervals=4, interval_duration=1.0, **overrides)
        records, _ = run_campaign(cfg)
        logged, _ = run_campaign(replace(cfg, detection_log=True, event_trace=True))
        assert records == logged

    @pytest.mark.parametrize("logged", [False, True], ids=["record", "logged"])
    @pytest.mark.parametrize("name, sets", [
        *[(name, {}) for name in ("quick", "reference_60s", "s1_60s", "s1_600s", "s2_60s")],
        ("s2_60s", {"spectrum": {"snr_db": -24.0}, "detector": {"threshold_factor": 30.0}}),
        ("quick", {"invalid_probability": 0.5}),
        ("quick", {"spectrum": {"kind": "S1_literal", "snr_db": -13.0},
                   "detector": {"roots": [1, 2, 5]}}),
    ], ids=["quick", "reference_60s", "s1_60s", "s1_600s", "s2_60s", "s2_saturated",
            "invalid_half", "s1_literal_roots_1_2_5"])
    def test_check_record_accepts_what_run_interval_writes(self, name, sets, logged):
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
        for key, value in sets.items():
            doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
        if logged:
            # A logged run steps every occasion of the span: a shorter one
            # keeps a 60 s config to a few hundred.
            doc.update(interval_duration=1.0, jammer_lead=0.1, jammer_lag=0.1,
                       detection_log=True, event_trace=True)
        cfg = load_campaign_config(doc)
        records = [run_interval(cfg, i)[0] for i in range(4)]
        assert [check_record(cfg, i, r) for i, r in enumerate(records)] == records
        if "invalid_probability" in sets:
            assert {r.valid for r in records} == {False, True}

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["S1", "S2"]),
        snr_db=st.floats(-24.0, -4.0),
        roots=st.sampled_from([(1,), (1, 2, 5)]),
        delay=st.integers(0, 12),
        one_send=st.booleans(),
        index=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_closed_form_record_equals_the_logged_run(
        self, seed, kind, snr_db, roots, delay, one_send, index
    ):
        # The record run computes its record from the kernel's verdicts; the
        # logged run steps every occasion through the RA machines.
        prach, cell = random_config(np.random.default_rng(seed))
        cfg = make_config(
            prach=prach, cell=cell, base_seed=seed, spectrum=JammerConfig(kind, snr_db),
            detector=DetectorConfig(roots=roots),
            channel=ChannelConfig(noise_sigma=SIGMA_0DB, ue_delay_samples=delay),
            interval_duration=0.12 if one_send else 0.3, jammer_lead=0.05, jammer_lag=0.05,
            ue_startup_delay=0.02,
        )
        # No PRACH gap exceeds 80 ms and the UE retries every 100 ms, so its
        # 100 ms of activity hold one send and its 280 ms two or more.
        sends = prachjam.campaign._ue_sends(cfg)[3]
        assert (len(sends) == 1) == one_send
        logged = replace(cfg, detection_log=True, event_trace=True)
        assert run_interval(cfg, index)[0] == run_interval(logged, index)[0]

    @pytest.mark.parametrize("snr_db", [-6.0, -18.0])
    def test_record_run_steps_no_ra_machine(self, monkeypatch, snr_db):
        # At -6 dB the UE is heard at once; at -18 dB it retries.
        cfg = make_config(n_intervals=4, spectrum=JammerConfig(kind="S1", snr_db=snr_db))
        run_interval(cfg, 0)  # fills the _schedule cache, whose build steps a UE
        calls = []
        for name in ("ue_step", "gnb_step", "make_ue"):
            step = getattr(prachjam.campaign, name)

            def counting(*args, name=name, step=step, **kwargs):
                calls.append(name)
                return step(*args, **kwargs)

            monkeypatch.setattr(prachjam.campaign, name, counting)
        records = [run_interval(cfg, i)[0] for i in range(cfg.n_intervals)]
        assert calls == []
        assert any(r.preambles_sent > 1 for r in records) == (snr_db == -18.0)
        assert run_interval(replace(cfg, event_trace=True), 0)[0] == records[0]
        assert {"ue_step", "gnb_step", "make_ue"} <= set(calls)

    def test_config_flags_alone_switch_the_logs(self):
        # Each flag collects its own lines, the same as with both flags on,
        # in interval order; a run without flags collects none.
        cfg = make_config(n_intervals=3, interval_duration=1.0)
        both = run_campaign(replace(cfg, detection_log=True, event_trace=True))[1]
        for lines in both:
            assert [e["interval"] for e in lines] == sorted(e["interval"] for e in lines)
            assert {e["interval"] for e in lines} == {0, 1, 2}
        for detection_log, event_trace in [(False, False), (True, False), (False, True)]:
            flags = dict(detection_log=detection_log, event_trace=event_trace)
            logs = run_campaign(replace(cfg, **flags))[1]
            assert logs.detections == (both.detections if detection_log else [])
            assert logs.events == (both.events if event_trace else [])

    def test_record_and_logged_runs_agree_in_either_block(self):
        # The record run judges the later sends only when the first is
        # missed; the logged run judges all of them and steps every occasion.
        cfg = make_config(
            n_intervals=18, spectrum=JammerConfig(kind="S1", snr_db=-14.0)
        )
        records, _ = run_campaign(cfg)
        logged, logs = run_campaign(replace(cfg, detection_log=True, event_trace=True))
        assert logged == records
        assert all(logs)
        # Intervals decided in block 0 (the first send), in block 1 (a later
        # one) and not at all.
        decided = {min(r.preambles_sent - 1, 1) if r.ra_succeeded else None for r in records}
        assert decided == {0, 1, None}

    @pytest.mark.parametrize("logged, duration", [(False, 2.0), (True, 2.0), (True, 0.15)],
                             ids=["record", "logged", "logged_one_send"])
    @pytest.mark.parametrize("spectrum, kernel", [
        (JammerConfig(kind="S1", snr_db=-14.0), "window_detected"),
        (JammerConfig(kind="S1_literal", snr_db=-13.0), "_decide"),
    ], ids=["sparse", "dense"])
    def test_judges_the_first_send_then_the_rest_at_once(self, monkeypatch, logged, duration,
                                                          spectrum, kernel):
        # The detector alone judges the first send, and the kernel the other
        # K - 1 in one call, empty where K = 1: a record run whose first send
        # is heard makes no kernel call. S1's means are sparse, so the kernel
        # judges each send on its own window (window_detected); S1_literal's
        # are dense, and _decide judges the full rows.
        cfg = make_config(n_intervals=18, interval_duration=duration, spectrum=spectrum,
                          detection_log=logged)
        sends = prachjam.campaign._ue_sends(cfg)[3]
        assert len(sends) == (19 if duration == 2.0 else 1)
        channel = prachjam.campaign._bins(cfg.prach, cfg.cell, spectrum, cfg.channel, cfg.detector)
        assert (channel.taps is None) == (kernel == "_decide")
        judge, rows = getattr(prachjam.campaign, kernel), []

        def counting(power, *args):
            rows[-1].append(len(power))
            return judge(power, *args)

        monkeypatch.setattr(prachjam.campaign, kernel, counting)
        heard_at_once = []
        for i in range(cfg.n_intervals):
            rows.append([])
            record = run_interval(cfg, i)[0]
            heard_at_once.append(record.ra_succeeded and record.preambles_sent == 1)
        assert 0 < sum(heard_at_once) < cfg.n_intervals
        for heard, judged in zip(heard_at_once, rows):
            assert judged == ([] if heard and not logged else [len(sends) - 1])

    @pytest.mark.parametrize("logged", [False, True], ids=["record", "logged"])
    def test_record_fields_keep_their_python_types(self, logged):
        # The verdicts are a bool array. At -14 dB a UE is heard at its first
        # send, at a later one or not at all: the first interval of each
        # outcome among the first 40 must still hold a Python bool, int, float
        # or None in every field, which json.dumps writes.
        cfg = make_config(spectrum=JammerConfig(kind="S1", snr_db=-14.0), detection_log=logged)
        outcomes = {}
        for i in range(40):
            r = run_interval(cfg, i)[0]
            outcomes.setdefault(min(r.preambles_sent, 2) if r.ra_succeeded else 0, r)
            if len(outcomes) == 3:
                break
        assert sorted(outcomes) == [0, 1, 2]
        for r in outcomes.values():
            fields = [int, bool, int, int, bool, float if r.ra_succeeded else type(None), int]
            assert [type(value) for value in asdict(r).values()] == fields
            assert json.loads(json.dumps(record_to_dict(r))) == record_to_dict(r)

    def test_logged_run_spans_the_lag_with_the_jammer_off(self):
        # quick.json: 0.5 s lead, 2 s of UE activity, 0.5 s lag, 3 occasions
        # every 20 ms.
        doc = copy.deepcopy(QUICK_DOC)
        doc["spectrum"]["enabled"], doc["detection_log"] = False, True
        cfg = load_campaign_config(doc)
        detections = run_interval(cfg, 0)[1].detections
        assert len(detections) == 450
        instants = {
            (occ.sfn, occ.slot, occ.occasion_index): t
            for t, occ in occasions_between(cfg.prach, cfg.cell, 0.0, 3000.0)
        }
        last = detections[-1]
        assert 2500.0 <= instants[last["sfn"], last["slot"], last["occasion_index"]] < 3000.0

    def test_fast_path_calls_the_detector_once_per_interval(self, monkeypatch):
        # The detector judges the first send of every interval, and sees the
        # deciding send only when the first is missed.
        cfg = make_config(
            n_intervals=4, spectrum=JammerConfig(kind="S1", snr_db=-18.0)
        )
        occasions, records = [], []
        detect = prachjam.campaign.detect_preambles

        def counting(bins, det_cfg, occasion=None):
            occasions[-1].append(occasion)
            return detect(bins, det_cfg, occasion=occasion)

        monkeypatch.setattr(prachjam.campaign, "detect_preambles", counting)
        for i in range(cfg.n_intervals):
            occasions.append([])
            records.append(run_interval(cfg, i)[0])
        assert any(r.preambles_sent > 1 for r in records)
        ue_on, _, _, sends = prachjam.campaign._ue_sends(cfg)
        for r, seen in zip(records, occasions):
            deciding = [sends[r.preambles_sent - 1][1]] if r.preambles_sent > 1 else []
            assert seen == [sends[0][1]] + deciding
            if r.ra_succeeded:
                t = occasion_time_ms(seen[-1], cfg.cell)
                assert r.time_to_success == (t - ue_on) / 1000.0

    @pytest.mark.parametrize("logged", [False, True], ids=["record", "logged"])
    @pytest.mark.parametrize("snr_db", [-6.0, -18.0])
    def test_each_interval_builds_one_generator(self, monkeypatch, snr_db, logged):
        # The interval stream is the only one: the kernel's blocks, a
        # rebuilt row's draws and a logged run's idle occasions all read it.
        # At -6 dB the UE is heard at once; at -18 dB it retries, so a later
        # (reduced) send is rebuilt. Each generator's state is caught as it
        # is built, and no stream may come from default_rng.
        states = []
        generator = np.random.Generator

        def catching(bit_generator):
            states.append(bit_generator.state)
            return generator(bit_generator)

        cfg = make_config(n_intervals=4, spectrum=JammerConfig(kind="S1", snr_db=snr_db),
                          detection_log=logged)
        monkeypatch.setattr(np.random, "Generator", catching)
        monkeypatch.setattr(np.random, "default_rng", None)
        records = [run_interval(cfg, i)[0] for i in range(cfg.n_intervals)]
        monkeypatch.undo()
        assert len(states) == cfg.n_intervals
        assert states == [
            interval_stream(interval_seed(cfg.base_seed, i)).bit_generator.state
            for i in range(cfg.n_intervals)
        ]
        assert any(r.preambles_sent > 1 for r in records) == (snr_db == -18.0)

    @pytest.mark.parametrize("logged", [False, True], ids=["record", "logged"])
    @pytest.mark.parametrize("name", sorted(REPLAY_CELLS))
    def test_intervals_follow_the_readme_replay(self, monkeypatch, name, logged):
        # README's statement of the stream, replayed send by send
        # (helpers.replay_interval), gives each interval's record, its
        # detections.jsonl lines and where its one generator ends, so every
        # number the interval reads is accounted for.
        overrides, n_logged, both_branches = REPLAY_CELLS[name]
        doc = copy.deepcopy(QUICK_DOC)
        for section, values in overrides.items():
            doc[section].update(values)
        cfg = load_campaign_config({**doc, "detection_log": logged})
        streams, generator = [], np.random.Generator

        def catching(bit_generator):
            streams.append(generator(bit_generator))
            return streams[-1]

        monkeypatch.setattr(np.random, "Generator", catching)
        runs = [run_interval(cfg, i) for i in range(n_logged if logged else 20)]
        monkeypatch.undo()
        assert len(streams) == len(runs)
        tails = later = 0
        for i, ((record, logs), rng) in enumerate(zip(runs, streams)):
            replay = replay_interval(cfg, i)
            assert record == replay.record
            assert [json.dumps(d, sort_keys=True) for d in logs.detections] == [
                json.dumps(d, sort_keys=True) for d in replay.detections]
            assert rng.bit_generator.state == replay.rng.bit_generator.state
            tails, later = tails + replay.tails, later + len(replay.hits) - 1
        assert 0 < tails < later or not both_branches

    @pytest.mark.parametrize("logged", [False, True], ids=["record", "logged"])
    def test_kernel_and_detector_must_agree(self, monkeypatch, logged):
        # The unjammed UE is found at once. A detector that reports nothing
        # alone decides that first send, missed, and then contradicts the
        # batched kernel at the next.
        cfg = make_config(spectrum=JammerConfig(kind="S1", snr_db=-6.0, enabled=False),
                          detection_log=logged)
        detect = prachjam.campaign.detect_preambles

        def deaf(bins, det_cfg, occasion=None):
            result = detect(bins, det_cfg, occasion=occasion)
            return replace(result, detected=[])

        monkeypatch.setattr(prachjam.campaign, "detect_preambles", deaf)
        with pytest.raises(SimulationError,
                           match=r"^interval 0: kernel and detector disagree on preamble 1$"):
            run_interval(cfg, 0)

    def test_logged_run_checks_every_send(self, monkeypatch):
        # At -30 dB the kernel misses every send. A detector that reports
        # every signature at the third send's occasion contradicts it there,
        # which only a run that steps every send can see.
        cfg = make_config(spectrum=JammerConfig(kind="S1", snr_db=-30.0))
        sends = prachjam.campaign._ue_sends(cfg)[3]
        detect = prachjam.campaign.detect_preambles

        def eager(bins, det_cfg, occasion=None):
            result = detect(bins, det_cfg, occasion=occasion)
            if occasion != sends[2][1]:
                return result
            return replace(result, detected=[Detection(1, w, 99.0) for w in range(10)])

        monkeypatch.setattr(prachjam.campaign, "detect_preambles", eager)
        record, _ = run_interval(cfg, 0)  # checks only the last send
        assert (record.preambles_sent, record.preambles_detected) == (len(sends), 0)
        with pytest.raises(SimulationError,
                           match=r"^interval 0: kernel and detector disagree on preamble 2$"):
            run_interval(replace(cfg, detection_log=True), 0)

    def test_detector_alone_decides_the_first_send(self, monkeypatch):
        # At -30 dB the kernel misses every send. A detector that reports
        # every signature at the first send's occasion connects the UE there,
        # and a record run makes no kernel call; a logged run agrees.
        cfg = make_config(spectrum=JammerConfig(kind="S1", snr_db=-30.0))
        ue_on, _, _, sends = prachjam.campaign._ue_sends(cfg)
        detect, judge, judged = (prachjam.campaign.detect_preambles,
                                 prachjam.campaign.window_detected, [])

        def eager(bins, det_cfg, occasion=None):
            result = detect(bins, det_cfg, occasion=occasion)
            if occasion != sends[0][1]:
                return result
            return replace(result, detected=[Detection(1, w, 99.0) for w in range(10)])

        def counting(window, *args):
            judged.append(len(window))
            return judge(window, *args)

        monkeypatch.setattr(prachjam.campaign, "detect_preambles", eager)
        monkeypatch.setattr(prachjam.campaign, "window_detected", counting)
        record, _ = run_interval(cfg, 0)
        assert (record.preambles_sent, record.preambles_detected) == (1, 1)
        assert record.time_to_success == (sends[0][0] - ue_on) / 1000.0
        assert judged == []
        assert run_interval(replace(cfg, detection_log=True), 0)[0] == record
        assert judged == [len(sends) - 1]

    def test_logged_run_must_reach_the_closed_form_record(self, monkeypatch):
        # quick.json unjammed: the UE is heard at its first send. A gNB that
        # answers nothing leaves the RA machines sending all 19 preambles,
        # away from the record the verdicts give, and the logged run refuses.
        doc = copy.deepcopy(QUICK_DOC)
        doc["spectrum"]["enabled"], doc["detection_log"] = False, True
        cfg = load_campaign_config(doc)
        assert len(prachjam.campaign._ue_sends(cfg)[3]) == 19
        assert run_interval(cfg, 0)[0].preambles_sent == 1
        monkeypatch.setattr(prachjam.campaign, "gnb_step", lambda ctx, result, msg3s: [])
        with pytest.raises(SimulationError, match="^interval 0: the RA machines sent 19 "):
            run_interval(cfg, 0)

    def test_ue_without_an_occasion_is_a_config_error(self, monkeypatch):
        # A UE that never sends would be tallied as a jammed interval.
        ran = []
        monkeypatch.setattr(prachjam.campaign, "run_interval", lambda *a: ran.append(a))
        for delay in (2.0, 5.0):  # first attempt as the UE turns off, and after
            with pytest.raises(ConfigError, match="never sends a preamble"):
                run_campaign(make_config(ue_startup_delay=delay))
        assert ran == []

    def test_interval_of_a_ue_without_an_occasion_is_a_config_error(self):
        # quick.json with the UE's first attempt after its switch-off.
        doc = {**QUICK_DOC, "interval_duration": 0.05, "ue_startup_delay": 0.1}
        with pytest.raises(ConfigError, match="never sends a preamble"):
            run_interval(load_campaign_config(doc), 0)

    @pytest.mark.parametrize(
        "roots, per_interval", [((1,), (0, 0)), ((1, 2, 5), (1, 2))], ids=["one", "three"]
    )
    def test_stepped_send_transforms(self, monkeypatch, roots, per_interval):
        # The detector judges the stepped send's own root on the profile the
        # kernel holds: no transform for one root, and for others one FFT
        # back to bins and an IFFT per other root.
        cfg = make_config(n_intervals=6, detector=DetectorConfig(roots=roots))
        run_interval(cfg, 0)  # fills the caches; building them transforms
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            transform = getattr(np.fft, name)

            def counting(*args, name=name, transform=transform, **kwargs):
                calls[name] += 1
                return transform(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counting)
        records = [run_interval(cfg, i)[0] for i in range(1, cfg.n_intervals)]
        assert all(r.preambles_sent == 1 and r.ra_succeeded for r in records)
        n = len(records)
        assert (calls["fft"], calls["ifft"]) == (per_interval[0] * n, per_interval[1] * n)

    def test_jammer_off_succeeds(self):
        cfg = make_config(
            n_intervals=5,
            spectrum=JammerConfig(kind="S1", snr_db=-6.0, enabled=False),
        )
        records, _ = run_campaign(cfg)
        assert compute_metrics(records).e_s == 1
        assert all(r.ra_succeeded for r in records)
        assert all(r.preambles_detected >= 1 for r in records)

    def test_hard_jamming_blocks_and_caps_preambles(self):
        cfg = make_config(
            n_intervals=1,
            interval_duration=60.0,
            jammer_lead=10.0,
            jammer_lag=10.0,
            ue_startup_delay=0.5,
            spectrum=JammerConfig(kind="S1", snr_db=-30.0),
        )
        records, _ = run_campaign(cfg)
        assert records[0].ra_succeeded is False
        assert records[0].preambles_detected == 0
        # Retry ceiling: one attempt per 100 ms of UE activity.
        assert records[0].preambles_sent <= 600

    def test_success_implies_detection(self):
        cfg = make_config(n_intervals=4, spectrum=JammerConfig("S2", 3.0))
        records, _ = run_campaign(cfg)
        for r in records:
            if r.ra_succeeded:
                assert r.preambles_detected >= 1
                assert r.time_to_success is not None

    def test_invalid_probability_marks_intervals(self):
        cfg = make_config(n_intervals=30, invalid_probability=0.5, interval_duration=0.5)
        records, _ = run_campaign(cfg)
        metrics = compute_metrics(records)
        assert metrics.n_e == sum(1 for r in records if not r.valid)
        assert 0 < metrics.n_e < 30

    def test_parallel_matches_serial(self):
        cfg = make_config(n_intervals=4, interval_duration=1.0)
        serial, _ = run_campaign(cfg, threads=1)
        parallel, _ = run_campaign(cfg, threads=2)
        assert serial == parallel

    def test_zero_threads_counts_the_cpus_the_process_may_use(self, monkeypatch):
        # Pinned to one CPU, "all cores" is one worker: no process pool.
        monkeypatch.setattr(prachjam.campaign.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        cfg = make_config(n_intervals=2, interval_duration=1.0)
        assert run_campaign(cfg, threads=0)[0] == run_campaign(cfg, threads=1)[0]

    @pytest.mark.parametrize("cpus", [1, None])
    def test_zero_threads_without_affinity_counts_the_cpus(self, monkeypatch, cpus):
        # Where the platform has no sched_getaffinity, os.cpu_count() decides,
        # and a count it cannot tell is one worker.
        monkeypatch.delattr(prachjam.campaign.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(prachjam.campaign.os, "cpu_count", lambda: cpus)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was created")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
        cfg = make_config(n_intervals=2, interval_duration=1.0)
        assert run_campaign(cfg, threads=0)[0] == run_campaign(cfg, threads=1)[0]

    @pytest.mark.parametrize("n_intervals, started", [(1, []), (3, [3])],
                             ids=["one_in_process", "three"])
    def test_pool_starts_no_more_workers_than_intervals(self, monkeypatch, n_intervals,
                                                        started):
        # A pool starts all its workers at the first submit, so three
        # intervals at eight threads ask for three; one runs in process.
        pools = []

        class Pool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
        cfg = make_config(n_intervals=n_intervals, interval_duration=1.0)
        assert run_campaign(cfg, threads=8)[0] == run_campaign(cfg, threads=1)[0]
        assert pools == started

    def test_unjammed_success_within_two_retry_periods(self):
        # At per-bin SNR >= 0 dB the first or second attempt succeeds in
        # at least 99 % of seeded intervals.
        cfg = make_config(
            n_intervals=100,
            interval_duration=1.0,
            spectrum=JammerConfig(kind="S1", snr_db=-6.0, enabled=False),
        )
        records, _ = run_campaign(cfg, threads=0)
        quick = sum(1 for r in records if r.ra_succeeded and r.preambles_sent <= 2)
        assert quick >= 99

    def test_blocking_jammer_suppresses_survival_ratio(self):
        # With an overwhelming jammer the per-preamble survival ratio
        # collapses to far below the unjammed regime's 1.0.
        cfg = make_config(
            n_intervals=20,
            interval_duration=2.0,
            spectrum=JammerConfig(kind="S1", snr_db=-30.0),
        )
        metrics = compute_metrics(run_campaign(cfg, threads=0)[0])
        assert metrics.e_p_j is not None
        assert metrics.e_p_j < Fraction(1, 100)

    def test_success_rate_monotone_in_jammer_strength(self):
        # e_s may only fall as the jamming amplitude grows (fixed seeds).
        rates = []
        for snr in (0.0, -8.0, -12.0, -16.0, -24.0):
            cfg = make_config(
                n_intervals=200,
                interval_duration=0.6,
                jammer_lead=0.15,
                jammer_lag=0.15,
                ue_startup_delay=0.05,
                base_seed=777,
                spectrum=JammerConfig(kind="S1", snr_db=snr),
            )
            rates.append(compute_metrics(run_campaign(cfg, threads=0)[0]).e_s)
        assert all(a >= b for a, b in zip(rates, rates[1:])), rates


class TestSchedule:
    @given(
        seed=st.integers(0, 2**32 - 1),
        lead=st.floats(0.0, 0.3),
        duration=st.floats(0.001, 1.5),
        startup=st.floats(0.0, 0.5),
        stretch=st.sampled_from([1, 4]),
    )
    @settings(max_examples=80, deadline=None)
    def test_schedule_is_where_an_unanswered_ue_sends(
        self, seed, lead, duration, startup, stretch
    ):
        prach, cell = random_config(np.random.default_rng(seed))
        # A PRACH period longer than the retry period lets the RAR window
        # rather than the retry timer hold back the next preamble.
        prach = replace(prach, sfn_modulus=stretch * prach.sfn_modulus)
        ue_on = lead * 1000.0
        ue_off = ue_on + duration * 1000.0
        first_ms = ue_on + startup * 1000.0
        ue = make_ue(1, first_ms)
        sent = []
        for sfn in range(int(ue_off // 10) + 1):
            for occ in occasions_in_frame(prach, cell, sfn):
                t = occasion_time_ms(occ, cell)
                if ue_on <= t < ue_off:
                    key = (occ.sfn, occ.slot, occ.occasion_index)
                    action = ue_step(ue, t, [], PreambleTx((1, 0), key))
                    if isinstance(action, PreambleTx):
                        sent.append((t, action.occasion_key))
        schedule = _schedule(prach, cell, first_ms, ue_off)
        assert [(t, (o.sfn, o.slot, o.occasion_index)) for t, o in schedule] == sent
        assert ue.preambles_sent == len(schedule)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
QUICK_DOC = json.loads((CONFIGS / "quick.json").read_text())
# quick.json with its preset written out as prach and cell sections, as JSON
# holds them (asdict keeps tuples, JSON has lists).
QUICK_EXPLICIT = json.loads(json.dumps({**QUICK_DOC, "prach": asdict(PRACH), "cell": asdict(CELL)}))
del QUICK_EXPLICIT["preset"]

_SCALARS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)
JSON_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(["kind", "snr_db", "roots", "x"]) | st.text(), _SCALARS,
                    max_size=3),
)


def _paths(node, prefix=()):
    """The key path of every leaf and section under ``node``."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


class TestConfigLoading:
    def base_doc(self):
        return {
            "n_intervals": 2,
            "interval_duration": 1.0,
            "base_seed": 5,
            "preset": "index98_40mhz_desk",
            "spectrum": {"kind": "S1", "snr_db": -6.0},
            "channel": {"noise_sigma": 0.7071},
        }

    def test_preset_loading(self):
        cfg = load_campaign_config(self.base_doc())
        assert cfg.prach == PRACH
        assert cfg.cell == CELL
        assert cfg.detector == DetectorConfig()

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2])
    def test_schema_version_must_be_the_int_one(self, version):
        doc = {"schema_version": version, **self.base_doc()}
        with pytest.raises(ConfigError, match=rf"unsupported schema_version {version!r}$"):
            load_campaign_config(doc)
        doc["schema_version"] = 1
        assert load_campaign_config(doc) == load_campaign_config(self.base_doc())

    def test_a_document_that_is_not_an_object_is_rejected(self):
        with pytest.raises(ConfigError, match=r"campaign must be a JSON object, got \[1\]"):
            load_campaign_config([1])

    def test_spectrum_seed_rejected(self):
        doc = self.base_doc()
        doc["spectrum"]["seed"] = 5
        with pytest.raises(ConfigError, match="unknown field 'seed' in spectrum"):
            load_campaign_config(doc)

    def test_zero_intervals_rejected(self):
        doc = self.base_doc()
        doc["n_intervals"] = 0
        with pytest.raises(ConfigError, match="n_intervals must be ≥ 1"):
            load_campaign_config(doc)

    def test_unknown_top_level_field(self):
        doc = self.base_doc()
        doc["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown field 'surprise'"):
            load_campaign_config(doc)

    def test_unknown_section_field(self):
        doc = self.base_doc()
        doc["channel"]["bogus"] = 2
        with pytest.raises(ConfigError, match="unknown field 'bogus'"):
            load_campaign_config(doc)

    def test_preset_and_explicit_exclusive(self):
        doc = self.base_doc()
        doc["cell"] = {}
        with pytest.raises(ConfigError, match="exclusive"):
            load_campaign_config(doc)

    def test_unknown_preset(self):
        doc = self.base_doc()
        doc["preset"] = "nope"
        with pytest.raises(ConfigError, match="unknown preset"):
            load_campaign_config(doc)

    def test_explicit_sections_load_like_the_preset(self):
        doc = self.base_doc()
        del doc["preset"]
        # Through JSON, as a file holds them: asdict keeps tuples, JSON has lists.
        doc.update(json.loads(json.dumps({"prach": asdict(PRACH), "cell": asdict(CELL)})))
        explicit, preset = load_campaign_config(doc), load_campaign_config(self.base_doc())
        assert explicit == preset
        assert run_campaign(explicit)[0] == run_campaign(preset)[0]

    def test_preset_or_sections_required(self):
        doc = self.base_doc()
        del doc["preset"]
        with pytest.raises(ConfigError, match="either a preset or prach and cell sections"):
            load_campaign_config(doc)

    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            (None, "n_intervals", "abc", "campaign.n_intervals must be an int, got 'abc'"),
            (None, "n_intervals", 2.9, "campaign.n_intervals must be an int, got 2.9"),
            (None, "n_intervals", True, "campaign.n_intervals must be an int, got True"),
            ("spectrum", "enabled", "false", "spectrum.enabled must be a bool, got 'false'"),
            ("detector", "roots", 5, "detector.roots must be a list of ints, got 5"),
            (None, "interval_duration", math.nan,
             "campaign.interval_duration must be a finite number, got nan"),
        ],
        ids=["n_intervals-str", "n_intervals-float", "n_intervals-bool", "enabled-str",
             "roots-int", "interval_duration-nan"],
    )
    def test_wrong_type_names_the_field(self, section, field, value, message):
        doc = self.base_doc()
        (doc if section is None else doc.setdefault(section, {}))[field] = value
        with pytest.raises(ConfigError, match=message):
            load_campaign_config(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build, field, rule", [
        (make_config, "interval_duration", "> 0 and finite"),
        (make_config, "jammer_lead", ">= 0 and finite"),
        (make_config, "jammer_lag", ">= 0 and finite"),
        (make_config, "ue_startup_delay", ">= 0 and finite"),
        (ChannelConfig, "noise_sigma", ">= 0 and finite"),
        (DetectorConfig, "threshold_factor", "> 1 and finite"),
        (functools.partial(JammerConfig, "S1"), "snr_db", "finite"),
        (functools.partial(replace, CELL), "cell_bandwidth", "> 0 and finite"),
        (functools.partial(occasions_between, PRACH, CELL, 0.0), "end_ms", "finite"),
        (functools.partial(occasions_between, PRACH, CELL, end_ms=10.0), "start_ms", "finite"),
    ], ids=["interval_duration", "jammer_lead", "jammer_lag", "ue_startup_delay", "noise_sigma",
            "threshold_factor", "snr_db", "cell_bandwidth", "end_ms", "start_ms"])
    def test_library_callers_get_no_non_finite_value(self, build, field, rule, value):
        # The JSON loader refuses these before any dataclass sees them. Built
        # directly, a non-finite time would never end a schedule and a
        # non-finite level would make every verdict False.
        with pytest.raises(ConfigError, match=f"^{field} must be {re.escape(rule)}, got {value}$"):
            build(**{field: value})

    @pytest.mark.parametrize("build, kwargs, message", [
        (ChannelConfig, dict(noise_sigma=0.1, ue_delay_samples=2.5),
         "ue_delay_samples must be an int, got 2.5"),
        (ChannelConfig, dict(noise_sigma=0.1, ue_delay_samples=True),
         "ue_delay_samples must be an int, got True"),
        (ChannelConfig, dict(noise_sigma="0.1"), "noise_sigma must be a number, got '0.1'"),
        (JammerConfig, dict(kind="S1", snr_db=True), "snr_db must be a number, got True"),
        (JammerConfig, dict(kind="S1", snr_db=-6.0, enabled=1), "enabled must be a bool, got 1"),
        (JammerConfig, dict(kind="S1", snr_db="-6"), "snr_db must be a number, got '-6'"),
    ], ids=["delay-float", "delay-bool", "sigma-str", "snr_db-bool", "enabled-int", "snr_db-str"])
    def test_library_callers_get_no_wrong_typed_value(self, build, kwargs, message):
        # As DetectorConfig does: a fractional delay would reach superpose,
        # which slices by it, and a string would raise a bare TypeError.
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(**kwargs)

    def test_float_fields_are_stored_as_float(self):
        doc = self.base_doc()
        doc["interval_duration"] = 1
        doc["spectrum"]["snr_db"] = -6
        cfg = load_campaign_config(doc)
        assert type(cfg.interval_duration) is float
        assert type(cfg.spectrum.snr_db) is float

    @settings(max_examples=300, deadline=None)
    @given(
        target=st.sampled_from(
            [(QUICK_DOC, path) for path in _paths(QUICK_DOC)]
            + [(QUICK_EXPLICIT, path) for path in _paths(QUICK_EXPLICIT)]
        ),
        value=JSON_VALUES,
    )
    def test_any_one_wrong_value_is_a_config_error(self, target, value):
        # quick.json, as shipped or with explicit sections, with one leaf or
        # section replaced: loading either succeeds or raises ConfigError,
        # never any other exception.
        doc, path = copy.deepcopy(target[0]), target[1]
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        try:
            load_campaign_config(doc)
        except ConfigError:
            pass

    def test_repeated_loads_resolve_each_class_once(self, monkeypatch):
        # load_record compiles a dataclass's string annotations once, not on
        # every config or records.jsonl line it reads.
        resolve, resolved = prachjam.prach.get_type_hints, []

        def counting(cls):
            resolved.append(cls)
            return resolve(cls)

        monkeypatch.setattr(prachjam.prach, "get_type_hints", counting)
        prachjam.prach._type_hints.cache_clear()
        record = IntervalRecord(3, True, 10, 1, True, 1.25, 99)
        for _ in range(3):
            assert load_campaign_config(QUICK_EXPLICIT) == load_campaign_config(QUICK_DOC)
            assert record_from_dict(record_to_dict(record)) == record
        assert Counter(resolved) == dict.fromkeys(
            [CampaignConfig, JammerConfig, ChannelConfig, DetectorConfig, PrachConfig,
             CellConfig, IntervalRecord], 1)

    def test_explicit_sections_load_quick_json(self):
        # The fuzz above reaches the explicit sections' rules only if they load.
        assert load_campaign_config(QUICK_EXPLICIT) == load_campaign_config(QUICK_DOC)

    @pytest.mark.parametrize("name, value, top", [
        ("freq_offset", 1, 13), ("freq_offset", 30, 42), ("freq_occasions", 2, 24),
        ("freq_occasions", 50, 600),
    ])
    def test_prach_must_lie_inside_the_carrier(self, name, value, top):
        doc = copy.deepcopy(QUICK_EXPLICIT)
        doc["prach"][name] = value
        message = (rf"prach.freq_offset \+ prach.freq_occasions \* 12 = {top} PRBs lie "
                   r"outside the carrier's cell.n_prb 12")
        with pytest.raises(ConfigError, match=message):
            load_campaign_config(doc)
        # A carrier of exactly that many PRBs holds it.
        doc["cell"].update(n_prb=top, dft_size=1 << (12 * top - 1).bit_length())
        assert load_campaign_config(doc).cell.n_prb == top

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_base_seed_must_be_a_uint64(self, seed):
        # interval_seed packs it as an unsigned 64-bit integer: a seed outside
        # that range would alias one inside it.
        doc = self.base_doc()
        doc["base_seed"] = seed
        with pytest.raises(ConfigError, match=rf"campaign: base_seed must be in \[0, 2\*\*64\), "
                                              rf"got {seed}$"):
            load_campaign_config(doc)
        doc["base_seed"] = 2**64 - 1
        assert load_campaign_config(doc).base_seed == 2**64 - 1

    def test_delay_must_fit_cp(self):
        doc = self.base_doc()
        doc["channel"]["ue_delay_samples"] = 50
        with pytest.raises(ConfigError, match="cyclic prefix"):
            load_campaign_config(doc)


def test_freq_occasions_scale_only_the_occupancy():
    # The single UE sends in one frequency occasion, which the jammer covers:
    # a second one doubles the occupancy and the jammer's bandwidth budget,
    # not the records.
    doc = copy.deepcopy(QUICK_EXPLICIT)
    doc["cell"].update(n_prb=24, dft_size=512)
    one = load_campaign_config(doc)
    doc["prach"]["freq_occasions"] = 2
    two = load_campaign_config(doc)
    assert run_campaign(one)[0] == run_campaign(two)[0]
    ratio = [occupancy_factors(cfg.prach, cfg.cell)["ratio"] for cfg in (one, two)]
    bandwidth = [jammer_resource_budget(cfg.prach, cfg.cell)["bandwidth_hz"] for cfg in (one, two)]
    assert (ratio[1], bandwidth[1]) == (2 * ratio[0], 2 * bandwidth[0])


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_names_stay_in_campaign(name):
    assert callable(getattr(prachjam.campaign, name, None))


def test_benchmark_reads_the_records_first():
    # perfbench/run.py reads run_campaign(...)[0] as the record list, and
    # perfbench/tests unpacks the result into two.
    cfg = make_config(n_intervals=2, interval_duration=1.0)
    records, _ = out = run_campaign(cfg, threads=1)
    assert out[0] is records
    assert records == [run_interval(cfg, i)[0] for i in range(cfg.n_intervals)]
    assert all(type(r) is IntervalRecord for r in records)


def test_simulate_reaches_run_campaign_through_the_cli_module(monkeypatch, tmp_path):
    # The traced replay spans `simulate` by patching prachjam.cli.run_campaign.
    calls, run = [], prachjam.cli.run_campaign

    def spy(*args, **kwargs):
        calls.append(args)
        return run(*args, **kwargs)

    monkeypatch.setattr(prachjam.cli, "run_campaign", spy)
    argv = ["simulate", "--config", str(CONFIGS / "quick.json"), "--out", str(tmp_path),
            "--set", "n_intervals=1"]
    assert prachjam.cli.main(argv) == 0
    assert len(calls) == 1
    assert (tmp_path / "records.jsonl").read_text().count("\n") == 1


# perfbench/run.py's traced replay runs these command lines through
# prachjam.cli.main (calibrate too passes --out), and its calibration reads
# cfg.prach.preamble_length; the benchmark breaks if either stops working.
@pytest.mark.parametrize("command, sets", [
    ("simulate", ["spectrum.snr_db=-24.0", "base_seed=7", "n_intervals=1",
                  "interval_duration=1.5"]),
    ("calibrate", ["base_seed=7", "target_far=0.0001"]),
])
def test_benchmark_command_lines_parse(command, sets):
    argv = [command, "--config", str(CONFIGS / "s2_60s.json"), "--out", "run"]
    for pair in sets:
        argv += ["--set", pair]
    args = _build_parser().parse_args(argv)
    assert (args.subcommand, args.config, args.out) == (command, CONFIGS / "s2_60s.json",
                                                        Path("run"))
    assert args.overrides == sets


def test_benchmark_reads_the_preamble_length():
    cfg = load_campaign_config(json.loads((CONFIGS / "s1_60s.json").read_text()))
    assert cfg.prach.preamble_length == 139
