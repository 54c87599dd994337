"""CLI subcommands, exit codes and the simulate/metrics round trip."""
import hashlib
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from prachjam.campaign import interval_seed
from prachjam.cli import main
from prachjam.prach import PRESETS
from prachjam.zc import generate_zc

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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


def summary_without_timestamp(path: Path) -> str:
    data = json.loads(path.read_text())
    data.pop("generated_at")
    return json.dumps(data, indent=2, sort_keys=True)


class TestZc:
    def test_sequence_csv(self, capsys):
        assert main(["zc", "--set", "root=1", "--set", "length=139"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "index,re,im,magnitude"
        assert len(lines) == 140
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0)
        assert float(first[3]) == pytest.approx(1.0)

    def test_correlation_csv(self, capsys):
        assert main(
            ["zc", "--set", "root=1", "--set", "length=139", "--set", "xcorr_root=2"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 140
        mags = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(m == pytest.approx(1 / 139**0.5, abs=1e-9) for m in mags)

    def test_shifted_sequence_csv(self, capsys):
        assert main(["zc", "--set", "root=1", "--set", "shift=13"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        values = np.array([complex(float(real), float(imag)) for _, real, imag, _ in rows])
        expected = np.roll(generate_zc(1, 139).samples, -13)
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-11)

    def test_invalid_root_fails(self, capsys):
        assert main(["zc", "--set", "root=0"]) == 1

    @pytest.mark.parametrize(
        "override, message",
        [
            ("root=[1]", "zc.root must be an int, got [1]"),
            ("root=1.7", "zc.root must be an int, got 1.7"),
            ("length=true", "zc.length must be an int, got True"),
            ("shift=2.0", "zc.shift must be an int, got 2.0"),
            ("xcorr_root=two", "zc.xcorr_root must be an int or null, got 'two'"),
            ('normalize="no"', "zc.normalize must be a bool, got 'no'"),
            ("normalize=1", "zc.normalize must be a bool, got 1"),
            ("rot=1", "unknown field 'rot' in zc"),
            ("shift=139", "zc: shift must be in [0, 139), got 139"),
            ("shift=-1", "zc: shift must be in [0, 139), got -1"),
            ("length=140", "zc: length must be odd and >= 3, got 140"),
            ("root=0", "zc: root must be in [1, 139) and coprime with 139, got 0"),
        ],
    )
    def test_bad_parameter_exits_one(self, override, message, capsys):
        assert main(["zc", "--set", override]) == 1
        assert f"config error: {message}" in capsys.readouterr().err


class TestOccupancy:
    def test_prints_ratio(self, capsys, tmp_path):
        cfg = small_config(tmp_path)
        assert main(["occupancy", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "0.2234 %" in out
        assert "period_factor" in out
        assert "temporal_occupation" in out
        assert "bandwidth_occupation" in out

    def test_missing_config(self, capsys):
        assert main(["occupancy"]) == 1
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, message",
        [
            ("spectrum=5", "spectrum must be a JSON object"),
            ("n_intervals=abc", "campaign.n_intervals must be an int"),
            ("n_intervals=2.9", "campaign.n_intervals must be an int"),
            ("n_intervals=true", "campaign.n_intervals must be an int"),
            ('spectrum.enabled="false"', "spectrum.enabled must be a bool"),
            ("detector.roots=5", "detector.roots must be a list of ints"),
            ("interval_duration=NaN", "campaign.interval_duration must be a finite number"),
            ("detector.roots=[0]", "detector.roots must be distinct roots in [1, 139)"),
            ("detector.roots=[139]", "detector.roots must be distinct roots in [1, 139)"),
            ("detector.roots=[1,1]", "detector.roots must be distinct roots in [1, 139)"),
            ("detector.shift_step=200", "detector.shift_step must be at most"),
            ("spectrum.snr_db=-3100",
             "campaign: spectrum.snr_db -3100 overflows the sum of 139 tap powers"),
            ("spectrum.snr_db=-7000",
             "spectrum: snr_db -7000 overflows the jammer's amplitude"),
            ("channel.noise_sigma=1e300",
             "campaign: channel.noise_sigma 1e+300 overflows the sum of 139 tap powers"),
            ("detector.threshold_factor=1e307", "campaign: detector.threshold_factor 1e+307 "
                                                "overflows the detector's limit on 139 tap powers"),
            ("jammer_lag=Infinity", "campaign.jammer_lag must be a finite number, got inf"),
            ("detector.threshold_factor=NaN",
             "detector.threshold_factor must be a finite number, got nan"),
        ],
        ids=["spectrum", "n_intervals-str", "n_intervals-float", "n_intervals-bool",
             "enabled-str", "roots-int", "interval_duration-nan", "roots-zero",
             "roots-length", "roots-twice", "shift_step-long", "snr_db-square-overflows",
             "snr_db-amplitude-overflows", "noise_sigma-overflows", "threshold_factor-overflows",
             "jammer_lag-inf", "threshold_factor-nan"],
    )
    def test_wrong_value_exits_one(self, capsys, override, message):
        argv = ["occupancy", "--config", str(CONFIGS / "quick.json"), "--set", override]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err


class TestSimulate:
    def test_writes_outputs(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        records = (out / "records.jsonl").read_text().strip().splitlines()
        assert len(records) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == 1
        assert summary["n_intervals"] == 3
        assert "occupancy" in summary and "jammer_budget" in summary
        csv_lines = (out / "preambles.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "interval,preambles_sent,preambles_detected,ra_succeeded"
        assert len(csv_lines) == 4

    def test_zero_intervals_exit_one(self, tmp_path, capsys):
        cfg = small_config(tmp_path, n_intervals=0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "n_intervals must be ≥ 1" in capsys.readouterr().err

    def test_ue_without_an_occasion_exits_one(self, tmp_path, capsys):
        # The UE would first try 5 s after it turns on, 3 s after it turns off.
        cfg = small_config(tmp_path, ue_startup_delay=5.0)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "5300 ms" in err and "1300 ms" in err
        assert not (out / "records.jsonl").exists()
        assert not out.exists()

    def test_unknown_field_exit_one(self, tmp_path, capsys):
        cfg = small_config(tmp_path, typo_field=3)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        assert "typo_field" in capsys.readouterr().err

    def test_malformed_json_diagnostic(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\n  \"n_intervals\": ,\n}")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "bad.json:2" in err

    def test_negative_threads_exit_one(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "x"), "--threads", "-3"]
        assert main(argv) == 1
        assert "threads must be >= 0" in capsys.readouterr().err

    def test_determinism(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()

    def test_override_applies_after_load(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "o"
        assert main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--set",
                "n_intervals=1",
            ]
        ) == 0
        assert len((out / "records.jsonl").read_text().strip().splitlines()) == 1

    def test_optional_logs(self, tmp_path, capsys):
        cfg = small_config(tmp_path, detection_log=True, event_trace=True, n_intervals=1)
        out = tmp_path / "logs"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        detections = (out / "detections.jsonl").read_text().strip().splitlines()
        assert detections
        entry = json.loads(detections[0])
        assert set(entry) == {
            "interval", "sfn", "slot", "occasion_index", "transmitted_signature",
            "detections", "noise_floor",
        }
        # One entry names a signature for each preamble the UE sent.
        sent = [e["transmitted_signature"] for e in map(json.loads, detections)]
        sent = [s for s in sent if s is not None]
        record = json.loads((out / "records.jsonl").read_text())
        assert len(sent) == record["preambles_sent"] >= 1
        assert all(len(s) == 2 for s in sent)
        events = (out / "events.jsonl").read_text().strip().splitlines()
        assert events
        assert set(json.loads(events[0])) == {
            "interval", "time_ms", "entity", "transition"
        }

    def test_logged_run_with_threads_matches_serial(self, tmp_path, capsys):
        # Each interval logs from its own stream, so workers give the same files.
        files = ("records.jsonl", "preambles.csv", "detections.jsonl", "events.jsonl")
        runs = {}
        for threads in ("1", "2"):
            out = tmp_path / threads
            argv = ["simulate", "--config", str(CONFIGS / "quick.json"), "--out", str(out),
                    "--threads", threads, "--set", "n_intervals=6",
                    "--set", "detection_log=true", "--set", "event_trace=true"]
            assert main(argv) == 0
            runs[threads] = [(out / f).read_bytes() for f in files]
        assert runs["1"] == runs["2"]
        assert len(runs["1"][2].splitlines()) == 6 * 450

    def test_event_trace_alone_writes_no_detections(self, tmp_path, capsys):
        outs = {}
        for sets in (["event_trace=true"], ["event_trace=true", "detection_log=true"]):
            out = outs[len(sets)] = tmp_path / str(len(sets))
            argv = ["simulate", "--config", str(CONFIGS / "quick.json"), "--out", str(out),
                    "--set", "n_intervals=2"]
            assert main(argv + [a for s in sets for a in ("--set", s)]) == 0
        assert not (outs[1] / "detections.jsonl").exists()
        assert (outs[1] / "events.jsonl").read_bytes() == (outs[2] / "events.jsonl").read_bytes()

    def test_detection_log_keys_unique_across_intervals(self, tmp_path, capsys):
        out = tmp_path / "quick"
        argv = ["simulate", "--config", str(CONFIGS / "quick.json"), "--out", str(out),
                "--set", "n_intervals=2", "--set", "detection_log=true",
                "--set", "event_trace=true"]
        assert main(argv) == 0
        lines = (out / "detections.jsonl").read_text().splitlines()
        keys = [
            (e["interval"], e["sfn"], e["occasion_index"]) for e in map(json.loads, lines)
        ]
        assert {k[0] for k in keys} == {0, 1}
        assert len(set(keys)) == len(keys)
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert {e["interval"] for e in events} == {0, 1}

    def test_detection_log_keys_unique_with_two_prach_slots(self, tmp_path, capsys):
        # Two PRACH slots per subframe share each (sfn, occasion_index):
        # only the slot tells their entries apart.
        prach, cell = PRESETS["index98_40mhz_desk"]
        doc = json.loads((CONFIGS / "quick.json").read_text())
        del doc["preset"]
        doc.update(
            n_intervals=1, detection_log=True,
            prach={**asdict(prach), "slots_per_subframe_with_prach": 2}, cell=asdict(cell),
        )
        path, out = tmp_path / "two_slots.json", tmp_path / "two_slots"
        path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        entries = [json.loads(line) for line in (out / "detections.jsonl").read_text().splitlines()]
        keys = [(e["interval"], e["sfn"], e["slot"], e["occasion_index"]) for e in entries]
        assert len({k[2] for k in keys}) == 2
        assert len(set(keys)) == len(keys)
        assert len({(i, sfn, k) for i, sfn, _, k in keys}) < len(keys)


class TestMetricsRoundTrip:
    def test_summary_reproduced_byte_for_byte(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        original = summary_without_timestamp(out / "summary.json")
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
        recomputed = summary_without_timestamp(out / "summary.json")
        assert original == recomputed

    def test_blank_lines_in_records_are_skipped(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        original = summary_without_timestamp(out / "summary.json")
        lines = (out / "records.jsonl").read_text().splitlines(keepends=True)
        (out / "records.jsonl").write_text("".join([lines[0], "\n", *lines[1:], "  \n"]))
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
        assert summary_without_timestamp(out / "summary.json") == original

    def test_missing_records_exit_one(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["metrics", "--config", str(cfg), "--out", str(tmp_path / "e")]) == 1
        assert "records" in capsys.readouterr().err

    def test_missing_records_leave_no_directory(self, tmp_path, capsys):
        out = tmp_path / "none"
        assert main(["metrics", "--config", str(CONFIGS / "quick.json"), "--out", str(out)]) == 1
        assert "records file not found" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_metrics_config_exit_one(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["metrics", "--config", str(cfg), "--set", "records=5"]) == 1
        assert "records must be a path string" in capsys.readouterr().err
        cfg.write_text("[1]")
        assert main(["metrics", "--config", str(cfg), "--set", "n_intervals=1"]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_metrics_on_synthesized_records(self, tmp_path, capsys):
        # A records file carrying a known series of tallies reproduces the
        # series' summary numbers.
        cfg = small_config(tmp_path, n_intervals=800)
        out = tmp_path / "synth"
        out.mkdir()
        lines = []
        idx = 0
        for _ in range(13):  # invalid
            lines.append(dict(index=idx, valid=False, preambles_sent=1,
                              preambles_detected=0, ra_succeeded=False,
                              time_to_success=None, seed=interval_seed(42, idx)))
            idx += 1
        for _ in range(33):  # successful
            lines.append(dict(index=idx, valid=True, preambles_sent=2,
                              preambles_detected=1, ra_succeeded=True,
                              time_to_success=1.0, seed=interval_seed(42, idx)))
            idx += 1
        remaining = 343_522 - 33
        n_unsucc = 800 - 13 - 33
        for i in range(n_unsucc):
            share = remaining // n_unsucc + (1 if i < remaining % n_unsucc else 0)
            lines.append(dict(index=idx, valid=True, preambles_sent=share,
                              preambles_detected=0, ra_succeeded=False,
                              time_to_success=None, seed=interval_seed(42, idx)))
            idx += 1
        with (out / "records.jsonl").open("w") as fh:
            for line in lines:
                fh.write(json.dumps(line) + "\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        metrics = summary["metrics"]
        assert metrics["n_e"] == 13
        assert metrics["n_ra_s"] == 33
        assert metrics["n_p_j"] == 343_522
        assert metrics["mean_preambles_per_interval"] == pytest.approx(436.54, abs=0.01)
        assert metrics["e_p_j_ppm"] == pytest.approx(96.05, abs=0.01)
        assert metrics["e_s"] == pytest.approx(0.04193, abs=1e-4)

    def rewrite_records(self, tmp_path, edit) -> tuple[Path, Path]:
        """Simulate the small config, then pass each record through ``edit``."""
        cfg = small_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        path = out / "records.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        lines = [json.dumps(edit(i, r)) for i, r in enumerate(records)]
        path.write_text("\n".join(lines) + "\n")
        return cfg, out

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("bogus", 1, "records.jsonl:2: unknown field 'bogus'"),
            ("ra_succeeded", "no", "records.jsonl:2: record.ra_succeeded must be a bool"),
            ("preambles_detected", 99, "records.jsonl:2: record.preambles_detected 99 is not in"),
            ("ra_succeeded", True, "records.jsonl:2: record.ra_succeeded True does not match"),
        ],
        ids=["bogus", "ra_succeeded", "detected_above_sent", "success_without_time"],
    )
    def test_bad_record_names_file_and_line(
        self, tmp_path, capsys, field, value, message
    ):
        cfg, out = self.rewrite_records(
            tmp_path, lambda i, r: {**r, field: value} if i == 1 else r
        )
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert message in err

    def test_detected_count_must_match_the_success(self, tmp_path, capsys):
        # simulate writes no such record: a UE connects at its first
        # preamble detected and sends no more.
        two_detected = {"preambles_sent": 3, "preambles_detected": 2, "ra_succeeded": True,
                        "time_to_success": 0.25}
        cfg, out = self.rewrite_records(
            tmp_path, lambda i, r: {**r, **two_detected} if i == 1 else r
        )
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 1
        message = "records.jsonl:2: record.preambles_detected 2 is not 1, with ra_succeeded True"
        assert message in capsys.readouterr().err

    def test_records_without_a_preamble_exit_one(self, tmp_path, capsys):
        # simulate writes no such record: it refuses a campaign whose UE
        # has no PRACH occasion.
        out = tmp_path / "run"
        out.mkdir()
        records = [
            dict(index=i, valid=True, preambles_sent=0, preambles_detected=0,
                 ra_succeeded=False, time_to_success=None, seed=interval_seed(7, i))
            for i in range(2)
        ]
        (out / "records.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        argv = ["metrics", "--config", str(CONFIGS / "quick.json"), "--out", str(out),
                "--set", "n_intervals=2", "--set", "base_seed=7"]
        assert main(argv) == 1
        assert "records.jsonl:1: record.preambles_sent 0 is below 1" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_repeated_interval_rejected(self, tmp_path, capsys):
        # Interval 0 three times is not a 3-interval campaign.
        cfg, out = self.rewrite_records(tmp_path, lambda i, r: {**r, "index": 0})
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 1
        assert "records.jsonl:2: interval index 0, expected 1" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", [2, 4])
    def test_record_count_must_match_the_config(self, tmp_path, capsys, keep):
        cfg, out = self.rewrite_records(tmp_path, lambda i, r: r)
        path = out / "records.jsonl"
        lines = path.read_text().splitlines()
        extra = {**json.loads(lines[-1]), "index": 3, "seed": interval_seed(42, 3)}
        lines = lines[:keep] if keep < 3 else lines + [json.dumps(extra)]
        path.write_text("\n".join(lines) + "\n")
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{keep} records, but the config has n_intervals 3" in err

    def test_foreign_seed_rejected(self, tmp_path, capsys):
        cfg, out = self.rewrite_records(
            tmp_path, lambda i, r: {**r, "seed": r["seed"] + 1} if i == 2 else r
        )
        assert main(["metrics", "--config", str(cfg), "--out", str(out)]) == 1
        assert "records.jsonl:3: seed" in capsys.readouterr().err


def explicit_quick(tmp_path) -> Path:
    """quick.json with its preset written out as prach and cell sections."""
    doc = json.loads((CONFIGS / "quick.json").read_text())
    prach, cell = PRESETS[doc.pop("preset")]
    doc.update(prach=asdict(prach), cell=asdict(cell))
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(doc))
    return path


CARRIER = ("prach.freq_offset + prach.freq_occasions * 12 = {} PRBs lie outside the "
           "carrier's cell.n_prb 12")
THRESHOLD = ("campaign: detector.threshold_factor {} overflows the detector's limit on 139 "
             "tap powers")


class TestCheckedAtLoad:
    """Rules between sections that every subcommand reading a config applies."""

    @pytest.mark.parametrize("command", ["simulate", "occupancy", "calibrate"])
    @pytest.mark.parametrize("overrides, message", [
        (["prach.freq_offset=30"], CARRIER.format(42)),
        (["prach.freq_occasions=50"], CARRIER.format(600)),
        (["prach.slot_in_subframe=3"], "prach.slot_in_subframe 3 does not exist at "
                                       "cell.numerology 1"),
        (["prach.preamble_length=139"], "unknown field 'preamble_length' in prach"),
        (["cell.sample_rate=7680000.0"], "unknown field 'sample_rate' in cell"),
        # The jammer's tap power overflows.
        (["spectrum.snr_db=-4000"],
         "campaign: spectrum.snr_db -4000 overflows the sum of 139 tap powers"),
        (["base_seed=-1"], "campaign: base_seed must be in [0, 2**64), got -1"),
        ([f"base_seed={2**64}"], f"campaign: base_seed must be in [0, 2**64), got {2**64}"),
        # Each level alone fits; the jammer's and the noise's together do not.
        (["spectrum.snr_db=-3030", "channel.noise_sigma=3e151"],
         "campaign: spectrum.snr_db -3030 overflows the sum of 139 tap powers"),
        # The detector's limit overflows: its factor alone, and a factor that
        # fits at the configured jammer but not at a strong one.
        (["detector.threshold_factor=1e307"], THRESHOLD.format("1e+307")),
        (["detector.threshold_factor=1e104", "spectrum.snr_db=-2000"],
         THRESHOLD.format("1e+104")),
    ])
    def test_exits_one(self, tmp_path, capsys, command, overrides, message):
        argv = [command, "--config", str(explicit_quick(tmp_path))]
        for override in overrides:
            argv += ["--set", override]
        if command == "simulate":
            argv += ["--out", str(tmp_path / "run")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not (tmp_path / "run").exists()


class TestFieldChecks:
    """Each remaining check of a config value or an override exits 1 with a
    message that names what is wrong."""

    @pytest.mark.parametrize("command, sets, message", [
        ("occupancy", ["prach.sfn_modulus=0"], "prach: sfn_modulus must be >= 1"),
        ("occupancy", ["prach.start_symbol=14"], "prach: start_symbol must be in [0, 14)"),
        ("occupancy", ["prach.start_symbol=-1"], "prach: start_symbol must be in [0, 14)"),
        ("occupancy", ["prach.occasions_per_slot=0"], "prach: occasions_per_slot must be >= 1"),
        ("occupancy", ["prach.freq_occasions=0"], "prach: freq_occasions must be >= 1"),
        ("occupancy", ["prach.freq_offset=-1"], "prach: freq_offset must be >= 0"),
        ("occupancy", ["prach.prach_subframes_per_frame=11"],
         "prach: prach_subframes_per_frame must fit before subframe_number"),
        ("occupancy", ["prach.subframe_number=10"], "prach: subframe_number must be in [0, 10)"),
        ("occupancy", ["prach.slot_in_subframe=-1"], "prach: slot_in_subframe must be >= 0"),
        ("occupancy", ["cell.n_prb=24"], "cell: dft_size must cover n_prb * 12 subcarriers"),
        ("occupancy", ["cell.numerology=3"], "cell: numerology must be 0..2, got 3"),
        ("occupancy", ["cell.numerology=-1"], "cell: numerology must be 0..2, got -1"),
        ("occupancy", ["channel.ue_delay_samples=-1"],
         "channel: ue_delay_samples must be >= 0"),
        ("occupancy", ["detector.threshold_factor=1"], "detector: threshold_factor must be > 1"),
        ("occupancy", ["detector.shift_step=0"], "detector: shift_step must be >= 1"),
        ("occupancy", ["invalid_probability=1.5"],
         "campaign: invalid_probability must be in [0, 1]"),
        ("occupancy", ["invalid_probability=-0.1"],
         "campaign: invalid_probability must be in [0, 1]"),
        ("occupancy", ["n_intervals"], "override 'n_intervals' is not of the form key=value"),
        ("occupancy", ["spectrum.kind.snr_db=1"],
         "override 'spectrum.kind.snr_db' traverses a non-object"),
        ("calibrate", ["absent"], "cannot read config: "),
        ("metrics", [], "records.jsonl:1: invalid JSON"),
    ], ids=["sfn_modulus", "start_symbol-high", "start_symbol-negative", "occasions_per_slot",
            "freq_occasions", "freq_offset", "prach_subframes_per_frame", "subframe_number",
            "slot_in_subframe", "n_prb", "numerology-high",
            "numerology-negative", "ue_delay_samples", "threshold_factor", "shift_step",
            "invalid_probability-high", "invalid_probability-negative", "set-without-equals",
            "set-through-a-string", "unreadable-config", "records-line-not-json"])
    def test_exits_one(self, tmp_path, capsys, command, sets, message):
        config = explicit_quick(tmp_path)
        if sets == ["absent"]:  # --config names a file that does not exist
            config, sets = tmp_path / "absent.json", []
        argv = [command, "--config", str(config)]
        if command == "metrics":
            out = tmp_path / "run"
            out.mkdir()
            (out / "records.jsonl").write_text("not json\n")
            argv += ["--out", str(out)]
        for override in sets:
            argv += ["--set", override]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert "Traceback" not in err

    def test_a_campaign_without_a_valid_interval_exits_two(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["simulate", "--config", str(CONFIGS / "quick.json"), "--out", str(out),
                "--set", "invalid_probability=1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: all intervals invalid; metrics are undefined\n"
        assert not out.exists()


class TestOptions:
    @pytest.mark.parametrize("argv", [
        ["zc", "--config", "c.json"],
        ["zc", "--out", "o"],
        ["occupancy", "--threads", "2"],
        ["occupancy", "--out", "o"],
        ["metrics", "--threads", "2"],
        ["calibrate", "--threads", "2"],
    ])
    def test_an_option_the_subcommand_does_not_read_is_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCalibrate:
    def test_prints_factor(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(
            ["calibrate", "--config", str(cfg), "--set", "target_far=0.01"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("threshold_factor ")
        factor = float(out.split()[1])
        assert 1.0 < factor < 20.0

    @pytest.mark.parametrize("far", ["0", "1", "2", "-1"])
    def test_target_far_out_of_range_exits_one(self, tmp_path, capsys, far):
        cfg = small_config(tmp_path)
        assert main(["calibrate", "--config", str(cfg), "--set", f"target_far={far}"]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: target_far must be in (0, 1), got {far}\n"

    @pytest.mark.parametrize("far", ["null", "[0.01]", "true", '"0.01"'])
    def test_target_far_not_a_number_exits_one(self, tmp_path, capsys, far):
        cfg = small_config(tmp_path)
        assert main(["calibrate", "--config", str(cfg), "--set", f"target_far={far}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: target_far must be a number, got ")


SHIPPED = [path.name for path in sorted(CONFIGS.glob("*.json"))]

# sha256 of records.jsonl of each shipped config run with n_intervals=2.
# The 60 s and 600 s configs share their seed and timing, and their UE is
# heard at its first preamble in both intervals (no jammer in reference_60s,
# -6 dB in the others), so their records are the same.
_DESIGN_RECORDS = "fbede4c6246917294664c2433fd13788aa319de973ad99edad51574dae22e1a1"
PINNED_RECORDS = {
    "quick.json": "0c4d99fb08b7c8e24603e6dd68b48343a9dd01de0b07bf9d4fab5de2bbdc4bd8",
    "reference_60s.json": _DESIGN_RECORDS,
    "s1_600s.json": _DESIGN_RECORDS,
    "s1_60s.json": _DESIGN_RECORDS,
    "s2_60s.json": _DESIGN_RECORDS,
}


class TestShippedConfigs:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_configs_parse(self, name):
        from prachjam.campaign import load_campaign_config

        doc = json.loads((CONFIGS / name).read_text())
        cfg = load_campaign_config(doc)
        assert cfg.n_intervals >= 1

    @pytest.mark.parametrize("name", SHIPPED)
    def test_configs_run(self, name, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["simulate", "--config", str(CONFIGS / name), "--out", str(out)]
        assert main(argv + ["--set", "n_intervals=2"]) == 0
        records = (out / "records.jsonl").read_bytes()
        assert len(records.splitlines()) == 2
        assert hashlib.sha256(records).hexdigest() == PINNED_RECORDS[name]

    def test_quick_config_runs(self, tmp_path, capsys):
        out = tmp_path / "quick"
        assert main(
            ["simulate", "--config", str(CONFIGS / "quick.json"), "--out", str(out)]
        ) == 0
        assert (out / "summary.json").exists()
