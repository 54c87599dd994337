"""Command-line front end.

Subcommands: ``zc`` (sequence/correlation CSV), ``occupancy`` (resource
occupancy decomposition), ``simulate`` (run a campaign), ``metrics``
(recompute a summary from records.jsonl), ``calibrate`` (detector
threshold). Exit status: 0 success, 1 configuration error, 2 runtime
error.
"""
from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .campaign import (
    build_summary_payload,
    check_record,
    compute_metrics,
    load_campaign_config,
    record_from_dict,
    record_to_dict,
    run_campaign,
)
from .detector import calibrate_threshold
from .errors import ConfigError, SimulationError, check_number
from .prach import load_record, occupancy_factors
from .zc import cyclic_shift, generate_zc, periodic_xcorr


_OPTIONS = {
    "config": dict(type=Path, help="campaign JSON document"),
    "out": dict(type=Path, default=Path("."), help="output directory"),
    "set": dict(dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                help="override a config value (dotted keys); repeatable"),
    "threads": dict(type=int, default=1,
                    help="parallel interval workers (0 = every CPU this process may run on)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prachjam",
        description="Link-level simulator of smart jamming against the 5G NR PRACH",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, options, helptext in [
        ("zc", "set", "print a Zadoff-Chu sequence or correlation profile as CSV"),
        ("occupancy", "config set", "print the PRACH resource-occupancy decomposition"),
        ("simulate", "config out set threads",
         "run a campaign and write records.jsonl + summary.json"),
        ("metrics", "config out set", "recompute summary.json from an existing records.jsonl"),
        # calibrate writes nothing, but perfbench/run.py's replay passes --out.
        ("calibrate", "config out set", "calibrate the detector threshold factor"),
    ]:
        p = sub.add_parser(name, help=helptext)
        for option in options.split():
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def _parse_overrides(pairs: list[str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override '{pair}' is not of the form key=value")
        key, raw = pair.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        out[key.strip()] = value
    return out


def _apply_overrides(doc: dict[str, Any], overrides: dict[str, Any]) -> None:
    for dotted, value in overrides.items():
        node = doc
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override '{dotted}' traverses a non-object")
        node[parts[-1]] = value


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read is a config error."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        reason = exc.strerror
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    raise ConfigError(f"cannot read {what}: {path}: {reason}")


def _load_config_doc(args, overrides: dict[str, Any]) -> dict[str, Any]:
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    text = _read_text(args.config, "config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{args.config}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{args.config}: the config must be a JSON object")
    _apply_overrides(doc, overrides)
    return doc


def _csv_rows(values) -> str:
    lines = ["index,re,im,magnitude"]
    for i, v in enumerate(values):
        lines.append(f"{i},{v.real:.12g},{v.imag:.12g},{abs(v):.12g}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ZcRequest:
    """The ``--set`` parameters of ``prachjam zc``."""

    root: int = 1
    length: int = 139
    shift: int = 0
    xcorr_root: int | None = None
    normalize: bool = True

    def __post_init__(self) -> None:
        n = self.length
        if n % 2 == 0 or n < 3:
            raise ConfigError(f"length must be odd and >= 3, got {n}")
        for name, root in (("root", self.root), ("xcorr_root", self.xcorr_root)):
            if root is not None and not (1 <= root < n and math.gcd(root, n) == 1):
                raise ConfigError(f"{name} must be in [1, {n}) and coprime with {n}, got {root}")
        if not 0 <= self.shift < n:
            raise ConfigError(f"shift must be in [0, {n}), got {self.shift}")


def _cmd_zc(args) -> int:
    req = load_record(ZcRequest, _parse_overrides(args.overrides), "zc")
    seq = generate_zc(req.root, req.length)
    if req.shift:
        seq = cyclic_shift(seq, req.shift)
    if req.xcorr_root is not None:
        other = generate_zc(req.xcorr_root, req.length)
        sys.stdout.write(_csv_rows(periodic_xcorr(seq, other, normalize=req.normalize)))
    else:
        sys.stdout.write(_csv_rows(seq.samples))
    return 0


def _cmd_occupancy(args) -> int:
    cfg = load_campaign_config(_load_config_doc(args, _parse_overrides(args.overrides)))
    factors = occupancy_factors(cfg.prach, cfg.cell)
    print(f"period_factor       {factors['period']:.10g}")
    print(f"temporal_occupation {factors['temporal']:.10g}")
    print(f"bandwidth_occupation {factors['bandwidth']:.10g}")
    print(f"occupancy_ratio     {factors['ratio']:.6g} ({factors['ratio'] * 100:.4f} %)")
    return 0


def _write_summary(out: Path, payload: dict[str, Any]) -> None:
    payload = dict(payload)
    payload["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    (out / "summary.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )


def _write_jsonl(path: Path, entries) -> None:
    with path.open("w") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _cmd_simulate(args) -> int:
    cfg = load_campaign_config(_load_config_doc(args, _parse_overrides(args.overrides)))
    records, logs = run_campaign(cfg, threads=args.threads)
    metrics = compute_metrics(records)
    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "records.jsonl", map(record_to_dict, records))
    _write_summary(out, build_summary_payload(cfg, metrics))
    with (out / "preambles.csv").open("w") as fh:
        fh.write("interval,preambles_sent,preambles_detected,ra_succeeded\n")
        for r in records:
            fh.write(
                f"{r.index},{r.preambles_sent},{r.preambles_detected},"
                f"{int(r.ra_succeeded)}\n"
            )
    if cfg.detection_log:
        _write_jsonl(out / "detections.jsonl", logs.detections)
    if cfg.event_trace:
        _write_jsonl(out / "events.jsonl", logs.events)
    print(f"{len(records)} intervals -> {out / 'records.jsonl'}")
    return 0


def _cmd_metrics(args) -> int:
    doc = _load_config_doc(args, _parse_overrides(args.overrides))
    records_path = doc.pop("records", None)
    if records_path is not None and type(records_path) is not str:
        raise ConfigError(f"records must be a path string, got {records_path!r}")
    cfg = load_campaign_config(doc)
    out = args.out
    path = Path(records_path) if records_path else out / "records.jsonl"
    records = []
    for line_no, line in enumerate(_read_text(path, "records").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            records.append(check_record(cfg, len(records), record_from_dict(json.loads(line))))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from exc
        except ConfigError as exc:
            raise ConfigError(f"{path}:{line_no}: {exc}") from exc
    if len(records) != cfg.n_intervals:
        raise ConfigError(f"{path}: {len(records)} records, but the config has "
                          f"n_intervals {cfg.n_intervals}")
    metrics = compute_metrics(records)
    out.mkdir(parents=True, exist_ok=True)
    _write_summary(out, build_summary_payload(cfg, metrics))
    print(f"{len(records)} records -> {out / 'summary.json'}")
    return 0


def _cmd_calibrate(args) -> int:
    params = _parse_overrides(args.overrides)
    target_far = params.pop("target_far", 1e-3)
    check_number("target_far", target_far)
    cfg = load_campaign_config(_load_config_doc(args, params))
    if not 0 < target_far < 1:
        raise ConfigError(f"target_far must be in (0, 1), got {target_far!r}")
    trials = int(max(20_000, np.ceil(10 / target_far)))
    rng = np.random.default_rng(cfg.base_seed)
    factor = calibrate_threshold(target_far, trials, cfg.detector, rng)
    print(f"threshold_factor {factor:.6g} (target_far {target_far:g}, {trials} trials)")
    return 0


_COMMANDS = {
    "zc": _cmd_zc,
    "occupancy": _cmd_occupancy,
    "simulate": _cmd_simulate,
    "metrics": _cmd_metrics,
    "calibrate": _cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
