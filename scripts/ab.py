#!/usr/bin/env python3
"""Benchmark a change against its parent revision, pair by pair.

Run from the root of a checkout:

    python3 scripts/ab.py PARENT_REV --out BENCH_name.json [--change REV]
        [--pairs 10] [--seconds 35] [--seed 1000] [--cpu 1] [--in-process 8]

Both trees are exported with ``git archive``: PARENT_REV, and ``--change``
(by default the working tree's tracked and staged files, through ``git stash
create``, or HEAD when nothing is changed). For each workload of the change's
BENCHMARK.json, ``--pairs`` pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

run one at a time, each in its own tree, the parent first on odd pairs and the
change first on even ones; pair i of workload k uses seed ``seed + pairs * k +
i`` on both sides. The last JSON line of each run gives its metrics. For every
end-to-end metric the file records both sides' medians and quartiles (linear
interpolation), the pairs the change wins and whether the change stays within
the metric's bound; for each workload, the operations each side attempted and
failed (perfbench's output checks). The gain rule is applied as code: a metric
gains when the change wins at least nine pairs in ten and its median is better
than the parent's by more than the parent's interquartile range.
``--in-process N`` adds N alternating rounds of ``scripts/in_process.py`` (the
change's copy, run in each tree). Every run made is listed in the output.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """The tree of ``rev`` written to ``into`` by ``git archive``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as fh:
        fh.extractall(into, filter="data")
    return into


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, by linear interpolation."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pinned(cpu: int | None):
    return None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))


def run_perfbench(tree: Path, workload: str, seed: int, seconds: float, cpu: int | None):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          timeout=20 * seconds + 300, preexec_fn=pinned(cpu))
    lines = done.stdout.splitlines()
    run = {"returncode": done.returncode}
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {**run, "correct": False, "stderr": done.stderr[-2000:]}
    run.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"])
    run.update({name: metric["value"] for name, metric in last["metrics"].items()})
    facts = [line for line in lines if line.startswith("facts ")]
    if facts:
        run["wall_ops_per_s"] = json.loads(facts[-1][len("facts "):]).get("wall_ops_per_s")
    return run


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' medians and quartiles and the pairs the change wins."""
    sign = 1 if better == "higher" else -1
    (p1, p2, p3), (c1, c2, c3) = quartiles(parent), quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    return {
        "parent_median": round(p2, 4), "parent_quartiles": [round(p1, 4), round(p3, 4)],
        "change_median": round(c2, 4), "change_quartiles": [round(c1, 4), round(c3, 4)],
        "change_over_parent": round(c2 / p2, 4) if p2 else None,
        "change_wins": f"{wins}/{len(parent)}", "parent_iqr": round(p3 - p1, 4),
        "gain": wins >= math.ceil(0.9 * len(parent)) and sign * (c2 - p2) > p3 - p1,
    }


def summarize(runs: list[dict], metrics: dict) -> dict:
    """One workload's end-to-end comparison from its runs. A run that ends
    without metrics voids it; a run whose operations fail perfbench's output
    checks still counts, and its failures are reported per side."""
    if not all(r["returncode"] == 0 and "ops_per_s" in r for r in runs):
        return {"error": "a run ended without metrics; see runs"}
    sides = {s: sorted((r for r in runs if r["side"] == s), key=lambda r: r["seed"])
             for s in ("parent", "change")}
    summary = {}
    for name, metric in [*metrics.items(), ("wall_ops_per_s", {"better": "higher"})]:
        values = {s: [r.get(name) for r in sides[s]] for s in sides}
        if None in values["parent"] + values["change"]:
            continue
        summary[name] = compare(values["parent"], values["change"], metric["better"])
        if "bound" in metric:  # a worse median by at most the bound
            ratio = summary[name]["change_over_parent"] or 1.0
            worse = ratio - 1 if metric["better"] == "lower" else 1 - ratio
            summary[name]["within_bound"] = worse <= metric["bound"]
    for key in ("failed", "attempted"):
        summary[key] = {s: sum(r[key] for r in sides[s]) for s in sides}
    return summary


def in_process(trees: dict[str, Path], rounds: int, cpu: int | None) -> dict:
    """Alternating rounds of the change's ``scripts/in_process.py`` in each tree."""
    probe, rows = trees["change"] / "scripts" / "in_process.py", []
    for r in range(rounds):
        for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
            done = subprocess.run([sys.executable, str(probe), str(trees[side])], check=True,
                                  capture_output=True, text=True, preexec_fn=pinned(cpu))
            rows.append({"round": r + 1, "side": side, **json.loads(done.stdout)})
    out = {}
    for name in rows[0].keys() - {"round", "side"}:
        side = {s: [row[name] for row in rows if row["side"] == s] for s in trees}
        wins = sum(c < p for p, c in zip(side["parent"], side["change"]))
        out[name] = {"parent_median": round(statistics.median(side["parent"]), 2),
                     "change_median": round(statistics.median(side["change"]), 2),
                     "parent_range": [min(side["parent"]), max(side["parent"])],
                     "change_range": [min(side["change"]), max(side["change"])],
                     "change_wins": f"{wins}/{rounds}"}
    return {**dict(sorted(out.items())), "rounds": rows}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the parent revision")
    parser.add_argument("--change", help="the changed revision (default: the working tree)")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=1000, help="the first pair's seed")
    parser.add_argument("--workloads", help="comma-separated (default: BENCHMARK.json's)")
    parser.add_argument("--cpu", type=int, help="pin every run to this CPU")
    parser.add_argument("--in-process", type=int, default=0, metavar="ROUNDS")
    parser.add_argument("--what", default="", help="what the change does")
    parser.add_argument("--workdir", type=Path, help="where the trees go (default: a temp dir)")
    args = parser.parse_args(argv)
    revs = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change) if args.change else
            (git("stash", "create") or git("rev-parse", "HEAD"))}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        trees = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in bench["workloads"]])
        metrics = {m["name"]: m for m in bench["end_to_end"]}
        runs, end_to_end = [], {}
        for k, workload in enumerate(workloads):
            for i in range(args.pairs):
                seed = args.seed + args.pairs * k + i
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    run = run_perfbench(trees[side], workload, seed, args.seconds, args.cpu)
                    runs.append({"workload": workload, "seed": seed, "side": side, **run})
                    print(json.dumps(runs[-1]), file=sys.stderr, flush=True)
            end_to_end[workload] = summarize(
                [r for r in runs if r["workload"] == workload], metrics)
        result = {
            "what": args.what,
            "parent": revs["parent"],
            "machine": f"{os.cpu_count()}-core {platform.machine()}, Python "
                       f"{platform.python_version()}, numpy {importlib.metadata.version('numpy')}",
            "method": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                      f"--trace 0, {args.pairs} pairs per workload, one run at a time, each "
                      f"side from its own git archive; the parent first on odd pairs (1st, "
                      f"3rd, ...); seeds from {args.seed}"
                      + (f"; every run pinned to CPU {args.cpu}" if args.cpu is not None else "")
                      + "; gain: the change wins at least 9 pairs in 10 and its median beats "
                      "the parent's by more than the parent's interquartile range",
            "end_to_end": end_to_end,
        }
        if args.in_process:
            result["in_process"] = in_process(trees, args.in_process, args.cpu)
        result["runs"] = runs
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
