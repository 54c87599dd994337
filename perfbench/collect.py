#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/collect.py --seeds 10 --seconds 20 [--out perfbench/BASELINE.json]

For every workload in BENCHMARK.json, runs ``run.py --trace 0`` once per
seed, one run at a time, and prints each end-to-end metric's median,
quartiles and spread: the distance between the quartiles as a share of
the median. A spread below a third of the metric's bound is "ok", a
wider one "WIDE" and makes the exit status 1. ``setup_s`` is "exempt":
the benchmark's contract gates only the shift of its median between two
sets of runs, not its spread, so it is printed but not gated. With
--trace-runs N it also makes N traced runs per workload. With --out it
writes every value and summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    facts = json.loads(next(line for line in lines if line.startswith("facts "))[6:])
    return {"seed": seed, "wall_s": wall, "facts": facts, **json.loads(lines[-1])}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report: dict = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [run_once(workload, s, args.seconds, 0) for s in seeds]
        traced = [run_once(workload, s, args.seconds, 1)
                  for s in seeds[: args.trace_runs]]
        summary = {}
        print(f"{workload}: {len(runs)} runs, longest {max(r['wall_s'] for r in runs):.1f} s,"
              f" all correct: {all(r['correct'] and r['failed'] == 0 for r in runs + traced)}")
        for name, bound in bounds.items():
            s = summarise([r["metrics"][name]["value"] for r in runs])
            exempt = name == "setup_s"
            steady = s["spread"] < bound / 3
            ok &= exempt or steady
            summary[name] = {**s, "unit": runs[0]["metrics"][name]["unit"], "bound": bound}
            print(f"  {name:14} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bound}  {'exempt' if exempt else 'ok' if steady else 'WIDE'}")
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs + traced)
        report["workloads"][workload] = {"summary": summary, "runs": runs, "traced": traced}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
