#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code must agree.

    python3 perfbench/steady.py --workload NAME [--first-seed 1]

Runs ``perfbench/run.py`` ``RUNS`` times in each of two sets, each run with
its own seed, and prints for every end-to-end metric of ``BENCHMARK.json``
the median and quartiles of each set and their spread (interquartile
distance over the median).  The sets agree when every spread is within the
metric's bound, the second median differs from the first, in either
direction, by no more than the bound, and the share of failed operations is
the same in both sets.  Exits 0 when they agree, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
SETS = 2
RUNS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``first``, as a share of ``first``."""
    change = (other - first) / first
    return change if better == "lower" else -change


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["end_to_end"]
    sets = []
    for k in range(SETS):
        results = []
        for i in range(RUNS):
            seed = args.first_seed + k * RUNS + i
            res = run_once(args.workload, seed, bench["run_seconds"])
            results.append(res)
            values = "  ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.5g}" for m in specs)
            print(f"set {k + 1} seed {seed}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']}  {values}", flush=True)
        sets.append(results)

    agree = True
    summary = {"workload": args.workload, "runs": RUNS, "metrics": {}, "failed_share": []}
    print(f"\n{args.workload}: {SETS} sets x {RUNS} runs")
    for spec in specs:
        name, bound = spec["name"], spec["bound"]
        rows = []
        for results in sets:
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
            rows.append({"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med})
        for k, row in enumerate(rows):
            spread_ok = row["spread"] <= bound
            drift = worse_by(rows[0]["median"], row["median"], spec["better"])
            drift_ok = abs(drift) <= bound
            agree &= spread_ok and drift_ok
            print(f"  {name:14s} set {k + 1}: median {row['median']:.6g} {spec['unit']}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.4f}  "
                  f"worse than set 1 by {drift:+.4f}  bound {bound}  "
                  f"{'ok' if spread_ok and drift_ok else 'OUT OF BOUND'}")
        summary["metrics"][name] = rows
    for results in sets:
        share = Fraction(sum(r["failed"] for r in results), sum(r["attempted"] for r in results))
        summary["failed_share"].append(str(share))
    same_share = len(set(summary["failed_share"])) == 1
    correct = all(r["correct"] for results in sets for r in results)
    agree &= same_share and correct
    print(f"  failed share per set: {summary['failed_share']} ({'same' if same_share else 'DIFFERENT'})")
    print(f"  every run correct: {correct}")
    print(f"  verdict: {'AGREE' if agree else 'DISAGREE'}")
    summary["agree"] = agree
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.workload}.json").write_text(json.dumps(summary, indent=1))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
