"""Steadiness report: how much each end-to-end metric moves between runs.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] \\
        [--seconds N] [--first-seed 1]

Runs ``perfbench/run.py`` ``--runs`` times per workload, each with its
own seed, and prints per metric the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread — the
interquartile distance as a share of the median — and that spread as a
share of the metric's bound in ``BENCHMARK.json``.  A ratio below 1/3
is steady; at or above 1 the metric cannot be judged by its bound.  It
also prints the share of failed operations of every run, which must be
identical across runs.
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


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["detail"] = next(
        (json.loads(line) for line in done.stderr.splitlines()
         if line.startswith('{"workload"')), {})
    return result


def report(workload: str, results: list, bounds: dict) -> None:
    print(f"\n== {workload}: {len(results)} runs")
    shares = {f"{r['failed']}/{r['attempted']}" for r in results}
    print(f"failed/attempted: {sorted(shares)}"
          + ("" if len({r['failed'] / r['attempted'] for r in results}) == 1
             else "   <-- NOT IDENTICAL"))
    print(f"correct: {[r['correct'] for r in results]}")
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6} {'ratio':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, mid, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{name:<18} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.4f} {bound:>6.3g} {spread / bound:>6.3f}")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for workload in args.workload or [w["name"] for w in config["workloads"]]:
        results = []
        started = time.monotonic()
        for offset in range(args.runs):
            results.append(run_once(workload, args.first_seed + offset,
                                    args.seconds))
        print(f"[{workload}: {time.monotonic() - started:.0f} s]")
        for result in results:
            print(json.dumps({k: round(v["value"], 4)
                              for k, v in result["metrics"].items()}))
            print("   ", json.dumps(result["detail"]))
        report(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
