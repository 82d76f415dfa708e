"""Benchmark of the served prediction path (see README.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload peer_select --seed 1 \\
        --seconds 10 --trace 0

Launches ``repro serve`` from the checkout's ``src``, drives it over
HTTP, checks every reply and prints, as the last line of standard
output, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``).  Progress and
failure details go to standard error.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a shell starts background jobs with SIGINT ignored, and ignored
    # signals survive exec: without this the servers would inherit
    # that and could not be stopped the way an operator stops them
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}: run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if args.trace:
        import layers

        metrics, tally, detail = layers.run_traced(
            workload, args.seed, args.seconds
        )
    else:
        metrics, tally, detail = workloads.run_timed(
            workload, args.seed, args.seconds
        )
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      **detail}), file=sys.stderr)
    for message in tally.messages:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
