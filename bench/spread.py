#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics: the steadiness figures of bench/README.md.

    python3 bench/spread.py [--first-seed 11] [--tag B]

Runs bench/run.py once per seed (SEEDS seeds from --first-seed) on each workload,
one run at a time, for BENCHMARK.json's run_seconds, and prints for every metric the
median, the quartiles and (Q3 - Q1) / median, with the failed share of the runs.
Raw values go to bench/results/spread-<tag>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--tag", default="latest")
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                                  capture_output=True, text=True, check=True)
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        raw[workload] = runs
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in runs})
        exact = len({r["failed"] / r["attempted"] for r in runs}) == 1
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed share {'exact' if exact else 'VARIES'}"
              f" ({shares[0]}{', ...' if len(shares) > 1 else ''})")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {med:10.4f}  Q1 {q1:10.4f}  Q3 {q3:10.4f}"
                  f"  spread {(q3 - q1) / med:6.3f}  bound {bound}")
        sys.stdout.flush()
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.tag}.json").write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
