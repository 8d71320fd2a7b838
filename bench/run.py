#!/usr/bin/env python3
"""Benchmark of abelianfft: one workload per invocation, every metric by name and unit.

    python3 bench/run.py --workload transform --seed 1 --seconds 28 --trace 0

The workload runs in PROCESSES fresh processes one after another (bench/worker.py),
each with BLAS and OpenMP pinned to one thread, and each measuring an equal share of
--seconds after its own set-up and warm-up.  The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from passes timed with the wrappers of bench/tracing.py, and the raw span totals go
to bench/results/trace-<workload>-seed<seed>.json.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("transform", "stabiliser", "circuit", "cli")
PROCESSES = 4
# Set-up and warm-up of one process take a few seconds; a stuck one is killed after this margin.
SETUP_MARGIN_S = 25.0

# Spans of tracing.py whose calls per operation are reported beside their self time.
CALL_COUNTS = ("groups.Subgroup", "groups.add_index", "dense.apply_dense", "simulator.QState",
               "period.stabilizer_bruteforce", "cli.main")


def run_worker(args: argparse.Namespace, index: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    share = args.seconds / PROCESSES
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--index", str(index), "--seconds", repr(share), "--trace", str(args.trace),
               "--started", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=share + SETUP_MARGIN_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker {index} exited with {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(reports: list[dict]) -> dict:
    # Every operation does the same work, so latency is one figure: the 90th percentile.
    # The host runs in a slow and a fast speed state for seconds at a time; the median and
    # the throughput land on whichever held longer, while the 90th percentile stays in the
    # slow state (bench/README.md, Steadiness).
    ops = [t for r in reports for t in r["op_s"]]
    p90 = statistics.quantiles(ops, n=10)[8] if len(ops) > 1 else ops[0]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in reports), "s"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }


def per_layer(reports: list[dict]) -> dict:
    passes = sum(len(r["traced_op_s"]) for r in reports)
    stats: dict[str, list] = {}
    for r in reports:
        for name, (calls, seconds) in r["stats"].items():
            total = stats.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
    out = {}
    for name, (calls, seconds) in sorted(stats.items()):
        if name != "groups.add_index":
            out[f"{name}_ms"] = (seconds * 1e3 / passes, "ms")
        if name in CALL_COUNTS:
            out[f"{name}_calls"] = (calls / passes, "count")
    out["simulator.gates_applied"] = ((stats["simulator.apply_1q"][0] + stats["simulator.apply_2q"][0]) / passes, "count")
    for name in reports[0]["counters"]:
        out[name] = (sum(r["counters"][name] for r in reports) / passes, "count")
    traced = [t for r in reports for t in r["traced_op_s"]]
    plain = [t for r in reports for t in r["op_s"]]
    covered = sum(r["covered_s"] for r in reports)
    out["unattributed_ms"] = ((sum(traced) - covered) * 1e3 / passes, "ms")
    out["trace_overhead_ms"] = ((statistics.median(traced) - statistics.median(plain)) * 1e3, "ms")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed wall time, split over the processes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "abelianfft" / "__init__.py").is_file() or not (ROOT / "schemas").is_dir():
        sys.stderr.write(f"error: no abelianfft source tree (src/abelianfft, schemas) under {ROOT}\n")
        return 2
    try:
        reports = [run_worker(args, index) for index in range(PROCESSES)]
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        sys.stderr.write(f"error: {error}\n")
        return 1
    metrics = per_layer(reports) if args.trace else end_to_end(reports)
    if args.trace:
        # Raw per-process span totals, for reading a layer's figures beyond the per-operation means.
        results = BENCH / "results"
        results.mkdir(exist_ok=True)
        raw = [{key: r[key] for key in ("stats", "counters", "covered_s", "traced_op_s", "op_s")} for r in reports]
        (results / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(raw, indent=1))
    problems = {case: text for r in reports for case, text in r["problems"].items()}
    for case, text in sorted(problems.items()):
        sys.stderr.write(f"{args.workload}: {case}: {text}\n")
    result = {
        "correct": all(r["wrong"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
