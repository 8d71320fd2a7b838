"""One workload process: set-up, warm-up, then closed-loop timed passes; prints one JSON line.

Started by run.py with BLAS and OpenMP pinned to one thread in its environment.
Not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WARMUP_PASSES = 2


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True, help="CLOCK_MONOTONIC when run.py spawned us")
    args = parser.parse_args()
    scratch = ROOT / "bench" / "work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        report = measure(workload, np.random.default_rng([args.seed, args.index]), args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(report))


def measure(workload, rng: np.random.Generator, args: argparse.Namespace) -> dict:
    problems: dict[str, str] = {}
    verdicts: list[str] = []

    def one_pass(tracer=None) -> float:
        inputs = workload.inputs(rng)
        gc.collect()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        results = workload.run(inputs)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        for case, verdict, result in zip(workload.cases, workload.check(inputs, results), results):
            verdicts.append(verdict)
            if verdict != workloads.OK:
                problems[case] = repr(result) if isinstance(result, workloads.Raised) else verdict
        return elapsed

    for _ in range(WARMUP_PASSES):
        one_pass()
    wrong_in_warmup = sum(v not in (workloads.OK, workloads.FAILED) for v in verdicts)
    verdicts.clear()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.started

    tracer = tracing.Tracer() if args.trace else None
    plain: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < deadline or (tracer is not None and not traced):
        # The traced run alternates untraced and traced passes, so host drift hits both alike.
        if tracer is not None and len(plain) > len(traced):
            traced.append(one_pass(tracer))
        else:
            plain.append(one_pass())
    report = {
        "setup_s": setup_s,
        "op_s": plain,
        "attempted": len(verdicts),
        "failed": verdicts.count(workloads.FAILED),
        "wrong": wrong_in_warmup + sum(v not in (workloads.OK, workloads.FAILED) for v in verdicts),
        "problems": problems,
    }
    if tracer is not None:
        report.update(traced_op_s=traced, covered_s=tracer.covered, stats=tracer.stats, counters=tracer.counters)
    return report


if __name__ == "__main__":
    main()
