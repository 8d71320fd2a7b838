#!/usr/bin/env python3
"""This hardware's speed ceiling for the transform workload: numpy.fft.ifftn on each of its cases.

    python3 bench/ceiling.py

numpy's ifftn with norm="ortho" computes the same transform as abelianfft (see
reference.transform).  Prints the median time of each case and of the whole
case list, next to which the transform workload's op_p90_ms can be read.
"""
from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from workloads import Transform  # noqa: E402

REPEATS = 2000


def main() -> None:
    rng = np.random.default_rng(0)
    shapes = list(Transform.TOWER_SHAPES) + [(1 << Transform.RADIX2_BITS,), (2,) * Transform.WALSH_BITS]
    total = 0.0
    for case, shape in zip(Transform(None).cases, shapes):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            np.fft.ifftn(x, norm="ortho")
            times.append(time.perf_counter() - start)
        median = statistics.median(times)
        total += median
        print(f"{case:16s} {median * 1e6:9.1f} us")
    print(f"{'whole case list':16s} {total * 1e6:9.1f} us")


if __name__ == "__main__":
    main()
