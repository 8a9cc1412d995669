"""A fixed reference computation that tracks how fast the box runs right now.

On a shared box the same pure-Python code runs 1.4 to 1.8 times slower
for seconds at a time, because of load the benchmark cannot see.  Timing this
reference next to every op, and scaling the op by NOMINAL_MS over the
reference's time, cancels most of that drift: the scaled time is the op's
wall time on a box where the reference takes NOMINAL_MS.  The reference
does the kind of work the program does (object allocation, sorting with a
key, float maths, formatting, scalar numpy calls) and calls nothing in
``mapbayes``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

#: the reference's time that scaled timings are expressed at
NOMINAL_MS = 6.0
#: reference samples, centred on an op, whose median scales it
WINDOW = 5


def _work() -> float:
    rows = []
    acc = 0.0
    for i in range(2500):
        x = (i * 0.618) % 1.0
        row = (x, math.sqrt(x + 1.0), {"k": i})
        rows.append(row)
        acc += row[1]
    rows.sort(key=lambda r: r[0])
    acc += len("".join(format(r[0], ".17g") for r in rows[:300]))
    records = [{"a": i, "b": (i, i + 1.0)} for i in range(4000)]
    records.sort(key=lambda d: -d["a"])
    acc += records[0]["b"][1]
    rng = np.random.default_rng(0)
    for _ in range(800):
        acc += rng.uniform(0.0, 1.0) * np.float64(1.5)
    xs = np.arange(2000.0)
    for _ in range(100):
        acc += float(np.searchsorted(xs, 777.5)) + float(xs[:100].sum())
    return acc


def reference_ns() -> int:
    """Wall time of one run of the reference computation, in ns.

    The cyclic garbage collector is off meanwhile: a full collection scans
    every object the program holds, which would tie the reference's time to
    the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        _work()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def scaled_ms(samples: list[tuple[int, int]]) -> list[float]:
    """Op times in ms at reference speed, from (op_ns, reference_ns) pairs in run order."""
    refs = [r for _, r in samples]
    half = WINDOW // 2
    return [op * NOMINAL_MS / statistics.median(refs[max(0, i - half):i + half + 1])
            for i, (op, _) in enumerate(samples)]
