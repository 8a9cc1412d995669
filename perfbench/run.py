"""Run one workload of the mapbayes benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports ``mapbayes`` from
``src/``.  The loop is closed, in one process and one thread: it runs the
workload's seeded instance list in whole passes, the first of them an
untimed warm-up, and checks every op's output outside the timed region.
It stops after the first pass that ends with ``--seconds`` elapsed and at
least MIN_TIMED_OPS ops timed.

Op times are scaled to reference speed (reference.py): each is its wall
time times NOMINAL_MS over the time of a fixed reference computation
measured next to it, which cancels most of the box's drift.  Set-up time
is plain wall time, the median over SETUP_PROBES fresh interpreters.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes for the same time and prints the per-layer
metrics, the tracing overhead, and writes the spans to perfbench/out/.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import reference_ns, scaled_ms

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SCRATCH = BENCH / "scratch"

#: fresh interpreters started per run to time the set-up; the median is reported
SETUP_PROBES = 5
#: enough ops that at least ten lie beyond the 90th percentile
MIN_TIMED_OPS = 100


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["escape_ladder", "posterior_report", "grid2d"])
    p.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="minimum wall time of the timed passes (default 20)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up probes
# ---------------------------------------------------------------------------


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules in a -X importtime log."""
    total_us = 0
    stack: list[tuple[int, str]] = []
    # the log lists a module after its children; reversed, parents come first
    for line in reversed(importtime_log.splitlines()):
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        depth = len(parts[2]) - len(parts[2].lstrip())
        name = parts[2].strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name.split(".")[0] == "scipy"
        if is_scipy and not any(n.split(".")[0] == "scipy" for _, n in stack):
            total_us += int(parts[1])
        stack.append((depth, name))
    return total_us / 1e6


def probe_setup(workload: str, seed: int, importtime: bool) -> dict:
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "probe_setup.py"), workload, str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        result["scipy_s"] = scipy_import_s(proc.stderr)
    return result


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs passes over the ordered instances and keeps the op accounting."""

    def __init__(self, workload, order):
        self.wl = workload
        self.order = order
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.artifact_bytes = 0

    def one_pass(self, run, timed: bool = True) -> list[tuple[int, int]]:
        """Runs every instance once; returns (op_ns, reference_ns) per timed op."""
        samples = []
        for inst in self.order:
            self.wl.prepare(inst)
            ref = reference_ns()
            t0 = time.perf_counter_ns()
            try:
                result, error = run(inst), None
            except Exception as exc:  # noqa: BLE001 - an op failure is counted, not fatal
                result, error = None, exc
            t1 = time.perf_counter_ns()
            problems = [f"raised {error!r}"] if error else self.wl.check(inst, result)
            self.artifact_bytes += getattr(self.wl, "artifact_bytes", 0)
            if problems and not inst.known_fault:
                self.unexpected.append(f"{inst.label}: {problems[0]}")
            if timed:
                samples.append((t1 - t0, ref))
                self.attempted += 1
                self.failed += bool(problems)
        return samples


def end_to_end(loop: Loop, samples: list[tuple[int, int]], setups: list[dict]) -> dict:
    ms = scaled_ms(samples)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": (statistics.median(s["import_s"] + s["build_s"] for s in setups), "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
    }
    if sum(t > p90 for t in ms) >= 10:
        metrics["op_ms_p90"] = (p90, "ms")
    metrics["ops_per_s"] = ((loop.attempted - loop.failed) / (sum(ms) / 1e3), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def traced(loop: Loop, seconds: float, setups: list[dict], workload: str) -> dict:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    untraced, traced_samples = [], []
    traced_bytes = 0
    start = time.perf_counter()
    while True:
        untraced += loop.one_pass(loop.wl.run)
        tracer.install(likelihood_classes=(workloads.Gaussian1D, workloads.Gaussian2D))
        try:
            bytes_before = loop.artifact_bytes
            traced_samples += loop.one_pass(tracer.spanned("op", loop.wl.run))
            traced_bytes += loop.artifact_bytes - bytes_before
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            break
    table = tracing.SpanTable(tracer)
    metrics = {
        "import.mapbayes_s": (statistics.median(s["import_s"] for s in setups), "s"),
        "import.scipy_s": (statistics.median(s["scipy_s"] for s in setups), "s"),
        "inputs.build_s": (statistics.median(s["build_s"] for s in setups), "s"),
    }
    metrics.update(tracing.per_layer_metrics(table, len(traced_samples), traced_bytes))
    metrics["trace.overhead"] = (statistics.median(scaled_ms(traced_samples))
                                 / statistics.median(scaled_ms(untraced)), "ratio")
    tracer.write(OUT / f"spans-{workload}.npz")
    return metrics


def class_summary(loop: Loop, samples: list[tuple[int, int]]) -> str:
    """Median op time of each size class, scaled and raw, fastest class first."""
    by_class: dict[str, list[tuple[float, float]]] = {}
    for i, ms in enumerate(scaled_ms(samples)):
        inst = loop.order[i % len(loop.order)]
        by_class.setdefault(inst.size_class, []).append((ms, samples[i][0] / 1e6))
    rows = sorted(by_class.items(), key=lambda kv: statistics.median(m for m, _ in kv[1]))
    return "  ".join(f"{c}: n={len(v)} p50={statistics.median(m for m, _ in v):.1f}ms "
                     f"(raw {statistics.median(r for _, r in v):.1f})" for c, v in rows)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mapbayes" / "__init__.py").is_file():
        print(f"error: no mapbayes package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    setups = [probe_setup(args.workload, args.seed, bool(args.trace))
              for _ in range(SETUP_PROBES)]

    sys.path.insert(0, str(SRC))
    import mapbayes
    import workloads

    if Path(mapbayes.__file__).resolve().parent != SRC / "mapbayes":
        print(f"error: imported mapbayes from {mapbayes.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed, SCRATCH)
    order = list(wl.instances)
    random.Random(args.seed).shuffle(order)
    loop = Loop(wl, order)
    loop.one_pass(wl.run, timed=False)

    if args.trace:
        metrics = traced(loop, args.seconds, setups, args.workload)
    else:
        samples: list[tuple[int, int]] = []
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(samples) < MIN_TIMED_OPS:
            samples += loop.one_pass(wl.run)
        print(class_summary(loop, samples), file=sys.stderr)
        metrics = end_to_end(loop, samples, setups)

    for line in loop.unexpected[:5]:
        print(f"unexpected failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not loop.unexpected,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
