"""Set-up probe: time `import mapbayes` and building one workload's inputs.

    python3 perfbench/probe_setup.py WORKLOAD SEED

Runs in a fresh interpreter, started by run.py, and prints one JSON line
with ``import_s`` and ``build_s``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import mapbayes  # noqa: E402

T1 = time.perf_counter()

if Path(mapbayes.__file__).resolve().parent != SRC / "mapbayes":
    sys.exit(f"error: imported mapbayes from {mapbayes.__file__}, not from {SRC}")

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), BENCH / "scratch")
T2 = time.perf_counter()
print(json.dumps({"import_s": T1 - T0, "build_s": T2 - T1}))
