"""Time one set-up in a fresh interpreter: ``import tvalm`` plus building the
workload's inputs.  Prints the seconds taken.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports tvalm and numpy)

workloads.seeded_setup(workloads.WORKLOADS[sys.argv[1]], int(sys.argv[2]))
print(time.perf_counter() - t0)
