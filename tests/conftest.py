"""Run the suite single-threaded, as the benchmark runs its solves.

Every BLAS/OpenMP pool is pinned to one thread before numpy loads (as
``perfbench/run.py`` does), so a test sees the arithmetic the benchmark
sees on any host: a threaded BLAS may sum a dot product or a matmul in
another order, and a solve near a decision (a tight re-solve, a stall
acceptance) can then go another way.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
