"""Fingerprint the solves of the benchmark cases, to check that a change
leaves their arithmetic bit for bit as it was.

Usage, from the root of a tvalm checkout:

    python3 tools/fingerprint.py [ROOT]

ROOT (default: the checkout holding this script) is the checkout whose
``src`` and ``perfbench`` are run, so one copy of the script fingerprints two
trees.  For every case of every ``perfbench`` workload, in the instance and
order of seed 0 (``workloads.seeded_setup``), and for iso ALM-PDD on the
denoise scene at 24x24 (Err 1e-7), 32x32 and 64x64 (Err 1e-6), which no
workload runs, it prints one line: the SHA-256 of the returned image u, of
the multiplier lam and of the report's CSV without its timing columns
(``report.strip_timing_columns``), or the ``SolverError`` the solve raised.
Two trees agree on a case when its lines are equal.
"""

import os
import sys

# Single-threaded, as the benchmark and the tests run: a threaded BLAS may
# sum in another order.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tvalm.degrade import DegradeSpec  # noqa: E402
from tvalm.errors import SolverError  # noqa: E402
from tvalm.report import strip_timing_columns  # noqa: E402

# Iso ALM-PDD denoise cases outside the benchmark: (size, Err).
ISO_PDD = ((24, 1e-7), (32, 1e-6), (64, 1e-6))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def capture_reports(reports: list) -> None:
    """Record the report of every run ``Case.run`` makes; it returns only the
    state, and calls the runs through their modules."""
    for module, name in ((workloads.alm, "alm_run"), (workloads.alg2, "alg2_run")):
        def run(*args, _real=getattr(module, name), **kwargs):
            state, report = _real(*args, **kwargs)
            reports.append(report)
            return state, report
        setattr(module, name, run)


def fingerprint(name: str, case, inst, reports: list) -> None:
    try:
        state = case.run(inst)
    except SolverError as e:
        print(f"{name}  {type(e).__name__}: {e}", flush=True)
        return
    csv = strip_timing_columns(reports[-1].to_csv()).encode()
    print(f"{name}  u {sha(np.ascontiguousarray(state.u).tobytes())}"
          f"  lam {sha(np.ascontiguousarray(state.lam).tobytes())}  csv {sha(csv)}",
          flush=True)


def main() -> None:
    reports: list = []
    capture_reports(reports)
    for wl in workloads.WORKLOADS.values():
        inst, cases = workloads.seeded_setup(wl, 0)
        for case in cases:
            fingerprint(f"{wl.name}/{case.name}", case, inst, reports)
    for n, tol in ISO_PDD:
        clean = workloads.degrade.blocks_image(n, n, seed=3)
        z = workloads.degrade.degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        case = workloads.Case("iso-pdd", "pdd", "iso", alpha=0.1, mu=0.0, tol=tol)
        fingerprint(f"denoise-{n}/iso-pdd@{tol:g}", case, workloads.Instance(z, clean, None),
                    reports)


if __name__ == "__main__":
    main()
