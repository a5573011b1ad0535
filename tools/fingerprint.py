"""Fingerprint the solves of the benchmark cases, to check that a change
leaves their arithmetic bit for bit as it was.

Usage, from the root of a tvalm checkout:

    python3 tools/fingerprint.py [ROOT]
    python3 tools/fingerprint.py --against OTHER [ROOT]

ROOT (default: the checkout holding this script) is the checkout whose
``src`` and ``perfbench`` are run, so one copy of the script fingerprints two
trees.  For every case of every ``perfbench`` workload, in the instance and
order of seed 0 (``workloads.seeded_setup``), and for the solves no workload
runs, it prints one line: the SHA-256 of the returned image u, of the
multiplier lam and of the report's CSV without its timing columns
(``report.strip_timing_columns``), or the ``SolverError`` the solve raised.
Two trees agree on a case when its lines are equal.  The solves outside the
benchmark are ALM-PDD's (iso on the denoise scene at 24x24, Err 1e-7, and at
32x32 and 64x64, Err 1e-6; aniso at 32x32 with mu 0.01; iso and aniso on the
8x8 motion-3 deblur of the deblur scene, mu 1e-6) and ALG2's denoising (iso
and aniso on the denoise scene at 32x32, Err 1e-6).

With ``--against OTHER`` it fingerprints OTHER and ROOT, each in a
subprocess of its own, one after the other, and compares them: it prints
the two lines of each case that differs (or that only one tree has) and
exits with status 1 if any does; otherwise it prints how many cases agree
and exits with 0.
"""

import argparse
import os
import subprocess
import sys

# Single-threaded, as the benchmark and the tests run: a threaded BLAS may
# sum in another order.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve()
ARGS = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
ARGS.add_argument("root", nargs="?", type=Path, default=HERE.parent.parent,
                  help="the checkout to run (default: the one holding this script)")
ARGS.add_argument("--against", type=Path, metavar="OTHER",
                  help="compare with the fingerprints of checkout OTHER")
OPTS = ARGS.parse_args()
sys.path[:0] = [str(OPTS.root / "src"), str(OPTS.root / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tvalm.degrade import DegradeSpec, blocks_image, degrade  # noqa: E402
from tvalm.errors import SolverError  # noqa: E402
from tvalm.linops import blur_map, motion_kernel  # noqa: E402
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


def denoise_instance(n: int):
    clean = blocks_image(n, n, seed=3)
    z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
    return workloads.Instance(z, clean, None)


def deblur_instance(n: int, length: int):
    clean = blocks_image(n, n, seed=3)
    kernel = motion_kernel(length)
    z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
    return workloads.Instance(z, clean, blur_map(kernel))


def extra_cases():
    """(name, case, instance) of the solves outside the benchmark."""
    for n, tol in ISO_PDD:
        yield (f"denoise-{n}/iso-pdd@{tol:g}",
               workloads.Case("iso-pdd", "pdd", "iso", alpha=0.1, mu=0.0, tol=tol),
               denoise_instance(n))
    yield ("denoise-32/aniso-pdd-mu0.01",
           workloads.Case("aniso-pdd", "pdd", "aniso", alpha=0.1, mu=0.01, tol=1e-6),
           denoise_instance(32))
    for variant in ("iso", "aniso"):
        yield (f"deblur-8-motion3/{variant}-pdd",
               workloads.Case(f"{variant}-pdd", "pdd", variant, alpha=0.005, mu=1e-6, tol=1e-5),
               deblur_instance(8, 3))
    for variant in ("iso", "aniso"):
        yield (f"denoise-32/{variant}-alg2",
               workloads.Case(f"{variant}-alg2", "alg2", variant, alpha=0.1, mu=0.0, tol=1e-6),
               denoise_instance(32))


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


def fingerprints(root: Path) -> dict[str, str]:
    """The lines this script prints for ``root``, run in a subprocess, by
    case name."""
    out = subprocess.run([sys.executable, str(HERE), str(root)], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return {line.split("  ", 1)[0]: line for line in out.splitlines()}


def compare(other: Path, root: Path) -> int:
    """Print the cases whose lines differ between two checkouts; the exit
    status, 1 if any does."""
    before, after = fingerprints(other), fingerprints(root)
    differ = [name for name in {**before, **after} if before.get(name) != after.get(name)]
    for name in differ:
        print(f"- {before.get(name, name + '  (missing)')}")
        print(f"+ {after.get(name, name + '  (missing)')}")
    if differ:
        print(f"{len(differ)} of {len(before.keys() | after.keys())} cases differ")
        return 1
    print(f"all {len(after)} cases identical")
    return 0


def main() -> int:
    if OPTS.against is not None:
        return compare(OPTS.against, OPTS.root)
    reports: list = []
    capture_reports(reports)
    for wl in workloads.WORKLOADS.values():
        inst, cases = workloads.seeded_setup(wl, 0)
        for case in cases:
            fingerprint(f"{wl.name}/{case.name}", case, inst, reports)
    for name, case, inst in extra_cases():
        fingerprint(name, case, inst, reports)
    return 0


if __name__ == "__main__":
    sys.exit(main())
