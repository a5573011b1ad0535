"""Benchmark workloads: fixed restoration instances, their solver cases, and
the correctness gate applied to every solve.

Each workload is built from the acceptance-test instances of the source
paper's reproduction.  The seed never redraws the noise: the time to reach a
tolerance is chaotic in the noise realization (a different draw can turn a
converging solve into an ``InnerNewtonError`` or the other way round, and
change a solve's time by 2x), so a redrawn instance would measure a different
workload on every seed.  The seed instead picks the order in which the cases
run and the sign of the data.  The solvers are odd-equivariant (negating z and
the clean image negates every iterate exactly, bit for bit), so both choices
leave the arithmetic of every solve unchanged.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from tvalm.alm import AlmConfig
from tvalm.degrade import DegradeSpec
from tvalm.linops import LinearMap, h_map
from tvalm.metrics import err_total, lambda_feasible

# Traced functions are called through their modules, so that a tracer's
# rebinding is seen.  (``tvalm.degrade`` is shadowed by the function of that
# name in the package namespace, hence import_module.)
alg2 = import_module("tvalm.alg2")
alm = import_module("tvalm.alm")
degrade = import_module("tvalm.degrade")
linops = import_module("tvalm.linops")

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# The `tvalm` CLI's ALG2 settings.
ALG2_MAX_ITERS = 500000
ALG2_CHECK_EVERY = 10


@dataclass(frozen=True)
class Instance:
    """One degraded image: observed data z, the clean image, and K (None = I)."""

    z: np.ndarray
    clean: np.ndarray
    K: Optional[LinearMap]


@dataclass(frozen=True)
class Case:
    """One solve of a workload: a solver on an instance at a tolerance."""

    name: str
    solver: str  # "pdp", "pdd", "pt" (ALM inner solver) or "alg2"
    variant: str
    alpha: float
    mu: float
    tol: float

    def run(self, inst: Instance):
        """One solve; returns the final OuterState."""
        if self.solver == "alg2":
            state, _ = alg2.alg2_run(
                inst.z, inst.K, self.alpha, self.mu, self.variant, self.tol,
                ALG2_MAX_ITERS, reference=inst.clean, check_every=ALG2_CHECK_EVERY)
        else:
            cfg = AlmConfig(alpha=self.alpha, variant=self.variant, mu=self.mu,
                            inner=self.solver, outer_tol=self.tol)
            state, _ = alm.alm_run(inst.z, inst.K, cfg, reference=inst.clean)
        return state


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[float], Instance]
    cases: tuple[Case, ...]


def _denoise(n: int) -> Callable[[float], Instance]:
    def build(sign: float) -> Instance:
        clean = degrade.blocks_image(n, n, seed=3)
        z = degrade.degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        return Instance(sign * z, sign * clean, None)
    return build


def _deblur32(sign: float) -> Instance:
    clean = degrade.blocks_image(32, 32, seed=3)
    kernel = linops.motion_kernel(9)
    z = degrade.degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
    return Instance(sign * z, sign * clean, linops.blur_map(kernel))


def _den(name, solver, variant):
    return Case(name, solver, variant, alpha=0.1, mu=0.0, tol=1e-6)


def _deb(name, solver):
    return Case(name, solver, "iso", alpha=0.005, mu=1e-6, tol=1e-5)


WORKLOADS = {w.name: w for w in (
    # Criterion-6 instance (64x64 blocks scene 3, noise 0.1, noise seed 7).
    Workload("denoise-64", _denoise(64), (
        _den("aniso-pdp", "pdp", "aniso"), _den("aniso-pdd", "pdd", "aniso"),
        _den("aniso-pt", "pt", "aniso"), _den("iso-pt", "pt", "iso"))),
    # Criterion-8 setting at 32x32 (motion blur 9, noise 0.01, noise seed 21).
    # ALM-PDD is left out: one 16x16 solve did not finish in 5 minutes (a
    # nested CG at hinv_tol 1e-12 inside every BiCGSTAB iteration).
    Workload("deblur-32", _deblur32, (
        _deb("pdp", "pdp"), _deb("pt", "pt"), _deb("alg2", "alg2"))),
    # CLI-default aniso denoise on the criterion-6 scene at 128x128.
    Workload("denoise-128", _denoise(128), (
        _den("pt", "pt", "aniso"), _den("pdp", "pdp", "aniso"))),
)}


def seeded_setup(workload: Workload, seed: int) -> tuple[Instance, list[Case]]:
    """The workload's instance and case order for ``seed``."""
    rng = random.Random(seed)
    cases = list(workload.cases)
    rng.shuffle(cases)
    sign = -1.0 if rng.random() < 0.5 else 1.0
    return workload.build(sign), cases


def psnr_db(u: np.ndarray, clean: np.ndarray) -> float:
    """PSNR against a unit-peak reference, computed here rather than by tvalm."""
    return float(10.0 * np.log10(1.0 / np.mean((u - clean) ** 2)))


def gate(workload: Workload, case: Case, inst: Instance,
         state) -> tuple[float, Optional[str]]:
    """Correctness gate for one converged solve: returns the PSNR and why the
    solve missed the gate (None when it passed).

    Err is recomputed from the returned iterate, the multiplier must be
    feasible, and the PSNR must lie within the stored band of the reference.
    """
    f = inst.z if inst.K is None else inst.K.apply_adjoint(inst.z)
    err = err_total(state.u, state.lam, f, h_map(case.mu, inst.K), case.alpha, 1.0,
                    case.variant)
    got = psnr_db(state.u, inst.clean)
    if not err <= case.tol:
        return got, f"Err {err:.3e} above tolerance {case.tol:.0e}"
    if not lambda_feasible(state.lam, case.alpha, case.variant):
        return got, "multiplier outside the dual ball"
    ref = REFERENCE["psnr_db"][f"{workload.name}/{case.name}"]
    band = REFERENCE["psnr_band_db"]
    if not abs(got - ref) <= band:
        return got, f"PSNR {got:.4f} dB outside {ref:.4f} +/- {band} dB"
    return got, None
