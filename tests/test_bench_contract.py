"""The names the benchmark's tracer rebinds exist in tvalm, tracing a
denoise or a deblur changes none of its numbers and sees the H applications,
every benchmark instance passes through the correctness gate's
operators, every solver is odd-equivariant (the seed's sign flip of the data
relies on it), and the cases that pass its gate at seed 0 are exactly the ones
the benchmark's metrics were taken over.

``perfbench/tracer.py`` wraps functions and the Newton-system ``LinearMap``
by name, and ``perfbench/workloads.py`` builds its instances and gate from
``motion_kernel``, ``blur_map`` and ``h_map``; a rename, deletion or new
check in tvalm would otherwise surface only when the benchmark run fails.
"""

import sys
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import tvalm.alg2 as alg2
import tvalm.alm as alm
from tvalm.alm import AlmConfig
from tvalm.errors import SolverError
from tvalm.degrade import DegradeSpec, blocks_image, degrade
from tvalm.linops import blur_map, h_map, motion_kernel
from tvalm.metrics import err_total
from tvalm.report import strip_timing_columns

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import SYSTEMS, TRACED, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, gate, seeded_setup  # noqa: E402


def test_traced_names_resolve():
    for modname, funcs in TRACED.items():
        mod = import_module(modname)
        for func in funcs:
            assert callable(getattr(mod, func)), f"{modname}.{func}"
    for modname in SYSTEMS:
        assert callable(import_module(modname).LinearMap), f"{modname}.LinearMap"


def test_traced_run_matches_untraced():
    clean = blocks_image(8, 8, seed=3)
    z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
    cfg = AlmConfig(alpha=0.1, variant="aniso", inner="pt", outer_tol=1e-6)
    plain_state, plain = alm.alm_run(z, None, cfg, reference=clean)
    tracer = Tracer()
    with tracer.tracing():
        # Called through the module, as the benchmark does, so the root span
        # is the rebound alm_run.
        traced_state, traced = alm.alm_run(z, None, cfg, reference=clean)
    assert strip_timing_columns(traced.to_csv()) == strip_timing_columns(plain.to_csv())
    assert np.array_equal(traced_state.u, plain_state.u)
    metrics, _ = layer_metrics(tracer.spans)
    # Every CG iteration applies the Newton system once, through the traced
    # ssn.LinearMap, and so does each float32 solve's float64 check; an
    # operator built outside it would read 0 here.
    f32_solves = sum(rec.f32_solves for rec in traced.records)
    assert f32_solves > 0
    assert metrics["ssn.system.calls"] == metrics["linops.krylov.iters"] + f32_solves
    assert metrics["linops.krylov.iters"] > 0


@pytest.mark.parametrize("solver", ["pdp", "pt", "alg2"])
def test_traced_deblur_matches_untraced(solver):
    # The deblurring path through the data term: H must still be applied by
    # the traced linops.h_apply, which the benchmark counts.
    clean = blocks_image(8, 8, seed=3)
    kernel = motion_kernel(3)
    z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))

    def run():
        # Through the modules, as the benchmark calls them.
        if solver == "alg2":
            return alg2.alg2_run(z, blur_map(kernel), 0.005, 1e-6, "iso", 1e-5, 500000,
                                 reference=clean, check_every=10)
        cfg = AlmConfig(alpha=0.005, mu=1e-6, inner=solver, outer_tol=1e-5)
        return alm.alm_run(z, blur_map(kernel), cfg, reference=clean)

    plain_state, plain = run()
    tracer = Tracer()
    with tracer.tracing():
        traced_state, traced = run()
    assert strip_timing_columns(traced.to_csv()) == strip_timing_columns(plain.to_csv())
    assert np.array_equal(traced_state.u, plain_state.u)
    metrics, _ = layer_metrics(tracer.spans)
    assert metrics["linops.h_apply.calls"] > 0
    if solver != "alg2":
        assert metrics["ssn.system.calls"] == metrics["linops.krylov.iters"] > 0


@pytest.mark.parametrize("solver", ["pdp", "pdd", "pt", "alg2"])
@pytest.mark.parametrize("task", ["denoise", "deblur"])
def test_solvers_are_odd_equivariant(solver, task):
    # The benchmark's seed flips the sign of the data; that leaves every
    # solve's arithmetic unchanged only if negating z negates the iterates
    # bit for bit.
    clean = blocks_image(8, 8, seed=3)
    if task == "denoise":
        z = degrade(clean, DegradeSpec(noise_std=0.1, seed=7))
        K, alpha, mu, variant = None, 0.1, 0.0, "aniso"
    else:
        kernel = motion_kernel(3)
        z = degrade(clean, DegradeSpec(noise_std=0.01, blur=kernel, seed=21))
        K, alpha, mu, variant = blur_map(kernel), 0.005, 1e-6, "iso"
    states = []
    for sign in (1.0, -1.0):
        if solver == "alg2":
            state, _ = alg2.alg2_run(sign * z, K, alpha, mu, variant, 1e-5, 500000,
                                     reference=sign * clean, check_every=10)
        else:
            cfg = AlmConfig(alpha=alpha, variant=variant, mu=mu, inner=solver,
                            outer_tol=1e-5)
            state, _ = alm.alm_run(sign * z, K, cfg, reference=sign * clean)
        states.append(state)
    plus, minus = states
    assert np.array_equal(minus.u, -plus.u)
    assert np.array_equal(minus.lam, -plus.lam)


def test_gate_operators_build_for_every_workload():
    # Err as workloads.gate evaluates it, at u = z and lam = 0.
    for workload in WORKLOADS.values():
        inst, cases = seeded_setup(workload, 0)
        f = inst.z if inst.K is None else inst.K.apply_adjoint(inst.z)
        lam = np.zeros((2, *inst.z.shape))
        for case in cases:
            err = err_total(inst.z, lam, f, h_map(case.mu, inst.K), case.alpha, 1.0,
                            case.variant)
            assert np.isfinite(err), f"{workload.name}/{case.name}"


# The benchmark takes solve_s and psnr_db over the solved cases only, so a
# case that joins or leaves this set moves those metrics with no change in
# speed.  The two sets together pin it: every other case fails at seed 0,
# in the way named here (the gate's reason, or the SolverError's type), so a
# case that fails another way is seen too.
SOLVED_AT_SEED_0 = ("denoise-64/aniso-pdp", "denoise-64/aniso-pdd", "denoise-64/aniso-pt",
                    "deblur-32/pdp", "deblur-32/alg2", "denoise-128/pt")
FAILED_AT_SEED_0 = {
    "denoise-64/iso-pt": "multiplier outside the dual ball",
    "deblur-32/pt": "multiplier outside the dual ball",
    "denoise-128/pdp": "InnerNewtonError",
}


def run_case(name):
    """One seed-0 solve of a benchmark case: (workload, case, instance, state)."""
    workload_name, case_name = name.split("/")
    workload = WORKLOADS[workload_name]
    inst, cases = seeded_setup(workload, 0)
    (case,) = [c for c in cases if c.name == case_name]
    return workload, case, inst, case.run(inst)


def test_solved_and_failed_sets_cover_every_case():
    names = [f"{w.name}/{c.name}" for w in WORKLOADS.values() for c in w.cases]
    assert sorted(SOLVED_AT_SEED_0 + tuple(FAILED_AT_SEED_0)) == sorted(names)


@pytest.mark.slow
@pytest.mark.parametrize("name", SOLVED_AT_SEED_0)
def test_solved_case_passes_the_gate(name):
    _, miss = gate(*run_case(name))
    assert miss is None, f"{name}: {miss}"


@pytest.mark.slow
@pytest.mark.parametrize("name", FAILED_AT_SEED_0)
def test_failed_case_still_fails(name):
    try:
        solved = run_case(name)
    except SolverError as exc:
        failure = type(exc).__name__
    else:
        _, failure = gate(*solved)
        assert failure is not None, f"{name} now passes the gate"
    assert failure == FAILED_AT_SEED_0[name]
