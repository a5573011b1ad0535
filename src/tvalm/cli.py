"""Command-line entry point: denoise, deblur, and benchmark commands.

Every run is reproducible from (input image, flags, seed) at a fixed BLAS
thread count (see ``report``); restored images are written as 8-bit PGM next
to a JSON run report and a per-iteration CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .alm import DEFAULT_GROWTH, AlmConfig, alm_run
from .alg2 import alg2_run
from .bench import cells_to_csv, cells_to_markdown, run_matrix
from .degrade import DegradeSpec, blocks_image, degrade
from .errors import SolverError
from .linops import LinearMap, blur_map, motion_kernel
from .pgm import load_image, save_image
from .report import RunReport, _strict

SOLVERS = ("pdp", "pdd", "pt", "alg2")
ALG2_MAX_ITERS = 500000
ALG2_CHECK_EVERY = 10


def run_solver(z: np.ndarray, K: Optional[LinearMap], solver: str, cfg: AlmConfig,
               reference: Optional[np.ndarray], seed: Optional[int]):
    """Dispatch one restoration run; returns (OuterState, RunReport).

    An ALM solver runs ``cfg`` with ``solver`` as its inner method, and with
    that method's growth factor unless ``cfg`` sets one; ALG2 reads only
    alpha, mu, variant and outer_tol from it.
    """
    if solver == "alg2":
        return alg2_run(z, K, cfg.alpha, cfg.mu, cfg.variant, cfg.outer_tol,
                        ALG2_MAX_ITERS, reference=reference, seed=seed,
                        check_every=ALG2_CHECK_EVERY)
    return alm_run(z, K, replace(cfg, inner=solver), reference=reference, seed=seed)


def _config(args: argparse.Namespace, **fields) -> AlmConfig:
    """The solver settings given by a command's flags, plus ``fields``."""
    return AlmConfig(alpha=args.alpha, sigma0=args.sigma0, growth_c=args.growth,
                     sigma_max=args.sigma_max, delta_inner=args.delta,
                     max_outer=args.max_outer, **fields)


def _final_row(report: RunReport) -> str:
    s = report.summary
    return (f"{report.method}  n={s['iterations']}  t={s['total_wall_ms'] / 1e3:.2f}s  "
            f"res(u)={s['res_u']:.3e}  res(lambda)={s['res_lambda']:.3e}  "
            f"Res1={s['res1']:.3e}  Res2={s['res2']:.3e}  Gap={s['gap']:.3e}  "
            f"PSNR={s['psnr']:.2f}  Err={s['err']:.3e}")


def _write_artifacts(u: np.ndarray, report: RunReport, out: str, report_path: str) -> None:
    save_image(out, u)
    rp = Path(report_path)
    rp.write_text(report.to_json())
    rp.with_suffix(".csv").write_text(report.to_csv())


def _failure(exc: Exception) -> int:
    """Print a failed run as one strict JSON line; exit code 2."""
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("err", "method", "residual", "iterations", "sigma", "outer"):
        if hasattr(exc, attr):
            payload[attr] = getattr(exc, attr)
    print(json.dumps(_strict(payload), sort_keys=True, allow_nan=False))
    return 2


def cmd_restore(args: argparse.Namespace) -> int:
    """Degrade the input (a motion blur of ``--blur-len``, if the command
    has one, then noise) and restore it."""
    try:
        clean = load_image(args.input)
        cfg = _config(args, variant=args.tv, outer_tol=args.tol, mu=args.mu)
        kernel = None if args.blur_len is None else motion_kernel(args.blur_len)
        z = degrade(clean, DegradeSpec(noise_std=args.noise, blur=kernel, seed=args.seed))
        K = None if kernel is None else blur_map(kernel)
    except (OSError, ValueError) as exc:
        return _failure(exc)
    try:
        state, report = run_solver(z, K, args.solver, cfg, clean, args.seed)
    except (SolverError, ValueError) as exc:
        return _failure(exc)
    _write_artifacts(state.u, report, args.out, args.report)
    print(_final_row(report))
    return 0


def _load_corpus(path: str) -> list[tuple[str, np.ndarray]]:
    """(name, image) for every PGM in the directory ``path``, by name; at
    least one."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"corpus directory not found: {path}")
    files = sorted(root.glob("*.pgm"))
    if not files:
        raise FileNotFoundError(f"no PGM images found in {path}")
    return [(p.stem, load_image(p)) for p in files]


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        images = _load_corpus(args.corpus)
    except (OSError, ValueError) as exc:
        return _failure(exc)
    solvers = args.solvers.split(",")
    variants = args.variants.split(",")
    # Every value is checked before the first cell runs: AlmConfig checks
    # each variant and tolerance as its cell's config is built.
    try:
        cfg = _config(args)
        spec = DegradeSpec(noise_std=args.noise, seed=args.seed)
        tols = [float(t) for t in args.tols.split(",")]
        for solver in solvers:
            if solver not in SOLVERS:
                raise ValueError(f"unknown solver {solver!r}; expected one of "
                                 f"{', '.join(SOLVERS)}")
        configs = {(variant, tol): replace(cfg, variant=variant, outer_tol=tol)
                   for variant in variants for tol in tols}
    except ValueError as exc:
        return _failure(exc)

    def runner(z, clean, solver, variant, tol):
        _, report = run_solver(z, None, solver, configs[variant, tol], clean, args.seed)
        return report

    cells = run_matrix(images, solvers, variants, tols, spec, runner)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "bench.csv").write_text(cells_to_csv(cells))
    (out_dir / "bench.md").write_text(cells_to_markdown(cells))
    print(cells_to_markdown(cells))
    failed = sum(1 for c in cells if c.error)
    print(f"{len(cells)} cells, {failed} failed; tables in {out_dir}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    save_image(args.output, blocks_image(args.rows, args.cols, seed=args.seed))
    return 0


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    """Flags of every solving command."""
    sub.add_argument("--alpha", type=float, default=0.1, help="TV weight")
    sub.add_argument("--sigma0", type=float, default=4.0)
    sub.add_argument("--growth", type=float, default=None,
                     help="penalty growth factor (default: the inner solver's; " +
                          ", ".join(f"{k} {v:g}" for k, v in DEFAULT_GROWTH.items()) + ")")
    sub.add_argument("--sigma-max", dest="sigma_max", type=float, default=1e6)
    sub.add_argument("--delta", type=float, default=1e-4,
                     help="inner stop constant (residual <= delta/sigma)")
    sub.add_argument("--max-outer", dest="max_outer", type=int, default=30)
    sub.add_argument("--seed", type=int, default=0)


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    """Flags of a single restoration run; bench sets these per cell."""
    sub.add_argument("--tv", choices=("iso", "aniso"), default="iso")
    sub.add_argument("--solver", choices=SOLVERS, default="pdp")
    sub.add_argument("--tol", type=float, default=1e-6, help="target Err")
    sub.add_argument("--out", default="restored.pgm")
    sub.add_argument("--report", default="report.json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvalm",
        description="TV-regularized image restoration with semismooth-Newton ALM")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("denoise", help="seeded noise, then ROF denoising")
    p.add_argument("input", help="clean 8-bit PGM image")
    _add_solver_flags(p)
    _add_run_flags(p)
    p.add_argument("--noise", type=float, default=0.1,
                   help="Gaussian noise std on the [0,1] scale")
    p.set_defaults(func=cmd_restore, mu=0.0, blur_len=None)

    p = subs.add_parser("deblur", help="seeded motion blur + noise, then deblurring")
    p.add_argument("input", help="clean 8-bit PGM image")
    _add_solver_flags(p)
    _add_run_flags(p)
    p.add_argument("--noise", type=float, default=0.01)
    p.add_argument("--mu", type=float, default=1e-6,
                   help="gradient penalty making the data term elliptic")
    p.add_argument("--blur-len", dest="blur_len", type=int, default=41,
                   help="odd horizontal motion-blur length")
    p.set_defaults(func=cmd_restore)

    # No prefix matching: --tol, --solver and --out would otherwise be taken
    # as --tols, --solvers and --out-dir.
    p = subs.add_parser("bench", help="solver x variant x tolerance matrix",
                        allow_abbrev=False)
    p.add_argument("corpus", help="directory of PGM images")
    _add_solver_flags(p)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--solvers", default="pdp,pt,alg2")
    p.add_argument("--variants", default="aniso")
    p.add_argument("--tols", default="1e-4,1e-6")
    p.add_argument("--out-dir", dest="out_dir", default="bench_out")
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("synth", help="write a synthetic piecewise test image")
    p.add_argument("output")
    p.add_argument("--rows", type=int, default=64)
    p.add_argument("--cols", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
