"""Benchmark harness: solver x variant x tolerance matrices over a PGM corpus,
emitted as CSV and Markdown tables with the standard column set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .degrade import DegradeSpec, degrade
from .errors import SolverError
from .report import RunReport

MD_COLUMNS = ("image", "variant", "solver", "n(t)", "res(u)", "res(lambda)",
              "Res1", "Res2", "Gap", "PSNR", "Err")


@dataclass
class BenchCell:
    image: str
    variant: str
    solver: str
    tol: float
    n: int = 0
    wall_s: float = 0.0
    res_u: float = float("nan")
    res_lambda: float = float("nan")
    res1: float = float("nan")
    res2: float = float("nan")
    gap: float = float("nan")
    psnr: float = float("nan")
    err: float = float("nan")
    error: Optional[str] = None


def _run_cell(name: str, clean: np.ndarray, solver: str, variant: str, tol: float,
              noise_std: float, seed: int, runner) -> BenchCell:
    cell = BenchCell(image=name, variant=variant, solver=solver, tol=tol)
    z = degrade(clean, DegradeSpec(noise_std=noise_std, seed=seed))
    try:
        report: RunReport = runner(z, clean, solver, variant, tol)
        final = report.records[-1]
        cell.n = len(report.records)
        cell.wall_s = report.summary["total_wall_ms"] / 1e3
        cell.res_u = final.res_u
        cell.res_lambda = final.res_lambda
        cell.res1 = final.res1
        cell.res2 = final.res2
        cell.gap = final.gap
        cell.psnr = final.psnr
        cell.err = final.err
    except SolverError as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
    return cell


def run_matrix(images: Sequence[tuple[str, np.ndarray]], solvers: Sequence[str],
               variants: Sequence[str], tols: Sequence[float], noise_std: float,
               seed: int, runner) -> list[BenchCell]:
    """Evaluate every (image, variant, solver, tolerance) cell.

    ``runner(z, clean, solver, variant, tol) -> RunReport`` does one solve.
    Failures are recorded in the cell and the sweep continues.
    """
    return [
        _run_cell(name, clean, solver, variant, tol, noise_std, seed, runner)
        for name, clean in images
        for variant in variants
        for solver in solvers
        for tol in tols
    ]


def _num(v: float) -> str:
    return format(v, ".3e")


def cells_to_csv(cells: Sequence[BenchCell]) -> str:
    lines = ["image,variant,solver,tol,n,wall_s,res_u,res_lambda,res1,res2,gap,psnr,err,error"]
    for c in cells:
        lines.append(",".join([
            c.image, c.variant, c.solver, format(c.tol, ".17g"), str(c.n),
            format(c.wall_s, ".3f"), _num(c.res_u), _num(c.res_lambda),
            _num(c.res1), _num(c.res2), _num(c.gap), format(c.psnr, ".2f"),
            _num(c.err), c.error or "",
        ]))
    return "\n".join(lines) + "\n"


def cells_to_markdown(cells: Sequence[BenchCell]) -> str:
    lines = ["| " + " | ".join(MD_COLUMNS) + " |",
             "|" + "---|" * len(MD_COLUMNS)]
    for c in cells:
        if c.error:
            row = [c.image, c.variant, c.solver, "failed", c.error, "", "", "", "",
                   "", _num(c.tol)]
        else:
            row = [c.image, c.variant, c.solver, f"{c.n}({c.wall_s:.2f}s)",
                   _num(c.res_u), _num(c.res_lambda), _num(c.res1), _num(c.res2),
                   _num(c.gap), f"{c.psnr:.2f}", _num(c.tol)]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"
