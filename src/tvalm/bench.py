"""Benchmark harness: solver x variant x tolerance matrices over a PGM corpus,
emitted as CSV and Markdown tables with the standard column set and each
cell's penalty growth factor."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .degrade import DegradeSpec, degrade
from .errors import SolverError
from .report import SUMMARY_FIELDS, RunReport

MD_COLUMNS = ("image", "variant", "solver", "growth", "n(t)", "res(u)", "res(lambda)",
              "Res1", "Res2", "Gap", "PSNR", "Err")
# The summary of a cell without a run.
_NO_RUN = {"iterations": 0, "total_wall_ms": 0.0,
          **dict.fromkeys(SUMMARY_FIELDS, float("nan"))}


@dataclass
class BenchCell:
    """One solve of the matrix: its run report, or the error that ended it
    with the unconverged report the error carried, if any."""

    image: str
    variant: str
    solver: str
    tol: float
    report: Optional[RunReport] = None
    error: Optional[str] = None

    @property
    def summary(self) -> dict:
        """The report's summary; zero iterations and NaN residuals for a
        failed cell."""
        return _NO_RUN if self.report is None or self.error else self.report.summary

    @property
    def growth(self) -> str:
        """The penalty growth factor the cell ran, from its report's config;
        empty without one (ALG2, or a failure that carried no report)."""
        growth = None if self.report is None else self.report.config.get("growth_c")
        return "" if growth is None else format(growth, ".17g")


def _run_cell(name: str, z: np.ndarray, clean: np.ndarray, solver: str, variant: str,
              tol: float, runner) -> BenchCell:
    cell = BenchCell(image=name, variant=variant, solver=solver, tol=tol)
    try:
        cell.report = runner(z, clean, solver, variant, tol)
    except SolverError as exc:
        cell.error = f"{type(exc).__name__}: {exc}"
        cell.report = getattr(exc, "report", None)
    return cell


def run_matrix(images: Sequence[tuple[str, np.ndarray]], solvers: Sequence[str],
               variants: Sequence[str], tols: Sequence[float], spec: DegradeSpec,
               runner) -> list[BenchCell]:
    """Evaluate every (image, variant, solver, tolerance) cell.

    Each image is degraded once, by ``spec``.  ``runner(z, clean, solver,
    variant, tol) -> RunReport`` does one solve.  Failures are recorded in the
    cell and the sweep continues.
    """
    cells = []
    for name, clean in images:
        z = degrade(clean, spec)
        cells.extend(_run_cell(name, z, clean, solver, variant, tol, runner)
                     for variant in variants for solver in solvers for tol in tols)
    return cells


def _num(v: float) -> str:
    return format(v, ".3e")


def cells_to_csv(cells: Sequence[BenchCell]) -> str:
    lines = ["image,variant,solver,tol,growth,n,wall_s,res_u,res_lambda,res1,res2,gap,psnr,"
             "err,error"]
    for c in cells:
        s = c.summary
        lines.append(",".join([
            c.image, c.variant, c.solver, format(c.tol, ".17g"), c.growth, str(s["iterations"]),
            format(s["total_wall_ms"] / 1e3, ".3f"), _num(s["res_u"]),
            _num(s["res_lambda"]), _num(s["res1"]), _num(s["res2"]), _num(s["gap"]),
            format(s["psnr"], ".2f"), _num(s["err"]), c.error or "",
        ]))
    return "\n".join(lines) + "\n"


def cells_to_markdown(cells: Sequence[BenchCell]) -> str:
    lines = ["| " + " | ".join(MD_COLUMNS) + " |",
             "|" + "---|" * len(MD_COLUMNS)]
    for c in cells:
        if c.error:
            row = [c.image, c.variant, c.solver, c.growth, "failed", c.error, "", "", "",
                   "", "", ""]
        else:
            s = c.summary
            n_t = f"{s['iterations']}({s['total_wall_ms'] / 1e3:.2f}s)"
            row = [c.image, c.variant, c.solver, c.growth, n_t, _num(s["res_u"]),
                   _num(s["res_lambda"]), _num(s["res1"]), _num(s["res2"]),
                   _num(s["gap"]), f"{s['psnr']:.2f}", _num(s["err"])]
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"
