"""Run reports: per-iteration CSV rows and the JSON run summary.

A report plus the seed fully determines a reproduction; timing columns are
wall-clock and are the only fields excluded from determinism comparisons.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Optional

from .metrics import MetricRecord

CSV_HEADER = ("k,res_u,res_lambda,err,res1,res2,gap,psnr,wall_ms,"
              "inner_newton,avg_krylov,lambda_feasible")
TIMING_COLUMNS = ("wall_ms",)


@dataclass
class RunReport:
    method: str
    config: dict[str, Any]
    records: list[MetricRecord]
    summary: dict[str, Any]
    seed: Optional[int] = None

    def to_json(self) -> str:
        payload = {
            "method": self.method,
            "config": self.config,
            "seed": self.seed,
            "summary": self.summary,
            "records": [dataclasses.asdict(r) for r in self.records],
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=_json_default)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(record_to_csv_row(r) for r in self.records)
        return "\n".join(lines) + "\n"


def _json_default(value):
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    raise TypeError(f"not JSON serializable: {value!r}")


def _fmt(v: float) -> str:
    if math.isinf(v):
        return "inf"
    return format(v, ".17g")


def record_to_csv_row(r: MetricRecord) -> str:
    return ",".join([
        str(r.k), _fmt(r.res_u), _fmt(r.res_lambda), _fmt(r.err), _fmt(r.res1),
        _fmt(r.res2), _fmt(r.gap), _fmt(r.psnr), _fmt(r.wall_ms),
        str(r.inner_newton), _fmt(r.avg_krylov), str(int(r.lambda_feasible)),
    ])


def strip_timing_columns(csv_text: str) -> str:
    """Drop the wall-clock columns so determinism can be compared bytewise."""
    header, *rows = csv_text.strip().split("\n")
    names = header.split(",")
    keep = [i for i, n in enumerate(names) if n not in TIMING_COLUMNS]
    out = [",".join(names[i] for i in keep)]
    for row in rows:
        cells = row.split(",")
        out.append(",".join(cells[i] for i in keep))
    return "\n".join(out) + "\n"


def _config_snapshot(cfg) -> dict[str, Any]:
    if dataclasses.is_dataclass(cfg) and not isinstance(cfg, type):
        return dataclasses.asdict(cfg)
    return dict(cfg)


def summarize(method: str, cfg, records: list[MetricRecord],
              seed: Optional[int], converged: bool) -> RunReport:
    final = records[-1] if records else None
    summary: dict[str, Any] = {
        "iterations": len(records),
        "converged": converged,
        "total_wall_ms": sum(r.wall_ms for r in records),
    }
    if final is not None:
        summary.update({
            "err": final.err,
            "res_u": final.res_u,
            "res_lambda": final.res_lambda,
            "res1": final.res1,
            "res2": final.res2,
            "gap": final.gap,
            "psnr": final.psnr,
        })
    return RunReport(method=method, config=_config_snapshot(cfg),
                     records=records, summary=summary, seed=seed)
