"""Run reports: per-iteration CSV rows and the JSON run summary.

Both are derived from ``MetricRecord``: the CSV has one column per record
field, in declaration order, each cell formatted by the field's type, and the
summary copies the final record's SUMMARY_FIELDS.  Both write a non-finite
float as ``inf``, ``-inf`` or ``nan`` (in the JSON as a string, so the text
is strict JSON).  A report plus the seed fully determines a reproduction at
a fixed BLAS thread count (the reduction order of ``np.vdot`` varies with
it, and so can the last bits of every later iterate); timing columns are
wall-clock and are the only fields excluded from determinism comparisons.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Any, Optional, get_type_hints

from .metrics import MetricRecord

TIMING_COLUMNS = ("wall_ms",)
SUMMARY_FIELDS = ("err", "res_u", "res_lambda", "res1", "res2", "gap", "psnr")


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
        return json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False)

    def to_csv(self) -> str:
        lines = [",".join(name for name, _ in _COLUMNS)]
        lines.extend(",".join(fmt(getattr(r, name)) for name, fmt in _COLUMNS)
                     for r in self.records)
        return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _strict(value):
    """``value`` with every non-finite float replaced by its CSV text."""
    if isinstance(value, float):
        return value if math.isfinite(value) else _fmt(value)
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strict(v) for v in value]
    return value


# (name, formatter) per CSV column: the MetricRecord fields in order, each
# cell formatted by the field's declared type.
_FORMATS = {bool: lambda v: str(int(v)), int: str, float: _fmt}
_HINTS = get_type_hints(MetricRecord)
_COLUMNS = tuple((f.name, _FORMATS[_HINTS[f.name]])
                 for f in dataclasses.fields(MetricRecord))


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
    summary: dict[str, Any] = {
        "iterations": len(records),
        "converged": converged,
        "total_wall_ms": sum(r.wall_ms for r in records),
    }
    if records:
        summary.update({name: getattr(records[-1], name) for name in SUMMARY_FIELDS})
    return RunReport(method=method, config=_config_snapshot(cfg),
                     records=records, summary=summary, seed=seed)
