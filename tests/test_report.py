"""Exact text of the run CSV, the JSON report and the bench tables.

The reports are derived from ``MetricRecord``'s fields; these literals pin
every byte of that derivation for hand-built records covering each field
type, an infinite gap, a NaN residual, a negative zero and both
``lambda_feasible`` values.
"""

import json
from dataclasses import replace

import pytest

from tvalm.bench import BenchCell, cells_to_csv, cells_to_markdown
from tvalm.metrics import MetricRecord
from tvalm.report import summarize

NAN, INF = float("nan"), float("inf")
RECORDS = [
    MetricRecord(k=1, res_u=0.1, res_lambda=1 / 3, err=2.5e-7, res1=1e-300, res2=12345.678,
                 gap=INF, psnr=99.0, wall_ms=1500.5, inner_newton=7, avg_krylov=12.25,
                 backtracks=3, tight_resolves=1, f32_solves=6, f32_corrections=2, sigma=4.0,
                 inner_threshold=2.5e-5,
                 lambda_feasible=False),
    MetricRecord(k=2, res_u=NAN, res_lambda=0.0, err=3.1622776601683795e-07, res1=-0.0,
                 res2=2.0 ** -30, gap=-1.25e-9, psnr=35.58349, wall_ms=250.25,
                 inner_newton=0, avg_krylov=0.0, backtracks=0, tight_resolves=0,
                 f32_solves=0, f32_corrections=0, sigma=NAN, inner_threshold=NAN,
                 lambda_feasible=True),
]


def report():
    return summarize("alm-pdp", {"alpha": 0.1, "variant": "aniso"}, RECORDS, 7,
                     converged=True)


def test_run_csv():
    assert report().to_csv() == (
        "k,res_u,res_lambda,err,res1,res2,gap,psnr,wall_ms,inner_newton,avg_krylov,"
        "backtracks,tight_resolves,f32_solves,f32_corrections,sigma,inner_threshold,"
        "lambda_feasible\n"
        "1,0.10000000000000001,0.33333333333333331,2.4999999999999999e-07,1e-300,"
        "12345.678,inf,99,1500.5,7,12.25,3,1,6,2,4,2.5000000000000001e-05,0\n"
        "2,nan,0,3.1622776601683797e-07,-0,9.3132257461547852e-10,-1.25e-09,"
        "35.583489999999998,250.25,0,0,0,0,0,0,nan,nan,1\n")


def test_run_json_with_summary():
    assert report().to_json() == """{
  "config": {
    "alpha": 0.1,
    "variant": "aniso"
  },
  "method": "alm-pdp",
  "records": [
    {
      "avg_krylov": 12.25,
      "backtracks": 3,
      "err": 2.5e-07,
      "f32_corrections": 2,
      "f32_solves": 6,
      "gap": "inf",
      "inner_newton": 7,
      "inner_threshold": 2.5e-05,
      "k": 1,
      "lambda_feasible": false,
      "psnr": 99.0,
      "res1": 1e-300,
      "res2": 12345.678,
      "res_lambda": 0.3333333333333333,
      "res_u": 0.1,
      "sigma": 4.0,
      "tight_resolves": 1,
      "wall_ms": 1500.5
    },
    {
      "avg_krylov": 0.0,
      "backtracks": 0,
      "err": 3.1622776601683797e-07,
      "f32_corrections": 0,
      "f32_solves": 0,
      "gap": -1.25e-09,
      "inner_newton": 0,
      "inner_threshold": "nan",
      "k": 2,
      "lambda_feasible": true,
      "psnr": 35.58349,
      "res1": -0.0,
      "res2": 9.313225746154785e-10,
      "res_lambda": 0.0,
      "res_u": "nan",
      "sigma": "nan",
      "tight_resolves": 0,
      "wall_ms": 250.25
    }
  ],
  "seed": 7,
  "summary": {
    "converged": true,
    "err": 3.1622776601683797e-07,
    "gap": -1.25e-09,
    "iterations": 2,
    "psnr": 35.58349,
    "res1": -0.0,
    "res2": 9.313225746154785e-10,
    "res_lambda": 0.0,
    "res_u": "nan",
    "total_wall_ms": 1750.75
  }
}"""


# A solved cell, a failed one whose error carried the report of its
# completed outer iterations, and an ALG2 cell, whose config has no growth.
CELLS = [
    BenchCell(image="a", variant="aniso", solver="pdp", tol=1e-4,
              report=replace(report(), config={"growth_c": 4.0})),
    BenchCell(image="b", variant="iso", solver="pt", tol=1e-12,
              report=summarize("alm-pt", {"growth_c": 2.0}, RECORDS[:1], None,
                               converged=False),
              error="MaxOuterError: outer iteration budget exhausted (final Err 2.817e-08)"),
    BenchCell(image="c", variant="iso", solver="alg2", tol=1e-4,
              report=summarize("alg2", {"gamma": 1.0}, RECORDS[1:], None, converged=True)),
]


def test_bench_csv():
    assert cells_to_csv(CELLS) == (
        "image,variant,solver,tol,growth,n,wall_s,res_u,res_lambda,res1,res2,gap,psnr,err,"
        "error\n"
        "a,aniso,pdp,0.0001,4,2,1.751,nan,0.000e+00,-0.000e+00,9.313e-10,-1.250e-09,35.58,"
        "3.162e-07,\n"
        "b,iso,pt,9.9999999999999998e-13,2,0,0.000,nan,nan,nan,nan,nan,nan,nan,"
        "MaxOuterError: outer iteration budget exhausted (final Err 2.817e-08)\n"
        "c,iso,alg2,0.0001,,1,0.250,nan,0.000e+00,-0.000e+00,9.313e-10,-1.250e-09,35.58,"
        "3.162e-07,\n")


def test_bench_markdown():
    assert cells_to_markdown(CELLS) == (
        "| image | variant | solver | growth | n(t) | res(u) | res(lambda) | Res1 | Res2 "
        "| Gap | PSNR | Err |\n"
        "|---|---|---|---|---|---|---|---|---|---|---|---|\n"
        "| a | aniso | pdp | 4 | 2(1.75s) | nan | 0.000e+00 | -0.000e+00 | 9.313e-10 "
        "| -1.250e-09 | 35.58 | 3.162e-07 |\n"
        "| b | iso | pt | 2 | failed | MaxOuterError: outer iteration budget exhausted "
        "(final Err 2.817e-08) |  |  |  |  |  |  |\n"
        "| c | iso | alg2 |  | 1(0.25s) | nan | 0.000e+00 | -0.000e+00 | 9.313e-10 "
        "| -1.250e-09 | 35.58 | 3.162e-07 |\n")


def _reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


def test_run_json_is_strict():
    # Every non-finite float, -inf included, is written as its CSV text, and
    # the text parses without the NaN/Infinity extension.
    records = [replace(RECORDS[0], gap=-INF), RECORDS[1]]
    run = summarize("alm-pt", {"sigma_max": INF}, records, None, converged=False)
    payload = json.loads(run.to_json(), parse_constant=_reject_constant)
    assert payload["config"]["sigma_max"] == "inf"
    assert [r["gap"] for r in payload["records"]] == ["-inf", -1.25e-9]
    assert payload["summary"]["res_u"] == "nan"
    assert run.to_csv().splitlines()[1].split(",")[6] == "-inf"
    with pytest.raises(ValueError, match="non-standard"):
        json.loads('{"gap": Infinity}', parse_constant=_reject_constant)
