"""tvalm benchmark: wall time to a stated residual Err on fixed restoration
workloads, with a correctness gate on every solve.

Usage, from the root of a tvalm checkout:

    python3 perfbench/run.py --workload denoise-64 --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` runs the outside-in tracer and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

import os

# One workload per process, single-threaded: pin every BLAS/OpenMP pool to
# one thread before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """Every solve of one case in a run.

    A solve fails when it raises a SolverError or misses the correctness
    gate; a failed case is not solved again.  ``irreproducible`` marks a
    repeat whose outcome differs from the case's first solve.
    """

    case: object
    times: list = field(default_factory=list)
    speeds: list = field(default_factory=list)
    psnr: float = float("nan")
    error: Optional[str] = None
    irreproducible: bool = False


def attempt(wl, case, inst, out: Outcome, tracer=None) -> None:
    """Run one solve of ``case``, gate it, and record it in ``out``.

    Only the solve is timed (and traced); the gate runs afterwards.  An
    untraced solve runs under the host-speed gauge, whose samples are taken
    out of its time.
    """
    from gauge import HostSpeed
    from tvalm.errors import SolverError
    from workloads import gate

    clock = tracer.clock if tracer else time.perf_counter
    speed = HostSpeed()
    try:
        with tracer.tracing() if tracer else speed:
            t0 = clock()
            state = case.run(inst)
            seconds = clock() - t0 - speed.busy_s
    except SolverError as e:
        out.error = f"{type(e).__name__}: {e}"
    else:
        psnr, miss = gate(wl, case, inst, state)
        if miss is not None:
            out.error = f"correctness gate: {miss}"
        elif out.times and psnr != out.psnr:
            out.error = f"repeat gave PSNR {psnr!r}, first solve {out.psnr!r}"
        else:
            out.psnr = psnr
            out.times.append(seconds)
            if not tracer:
                out.speeds.append(speed.factor())
    out.irreproducible |= bool(out.times) and out.error is not None


def measure(wl, inst, cases, seconds: float) -> list[Outcome]:
    """One pass over every case, then repeats of the converged cases in the
    same order.  A repeat starts when it is expected to end nearer to
    ``seconds`` than stopping before it would, so a run lasts about
    ``seconds`` whatever the length of its solves."""
    outs = [Outcome(c) for c in cases]
    start = time.perf_counter()
    for out in outs:
        attempt(wl, out.case, inst, out)
    ran = True
    while ran:
        ran = False
        for out in outs:
            if out.error is None and (time.perf_counter() - start
                                      + statistics.median(out.times) / 2 <= seconds):
                attempt(wl, out.case, inst, out)
                ran = True
    return outs


def host_seconds(out: Outcome) -> float:
    """Median over the case's solves of wall time divided by the host-speed
    factor measured during it: the solve's time on the reference host."""
    return statistics.median(t / f for t, f in zip(out.times, out.speeds))


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of ``import tvalm`` plus input building."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = [float(subprocess.run(cmd, check=True, capture_output=True, text=True,
                                    timeout=120).stdout)
               for _ in range(SETUP_REPEATS)]
    return statistics.median(samples)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def report_cases(wl, outs: list[Outcome]) -> None:
    for out in outs:
        name = f"{wl.name}/{out.case.name}"
        if out.error is None:
            print(f"case {name}: converged, PSNR {out.psnr:.4f} dB, median "
                  f"{statistics.median(out.times):.3f} s over {len(out.times)} solves "
                  f"{[round(t, 3) for t in out.times]}"
                  + (f", host-speed factors {[round(f, 3) for f in out.speeds]}"
                     if out.speeds else ""))
        else:
            print(f"case {name}: FAILED {out.error}")
    failed = sum(out.error is not None for out in outs)
    print(f"failed_frac = {failed}/{len(outs)} = {failed / len(outs):.4f} frac")


def end_to_end(wl, seed: int, seconds: float) -> tuple[list[Outcome], dict]:
    from workloads import seeded_setup

    setup_s = setup_seconds(wl.name, seed)
    inst, cases = seeded_setup(wl, seed)
    outs = measure(wl, inst, cases, seconds)
    report_cases(wl, outs)
    ok = [out for out in outs if out.error is None]
    if ok:
        print(f"wall_s = {sum(statistics.median(out.times) for out in ok)} s "
              "(sum of median wall times, not scaled by the gauge)")
    values = {
        "solve_s": sum(host_seconds(out) for out in ok) if ok else None,
        "solved_frac": len(ok) / len(outs),
        "psnr_db": statistics.fmean(out.psnr for out in ok) if ok else None,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return outs, values


def traced_pass(wl, inst, cases):
    from tracer import Tracer

    tr = Tracer()
    outs, bounds = [], []
    for case in cases:
        out = Outcome(case)
        lo = len(tr.spans)
        attempt(wl, case, inst, out, tracer=tr)
        outs.append(out)
        bounds.append((lo, len(tr.spans)))
    return tr, outs, bounds


def per_layer(wl, seed: int) -> tuple[list[Outcome], dict, bool]:
    """Two traced passes (counters must match), then one untraced solve of
    each converged case for the tracing overhead."""
    from tracer import Tracer, counters, layer_metrics
    from workloads import seeded_setup

    setup = Tracer()
    with setup.tracing():
        inst, cases = seeded_setup(wl, seed)

    tr, outs, bounds = traced_pass(wl, inst, cases)
    values, outer_rows = layer_metrics(tr.spans)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-seed{seed}.csv.gz"
    tr.write(span_file)
    print(f"spans: {len(tr.spans)} written to {span_file.relative_to(ROOT)}")
    del tr
    report_cases(wl, outs)
    for out, (lo, hi) in zip(outs, bounds):
        rows = [r for r in outer_rows if lo <= r[0] < hi]
        if rows:
            print(f"per outer iteration, {wl.name}/{out.case.name}: newton steps "
                  f"{[r[1] for r in rows]}, krylov iters per newton step "
                  f"{[round(r[2] / r[1], 1) if r[1] else 0.0 for r in rows]}")

    tr2, outs2, _ = traced_pass(wl, inst, cases)
    first, second = counters(values), counters(layer_metrics(tr2.spans)[0])
    del tr2
    diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    print("determinism: counters of two traced passes "
          + ("match" if not diff else f"DIFFER {diff}"))

    both = [(a, b) for a, b in zip(outs, outs2) if a.error is None and b.error is None]
    untraced = []
    for a, _ in both:
        out = Outcome(a.case)
        attempt(wl, a.case, inst, out)
        if out.error is None:
            untraced.append((a.times[0], out.times[0]))
    traced_s = sum(t for t, _ in untraced)
    plain_s = sum(u for _, u in untraced)
    values["degrade.s"] = setup.root_seconds()
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else None
    print(f"tracing: traced solves {traced_s:.3f} s, untraced {plain_s:.3f} s")
    agree = not diff and all((a.error is None) == (b.error is None)
                             for a, b in zip(outs, outs2))
    return outs, values, agree


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tvalm" / "__init__.py").is_file():
        print(f"error: no tvalm sources at {SRC}; run from a tvalm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"env: numpy {np.__version__}, python {platform.python_version()}, "
          f"cpu {cpu_model()}, nproc {os.cpu_count()}, BLAS/OpenMP threads 1")
    print(f"workload {wl.name}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}")

    if args.trace:
        outs, values, correct = per_layer(wl, args.seed)
        kind = "per_layer"
    else:
        outs, values = end_to_end(wl, args.seed, args.seconds)
        correct = values["solve_s"] is not None
        kind = "end_to_end"
    correct = correct and not any(out.irreproducible for out in outs)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    metrics = {}
    for m in spec:
        value = values[m["name"]]
        print(f"{m['name']} = {value} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": len(outs),
                      "failed": sum(out.error is not None for out in outs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
