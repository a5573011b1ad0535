"""Host-speed gauge: a fixed piece of numpy work, independent of tvalm, timed
every TICK_S seconds while a solve runs, so that the solve's wall time can be
put in terms of the host's speed at the time it ran.

The gauge does what the solvers spend their time on: forward differences and
their adjoint (grid.grad and grid.div), inner products and axpys (the Krylov
recurrences), on 64x64 and 128x128 arrays.  (A 32x32 gauge swings about
twice as far as the 32x32 deblurring solves do when the host slows.)  Its work
is fixed, so on an idle host it takes the same time on every run.  It runs
from a SIGALRM handler, between two bytecodes of the solve, in the solve's own
thread; the caller pins BLAS to one thread, as run.py does.
"""

import signal
import statistics
import time

import numpy as np

TICK_S = 0.2
ROUNDS = (((64, 64), 20), ((128, 128), 8))

# Seconds of one gauge sample at the reference host speed: about its median
# during solves on a 2-core Intel Xeon VM with numpy 2.4.6.  A host-speed factor is a sample's
# seconds divided by this.
REFERENCE_S = 0.0042


def gauge_seconds() -> float:
    """Wall seconds for the gauge's fixed work."""
    t0 = time.perf_counter()
    for shape, rounds in ROUNDS:
        u = np.linspace(0.0, 1.0, shape[0] * shape[1]).reshape(shape)
        v = u[::-1].copy()
        for _ in range(rounds):
            g = np.zeros((2,) + shape)
            g[0, :-1, :] = u[1:, :] - u[:-1, :]
            g[1, :, :-1] = u[:, 1:] - u[:, :-1]
            d = np.zeros(shape)
            d[:-1, :] += g[0, :-1, :]
            d[1:, :] -= g[0, :-1, :]
            d[:, :-1] += g[1, :, :-1]
            d[:, 1:] -= g[1, :, :-1]
            a = float(np.vdot(d, v)) / (float(np.vdot(v, v)) + 1.0)
            v = v - 1e-3 * a * d
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the gauge on entry and every TICK_S seconds until exit.

    ``busy_s`` is the time the timer's samples took, which the caller takes
    out of the wall time it measured inside the block.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0
        self._in_tick = False

    def _tick(self, signum, frame) -> None:
        if self._in_tick:  # the host stalled for a whole tick inside a sample
            return
        self._in_tick = True
        s = gauge_seconds()
        self.samples.append(s)
        self.busy_s += s
        self._in_tick = False

    def __enter__(self) -> "HostSpeed":
        self.samples = [gauge_seconds()]
        self.busy_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """Median sample over the reference: 1.2 means a host 20% slower."""
        return statistics.median(self.samples) / REFERENCE_S
