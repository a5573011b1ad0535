"""Exception types raised by the solvers."""

from __future__ import annotations


class SolverError(RuntimeError):
    """Base class for every failure raised by this package's solvers.

    A failure inside an ALM subproblem also carries ``outer``, the 1-based
    outer iteration, ``sigma``, that iteration's penalty, and ``report``, the
    unconverged ``RunReport`` of the outer iterations completed before it
    (set by ``alm.alm_run``).
    """


class KrylovError(SolverError):
    """An iterative linear solve failed (breakdown, indefiniteness, or cap).

    Attributes carry the method name, the relative residual achieved when the
    solve gave up, and the number of iterations spent.
    """

    def __init__(self, message: str, *, method: str, residual: float, iterations: int):
        super().__init__(f"{method}: {message} (relative residual {residual:.3e} "
                         f"after {iterations} iterations)")
        self.method = method
        self.residual = residual
        self.iterations = iterations


class LineSearchError(SolverError):
    """Armijo backtracking exhausted its budget without sufficient decrease."""

    def __init__(self, message: str, *, phi0: float, phi_last: float, eta: float):
        super().__init__(f"{message} (Phi start {phi0:.6e}, last trial {phi_last:.6e}, "
                         f"eta {eta:.3e})")
        self.phi0 = phi0
        self.phi_last = phi_last
        self.eta = eta


class InnerNewtonError(SolverError):
    """The inner semismooth Newton loop exceeded its iteration cap.

    Attributes carry the Newton steps taken, the final residual, the
    subproblem's penalty sigma and its residual history (the starting
    residual, then one entry per step).
    """

    def __init__(self, message: str, *, iterations: int, residual: float, sigma: float,
                 residuals: list[float]):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} "
                         f"Newton steps at sigma {sigma:.6g})")
        self.iterations = iterations
        self.residual = residual
        self.sigma = sigma
        self.residuals = residuals


class MaxOuterError(SolverError):
    """An outer loop ran out of iterations before meeting its tolerance.

    ``state`` and ``report`` hold the final (unconverged) iterate so callers
    can inspect or reuse it.
    """

    def __init__(self, message: str, *, err: float, state=None, report=None):
        super().__init__(f"{message} (final Err {err:.3e})")
        self.err = err
        self.state = state
        self.report = report
