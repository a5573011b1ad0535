"""Matrix-free semismooth-Newton augmented-Lagrangian solvers for
total-variation image restoration, with an accelerated primal-dual baseline.

The package namespace holds the library's entry points; everything else is
imported from its submodule (``tvalm.ssn``, ``tvalm.linops``, ...).
"""

from .alg2 import alg2_run
from .alm import AlmConfig, OuterState, alm_run
from .degrade import DegradeSpec, blocks_image, degrade
from .errors import (InnerNewtonError, KrylovError, LineSearchError, MaxOuterError,
                     SolverError)
from .linops import BlurKernel, blur_map, motion_kernel
from .metrics import MetricRecord
from .pgm import PgmFormatError, load_image, save_image
from .report import RunReport

__version__ = "0.1.0"
