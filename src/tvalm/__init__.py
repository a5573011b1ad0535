"""Matrix-free semismooth-Newton augmented-Lagrangian solvers for
total-variation image restoration, with an accelerated primal-dual baseline.
"""

from .alg2 import alg2_run
from .alm import AlmConfig, OuterState, alm_run, criteria_abc_report, inner_stop_rule
from .degrade import DegradeSpec, blocks_image, degrade
from .errors import (InnerNewtonError, KrylovError, LineSearchError, MaxOuterError,
                     SolverError)
from .grid import ANISO, ISO, div, grad, image, inner_x, inner_y, pointwise_mag, tv_norm
from .linops import (BlurKernel, KrylovConfig, LinearMap, bicgstab_solve, blur_adjoint,
                     blur_apply, blur_map, cg_solve, gaussian_kernel, h_apply, h_map,
                     motion_kernel, newton_forcing_tol)
from .metrics import (MetricRecord, err_total, pd_gap, psnr, res1, res2, res_lambda,
                      res_u)
from .pgm import PgmFormatError, load_image, save_image
from .prox import moreau_check, project_ball, soft_threshold
from .report import RunReport
from .ssn import (AlmContext, LineSearchParams, NewtonState, active_mask, make_context,
                  merit_phi, residual_pd, residual_pt, solve_subproblem, ssnpdd_step,
                  ssnpdp_step, ssnpt_step)

__version__ = "0.1.0"
