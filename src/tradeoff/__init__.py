"""Error and evaluation-stability diagnostics for linear function recovery.

For a recovery map built from data functionals, the power function measures
the worst-case error at an evaluation functional, while norms of Lagrangians,
pseudo-Lagrangians, and bump functions measure evaluation stability; their
product is bounded below by one, with equality for norm-minimal recoveries.
"""

from . import errors
from .expansion import (
    ExpansionFunction,
    cheb_bump_min,
    cheb_lagrangians,
    cheb_power_addone,
    cheb_power_one_term,
    ctd_lagrangian_norm,
    ctd_power,
    ortho_power_and_bump,
    poly_lagrangian_seminorm,
    poly_power,
    taylor_lagrangian_norm,
    taylor_power,
)
from .functionals import (
    CoeffEval,
    DerivEval,
    Functional,
    FunctionalSet,
    LaplacianEval,
    PointEval,
    apply,
    vandermonde,
)
from .greedy import GreedyTrace, p_greedy
from .kernel_recovery import (
    PowerEvaluation,
    lagrangian_norm_squared,
    power_squared,
    tradeoff_report,
)
from .kernels import ChebWeightKernel, MaternSobolevKernel, gram, kernel_from_spec
from .linalg import SvdResult, svd
from .report import TradeoffReport, reports_to_csv
from .unsymmetric import (
    PoissonSetup,
    SvdRecovery,
    UnsymmetricRecovery,
    build_kansa,
    kansa_power_squared_batch,
    kansa_site_power_squared,
    pseudo_lagrangian_norms,
    svd_bump_min,
    svd_power_squared,
)
from .weights import WeightRule, parse_weight_rule

__version__ = "0.1.0"
