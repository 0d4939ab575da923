"""Dyadic-triadic ladders of fractional-part profiles.

Exact Gram matrices of the family f_theta(x) = {theta/x} - theta {1/x},
their critical-line spectral factorization, Gaussian smoothing of that
factorization, and off-diagonal decay / finite-section diagnostics.
"""

from .decay import (
    DecayReport,
    LambdaGapReport,
    ShellStats,
    TruncationReport,
    TruncationSuite,
    decay_report,
    decay_report_to_json,
    envelopes,
    fit_exponent,
    opnorm_residual,
    schur_truncation_bound,
    shell_stats,
    shells_to_csv,
    tail_sum,
    truncation_suite,
    truncation_suite_to_json,
)
from .errors import (
    BNLadderError,
    ConvergenceError,
    DegenerateFitError,
    ParameterError,
    ZetaRangeError,
)
from .fractional import (
    DEFAULT_QUAD,
    InnerProductResult,
    QuadratureConfig,
    breakpoints,
    eval_f,
    inner_direct,
    l2_norm,
    pair_inner_matrix,
)
from .gram import (
    CrossValidationReport,
    GramMatrix,
    build_gram,
    cross_validate,
    gram_from_json,
    gram_to_csv,
    gram_to_json,
    inner_spectral,
)
from .ladder import (
    LOG2,
    LOG3,
    IndexWindow,
    InjectivityReport,
    LadderIndex,
    LadderPoint,
    check_injectivity,
    distance,
    lambda_mu,
    shell,
    theta_of,
)
from .mellin import SmoothingParams, mellin_closed, mellin_closed_grid, mellin_direct, psi
from .zeta import T_CAP, ZetaCheckPoint, ZetaSelfCheck, zeta_half, zeta_half_grid, zeta_selfcheck

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "BNLadderError",
    "ParameterError",
    "ConvergenceError",
    "ZetaRangeError",
    "DegenerateFitError",
    # ladder geometry
    "LOG2",
    "LOG3",
    "LadderIndex",
    "LadderPoint",
    "IndexWindow",
    "InjectivityReport",
    "theta_of",
    "distance",
    "lambda_mu",
    "shell",
    "check_injectivity",
    # profiles and exact inner products
    "QuadratureConfig",
    "DEFAULT_QUAD",
    "InnerProductResult",
    "eval_f",
    "breakpoints",
    "inner_direct",
    "pair_inner_matrix",
    "l2_norm",
    # critical-line evaluator
    "T_CAP",
    "zeta_half",
    "zeta_half_grid",
    "zeta_selfcheck",
    "ZetaCheckPoint",
    "ZetaSelfCheck",
    # transforms and smoothing
    "SmoothingParams",
    "psi",
    "mellin_closed",
    "mellin_closed_grid",
    "mellin_direct",
    # Gram construction
    "GramMatrix",
    "build_gram",
    "inner_spectral",
    "cross_validate",
    "CrossValidationReport",
    "gram_to_csv",
    "gram_to_json",
    "gram_from_json",
    # decay and truncation diagnostics
    "ShellStats",
    "shell_stats",
    "envelopes",
    "fit_exponent",
    "tail_sum",
    "schur_truncation_bound",
    "opnorm_residual",
    "DecayReport",
    "LambdaGapReport",
    "decay_report",
    "TruncationReport",
    "TruncationSuite",
    "truncation_suite",
    "shells_to_csv",
    "decay_report_to_json",
    "truncation_suite_to_json",
]
