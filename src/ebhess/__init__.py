"""Extended block Hessenberg method with pivoting: f(A)V approximation,
shifted block linear solves, and an extended block Arnoldi baseline."""

from . import errors
from .approx import (
    ApproxResult,
    exact_dense,
    exp_error_bound,
    initial_block_angle,
    mf_eba,
    mf_ebh,
    reference_matfun,
    tridiag_reference,
)
from .dense import PivotedLUFactor, eig_dense, norms, pivot_block_solve, plu_factor
from .eba import OrthoBasis, eba_run
from .ebh import (
    ExtendedBasis,
    ProjectedData,
    build_S,
    build_T,
    build_T_direct,
    ebha_run,
    left_apply,
    projection_gap,
)
from .matfun import FunctionSpec, expm, funm, laurent_apply, logm, sqrtm
from .operators import (
    FactorizedOperator,
    GallerySpec,
    MatrixMarketFile,
    flop_estimate,
    gallery,
    read_matrix_market,
)
from .shifted import ShiftedProblem, ShiftedState, residual_direct, solve_shifted

__all__ = [
    "ApproxResult",
    "ExtendedBasis",
    "FactorizedOperator",
    "FunctionSpec",
    "GallerySpec",
    "MatrixMarketFile",
    "OrthoBasis",
    "PivotedLUFactor",
    "ProjectedData",
    "ShiftedProblem",
    "ShiftedState",
    "build_S",
    "build_T",
    "build_T_direct",
    "eba_run",
    "ebha_run",
    "eig_dense",
    "errors",
    "exact_dense",
    "exp_error_bound",
    "expm",
    "flop_estimate",
    "funm",
    "gallery",
    "initial_block_angle",
    "laurent_apply",
    "left_apply",
    "logm",
    "mf_eba",
    "mf_ebh",
    "norms",
    "pivot_block_solve",
    "plu_factor",
    "projection_gap",
    "read_matrix_market",
    "reference_matfun",
    "residual_direct",
    "solve_shifted",
    "sqrtm",
    "tridiag_reference",
]
