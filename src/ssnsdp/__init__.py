"""Semismooth Newton method for nonlinear semidefinite KKT systems.

The package solves the nonsmooth stationarity system of problems

    minimize f(x)  subject to  h(x) = 0,  g(x) in S_+

(g maps into one or more symmetric blocks, each constrained positive
semidefinite) by a Newton iteration on the projection-based KKT map,
with an eigenvalue correction step that snaps near-active spectrum to
exact activity before each linearization.  Alongside the solver it
ships executable checkers for the second-order and constraint
qualification conditions that govern when the Newton matrices are
nonsingular.
"""

from .linalg_sym import (
    SpectralDecomposition,
    apply_V,
    dproj_psd,
    eig_sym,
    project_psd,
    sigma_quadratic,
    smat,
    svec,
    svec_len,
    svec_rotation,
    xi_matrix,
)
from .problem import (
    BlockSymMatrix,
    KktPoint,
    KnownSolution,
    NlsdpProblem,
    fd_check_derivatives,
    load_qsdp,
    perturbed_start,
    save_qsdp,
)
from .catalog import catalog_names
from .kkt import (
    DenseOperator,
    KktResidual,
    apply_U,
    assemble_U,
    clarke_combination,
    example2_family,
    fd_jacobian,
    kkt_residual,
    min_singular_value,
)
from .conditions import (
    ConditionReport,
    ConditionResult,
    app_basis,
    appl_basis,
    check_cn,
    check_s_sosc,
    check_w_soc,
    check_w_srcq,
    regularity_report,
)
from .solver import (
    IterationTrace,
    SingularSystemError,
    SolverParams,
    SolveResult,
    classical_ssn_solve,
    correct,
    fitted_order,
    newton_step,
    ssn_solve,
)

__all__ = [
    "SpectralDecomposition",
    "apply_V",
    "dproj_psd",
    "eig_sym",
    "project_psd",
    "sigma_quadratic",
    "smat",
    "svec",
    "svec_len",
    "svec_rotation",
    "xi_matrix",
    "BlockSymMatrix",
    "KktPoint",
    "KnownSolution",
    "NlsdpProblem",
    "fd_check_derivatives",
    "load_qsdp",
    "perturbed_start",
    "save_qsdp",
    "catalog_names",
    "DenseOperator",
    "KktResidual",
    "apply_U",
    "assemble_U",
    "clarke_combination",
    "example2_family",
    "fd_jacobian",
    "kkt_residual",
    "min_singular_value",
    "ConditionReport",
    "ConditionResult",
    "app_basis",
    "appl_basis",
    "check_cn",
    "check_s_sosc",
    "check_w_soc",
    "check_w_srcq",
    "regularity_report",
    "IterationTrace",
    "SingularSystemError",
    "SolverParams",
    "SolveResult",
    "classical_ssn_solve",
    "correct",
    "fitted_order",
    "newton_step",
    "ssn_solve",
]

__version__ = "0.1.0"
