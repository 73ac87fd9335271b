"""sonine-kit: generalized Sonine condition analysis and first-kind
Volterra solves with weakly singular kernels on graded meshes.

The package answers three questions about a kernel pair (k, K):

1. Is g = K * k close to 1 with g(0) = 1 and an integrable derivative
   (:func:`check_gsc`)?
2. Given that, what solves k * u = f (:func:`solve_first_kind`, via the
   second-kind reformulation u + g' * u = F)?
3. What is the classical Sonine associate of k
   (:func:`discover_associate`, the f = 1 solve)?
"""

import importlib

from .errors import DomainError, GscConditionError, IllConditionedSystemError
from .kernels import (
    ExponentFunction,
    KernelSpec,
    SoninePair,
    affine_exponent,
    classical_abel_kernel,
    gamma,
    kappa,
    leading_term_pair,
    make_classical_abel_pair,
    make_variable_exponent_pair,
    power_kernel,
    variable_exponent_kernel,
)
from .mesh import Mesh, SampledFunction, default_grading, graded_mesh
from .quadrature import (
    convolve_pair,
    convolve_weakly_singular,
    product_weights,
)
from .sonine import (
    EpsFit,
    GscReport,
    check_gsc,
    compute_g,
)
from .volterra import (
    ConvergenceReport,
    RhsSpec,
    SolveReport,
    StabilityReport,
    assemble_rhs,
    classical_solution,
    convergence_study,
    discover_associate,
    solve_first_kind,
    solve_second_kind,
    stability_probe,
    stability_report,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "GscConditionError",
    "IllConditionedSystemError",
    "ExponentFunction",
    "KernelSpec",
    "SoninePair",
    "affine_exponent",
    "classical_abel_kernel",
    "gamma",
    "kappa",
    "leading_term_pair",
    "make_classical_abel_pair",
    "make_variable_exponent_pair",
    "power_kernel",
    "variable_exponent_kernel",
    "Mesh",
    "SampledFunction",
    "default_grading",
    "graded_mesh",
    "convolve_pair",
    "convolve_weakly_singular",
    "product_weights",
    "EpsFit",
    "GscReport",
    "check_gsc",
    "compute_g",
    "ConvergenceReport",
    "RhsSpec",
    "SolveReport",
    "StabilityReport",
    "assemble_rhs",
    "classical_solution",
    "convergence_study",
    "discover_associate",
    "solve_first_kind",
    "solve_second_kind",
    "stability_probe",
    "stability_report",
    "JobConfig",
    "parse_config",
    "__version__",
]


def __getattr__(name):
    # the CLI module loads on first use, so that ``python -m sonine_kit.cli``
    # does not find it imported already
    if name in ("cli", "JobConfig", "parse_config"):
        cli = importlib.import_module(".cli", __name__)
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
