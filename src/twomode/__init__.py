"""Two damped harmonic oscillators in a common Markovian environment.

The package computes the time evolution and the asymptotic (steady-state)
covariance matrix of two identical, non-interacting oscillators coupled to
a diffusive-dissipative environment, and decides whether the asymptotic
two-mode Gaussian state is entangled, quantifying it by the logarithmic
negativity.  Phase-space ordering is (x, p_x, y, p_y) and hbar = 1
throughout.
"""

from .model import (
    J,
    BlockDecomposition,
    EnvironmentParams,
    OscillatorParams,
    SymmetricEnvironmentParams,
    ValidationReport,
    build_diffusion_matrix,
    build_drift_matrix,
    build_gram_matrix,
    check_state_covariance,
    is_hurwitz,
    is_symmetric_environment,
    make_vacuum_covariance,
    validate_environment,
)
from .dynamics import (
    Propagator,
    matrix_exponential,
    propagate,
    steady_state_closed_form,
    steady_state_lyapunov,
)
from .entanglement import (
    EntanglementReport,
    analyze,
    block_decompose,
    det_c_closed_form,
    entanglement_window,
    f_sigma,
    log_negativity,
    log_negativity_closed_form,
    simon_s,
    simon_s_special,
)
from .errors import (
    ClassViolationError,
    ConditioningWarning,
    DivergentNegativityError,
    NegativeRadicandError,
    NonPositiveFError,
    NonFiniteResultError,
    NonPositiveLambdaError,
    NotHurwitzError,
    TwoModeError,
    UncertaintyViolationError,
)

__version__ = "0.1.0"

__all__ = [
    "J",
    "BlockDecomposition",
    "EnvironmentParams",
    "OscillatorParams",
    "SymmetricEnvironmentParams",
    "ValidationReport",
    "build_diffusion_matrix",
    "build_drift_matrix",
    "build_gram_matrix",
    "check_state_covariance",
    "is_hurwitz",
    "is_symmetric_environment",
    "make_vacuum_covariance",
    "validate_environment",
    "Propagator",
    "matrix_exponential",
    "propagate",
    "steady_state_closed_form",
    "steady_state_lyapunov",
    "EntanglementReport",
    "analyze",
    "block_decompose",
    "det_c_closed_form",
    "entanglement_window",
    "f_sigma",
    "log_negativity",
    "log_negativity_closed_form",
    "simon_s",
    "simon_s_special",
    "ClassViolationError",
    "ConditioningWarning",
    "DivergentNegativityError",
    "NegativeRadicandError",
    "NonPositiveFError",
    "NonFiniteResultError",
    "NonPositiveLambdaError",
    "NotHurwitzError",
    "TwoModeError",
    "UncertaintyViolationError",
    "__version__",
]
