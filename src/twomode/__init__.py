"""Two damped harmonic oscillators in a common Markovian environment.

The package computes the time evolution and the asymptotic (steady-state)
covariance matrix of two identical, non-interacting oscillators coupled to
a diffusive-dissipative environment, and decides whether the asymptotic
two-mode Gaussian state is entangled, quantifying it by the logarithmic
negativity.  Phase-space ordering is (x, p_x, y, p_y) and hbar = 1
throughout.

Each public name loads its module, and with it numpy, on first use, so
`import twomode` alone loads no numpy and the CLI can configure BLAS first.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "model": (
        "J", "BlockDecomposition", "EnvironmentParams", "OscillatorParams",
        "SymmetricEnvironmentParams", "ValidationReport", "build_diffusion_matrix",
        "build_drift_matrix", "build_gram_matrix", "check_state_covariance",
        "is_hurwitz", "is_symmetric_environment", "make_vacuum_covariance",
        "validate_environment",
    ),
    "dynamics": (
        "Propagator", "matrix_exponential", "propagate", "steady_state_closed_form",
        "steady_state_lyapunov",
    ),
    "entanglement": (
        "EntanglementReport", "analyze", "block_decompose", "det_c_closed_form",
        "entanglement_window", "f_sigma", "log_negativity",
        "log_negativity_closed_form", "simon_s", "simon_s_special",
    ),
    "errors": (
        "ClassViolationError", "ConditioningWarning", "DivergentNegativityError",
        "NegativeRadicandError", "NonPositiveFError", "NonFiniteResultError",
        "NonPositiveLambdaError", "NotHurwitzError", "TwoModeError",
        "UncertaintyViolationError",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        # Importing a submodule binds it on the package, so this runs once.
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Cached, so later lookups are plain global reads and never come back here.
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
