"""Exception and warning types shared across the package."""


class TwoModeError(Exception):
    """Base class for physics and solver errors raised by this package."""


class NotHurwitzError(TwoModeError):
    """The drift matrix has an eigenvalue with non-negative real part, so the
    covariance evolution has no steady state."""


class NonPositiveLambdaError(TwoModeError):
    """The dissipation constant must be strictly positive for the asymptotic
    closed forms."""


class ClassViolationError(TwoModeError):
    """Environment coefficients fall outside the class a closed form assumes."""


class UncertaintyViolationError(TwoModeError):
    """The single-mode uncertainty bound m*omega*D_xx/lambda >= 1/2 is violated."""


class NegativeRadicandError(TwoModeError):
    """The symplectic-spectrum radicand is negative beyond tolerance; the input
    is not a physical covariance matrix."""


class NonPositiveFError(TwoModeError):
    """f(sigma) <= 0, so the logarithmic negativity is undefined for this input."""


class DivergentNegativityError(TwoModeError):
    """The closed-form negativity diverges; such coefficient combinations fail
    strict environment validation."""


class NonFiniteResultError(TwoModeError):
    """A result overflows double precision: the coefficients are too extreme
    for the computation."""


class ConditioningWarning(UserWarning):
    """Steady-state entries scale like 1/lambda; the solve is ill-conditioned
    because the dissipation is tiny compared to the oscillator frequency."""
