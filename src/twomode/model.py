"""Domain types, drift/diffusion matrix builders and environment validation.

All matrices use the phase-space ordering (x, p_x, y, p_y) and hbar = 1.
Types are immutable after construction and every operation is a pure
function, so everything here is safe for unrestricted concurrent use; the
one cache, `_violations`'s last result, is replaced by a single assignment.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.typing import NDArray

from .errors import NonFiniteResultError, NonPositiveLambdaError

#: 2x2 symplectic matrix.
J = np.array([[0.0, 1.0], [-1.0, 0.0]])
J.flags.writeable = False

#: Absolute eigenvalue floor for the positive-semidefiniteness check, chosen
#: so boundary environments (equalities in the coefficient inequalities) pass.
PSD_TOLERANCE = 1e-10

_LAMBDA_MESSAGE = "dissipation constant must be positive, got lam ="

#: y-mode field -> the x-mode field it equals in a symmetric environment (field order).
_MIRROR = {"d_ypx": "d_xpy", "d_yy": "d_xx", "d_ypy": "d_xpx", "d_pypy": "d_pxpx"}


@dataclass(frozen=True)
class OscillatorParams:
    """Mass and angular frequency of the two identical oscillators."""

    m: float
    omega: float

    def __post_init__(self) -> None:
        for name in ("m", "omega"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class EnvironmentParams:
    """Dissipation constant and the ten real diffusion coefficients.

    The coefficients have units of phase-space second moments per time
    (hbar = 1).  lam may be any finite real at construction time; lam <= 0
    is reported by `validate_environment` rather than rejected here, so
    exploratory sweeps can probe the boundary.
    """

    lam: float
    d_xx: float = 0.0
    d_xpx: float = 0.0
    d_xy: float = 0.0
    d_xpy: float = 0.0
    d_ypx: float = 0.0
    d_pxpx: float = 0.0
    d_yy: float = 0.0
    d_ypy: float = 0.0
    d_pxpy: float = 0.0
    d_pypy: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True, init=False)
class SymmetricEnvironmentParams(EnvironmentParams):
    """Environment whose y-mode noise mirrors the x-mode noise.

    Constructed from the reduced coefficient set; the duplicates are filled
    in from `_MIRROR` (d_yy = d_xx, d_ypy = d_xpx, d_pypy = d_pxpx and
    d_ypx = d_xpy), which makes both reduced one-mode covariance matrices
    equal and the cross-correlation block symmetric.  The duplicates are not
    arguments, so `dataclasses.replace` mirrors a changed x-mode field and
    refuses a y-mode one.
    """

    d_ypx: float = field(default=0.0, init=False)
    d_yy: float = field(default=0.0, init=False)
    d_ypy: float = field(default=0.0, init=False)
    d_pypy: float = field(default=0.0, init=False)

    def __init__(
        self,
        lam: float,
        d_xx: float = 0.0,
        d_xpx: float = 0.0,
        d_pxpx: float = 0.0,
        d_xy: float = 0.0,
        d_xpy: float = 0.0,
        d_pxpy: float = 0.0,
    ) -> None:
        given = dict(d_xx=d_xx, d_xpx=d_xpx, d_pxpx=d_pxpx, d_xy=d_xy, d_xpy=d_xpy, d_pxpy=d_pxpy)
        super().__init__(lam, **given, **{y: given[x] for y, x in _MIRROR.items()})


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """2x2 blocks of a two-mode covariance matrix: sigma = [[a, c], [c^T, b]].

    a and b are the reduced one-mode covariance matrices of the x and y
    modes; c carries the cross-mode correlations.
    """

    a: NDArray[np.float64]
    b: NDArray[np.float64]
    c: NDArray[np.float64]

    def reassemble(self) -> NDArray[np.float64]:
        """Rebuild the 4x4 covariance matrix from the blocks."""
        out = np.zeros((4, 4))
        out[:2, :2] = self.a
        out[2:, 2:] = self.b
        out[:2, 2:] = self.c
        out[2:, :2] = self.c.T
        return out


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of an environment validation run.

    `failed` lists the violated constraints by name; `min_gram_eigenvalue`
    is filled only in strict mode.
    """

    mode: str
    passed: bool
    failed: tuple[str, ...]
    min_gram_eigenvalue: float | None


def _nearly_equal(a, b, rtol: float = 1e-12):
    """|a - b| <= rtol max(|a|, |b|, 1), elementwise for arrays."""
    gap = abs(a - b)
    return (gap <= rtol) | (gap <= rtol * abs(a)) | (gap <= rtol * abs(b))


#: The row-major entries of a 4x4 matrix's transpose, from its own row-major entries.
_TRANSPOSED = operator.itemgetter(*(4 * j + i for i in range(4) for j in range(4)))


def _read_covariance(sigma, atol: float | None = None) -> tuple[NDArray[np.float64], list]:
    """sigma as a 4x4 float array and its 16 entries as Python floats, row-major.

    The entries are read once, with one `tolist()`, and checked on floats:
    finite, and given atol, symmetric to atol * max(1, max |entry|).
    """
    sig = np.asarray(sigma, dtype=float)
    if sig.shape != (4, 4):
        raise ValueError(f"covariance matrix must be 4x4, got shape {sig.shape}")
    flat = sig.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise ValueError("covariance matrix entries must be finite")
    if atol is not None:
        skew = max(map(abs, map(operator.sub, flat, _TRANSPOSED(flat))))
        if skew > atol * max(1.0, max(map(abs, flat))):
            raise ValueError("covariance matrix must be symmetric")
    return sig, flat


def _stack(rows, dtype=float) -> NDArray:
    """Square matrices [..., n, n] from n x n nested rows of scalars or same-shape arrays."""
    out = np.array(rows, dtype=dtype)
    return out if out.ndim == 2 else np.moveaxis(out, (0, 1), (-2, -1))


def _require_positive_lambda(lam: float, message: str = _LAMBDA_MESSAGE) -> None:
    if not lam > 0.0:
        raise NonPositiveLambdaError(f"{message} {lam!r}")


def is_symmetric_environment(env: EnvironmentParams, rtol: float = 1e-12) -> bool:
    """True when the y-mode coefficients mirror the x-mode ones (elementwise for arrays)."""
    mirrored = True
    for y, x in _MIRROR.items():
        mirrored &= _nearly_equal(getattr(env, y), getattr(env, x), rtol)
    return mirrored


def build_drift_matrix(
    osc: OscillatorParams, env: EnvironmentParams
) -> NDArray[np.float64]:
    """Drift generator Y of d(sigma)/dt = Y sigma + sigma Y^T + 2 D.

    Block-diagonal with two identical damped-oscillator blocks
    [[-lam, 1/m], [-m omega^2, -lam]]; only lam is used from the environment.
    Raises NonFiniteResultError when 1/m overflows or m omega^2 overflows or
    underflows to zero.
    """
    inverse_mass = 1.0 / osc.m
    spring = -osc.m * (osc.omega * osc.omega)
    if not (math.isfinite(inverse_mass) and -math.inf < spring < 0.0):
        raise NonFiniteResultError(
            f"drift matrix is out of double-precision range for m = {osc.m!r}, "
            f"omega = {osc.omega!r}"
        )
    blk = np.array([[-env.lam, inverse_mass], [spring, -env.lam]])
    out = np.zeros((4, 4))
    out[:2, :2] = blk
    out[2:, 2:] = blk
    return out


def build_diffusion_matrix(env: EnvironmentParams) -> NDArray[np.float64]:
    """Symmetric diffusion matrix D in the (x, p_x, y, p_y) ordering."""
    return np.array(
        [
            [env.d_xx, env.d_xpx, env.d_xy, env.d_xpy],
            [env.d_xpx, env.d_pxpx, env.d_ypx, env.d_pxpy],
            [env.d_xy, env.d_ypx, env.d_yy, env.d_ypy],
            [env.d_xpy, env.d_pxpy, env.d_ypy, env.d_pypy],
        ]
    )


def build_gram_matrix(env: EnvironmentParams) -> NDArray[np.complex128]:
    """Hermitian Gram matrix of the environment coupling vectors (hbar = 1).

    Complete positivity of the dynamical semigroup is equivalent to this
    matrix being positive semidefinite.  An environment whose coefficients
    are arrays of one shape gives a stack of matrices.  Strict validation
    builds it only for environments that are not exactly mirrored; for the
    mirrored ones it uses the closed-form spectrum (`_min_gram_eigenvalue`).
    """
    half = 0.5j * env.lam
    return _stack(
        [
            [env.d_xx, -env.d_xpx - half, env.d_xy, -env.d_xpy],
            [-env.d_xpx + half, env.d_pxpx, -env.d_ypx, env.d_pxpy],
            [env.d_xy, -env.d_ypx, env.d_yy, -env.d_ypy - half],
            [-env.d_xpy, env.d_pxpy, -env.d_ypy + half, env.d_pypy],
        ],
        complex,
    )


# Cauchy-Schwarz constraints on the diffusion coefficients; each entry maps a
# constraint name to its slack (non-negative iff satisfied).  The slacks are
# elementwise for arrays of coefficients, and squares are written as products
# so extreme coefficients give inf rather than raise.
_COEFFICIENT_CONSTRAINTS = (
    ("cs_xx_yy", lambda e: e.d_xx * e.d_yy - e.d_xy * e.d_xy),
    ("cs_xx_pxpx", lambda e: e.d_xx * e.d_pxpx - e.d_xpx * e.d_xpx - e.lam * e.lam / 4.0),
    ("cs_xx_pypy", lambda e: e.d_xx * e.d_pypy - e.d_xpy * e.d_xpy),
    ("cs_yy_pxpx", lambda e: e.d_yy * e.d_pxpx - e.d_ypx * e.d_ypx),
    ("cs_yy_pypy", lambda e: e.d_yy * e.d_pypy - e.d_ypy * e.d_ypy - e.lam * e.lam / 4.0),
    ("cs_pxpx_pypy", lambda e: e.d_pxpx * e.d_pypy - e.d_pxpy * e.d_pxpy),
)


_CHECK_NAMES = ("lambda_positive", *(name for name, _ in _COEFFICIENT_CONSTRAINTS), "gram_psd")
#: An environment's coefficients, unchecked: floats, or arrays of one shape for a grid
#: of environments, which the checks below and the closed forms take elementwise.
Coefficients = namedtuple("Coefficients", [f.name for f in fields(EnvironmentParams)])


def _min_gram_eigenvalue(env: EnvironmentParams):
    """Smallest eigenvalue of the Gram matrix, elementwise for coefficient arrays.

    When every `_MIRROR` pair is exactly equal (at every point of a stack),
    the Gram matrix is [[P, Q], [Q, P]] with
        P = [[D_xx, -D_xpx - i lam/2], [-D_xpx + i lam/2, D_pxpx]],
        Q = [[D_xy, -D_xpy], [-D_xpy, D_pxpy]]   (real and symmetric),
    and the unitary (1/sqrt 2)[[I, I], [I, -I]] block-diagonalises it into
    P + Q and P - Q.  Each block is Hermitian [[a, -b - i lam/2],
    [-b + i lam/2, d]] with a = D_xx + s D_xy, d = D_pxpx + s D_pxpy and
    b = D_xpx + s D_xpy (s = +-1), so its smaller eigenvalue is
        a/2 + d/2 - hypot(a/2 - d/2, hypot(b, lam/2)).
    hypot keeps the squares from overflowing or underflowing.  The code
    evaluates half of it, a/4 + d/4 - hypot(a/4 - d/4, hypot(b/2, lam/4)),
    from quarters of the coefficients (halves for b) and doubles the result.
    Scaling by powers of two is exact in range, and no partial sum can
    overflow, so the result is never inf - inf; it is -inf only where the
    eigenvalue is below the double range.  Scalars go through math.hypot,
    several times cheaper than the ufunc on them, arrays through np.hypot;
    the two may differ in the last bit.  Any other environment, mirrored
    only to a tolerance included, goes through `eigvalsh` of
    `build_gram_matrix`, each matrix scaled by a power of two to a largest
    real or imaginary part in [0.5, 1): exact, and unscaled with ldexp, as
    2.0**1024 overflows.  Unscaled, eigvalsh lost digits on entries of
    extreme magnitude (-6.2323e135 for -6.2348e135).
    """
    mirrored = functools.reduce(
        operator.and_, [getattr(env, y) == getattr(env, x) for y, x in _MIRROR.items()]
    )
    stacked = isinstance(mirrored, np.ndarray)
    if not (mirrored.all() if stacked else mirrored):
        gram = build_gram_matrix(env)
        peak = np.maximum(abs(gram.real), abs(gram.imag)).max(axis=(-2, -1))
        exponent = np.frexp(peak)[1]
        scale = -exponent[..., None, None]
        gram.real, gram.imag = np.ldexp(gram.real, scale), np.ldexp(gram.imag, scale)
        low = np.ldexp(np.linalg.eigvalsh(gram)[..., 0], exponent)
        return low if stacked else float(low)
    hypot, minimum = (np.hypot, np.minimum) if stacked else (math.hypot, min)
    xx, xy, pp, py = 0.25 * env.d_xx, 0.25 * env.d_xy, 0.25 * env.d_pxpx, 0.25 * env.d_pxpy
    xp, xq, lam = 0.5 * env.d_xpx, 0.5 * env.d_xpy, 0.25 * env.lam
    halves = [
        (a + d) - hypot(a - d, hypot(b, lam))
        for a, d, b in ((xx + xy, pp + py, xp + xq), (xx - xy, pp - py, xp - xq))
    ]
    return 2.0 * minimum(*halves)


# (env, strict, result) of the last _violations call on an EnvironmentParams.
# Replaced by one assignment and read once per call, so concurrent callers see
# a whole entry; the strong reference keeps env's id from being reused.
_last_violations = (None, None, None)


def _violations(env: EnvironmentParams, strict: bool) -> tuple[tuple, object]:
    """Whether each check in _CHECK_NAMES fails, and the minimum Gram eigenvalue.

    Elementwise for coefficient arrays of one shape.  The Gram check comes
    last, only when strict; the eigenvalue is None otherwise.  The result for
    the last EnvironmentParams object is kept and returned again for the same
    object and mode, so `analyze` after `validate_environment` does not
    repeat the Gram spectrum.  The key is identity, not equality: d_xy = 0.0
    and -0.0 compare equal, yet their eigenvalues may differ in a zero's sign.
    """
    global _last_violations
    last_env, last_strict, result = _last_violations
    if env is last_env and strict == last_strict:
        return result
    # a NaN slack (inf - inf for extreme coefficients) counts as violated
    violated = [env.lam <= 0.0] + [(c(env) >= 0.0) ^ True for _, c in _COEFFICIENT_CONSTRAINTS]
    min_eig = None
    if strict:
        min_eig = _min_gram_eigenvalue(env)
        violated.append(min_eig < -PSD_TOLERANCE)
    result = tuple(violated), min_eig
    if isinstance(env, EnvironmentParams):
        _last_violations = env, strict, result
    return result


def _validity(env: EnvironmentParams) -> tuple:
    """(passes strict, passes lenient), elementwise for array coefficients."""
    violated, _ = _violations(env, strict=True)
    lenient_violated = functools.reduce(operator.or_, violated[:-1])
    # `^ True` negates Python bools, numpy bools and bool arrays alike
    return (lenient_violated | violated[-1]) ^ True, lenient_violated ^ True


def validate_environment(
    env: EnvironmentParams, mode: str = "strict"
) -> ValidationReport:
    """Check the environment coefficients against the positivity constraints.

    Lenient mode checks lam > 0 plus the six pairwise Cauchy-Schwarz
    inequalities (e.g. D_xx D_pxpx - D_xpx^2 >= lam^2/4).  Strict mode
    additionally requires the full Gram matrix to be positive semidefinite
    (minimum eigenvalue >= -PSD_TOLERANCE).  That eigenvalue comes from a
    closed form when the y-mode coefficients mirror the x-mode ones exactly,
    and from `numpy.linalg.eigvalsh` otherwise; the two agree to rounding.
    Physics violations are reported, never raised.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    violated, min_eig = _violations(env, mode == "strict")
    failed = tuple([name for name, bad in zip(_CHECK_NAMES, violated) if bad])
    min_eig = None if min_eig is None else float(min_eig)
    return ValidationReport(mode, not failed, failed, min_eig)


def is_hurwitz(y: NDArray[np.float64]) -> bool:
    """True iff every eigenvalue of y has strictly negative real part.

    The largest real part comes from `dynamics._drift_spectrum`: in closed form
    for a block-diagonal 4x4 y, such as `build_drift_matrix` makes, and from
    `numpy.linalg.eigvals` for any other y.
    """
    from .dynamics import _drift_spectrum  # dynamics imports this module

    return _drift_spectrum(np.asarray(y, dtype=float))[0] < 0.0


def make_vacuum_covariance(osc: OscillatorParams) -> NDArray[np.float64]:
    """Covariance matrix of the product of the two oscillator ground states."""
    q = 1.0 / (2.0 * osc.m * osc.omega)
    p = osc.m * osc.omega / 2.0
    return np.diag([q, p, q, p])


def check_state_covariance(sigma, atol: float = 1e-12) -> NDArray[np.float64]:
    """Validate an input-state covariance matrix: 4x4, symmetric, positive definite.

    Returns the (exactly symmetrized) matrix; raises ValueError otherwise.
    Intermediate results of the dynamics are not funnelled through this check.
    """
    sig = _read_covariance(sigma, atol)[0]
    sig = 0.5 * (sig + sig.T)
    if float(np.linalg.eigvalsh(sig)[0]) <= 0.0:
        raise ValueError("covariance matrix must be positive definite")
    return sig
