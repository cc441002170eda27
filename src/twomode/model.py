"""Domain types, drift/diffusion matrix builders and environment validation.

All matrices use the phase-space ordering (x, p_x, y, p_y) and hbar = 1.
Types are immutable after construction and every operation is a pure
function, so everything here is safe for unrestricted concurrent use; the
one cache, `_violations`'s last result, is replaced by a single assignment.
The drift matrix's layout is known here alone: `build_drift_matrix` writes it and
`_drift_block` reads its block's entries back, exactly, for `is_hurwitz` and `twomode.dynamics`.
Any other matrix is a ValueError, except in `is_hurwitz`, which takes it to eigvals.  sigma is
passed as its ten upper entries in one order, `UPPER`; `_symmetric` builds the matrix back.
Mirrored means exactly equal: `is_symmetric_environment` is the one rule, which
a `SymmetricEnvironmentParams` passes by construction.  Strict validation's Gram
spectrum is a closed form for a mirrored environment and one power-of-two-scaled
`eigvalsh` otherwise, scaled on floats or arrays.  The package's one rounding rule,
`_denoised`, decides the Cauchy-Schwarz constraints and every boundary of `entanglement`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import namedtuple
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.typing import NDArray

from .errors import NonFiniteResultError

#: 2x2 symplectic matrix.
J = np.array([[0.0, 1.0], [-1.0, 0.0]])
J.flags.writeable = False

#: Absolute eigenvalue floor for the positive-semidefiniteness check, so a Gram
#: spectrum at 0 passes whatever its rounding; being absolute, it depends on the unit of time.
PSD_TOLERANCE = 1e-10

_NOISE = 4.0 * float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double

#: y-mode field -> the x-mode field it equals in a symmetric environment (field order).
MIRROR = {"d_ypx": "d_xpy", "d_yy": "d_xx", "d_ypy": "d_xpx", "d_pypy": "d_pxpx"}


def _denoised(difference, size):
    """difference, or 0 where |difference| < _NOISE (4 eps) times the size of its terms."""
    return difference * ((abs(difference) < _NOISE * size) ^ True)


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
        values = _field_values(self)
        try:  # a finite sum has finite terms; fsum adds numpy scalars as floats, with no warning
            finite = math.isfinite(math.fsum(values))
        except (OverflowError, ValueError):  # finite terms that overflow, or inf - inf
            finite = False
        if not finite:
            for name, value in zip(_FIELDS, values):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")


#: The eleven field names in field order, and a reader of their values in one call; a reader
#: of D's 16 row-major entries as `build_diffusion_matrix` lays them out, floats or arrays.
_FIELDS = tuple(f.name for f in fields(EnvironmentParams))
_field_values = operator.attrgetter(*_FIELDS)
_diffusion_entries = operator.attrgetter(
    "d_xx", "d_xpx", "d_xy", "d_xpy", "d_xpx", "d_pxpx", "d_ypx", "d_pxpy",
    "d_xy", "d_ypx", "d_yy", "d_ypy", "d_xpy", "d_pxpy", "d_ypy", "d_pypy")


@dataclass(frozen=True, init=False)
class SymmetricEnvironmentParams(EnvironmentParams):
    """Environment whose y-mode noise mirrors the x-mode noise.

    Constructed from the reduced coefficient set; the duplicates are filled
    in from `MIRROR` (d_yy = d_xx, d_ypy = d_xpx, d_pypy = d_pxpx and
    d_ypx = d_xpy), which makes both reduced one-mode covariance matrices
    equal and the cross-correlation block symmetric.  The duplicates are not
    arguments, so `dataclasses.replace` mirrors a changed x-mode field and
    refuses a y-mode one: being frozen, every such object is mirrored.
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
        # the generated __init__, in field order, each y-mode field given its MIRROR x-mode value
        super().__init__(lam, d_xx, d_xpx, d_xy, d_xpy, d_xpy, d_pxpx, d_xx, d_xpx, d_pxpy, d_pxpx)


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


_FLOAT = np.dtype(float)
#: The row-major entries of a 4x4 matrix above its diagonal, and those below it in the same order.
_ABOVE = operator.itemgetter(1, 2, 3, 6, 7, 11)
_BELOW = operator.itemgetter(4, 8, 12, 9, 13, 14)


def _as_real(a, name: str, any_shape: bool = False) -> NDArray[np.float64]:
    """a as a float array, a itself when it is one (an exact ndarray of native float64, 4x4 unless
    any_shape); ValueError naming the matrix when a is complex (refused before the cast would
    drop its imaginary parts) or, unless any_shape, not 4x4."""
    if type(a) is np.ndarray and a.dtype is _FLOAT and (any_shape or a.shape == (4, 4)):
        return a
    out = np.asarray(a)
    if out.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got a complex dtype")
    out = np.asarray(out, dtype=float)
    if not (any_shape or out.shape == (4, 4)):
        raise ValueError(f"{name} must be 4x4, got shape {out.shape}")
    return out


def _read_covariance(sigma, atol: float | None = None, name: str = "covariance matrix") -> tuple:
    """sigma as a real 4x4 float array (`_as_real`) and its 16 entries as Python floats, row-major.

    The entries are read once, with one `tolist()`, and checked on floats:
    finite, and given atol, symmetric to atol * max |entry|, with no floor.
    """
    sig = _as_real(sigma, name)
    flat = sig.ravel().tolist()
    # a finite sum has finite terms; an infinite one may have overflowed
    if not (math.isfinite(sum(flat)) or all(map(math.isfinite, flat))):
        raise ValueError(f"{name} entries must be finite")
    if atol is not None:
        skew = max(map(abs, map(operator.sub, _ABOVE(flat), _BELOW(flat))))
        if skew > atol * max(map(abs, flat)):
            raise ValueError("covariance matrix must be symmetric")
    return sig, flat


#: Row and column indices of sigma's ten upper entries s00, s01, s02, s03, s11, s12, s13,
#: s22, s23, s33: the one order in which the package passes them.
UPPER = ((0, 0, 0, 0, 1, 1, 1, 2, 2, 3), (0, 1, 2, 3, 1, 2, 3, 2, 3, 3))
_PAIRS = list(zip(*UPPER))
#: The ten entries from sigma's 16 row-major entries, and the 16 from the ten.
_UPPER_ENTRIES = operator.itemgetter(*(4 * i + j for i, j in _PAIRS))
_ROW_MAJOR = operator.itemgetter(
    *(_PAIRS.index((min(i, j), max(i, j))) for i in range(4) for j in range(4))
)


def _symmetric(upper) -> NDArray[np.float64]:
    """The symmetric 4x4 matrix of ten upper entries in `UPPER` order, owning its data."""
    sigma = np.empty((4, 4))
    sigma.flat = _ROW_MAJOR(upper)
    return sigma


def _stack(rows, dtype=float) -> NDArray:
    """Square matrices [..., n, n] from n x n nested rows of scalars or same-shape arrays."""
    out = np.array(rows, dtype=dtype)
    return out if out.ndim == 2 else np.moveaxis(out, (0, 1), (-2, -1))


#: Readers of the four y-mode fields and of their `MIRROR` x-mode fields, one call each.
_Y_MODE, _X_MODE = operator.attrgetter(*MIRROR), operator.attrgetter(*MIRROR.values())


def is_symmetric_environment(env: EnvironmentParams) -> bool:
    """True when each y-mode coefficient equals its `MIRROR` x-mode one exactly (`==`, so
    whatever the unit of time), elementwise for arrays.  A `SymmetricEnvironmentParams`
    is mirrored by construction and is not compared; an `EnvironmentParams`, whose
    fields are finite, is compared as one tuple of its four y-mode fields."""
    if isinstance(env, EnvironmentParams):
        return isinstance(env, SymmetricEnvironmentParams) or _Y_MODE(env) == _X_MODE(env)
    return functools.reduce(operator.and_, map(operator.eq, _Y_MODE(env), _X_MODE(env)))


def build_drift_matrix(
    osc: OscillatorParams, env: EnvironmentParams
) -> NDArray[np.float64]:
    """Drift generator Y of d(sigma)/dt = Y sigma + sigma Y^T + 2 D.

    Block-diagonal with two identical damped-oscillator blocks
    [[-lam, 1/m], [-m omega^2, -lam]]; only lam is used from the environment.
    Raises NonFiniteResultError when 1/m, omega^2 or m omega^2 leaves the normal
    doubles: an overflow is no matrix, and a subnormal entry keeps too few digits for exp(Y t).
    """
    inverse_mass, square = 1.0 / osc.m, osc.omega * osc.omega
    spring = -osc.m * square
    if not (_TINY <= inverse_mass < math.inf and square >= _TINY and _TINY <= -spring < math.inf):
        raise NonFiniteResultError(
            f"drift matrix is out of double-precision range for m = {osc.m!r}, "
            f"omega = {osc.omega!r}: 1/m, omega^2 and m omega^2 must lie in [{_TINY!r}, 1.8e308)"
        )
    a = -env.lam
    return np.array([[a, inverse_mass, 0.0, 0.0], [spring, a, 0.0, 0.0],
                     [0.0, 0.0, a, inverse_mass], [0.0, 0.0, spring, a]])


def _drift_block(y) -> tuple[float, float, float]:
    """(a, b, c) of the block [[a, b], [c, a]] that a drift matrix in exactly
    `build_drift_matrix`'s layout repeats on its diagonal, read with one `tolist()`:
    real, 4x4, finite, off-diagonal blocks of exact zeros and two identical blocks
    with b > 0 > c.  Any other y is a ValueError."""
    rows = _as_real(y, "drift matrix").tolist()
    (a, b, z0, z1), (c, d, z2, z3), (z4, z5, e, f), (z6, z7, g, h) = rows
    zeros = not (z0 or z1 or z2 or z3 or z4 or z5 or z6 or z7)  # a NaN is true
    finite = a * 0.0 + b * 0.0 + c * 0.0 == 0.0  # x * 0.0 is 0.0 for finite x only
    if zeros and finite and (a, b, c, d) == (e, f, g, h) and a == d and b > 0.0 > c:
        return a, b, c
    raise ValueError("drift matrix is not of the two-oscillator damped form")


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
    return _gram(*_field_values(env)[1:], 0.5 * env.lam)


def _gram(xx, xpx, xy, xpy, ypx, pxpx, yy, ypy, pxpy, pypy, half) -> NDArray[np.complex128]:
    """The Gram matrix of the ten coefficients, in field order, and half = lam/2.

    Real and imaginary parts are written, not summed (-0.0 + 0j has real part +0.0), so
    scaled inputs scale every entry exactly, signed zeros too, which eigvalsh can tell apart.
    One environment's floats make one `np.array` call (`complex(re, im)` keeps both signs);
    a stack, xx an array, is `_stack`ed and its imaginary parts assigned: the same bits.
    """
    if isinstance(xx, float):
        return np.array([xx, complex(-xpx, -half), xy, -xpy, complex(-xpx, half), pxpx, -ypx,
                         pxpy, xy, -ypx, yy, complex(-ypy, -half), -xpy, pxpy,
                         complex(-ypy, half), pypy], complex).reshape(4, 4)
    gram = _stack([[xx, -xpx, xy, -xpy], [-xpx, pxpx, -ypx, pxpy], [xy, -ypx, yy, -ypy],
                   [-xpy, pxpy, -ypy, pypy]], complex)
    gram.imag[..., 0, 1] = gram.imag[..., 2, 3] = -half
    gram.imag[..., 1, 0] = gram.imag[..., 3, 2] = half
    return gram


_CHECK_NAMES = ("lambda_positive", "cs_xx_yy", "cs_xx_pxpx", "cs_xx_pypy", "cs_yy_pxpx",
                "cs_yy_pypy", "cs_pxpx_pypy", "gram_psd")
#: An environment's coefficients, unchecked: floats, or arrays of one shape for a grid
#: of environments, which the checks below and the closed forms take elementwise.
Coefficients = namedtuple("Coefficients", _FIELDS)


def _min_gram_eigenvalue(env: EnvironmentParams):
    """Smallest eigenvalue of the Gram matrix, elementwise for coefficient arrays.

    When the environment is mirrored (`is_symmetric_environment`: by construction
    or at every point of a stack), the Gram matrix is [[P, Q], [Q, P]] with
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
    the two may differ in the last bit.  Any other environment goes through
    one `eigvalsh` of the Gram matrix built by `_gram` from its coefficients
    and lam/2 scaled by the power of two that brings the largest of their
    |values| into [0.5, 1): exact, unless a value far below the largest turns
    subnormal.  The smallest eigenvalue is unscaled with ldexp, as 2.0**1024
    overflows; an eigenvalue beyond the double range is +-inf.  Unscaled,
    eigvalsh lost digits on entries of extreme magnitude (-6.2323e135 for
    -6.2348e135).  Like hypot, frexp and ldexp come from math for one
    environment and from numpy for a stack, whose overflow is not warned of.
    """
    mirrored = is_symmetric_environment(env)
    if not isinstance(mirrored, np.ndarray):
        return _gram_floor(env, mirrored, math)
    with np.errstate(over="ignore"):
        return _gram_floor(env, mirrored.all(), np)


def _gram_floor(env: EnvironmentParams, mirrored: bool, lib):
    """`_min_gram_eigenvalue` with hypot, frexp and ldexp from lib: math or numpy."""
    if not mirrored:
        values = [*_field_values(env)[1:], 0.5 * env.lam]
        magnitudes = map(abs, values)
        peak = functools.reduce(np.maximum, magnitudes) if lib is np else max(magnitudes)
        exponent = lib.frexp(peak)[1]
        gram = _gram(*[lib.ldexp(v, -exponent) for v in values])
        low = np.linalg.eigvalsh(gram)[..., 0]
        try:
            return lib.ldexp(low, exponent)
        except OverflowError:  # math.ldexp's, where np.ldexp gives inf
            return math.copysign(math.inf, low)
    xx, xy, pp, py = 0.25 * env.d_xx, 0.25 * env.d_xy, 0.25 * env.d_pxpx, 0.25 * env.d_pxpy
    xp, xq, lam = 0.5 * env.d_xpx, 0.5 * env.d_xpy, 0.25 * env.lam
    halves = [
        (a + d) - lib.hypot(a - d, lib.hypot(b, lam))
        for a, d, b in ((xx + xy, pp + py, xp + xq), (xx - xy, pp - py, xp - xq))
    ]
    return 2.0 * (np.minimum if lib is np else min)(*halves)


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
    # (a, b) of the Cauchy-Schwarz constraints a >= b in _CHECK_NAMES' order, squares as
    # products (inf, not an error); each holds where a - b is 0 to rounding, not where NaN
    e, quarter = env, env.lam * env.lam / 4.0
    sides = (
        (e.d_xx * e.d_yy, e.d_xy * e.d_xy),
        (e.d_xx * e.d_pxpx, e.d_xpx * e.d_xpx + quarter),
        (e.d_xx * e.d_pypy, e.d_xpy * e.d_xpy),
        (e.d_yy * e.d_pxpx, e.d_ypx * e.d_ypx),
        (e.d_yy * e.d_pypy, e.d_ypy * e.d_ypy + quarter),
        (e.d_pxpx * e.d_pypy, e.d_pxpy * e.d_pxpy),
    )
    violated = [env.lam <= 0.0] + [(_denoised(a - b, abs(a) + b) >= 0.0) ^ True for a, b in sides]
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
    inequalities (e.g. D_xx D_pxpx >= D_xpx^2 + lam^2/4), to rounding.  Strict mode
    additionally requires the full Gram matrix to be positive semidefinite
    (minimum eigenvalue >= -PSD_TOLERANCE).  That eigenvalue comes from a
    closed form when the y-mode coefficients mirror the x-mode ones exactly,
    and from `numpy.linalg.eigvalsh` otherwise; the two agree to rounding.
    Physics violations are reported, never raised.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    violated, min_eig = _violations(env, mode == "strict")
    failed = tuple(itertools.compress(_CHECK_NAMES, violated))
    min_eig = None if min_eig is None else float(min_eig)
    return ValidationReport(mode, not failed, failed, min_eig)


def is_hurwitz(y: NDArray[np.float64]) -> bool:
    """True iff every eigenvalue of y has strictly negative real part.

    A drift matrix in `build_drift_matrix`'s layout has the eigenvalues
    -lam +- i omega, so it is Hurwitz iff lam > 0 (`_drift_block`); any other
    square y goes through `numpy.linalg.eigvals`, which raises LinAlgError on a
    non-finite y.  A complex y is a ValueError.
    """
    y = _as_real(y, "drift matrix", any_shape=True)
    try:
        return -_drift_block(y)[0] > 0.0
    except ValueError:  # off the layout
        return float(np.linalg.eigvals(y).real.max()) < 0.0


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
