"""Separability and entanglement quantification for two-mode Gaussian states.

Simon's PPT criterion decides separability (S >= 0 iff separable), and the
logarithmic negativity E = -1/2 log2[4 f(sigma)] quantifies entanglement for
E > 0.  Closed forms are provided for the matched-noise coefficient class
m^2 w^2 D_xx = D_pxpx, D_xpx = 0, m^2 w^2 D_xy = D_pxpy of mirrored environments:
mirrored and the zeros exact, the two equalities to `model._denoised`'s rounding rule,
which also decides S = 0, the radicand's sign, u = 1/2 and the window's edges (E_closed).
Those closed forms and det C are evaluated on the scaled coordinates u = m w D_xx / lam,
v = D_xpy / sqrt(lam^2 + w^2), x = m w D_xy / lam and y = D_pxpy / (m w lam), so no power of
lambda forms; `dynamics.steady_state_closed_form`, the solve's independent check, stays raw.

One kernel, `_kernel`, evaluates S, f, E and Simon's verdict from the ten
upper entries of sigma in `model.UPPER` order, Python floats for one matrix or arrays for a stack.
One decision, `_closed_forms`, gives S_special, E_closed and the window
elementwise, with a code per field naming the first condition that fails.
`report` adds validity and the closed forms to the kernel: `analyze` is its
one-matrix view, with notes read from the codes, and the CLI tables its columns.
Every public closed form, `dynamics.steady_state_closed_form` too, raises the
`_ABSENCE_ERRORS` entry of its first failing code: ClassViolationError, then
NonPositiveLambdaError, DivergentNegativityError, UncertaintyViolationError, NonFiniteResultError.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ClassViolationError,
    DivergentNegativityError,
    NegativeRadicandError,
    NonFiniteResultError,
    NonPositiveFError,
    NonPositiveLambdaError,
    UncertaintyViolationError,
)
from .model import (
    UPPER,
    _UPPER_ENTRIES,
    BlockDecomposition,
    EnvironmentParams,
    OscillatorParams,
    _TINY,
    _denoised,
    _read_covariance,
    _validity,
    is_symmetric_environment,
)

_DIVERGENCE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class EntanglementReport:
    """Bundle of separability indicators for one covariance matrix.

    Closed-form fields are None when no oscillator/environment context was
    given or the coefficients fall outside the class the closed form
    assumes; `notes` records why a field is absent.
    """

    det_a: float
    det_b: float
    det_c: float
    s_general: float
    verdict: str
    f_sigma: float | None = None
    e_general: float | None = None
    s_special: float | None = None
    e_closed: float | None = None
    window: tuple[float, float] | None = None
    valid_strict: bool | None = None
    valid_lenient: bool | None = None
    notes: tuple[str, ...] = ()


_Invariants = namedtuple("_Invariants", "det_a det_b det_c s radicand f e verdict")
#: `_kernel`'s where, sqrt, log2 and maximum: numpy's for arrays, and for Python floats
_ARRAY_OPS = (np.where, np.sqrt, np.log2, np.maximum)
_FLOAT_OPS = (lambda c, x, y: x if c else y, math.sqrt, lambda x: float(np.log2(x)), max)


def _unequal(a, b):
    """a != b beyond rounding: a - b is not `_denoised` to 0 against |a| + |b|."""
    return _denoised(a - b, abs(a) + abs(b)) != 0.0


def _kernel(s00, s01, s02, s03, s11, s12, s13, s22, s23, s33, det_sigma=None) -> _Invariants:
    """S, f, E and the verdict (entangled iff S < 0) of sigma's upper entries: floats, or arrays.

    With sigma = [[A, C], [C^T, B]], h = (det A + det B)/2 - det C and
    T = Tr[A J C J B J C^T J] = s00 (r adj B r) - 2 s01 (q adj B r) + s11 (q adj B q),
    q = (s02, s03), r = (s12, s13):  S = det A det B + (1/4 - |det C|)^2 - T
    - (det A + det B)/4,  f = h - sqrt(h^2 - det sigma),  E = -1/2 np.log2(4 f) on floats too.
    To keep digits, the radicand is (det A - det B)^2/4 + T - (det A + det B) det C
    (h^2 - det sigma for a caller's det sigma), det sigma is det A det(B - C^T A^-1 C)
    (det A det B + det C^2 - T where det A = 0), and f = det sigma / (h + sqrt of the
    radicand) where h > 0; where that det sigma is below the normal range (entries
    below about 1e-77), f = det A (det(B - C^T A^-1 C) / (h + sqrt of the radicand)),
    so det sigma never forms.  `_denoised` makes a difference of rounding noise 0: S, then
    +0 with E = 0, so a state on the window's edge is separable; the radicand, against
    (det A - det B)^2/4 + |T| + |(det A + det B) det C| (or h^2, given det sigma); the Schur
    complement's entries and determinant, so a singular sigma gets f = 0.  E is NaN where
    f <= 0 or the radicand is negative, and the verdict "" where S is not finite.
    """
    det_a = s00 * s11 - s01 * s01
    det_b = s22 * s33 - s23 * s23
    det_c = s02 * s13 - s03 * s12
    br0, br1 = s33 * s12 - s23 * s13, s22 * s13 - s23 * s12  # adj B r
    bq0, bq1 = s33 * s02 - s23 * s03, s22 * s03 - s23 * s02  # adj B q
    cross = s00 * (s12 * br0 + s13 * br1) - 2.0 * s01 * (s02 * br0 + s03 * br1)
    cross = cross + s11 * (s02 * bq0 + s03 * bq1)
    quarter = 0.25 - abs(det_c)
    s = det_a * det_b + quarter * quarter - cross - 0.25 * (det_a + det_b)
    size = abs(det_a * det_b) + quarter * quarter + abs(cross) + 0.25 * (abs(det_a) + abs(det_b))
    s = _denoised(s, size) + 0.0  # + 0.0: an S of rounding noise is 0, not -0.0
    head = 0.5 * (det_a + det_b) - det_c
    where, sqrt, log2, maximum = _ARRAY_OPS if isinstance(head, np.ndarray) else _FLOAT_OPS
    if det_sigma is None:
        half_gap, mixed = 0.5 * (det_a - det_b), (det_a + det_b) * det_c
        gap2 = half_gap * half_gap
        radicand = _denoised(gap2 + cross - mixed, gap2 + abs(cross) + abs(mixed))
        pivot = det_a != 0.0
        divisor = where(pivot, det_a, 1.0)
        u0, u1 = (s11 * s02 - s01 * s12) / divisor, (s00 * s12 - s01 * s02) / divisor
        w0, w1 = (s11 * s03 - s01 * s13) / divisor, (s00 * s13 - s01 * s03) / divisor
        x00, x01, x11 = s02 * u0 + s12 * u1, s03 * u0 + s13 * u1, s03 * w0 + s13 * w1
        # the Schur complement B - C^T A^-1 C, with A^-1 C = (u, w) and C^T A^-1 C = x
        schur00 = _denoised(s22 - x00, abs(s22) + abs(x00))
        schur01 = _denoised(s23 - x01, abs(s23) + abs(x01))
        schur11 = _denoised(s33 - x11, abs(s33) + abs(x11))
        minor, skew = schur00 * schur11, schur01 * schur01
        det_schur = _denoised(minor - skew, abs(minor) + skew)
        det_sigma = where(pivot, det_a * det_schur, det_a * det_b + det_c * det_c - cross)
        split = pivot & (abs(det_sigma) < _TINY)
    else:
        radicand = _denoised(head * head - det_sigma, head * head)
        split = False
    root = sqrt(maximum(radicand, 0.0))
    positive = head > 0.0
    f = where(positive, det_sigma / where(positive, head + root, 1.0), head - root)
    if split.any() if isinstance(split, np.ndarray) else split:
        # det sigma underflows here, but not det A or det(B - C^T A^-1 C)
        f = where(split & positive, det_a * (det_schur / where(positive, head + root, 1.0)), f)
    defined = (radicand >= 0.0) & (f > 0.0)
    e = -0.5 * log2(4.0 * where(defined, f, math.nan))
    # S = 0 puts the partial transpose's smaller symplectic eigenvalue at 1/2: E is 0
    e = where(s == 0.0, 0.0 * e + 0.0, e)
    verdict = where(_nonfinite(s), "", where(s < 0.0, "entangled", "separable"))
    return _Invariants(det_a, det_b, det_c, s, radicand, f, e, verdict)


def _check_invariants(inv: _Invariants) -> None:
    """NonFiniteResultError where an invariant overflows, then NegativeRadicandError."""
    # det_a to f, e being NaN wherever it is undefined; a finite sum has finite terms
    if not (math.isfinite(sum(inv[:6])) or all(map(math.isfinite, inv[:6]))):
        raise NonFiniteResultError("covariance invariants overflow double precision")
    if inv.radicand < 0.0:
        raise NegativeRadicandError(
            f"radicand {float(inv.radicand)!r} is negative beyond tolerance; "
            "input is not a physical covariance matrix"
        )


def block_decompose(sigma: NDArray[np.float64]) -> BlockDecomposition:
    """Split a 4x4 covariance matrix into its one-mode and cross blocks."""
    sig = _read_covariance(sigma)[0]
    return BlockDecomposition(a=sig[:2, :2].copy(), b=sig[2:, 2:].copy(), c=sig[:2, 2:].copy())


def simon_s(blocks: BlockDecomposition) -> float:
    """Simon separability indicator; S >= 0 iff the Gaussian state is separable.

    S = det A det B + (1/4 - |det C|)^2 - Tr[A J C J B J C^T J]
        - (det A + det B)/4.
    """
    return float(_kernel(*blocks.reassemble()[UPPER].tolist()).s)


def f_sigma(blocks: BlockDecomposition, det_sigma: float) -> float:
    """Square of the smaller symplectic eigenvalue of the partial transpose.

    f = (det A + det B)/2 - det C
        - sqrt{[(det A + det B)/2 - det C]^2 - det sigma}.
    Overflowing invariants raise NonFiniteResultError, as in `log_negativity`.
    """
    inv = _kernel(*blocks.reassemble()[UPPER].tolist(), det_sigma=float(det_sigma))
    _check_invariants(inv)
    return float(inv.f)


def log_negativity(sigma: NDArray[np.float64]) -> float:
    """Logarithmic negativity E = -1/2 log2[4 f(sigma)]; E > 0 iff entangled.

    sigma is read and its invariants checked as in `analyze`, without the symmetry check.
    """
    inv = _kernel(*_UPPER_ENTRIES(_read_covariance(sigma)[1]))
    _check_invariants(inv)
    if inv.f <= 0.0:
        raise NonPositiveFError(f"f(sigma) = {float(inv.f)!r} must be positive")
    return float(inv.e)


def _divide(x, scalar: float):
    """x / scalar, giving numpy's inf or NaN for a zero scalar on Python floats too."""
    return x / scalar if scalar else x * math.inf


def _scaled_coordinates(osc: OscillatorParams, env: EnvironmentParams) -> tuple:
    """The module docstring's scaled coordinates (u, v, x, y), then root = sqrt(lam^2 + w^2)."""
    lam, mw = env.lam, osc.m * osc.omega
    root = math.hypot(lam, osc.omega)  # lam is one float, so math.hypot serves arrays too
    return (_divide(mw * env.d_xx, lam), _divide(env.d_xpy, root), _divide(mw * env.d_xy, lam),
            _divide(env.d_pxpy / mw, lam), root)


def _det_c(osc: OscillatorParams, env: EnvironmentParams, u, v, x, y, root: float):
    """det C = (s (x + y)/2)^2 + (c x)(c y) - v^2 with c = lam / root and s = w / root."""
    c, half = env.lam / root, 0.5 * (osc.omega / root) * (x + y)
    return half * half + (c * x) * (c * y) - v * v


def _mw2(osc: OscillatorParams) -> float:
    mw = osc.m * osc.omega
    return mw * mw


def _nonfinite(x):
    """Elementwise ~isfinite that keeps a Python float's result a Python bool."""
    return (x != x) | (abs(x) == math.inf)


# Why a closed-form field is absent, one code per condition in the order they
# are checked; 0 means the field is present.
_MIRRORED, _PXPX, _XPX, _PXPY, _CROSS, _LAMBDA, _DIVERGENT, _UNCERTAINTY, _NONFINITE = range(1, 10)
# value * _SHOWN[code] is the value where the code is 0 and NaN elsewhere.
_SHOWN = np.array([1.0] + [np.nan] * _NONFINITE)
# The error that each code stands for, as the public closed forms raise it.
_ABSENCE_ERRORS = {
    _MIRRORED: lambda osc, env: ClassViolationError(
        "environment must have mirrored y-mode coefficients"
    ),
    _PXPX: lambda osc, env: ClassViolationError(
        f"d_pxpx must equal (m omega)^2 d_xx, got {env.d_pxpx!r} vs {_mw2(osc) * env.d_xx!r}"
    ),
    _XPX: lambda osc, env: ClassViolationError(f"d_xpx must vanish, got {env.d_xpx!r}"),
    _PXPY: lambda osc, env: ClassViolationError(
        f"d_pxpy must equal (m omega)^2 d_xy, got {env.d_pxpy!r} vs {_mw2(osc) * env.d_xy!r}"
    ),
    _CROSS: lambda osc, env: ClassViolationError(f"d_xy must vanish, got {env.d_xy!r}"),
    _LAMBDA: lambda osc, env: NonPositiveLambdaError(
        f"dissipation constant must be positive, got lam = {env.lam!r}"
    ),
    _DIVERGENT: lambda osc, env: DivergentNegativityError(
        "negativity diverges at this coefficient combination; "
        "such environments fail strict validation"
    ),
    _UNCERTAINTY: lambda osc, env: UncertaintyViolationError(
        f"m omega D_xx / lambda = {_scaled_coordinates(osc, env)[0]!r} "
        "violates the uncertainty bound 1/2"
    ),
    _NONFINITE: lambda osc, env: NonFiniteResultError(
        "closed form is not finite in double precision"
    ),
}


def _mirrored_closed_form(evaluate, osc: OscillatorParams, env: EnvironmentParams):
    """evaluate(osc, env) or the error of the first failing code: _MIRRORED, _LAMBDA, _NONFINITE."""
    if not is_symmetric_environment(env):
        raise _ABSENCE_ERRORS[_MIRRORED](osc, env)
    if not env.lam > 0.0:
        raise _ABSENCE_ERRORS[_LAMBDA](osc, env)
    try:
        value = evaluate(osc, env)
    except ZeroDivisionError:  # a denominator underflows to 0
        value = math.nan
    if not np.isfinite(value).all():
        raise _ABSENCE_ERRORS[_NONFINITE](osc, env)
    return value


def _first_failure(code, *checks):
    """Elementwise: `code` where nonzero, else the first failing (code, fails) check's code."""
    for failure, fails in checks:
        code = code + failure * fails * (code == 0)
    return code


_ClosedForms = namedtuple("_ClosedForms", "s_special e_closed window s_code e_code window_code")
_CLOSED_FIELDS = _ClosedForms._fields[:3]


def _closed_forms(osc: OscillatorParams, env: EnvironmentParams) -> _ClosedForms:
    """The closed-form decision: S_special, E_closed and the window at every point.

    lambda is one float, the diffusion coefficients floats or arrays of one
    shape.  A value is NaN where its field is absent; its code names the first
    condition that fails there: the matched class, then D_xy = 0 (not for
    S_special), lambda > 0, the divergence or the uncertainty bound, a finite value.
    Outside the matched class every code is the class code, so one environment
    of Python floats returns there, before any closed form is evaluated.
    """
    mw2 = _mw2(osc)
    matched = _first_failure(
        0,
        (_MIRRORED, is_symmetric_environment(env) ^ True),
        (_PXPX, _unequal(mw2 * env.d_xx, env.d_pxpx)),
        (_XPX, env.d_xpx != 0.0),
        (_PXPY, _unequal(mw2 * env.d_xy, env.d_pxpy)),
    )
    # the ndarray test comes first: an array's truth value is ambiguous
    if not isinstance(matched, np.ndarray) and matched:
        return _ClosedForms(math.nan, math.nan, (math.nan, math.nan), matched, matched, matched)
    positive = (_LAMBDA, (env.lam > 0.0) ^ True)
    zero_cross = _first_failure(matched, (_CROSS, env.d_xy != 0.0), positive)
    u, v, x, y, root = _scaled_coordinates(osc, env)
    det_c = _det_c(osc, env, u, v, x, y, root)
    # S_special factored; 0.5 (det C + |det C|) is max(det C, 0), and + 0.0 makes -0.0 0
    s_special = ((u - v) * (u - v) - x * x - 0.25) * ((u + v) * (u + v) - x * x - 0.25)
    s_special = s_special - 0.5 * (det_c + abs(det_c)) + 0.0
    gap = abs(u - v)
    diverges = gap < _DIVERGENCE_TOLERANCE
    # E = -log2(2 gap), kept off log2(0); past the divergence E is finite where 2 gap is
    twice_gap = 2.0 * (gap + diverges)
    # u - 1/2 is 0 on the bound to rounding; for u >= 1/2, low is finite where high is
    excess = _denoised(u - 0.5, u + 0.5)
    low, high = root * excess + 0.0, root * (u + 0.5)
    s_code = _first_failure(matched, positive, (_NONFINITE, _nonfinite(s_special)))
    e_code = _first_failure(zero_cross, (_DIVERGENT, diverges), (_NONFINITE, _nonfinite(twice_gap)))
    window_code = _first_failure(
        zero_cross, (_UNCERTAINTY, excess < 0.0), (_NONFINITE, _nonfinite(high))
    )
    shown = _SHOWN[window_code]
    window = low * shown, high * shown
    # +0 on the window's edges, where 2 |u - v| is 1 to rounding; elsewhere no bit changes
    off_edge = _denoised(twice_gap - 1.0, 2.0 * (abs(u) + abs(v)) + 1.0) != 0.0
    e_closed = -np.log2(twice_gap) * off_edge * _SHOWN[e_code] + 0.0
    return _ClosedForms(s_special * _SHOWN[s_code], e_closed, window, s_code, e_code, window_code)


def _closed_form_fields(forms: _ClosedForms) -> list:
    """One environment's `_CLOSED_FIELDS` from its `forms`, as floats, each None where absent."""
    s_special, e_closed, (low, high), s_code, e_code, window_code = forms
    return [None if s_code else float(s_special), None if e_code else float(e_closed),
            None if window_code else (float(low), float(high))]


def _closed_form_value(name: str, osc: OscillatorParams, env: EnvironmentParams):
    """The closed-form field `name`, or the `_ABSENCE_ERRORS` entry of its code raised."""
    forms, index = _closed_forms(osc, env), _CLOSED_FIELDS.index(name)
    code = forms[3 + index]
    if code:
        raise _ABSENCE_ERRORS[code](osc, env)
    return _closed_form_fields(forms)[index]


_Report = namedtuple(
    "_Report", (*_Invariants._fields, "valid_strict", "valid_lenient", "forms", "gated")
)


def report(entries, osc=None, env=None) -> _Report:
    """The separability report from sigma's ten upper entries, in `UPPER` order.

    Entries and coefficients are Python floats for one matrix, or arrays of one
    shape for a stack.  Given osc and env it adds strict and lenient validity,
    the closed forms with their codes and `gated`, below the uncertainty bound.
    """
    if (osc is None) != (env is None):
        raise ValueError("osc and env must be provided together")
    inv = _kernel(*entries)
    if env is None:
        return _Report(*inv, None, None, None, None)
    forms = _closed_forms(osc, env)
    return _Report(*inv, *_validity(env), forms, forms.window_code == _UNCERTAINTY)


def det_c_closed_form(osc: OscillatorParams, env: EnvironmentParams) -> float:
    """Determinant of the asymptotic cross-correlation block C of a mirrored environment.

    det C = [(m w^2 D_xy + D_pxpy/m)^2 + 4 lam^2 (D_xy D_pxpy - D_xpy^2)]
            / [4 lam^2 (lam^2 + w^2)].

    It is evaluated divided through, as (s (x + y)/2)^2 + c^2 x y - v^2 on the scaled coordinates
    (see the module docstring) with c = lam / sqrt(lam^2 + w^2) and s = w / sqrt(lam^2 + w^2).
    det C >= 0 guarantees a separable asymptotic state.  Errors: see the module docstring.
    """
    return _mirrored_closed_form(lambda o, e: _det_c(o, e, *_scaled_coordinates(o, e)), osc, env)


def simon_s_special(osc: OscillatorParams, env: EnvironmentParams) -> float:
    """Simon indicator evaluated in closed form for the matched-noise class.

    S = [m^2 w^2 (D_xx^2 - D_xy^2)/lam^2 + D_xpy^2/(lam^2 + w^2) - 1/4]^2
        - 4 m^2 w^2 D_xx^2 D_xpy^2 / [lam^2 (lam^2 + w^2)] - max(det C, 0).

    The square carries (1/4 + det C)^2 where Simon's S has (1/4 - |det C|)^2;
    the last term corrects that for det C > 0, which needs D_xy != 0.  It is evaluated factored
    on the scaled coordinates: ((u - v)^2 - x^2 - 1/4)((u + v)^2 - x^2 - 1/4) - max(det C, 0).
    """
    return _closed_form_value("s_special", osc, env)


def entanglement_window(
    osc: OscillatorParams, env: EnvironmentParams
) -> tuple[float, float]:
    """Open interval of D_xpy values with an entangled asymptotic state.

    For the matched-noise class with D_xy = 0 and u = m w D_xx / lam >= 1/2
    (the single-mode uncertainty bound), the state is entangled exactly for

        sqrt(lam^2 + w^2) (u - 1/2) < D_xpy < sqrt(lam^2 + w^2) (u + 1/2);

    on the boundary and outside it is separable.
    """
    return _closed_form_value("window", osc, env)


def log_negativity_closed_form(osc: OscillatorParams, env: EnvironmentParams) -> float:
    """Closed-form negativity for the matched-noise class with D_xy = 0.

    E = -log2[2 |m w D_xx / lam - D_xpy / sqrt(lam^2 + w^2)|]; it depends
    only on the environment coefficients, not on the initial Gaussian state.
    """
    return _closed_form_value("e_closed", osc, env)


def analyze(
    sigma: NDArray[np.float64],
    osc: OscillatorParams | None = None,
    env: EnvironmentParams | None = None,
) -> EntanglementReport:
    """Full separability report for a two-mode covariance matrix.

    With oscillator/environment context the closed-form quantities are added
    where the coefficient class admits them.  Individual failures never abort
    the report; the affected fields stay None and a note explains why.
    sigma is read once, with one `tolist()`: its Python floats serve the
    finiteness check, the symmetry check (to 1e-10 max |entry|) and
    the kernel's ten upper entries.  Raises ValueError for a complex sigma, a
    shape other than 4x4, a non-finite entry or an asymmetric sigma, in that
    order, and NonFiniteResultError when sigma's invariants overflow double precision.
    """
    rep = report(_UPPER_ENTRIES(_read_covariance(sigma, 1e-10)[1]), osc, env)
    notes: list[str] = []
    f_value = e_general = None
    try:
        _check_invariants(rep)
        f_value = rep.f
        if f_value > 0.0:
            e_general = rep.e
        else:
            notes.append("e_general: f(sigma) <= 0")
    except NegativeRadicandError as exc:
        notes.append(f"f_sigma: {exc}")

    closed, validity = [None] * 3, [None] * 2
    if env is not None:
        closed = _closed_form_fields(rep.forms)
        validity = [bool(rep.valid_strict), bool(rep.valid_lenient)]
        messages: dict = {}  # one per code: a class failure's three notes share one
        for name, code in zip(_CLOSED_FIELDS, rep.forms[3:]):
            if code:
                if code not in messages:
                    messages[code] = str(_ABSENCE_ERRORS[code](osc, env))
                notes.append(f"{name}: {messages[code]}")
    return EntanglementReport(rep.det_a, rep.det_b, rep.det_c, rep.s, rep.verdict, f_value,
                              e_general, *closed, *validity, tuple(notes))
