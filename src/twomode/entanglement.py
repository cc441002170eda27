"""Separability and entanglement quantification for two-mode Gaussian states.

Simon's PPT criterion decides separability (S >= 0 iff separable), and the
logarithmic negativity E = -1/2 log2[4 f(sigma)] quantifies entanglement for
E > 0.  Closed forms are provided for the matched-noise coefficient class
m^2 w^2 D_xx = D_pxpx, D_xpx = 0, m^2 w^2 D_xy = D_pxpy.

One kernel, `_invariants`, evaluates S, f and E on a stack of covariance
matrices; the public functions are its one-matrix views.  One decision,
`_closed_forms`, gives S_special, E_closed and the window elementwise, with a
code per field naming the first condition that fails: analyze's notes, the
closed forms' errors and the sweep's empty cells all read these codes.
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
    TwoModeError,
    UncertaintyViolationError,
)
from .model import (
    J,
    BlockDecomposition,
    EnvironmentParams,
    OscillatorParams,
    _LAMBDA_MESSAGE,
    _as_covariance,
    _nearly_equal,
    _require_positive_lambda,
    _validity,
    is_symmetric_environment,
)

#: Radicand values in [-RADICAND_TOLERANCE, 0) are treated as round-off and
#: clamped to zero; anything lower is a hard error.
RADICAND_TOLERANCE = 1e-12

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


_Invariants = namedtuple("_Invariants", "det_a det_b det_c s radicand f e")
# Indices gathering the blocks A, B and C of sigma[..., 4, 4] into [..., 3, 2, 2].
_BLOCK_ROWS = np.array([[[0], [1]], [[2], [3]], [[0], [1]]])
_BLOCK_COLS = np.array([[[0, 1]], [[2, 3]], [[2, 3]]])


def _invariants(sigma: NDArray[np.float64], det_sigma=None) -> _Invariants:
    """The separability kernel for sigma[..., 4, 4]; every field has shape [...].

    S = det A det B + (1/4 - |det C|)^2 - Tr[A J C J B J C^T J]
        - (det A + det B)/4,
    f = h - sqrt(h^2 - det sigma) with h = (det A + det B)/2 - det C, and
    E = -1/2 log2(4 f).  The radicand h^2 - det sigma is returned as
    computed and f clamps it at zero; E is NaN where the radicand is
    negative beyond RADICAND_TOLERANCE or f <= 0.
    """
    blocks = sigma[..., _BLOCK_ROWS, _BLOCK_COLS]
    a, b, c = blocks[..., 0, :, :], blocks[..., 1, :, :], blocks[..., 2, :, :]
    dets = np.linalg.det(blocks)
    det_a, det_b, det_c = dets[..., 0], dets[..., 1], dets[..., 2]
    if det_sigma is None:
        det_sigma = np.linalg.det(sigma)
    chain = a @ J @ c @ J @ b @ J @ np.swapaxes(c, -1, -2) @ J
    cross = chain[..., 0, 0] + chain[..., 1, 1]
    s = det_a * det_b + (0.25 - abs(det_c)) ** 2 - cross - 0.25 * (det_a + det_b)
    head = 0.5 * (det_a + det_b) - det_c
    radicand = head * head - det_sigma
    f = head - np.sqrt(np.maximum(radicand, 0.0))
    defined = (radicand >= -RADICAND_TOLERANCE) & (f > 0.0)
    e = -0.5 * np.log2(4.0 * np.where(defined, f, np.nan))
    return _Invariants(det_a, det_b, det_c, s, radicand, f, e)


def _require_radicand(inv: _Invariants) -> None:
    if inv.radicand < -RADICAND_TOLERANCE:
        raise NegativeRadicandError(
            f"radicand {float(inv.radicand)!r} is negative beyond tolerance; "
            "input is not a physical covariance matrix"
        )


def block_decompose(sigma: NDArray[np.float64]) -> BlockDecomposition:
    """Split a 4x4 covariance matrix into its one-mode and cross blocks."""
    sig, _ = _as_covariance(sigma)
    return BlockDecomposition(
        a=sig[:2, :2].copy(), b=sig[2:, 2:].copy(), c=sig[:2, 2:].copy()
    )


def simon_s(blocks: BlockDecomposition) -> float:
    """Simon separability indicator; S >= 0 iff the Gaussian state is separable.

    S = det A det B + (1/4 - |det C|)^2 - Tr[A J C J B J C^T J]
        - (det A + det B)/4.
    """
    return float(_invariants(blocks.reassemble()).s)


def f_sigma(blocks: BlockDecomposition, det_sigma: float) -> float:
    """Square of the smaller symplectic eigenvalue of the partial transpose.

    f = (det A + det B)/2 - det C
        - sqrt{[(det A + det B)/2 - det C]^2 - det sigma}.
    """
    inv = _invariants(blocks.reassemble(), det_sigma)
    _require_radicand(inv)
    return float(inv.f)


def log_negativity(sigma: NDArray[np.float64]) -> float:
    """Logarithmic negativity E = -1/2 log2[4 f(sigma)]; E > 0 iff entangled."""
    inv = _invariants(_as_covariance(sigma)[0])
    _require_radicand(inv)
    if inv.f <= 0.0:
        raise NonPositiveFError(f"f(sigma) = {float(inv.f)!r} must be positive")
    return float(inv.e)


def _det_c(osc: OscillatorParams, env: EnvironmentParams):
    m, w, lam = osc.m, osc.omega, env.lam
    cross = m * w * w * env.d_xy + env.d_pxpy / m
    return (
        cross * cross + 4 * lam * lam * (env.d_xy * env.d_pxpy - env.d_xpy * env.d_xpy)
    ) / (4 * lam * lam * (lam * lam + w * w))


def _s_special(osc: OscillatorParams, env: EnvironmentParams):
    m, w, lam = osc.m, osc.omega, env.lam
    s2 = lam * lam + w * w
    d_xx2, d_xpy2 = env.d_xx * env.d_xx, env.d_xpy * env.d_xpy
    head = m * m * w * w * (d_xx2 - env.d_xy * env.d_xy) / (lam * lam) + d_xpy2 / s2 - 0.25
    det_c = _det_c(osc, env)
    # max(det C, 0), written so it stays exact and cheap for floats and arrays
    positive_det_c = 0.5 * (det_c + abs(det_c))
    return head * head - 4 * m * m * w * w * d_xx2 * d_xpy2 / (lam * lam * s2) - positive_det_c


def _divide(x, scalar: float):
    """x / scalar, giving numpy's inf or NaN for a zero scalar on Python floats too."""
    return x / scalar if scalar else x * math.inf


def _scaled_coordinates(osc: OscillatorParams, env: EnvironmentParams) -> tuple:
    """(u, v, sqrt(lam^2 + w^2)) with u = m w D_xx / lam, v = D_xpy / sqrt(lam^2 + w^2)."""
    lam = env.lam  # one float, so math.sqrt serves floats and arrays alike
    root = math.sqrt(lam * lam + osc.omega * osc.omega)
    return _divide(osc.m * osc.omega * env.d_xx, lam), _divide(env.d_xpy, root), root


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
    _LAMBDA: lambda osc, env: NonPositiveLambdaError(f"{_LAMBDA_MESSAGE} {env.lam!r}"),
    _DIVERGENT: lambda osc, env: DivergentNegativityError(
        "negativity diverges at this coefficient combination; "
        "such environments fail strict validation"
    ),
    _UNCERTAINTY: lambda osc, env: UncertaintyViolationError(
        f"m omega D_xx / lambda = {_scaled_coordinates(osc, env)[0]!r} "
        "violates the uncertainty bound 1/2"
    ),
    _NONFINITE: lambda osc, env: NonFiniteResultError(
        "closed form is not finite in double precision: "
        "lambda is too small or a coefficient too large"
    ),
}


def _first_failure(code, *checks):
    """Elementwise: `code` where nonzero, else the first failing (code, fails) check's code."""
    for failure, fails in checks:
        code = code + failure * fails * (code == 0)
    return code


_ClosedForms = namedtuple("_ClosedForms", "s_special e_closed window s_code e_code window_code")


def _closed_forms(osc: OscillatorParams, env: EnvironmentParams) -> _ClosedForms:
    """The closed-form decision: S_special, E_closed and the window at every point.

    lambda is one float, the diffusion coefficients floats or arrays of one
    shape.  A value is NaN where its field is absent; its code names the first
    condition that fails there: the matched class, then D_xy = 0 (not for
    S_special), lambda > 0, the divergence or the uncertainty bound, a finite value.
    """
    mw2 = _mw2(osc)
    matched = _first_failure(
        0,
        (_MIRRORED, is_symmetric_environment(env) ^ True),
        (_PXPX, _nearly_equal(mw2 * env.d_xx, env.d_pxpx) ^ True),
        (_XPX, _nearly_equal(env.d_xpx, 0.0) ^ True),
        (_PXPY, _nearly_equal(mw2 * env.d_xy, env.d_pxpy) ^ True),
    )
    positive = (_LAMBDA, (env.lam > 0.0) ^ True)
    zero_cross = _first_failure(matched, (_CROSS, _nearly_equal(env.d_xy, 0.0) ^ True), positive)
    lam2 = env.lam * env.lam  # S_special divides by lam^2 (lam^2 + w^2): NaN where that is 0
    s_special = _s_special(osc, env) if lam2 * (lam2 + osc.omega * osc.omega) > 0.0 else math.nan
    u, v, root = _scaled_coordinates(osc, env)
    gap = abs(u - v)
    diverges = gap < _DIVERGENCE_TOLERANCE
    # E = -log2(2 gap), kept off log2(0); past the divergence E is finite where 2 gap is
    twice_gap = 2.0 * (gap + diverges)
    # for u >= 1/2 the low end of the window is finite where the high end is
    low, high = root * (u - 0.5), root * (u + 0.5)
    s_code = _first_failure(matched, positive, (_NONFINITE, _nonfinite(s_special)))
    e_code = _first_failure(zero_cross, (_DIVERGENT, diverges), (_NONFINITE, _nonfinite(twice_gap)))
    window_code = _first_failure(
        zero_cross, (_UNCERTAINTY, u < 0.5), (_NONFINITE, _nonfinite(high))
    )
    shown = _SHOWN[window_code]
    window = low * shown, high * shown
    e_closed = -np.log2(twice_gap) * _SHOWN[e_code]
    return _ClosedForms(s_special * _SHOWN[s_code], e_closed, window, s_code, e_code, window_code)


def _closed_form_fields(osc: OscillatorParams, env: EnvironmentParams) -> dict:
    """analyze's closed-form fields for one environment: each value, or its function's error."""
    s_special, e_closed, (low, high), s_code, e_code, window_code = _closed_forms(osc, env)
    error = {c: _ABSENCE_ERRORS[c](osc, env) for c in {s_code, e_code, window_code} if c}
    return {
        "s_special": error[s_code] if s_code else float(s_special),
        "e_closed": error[e_code] if e_code else float(e_closed),
        "window": error[window_code] if window_code else (float(low), float(high)),
    }


def _closed_form_value(name: str, osc: OscillatorParams, env: EnvironmentParams):
    value = _closed_form_fields(osc, env)[name]
    if isinstance(value, TwoModeError):
        raise value
    return value


def _verdict(s: float) -> str:
    """Simon's test: the state is entangled iff S < 0."""
    return "entangled" if s < 0.0 else "separable"


def det_c_closed_form(osc: OscillatorParams, env: EnvironmentParams) -> float:
    """Determinant of the asymptotic cross-correlation block C.

    det C = [(m w^2 D_xy + D_pxpy/m)^2 + 4 lam^2 (D_xy D_pxpy - D_xpy^2)]
            / [4 lam^2 (lam^2 + w^2)].

    det C >= 0 guarantees a separable asymptotic state.
    """
    if not is_symmetric_environment(env):
        raise _ABSENCE_ERRORS[_MIRRORED](osc, env)
    _require_positive_lambda(env.lam)
    try:
        return _det_c(osc, env)
    except ZeroDivisionError:  # lam^2 underflows to zero
        raise _ABSENCE_ERRORS[_NONFINITE](osc, env) from None


def simon_s_special(osc: OscillatorParams, env: EnvironmentParams) -> float:
    """Simon indicator evaluated in closed form for the matched-noise class.

    S = [m^2 w^2 (D_xx^2 - D_xy^2)/lam^2 + D_xpy^2/(lam^2 + w^2) - 1/4]^2
        - 4 m^2 w^2 D_xx^2 D_xpy^2 / [lam^2 (lam^2 + w^2)] - max(det C, 0).

    The square carries (1/4 + det C)^2 where Simon's S has (1/4 - |det C|)^2;
    the last term corrects that for det C > 0, which needs D_xy != 0.
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
    """
    sig, peak = _as_covariance(sigma)
    if float(np.abs(sig - sig.T).max()) > 1e-10 * max(1.0, peak):
        raise ValueError("covariance matrix must be symmetric")
    if (osc is None) != (env is None):
        raise ValueError("osc and env must be provided together")

    inv = _invariants(sig)
    s_general = float(inv.s)
    verdict = _verdict(s_general)

    notes: list[str] = []
    f_value: float | None = None
    e_general: float | None = None
    try:
        _require_radicand(inv)
        f_value = float(inv.f)
        if f_value > 0.0:
            e_general = float(inv.e)
        else:
            notes.append("e_general: f(sigma) <= 0")
    except NegativeRadicandError as exc:
        notes.append(f"f_sigma: {exc}")

    closed: dict = {}
    valid_strict: bool | None = None
    valid_lenient: bool | None = None
    if env is not None and osc is not None:
        valid_strict, valid_lenient = (bool(v) for v in _validity(env))
        for name, value in _closed_form_fields(osc, env).items():
            if isinstance(value, TwoModeError):
                notes.append(f"{name}: {value}")
            else:
                closed[name] = value

    return EntanglementReport(
        det_a=float(inv.det_a),
        det_b=float(inv.det_b),
        det_c=float(inv.det_c),
        s_general=s_general,
        verdict=verdict,
        f_sigma=f_value,
        e_general=e_general,
        valid_strict=valid_strict,
        valid_lenient=valid_lenient,
        notes=tuple(notes),
        **closed,
    )
