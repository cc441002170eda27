"""Separability and entanglement quantification for two-mode Gaussian states.

Simon's PPT criterion decides separability (S >= 0 iff separable), and the
logarithmic negativity E = -1/2 log2[4 f(sigma)] quantifies entanglement for
E > 0.  Closed forms are provided for the matched-noise coefficient class
m^2 w^2 D_xx = D_pxpx, D_xpx = 0, m^2 w^2 D_xy = D_pxpy.

One kernel, `_invariants`, evaluates S, f and E on a stack of covariance
matrices; the public functions are its one-matrix views.  The closed forms
are likewise written once, as expressions that work elementwise on
environments whose coefficients are arrays.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    ClassViolationError,
    DivergentNegativityError,
    NegativeRadicandError,
    NonPositiveFError,
    TwoModeError,
    UncertaintyViolationError,
)
from .model import (
    J,
    BlockDecomposition,
    EnvironmentParams,
    OscillatorParams,
    _nearly_equal,
    _require_positive_lambda,
    _validity,
    is_symmetric_environment,
)

#: Radicand values in [-RADICAND_TOLERANCE, 0) are treated as round-off and
#: clamped to zero; anything lower is a hard error.
RADICAND_TOLERANCE = 1e-12

_DIVERGENCE_TOLERANCE = 1e-12
_MIRRORED = "environment must have mirrored y-mode coefficients"


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


def _as_covariance(sigma) -> NDArray[np.float64]:
    sig = np.asarray(sigma, dtype=float)
    if sig.shape != (4, 4):
        raise ValueError(f"covariance matrix must be 4x4, got shape {sig.shape}")
    return sig


def block_decompose(sigma: NDArray[np.float64]) -> BlockDecomposition:
    """Split a 4x4 covariance matrix into its one-mode and cross blocks."""
    sig = _as_covariance(sigma)
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
    inv = _invariants(_as_covariance(sigma))
    _require_radicand(inv)
    if inv.f <= 0.0:
        raise NonPositiveFError(f"f(sigma) = {float(inv.f)!r} must be positive")
    return float(inv.e)


def _matched_class_checks(osc, env, zero_position_cross: bool = False):
    """Yield (holds, message) for each condition of the matched-noise class.

    Momentum noise locked to position noise: m^2 w^2 d_xx = d_pxpx with
    d_xpx = 0, and likewise m^2 w^2 d_xy = d_pxpy for the cross noise.
    With zero_position_cross, d_xy must vanish as well.  `holds` is
    elementwise for arrays; `message` is called only on a violation, and a
    caller that stops at the first violation skips the later conditions.
    """
    mw2 = (osc.m * osc.omega) ** 2
    yield is_symmetric_environment(env), lambda: _MIRRORED
    yield (
        _nearly_equal(mw2 * env.d_xx, env.d_pxpx),
        lambda: f"d_pxpx must equal (m omega)^2 d_xx, got {env.d_pxpx!r} "
        f"vs {mw2 * env.d_xx!r}",
    )
    yield _nearly_equal(env.d_xpx, 0.0), lambda: f"d_xpx must vanish, got {env.d_xpx!r}"
    yield (
        _nearly_equal(mw2 * env.d_xy, env.d_pxpy),
        lambda: f"d_pxpy must equal (m omega)^2 d_xy, got {env.d_pxpy!r} "
        f"vs {mw2 * env.d_xy!r}",
    )
    if zero_position_cross:
        yield _nearly_equal(env.d_xy, 0.0), lambda: f"d_xy must vanish, got {env.d_xy!r}"


def _in_matched_class(osc, env, zero_position_cross: bool = False):
    checks = _matched_class_checks(osc, env, zero_position_cross)
    return np.logical_and.reduce([holds for holds, _ in checks])


def _require_matched_class(osc, env, zero_position_cross: bool = False) -> None:
    for holds, message in _matched_class_checks(osc, env, zero_position_cross):
        if not holds:
            raise ClassViolationError(message())


def _det_c(osc: OscillatorParams, env: EnvironmentParams):
    m, w, lam = osc.m, osc.omega, env.lam
    return (
        (m * w * w * env.d_xy + env.d_pxpy / m) ** 2
        + 4 * lam * lam * (env.d_xy * env.d_pxpy - env.d_xpy**2)
    ) / (4 * lam * lam * (lam * lam + w * w))


def _s_special(osc: OscillatorParams, env: EnvironmentParams):
    m, w, lam = osc.m, osc.omega, env.lam
    s2 = lam * lam + w * w
    head = (
        m * m * w * w * (env.d_xx**2 - env.d_xy**2) / (lam * lam)
        + env.d_xpy**2 / s2
        - 0.25
    )
    det_c = _det_c(osc, env)
    # max(det C, 0), written so it stays exact and cheap for floats and arrays
    positive_det_c = 0.5 * (det_c + abs(det_c))
    return (
        head * head
        - 4 * m * m * w * w * env.d_xx**2 * env.d_xpy**2 / (lam * lam * s2)
        - positive_det_c
    )


def _scaled_coordinates(osc: OscillatorParams, env: EnvironmentParams) -> tuple:
    """(u, v, sqrt(lam^2 + w^2)) with u = m w D_xx / lam, v = D_xpy / sqrt(lam^2 + w^2)."""
    root = np.sqrt(env.lam**2 + osc.omega**2)
    return osc.m * osc.omega * env.d_xx / env.lam, env.d_xpy / root, root


def _closed_form_negativity(gap):
    """E = -log2(2 gap) with gap = |u - v|; it diverges as the gap closes."""
    return -np.log2(2.0 * gap)


def det_c_closed_form(osc: OscillatorParams, env: EnvironmentParams) -> float:
    """Determinant of the asymptotic cross-correlation block C.

    det C = [(m w^2 D_xy + D_pxpy/m)^2 + 4 lam^2 (D_xy D_pxpy - D_xpy^2)]
            / [4 lam^2 (lam^2 + w^2)].

    det C >= 0 guarantees a separable asymptotic state.
    """
    if not is_symmetric_environment(env):
        raise ClassViolationError(_MIRRORED)
    _require_positive_lambda(env.lam)
    return _det_c(osc, env)


def simon_s_special(osc: OscillatorParams, env: EnvironmentParams) -> float:
    """Simon indicator evaluated in closed form for the matched-noise class.

    S = [m^2 w^2 (D_xx^2 - D_xy^2)/lam^2 + D_xpy^2/(lam^2 + w^2) - 1/4]^2
        - 4 m^2 w^2 D_xx^2 D_xpy^2 / [lam^2 (lam^2 + w^2)] - max(det C, 0).

    The square carries (1/4 + det C)^2 where Simon's S has (1/4 - |det C|)^2;
    the last term corrects that for det C > 0, which needs D_xy != 0.
    """
    _require_matched_class(osc, env)
    _require_positive_lambda(env.lam)
    return float(_s_special(osc, env))


def entanglement_window(
    osc: OscillatorParams, env: EnvironmentParams
) -> tuple[float, float]:
    """Open interval of D_xpy values with an entangled asymptotic state.

    For the matched-noise class with D_xy = 0 and u = m w D_xx / lam >= 1/2
    (the single-mode uncertainty bound), the state is entangled exactly for

        sqrt(lam^2 + w^2) (u - 1/2) < D_xpy < sqrt(lam^2 + w^2) (u + 1/2);

    on the boundary and outside it is separable.
    """
    _require_matched_class(osc, env, zero_position_cross=True)
    _require_positive_lambda(env.lam)
    u, _, root = _scaled_coordinates(osc, env)
    if u < 0.5:
        raise UncertaintyViolationError(
            f"m omega D_xx / lambda = {u!r} violates the uncertainty bound 1/2"
        )
    return (float(root * (u - 0.5)), float(root * (u + 0.5)))


def log_negativity_closed_form(osc: OscillatorParams, env: EnvironmentParams) -> float:
    """Closed-form negativity for the matched-noise class with D_xy = 0.

    E = -log2[2 |m w D_xx / lam - D_xpy / sqrt(lam^2 + w^2)|]; it depends
    only on the environment coefficients, not on the initial Gaussian state.
    """
    _require_matched_class(osc, env, zero_position_cross=True)
    _require_positive_lambda(env.lam)
    u, v, _ = _scaled_coordinates(osc, env)
    gap = abs(u - v)
    if gap < _DIVERGENCE_TOLERANCE:
        raise DivergentNegativityError(
            "negativity diverges at this coefficient combination; "
            "such environments fail strict validation"
        )
    return float(_closed_form_negativity(gap))


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
    sig = _as_covariance(sigma)
    scale = max(1.0, float(np.abs(sig).max()))
    if float(np.abs(sig - sig.T).max()) > 1e-10 * scale:
        raise ValueError("covariance matrix must be symmetric")
    if (osc is None) != (env is None):
        raise ValueError("osc and env must be provided together")

    inv = _invariants(sig)
    s_general = float(inv.s)
    verdict = "entangled" if s_general < 0.0 else "separable"

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
        for name, closed_form in (
            ("s_special", simon_s_special),
            ("e_closed", log_negativity_closed_form),
            ("window", entanglement_window),
        ):
            try:
                closed[name] = closed_form(osc, env)
            except TwoModeError as exc:
                notes.append(f"{name}: {exc}")

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
