"""Covariance propagation and the asymptotic (steady-state) covariance matrix.

The evolution d(sigma)/dt = Y sigma + sigma Y^T + 2 D has the solution
sigma(t) = M(t) (sigma(0) - sigma_inf) M(t)^T + sigma_inf with M(t) = exp(Y t),
provided Y is Hurwitz; sigma_inf solves Y sigma + sigma Y^T = -2 D.

Y's layout is known to `twomode.model` alone, and every function here takes
only that layout, diag(P, P) with P = [[a, b], [c, a]] = [[-lam, 1/m], [-m omega^2, -lam]]:
`_drift_block` gives P's entries both to the damped rotations of M(t) and to the
steady state, which splits into three 2x2 Sylvester equations with one shared left
factor, solved on Python floats.  Y's eigenvalues are a +- i sqrt(-b c), so the Hurwitz
test is lam > 0 and the conditioning test lam < 1e-6 omega.  Any other Y is a
ValueError.  No code here reads Y's layout itself.  sigma_inf is built from its ten
upper entries in `model.UPPER` order, which `closed_form_entries` returns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .entanglement import _mirrored_closed_form
from .errors import ConditioningWarning, NonFiniteResultError, NotHurwitzError
from .model import EnvironmentParams, OscillatorParams, _drift_block, _read_covariance
from .model import _stack, _symmetric

# sigma_inf entries scale like 1/lambda, so warn well before that blows up.
_CONDITIONING_RATIO = 1e-6


@dataclass(frozen=True, eq=False)
class Propagator:
    """Fundamental solution M(t) = exp(Y t) of the drift part."""

    t: float
    matrix: NDArray[np.float64]


def _check_times(t) -> None:
    if not np.all(np.isfinite(t) & (np.asarray(t) >= 0.0)):
        raise ValueError(f"t must be finite and non-negative, got {t!r}")


def _damped_rotations(a: float, b: float, c: float, t) -> NDArray[np.float64]:
    """exp(Y t) as [..., 4, 4] for a time or an array of times, Y's blocks [[a, b], [c, a]]."""
    omega = math.sqrt(-c * b)
    decay = np.exp(a * t)
    turn = np.sin(omega * t) / omega  # at most t and 1 / omega, where b / omega may overflow
    qq, qp, pq = decay * np.cos(omega * t), decay * (turn * b), decay * (turn * c)
    z = np.zeros_like(decay)
    return _stack([[qq, qp, z, z], [pq, qq, z, z], [z, z, qq, qp], [z, z, pq, qq]])


def matrix_exponential(y: NDArray[np.float64], t: float) -> Propagator:
    """exp(Y t) via the analytic damped-rotation block form.

    Each 2x2 block [[a, b], [c, a]] = [[-lam, 1/m], [-m w^2, -lam]] of y gives
    exp(a t) [[cos(w t), sin(w t) b/w], [sin(w t) c/w, cos(w t)]], w = sqrt(-c b).
    A y off `build_drift_matrix`'s layout is a ValueError (`_drift_block`).
    """
    _check_times(t)
    return Propagator(t=float(t), matrix=_damped_rotations(*_drift_block(y), t))


def _warn_if_ill_conditioned(decay: float, oscillation: float) -> None:
    if decay < _CONDITIONING_RATIO * oscillation:
        warnings.warn(
            "dissipation is tiny compared to the oscillation frequency; "
            "steady-state entries scale like 1/lambda and lose precision",
            ConditioningWarning,
            stacklevel=3,
        )


_SINGULAR = (
    "Lyapunov operator is singular in double precision; "
    "the coefficients span too many orders of magnitude"
)
_OVERFLOW = (
    "steady-state covariance overflows double precision; "
    "lambda is too small for these diffusion coefficients"
)


def _steady_state(a: float, b: float, c: float, d: list) -> list:
    """sigma_inf's ten upper entries (row-major) for Y = diag(P, P), P = [[a, b], [c, a]],
    from D's 16 entries.

    sigma = [[X, C], [C^T, Z]] with P S + S P^T = R for each block S, where
    R is -2 D11, -2 D22 and -2 D12 for X, Z and C.  D's symmetric part is
    used, as -(D_ij + D_ji), exactly -2 D_ij for a symmetric D.  By
    Cayley-Hamilton (P^2 = tr(P) P - det(P) I) each equation becomes
        2 tr(P) P S = P R - R P^T + tr(P) R,
    whose left factor does not cancel when tr(P) is tiny.  The factor, the
    power of two that brings its largest |entry| into [0.5, 1), exactly, and
    its determinant, which that scale keeps from underflowing, are shared
    by the three right-hand sides, each solved by Cramer's rule.  C is
    solved once for both off-diagonal blocks; X and Z are symmetrized.
    ZeroDivisionError where the determinant is zero, OverflowError where the
    scale is not a double.
    """
    trace = a + a
    twice = trace + trace
    m0, m1, m2 = twice * a, twice * b, twice * c  # 2 tr(P) P = [[m0, m1], [m2, m0]]
    scale = math.ldexp(1.0, -math.frexp(max(abs(m0), abs(m1), abs(m2)))[1])
    m0, m1, m2 = m0 * scale, m1 * scale, m2 * scale
    det = m0 * m0 - m1 * m2

    def solve(r0, r1, r2, r3):
        s0 = ((a * r0 + b * r2) - (r0 * a + r1 * b) + trace * r0) * scale
        s1 = ((a * r1 + b * r3) - (r0 * c + r1 * a) + trace * r1) * scale
        s2 = ((c * r0 + a * r2) - (r2 * a + r3 * b) + trace * r2) * scale
        s3 = ((c * r1 + a * r3) - (r2 * c + r3 * a) + trace * r3) * scale
        return (
            (m0 * s0 - m1 * s2) / det,
            (m0 * s1 - m1 * s3) / det,
            (m0 * s2 - m2 * s0) / det,
            (m0 * s3 - m2 * s1) / det,
        )

    x01, z01 = -(d[1] + d[4]), -(d[11] + d[14])
    x0, x1, x2, x3 = solve(-2.0 * d[0], x01, x01, -2.0 * d[5])
    z0, z1, z2, z3 = solve(-2.0 * d[10], z01, z01, -2.0 * d[15])
    c0, c1, c2, c3 = solve(-(d[2] + d[8]), -(d[3] + d[12]), -(d[6] + d[9]), -(d[7] + d[13]))
    return [x0, 0.5 * x1 + 0.5 * x2, c0, c1, x3, c2, c3, z0, 0.5 * z1 + 0.5 * z2, z3]


def steady_state_lyapunov(
    y: NDArray[np.float64], d: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Solve Y sigma + sigma Y^T = -2 D for the asymptotic covariance matrix.

    Y must be in `build_drift_matrix`'s layout, diag(P, P) with
    P = [[-lam, 1/m], [-m omega^2, -lam]]; any other Y is the ValueError of
    `propagate`.  The equation splits into three 2x2 Sylvester equations,
    which `_steady_state` solves on Python floats with no `np.linalg` call;
    the result is the solution for D's symmetric part.  Y's eigenvalues are
    -lam +- i omega, so Y is Hurwitz iff lam > 0 (NotHurwitzError otherwise),
    and a ConditioningWarning is issued when lam < 1e-6 omega.  A singular
    operator, or a result that overflows, is a NonFiniteResultError.  A
    complex or non-4x4 Y or D, or a non-finite D, is a ValueError before the
    solve.
    """
    a, b, c = _drift_block(y)  # a = -lam
    entries = _read_covariance(d, name="diffusion matrix")[1]
    if not -a > 0.0:
        raise NotHurwitzError(
            "drift matrix has an eigenvalue with non-negative real part; "
            "no steady state exists"
        )
    try:
        upper = _steady_state(a, b, c, entries)
    except ZeroDivisionError:
        raise NonFiniteResultError(_SINGULAR) from None
    except OverflowError:
        raise NonFiniteResultError(_OVERFLOW) from None
    # a finite sum has finite terms; an infinite or NaN one is checked term by term
    if not (math.isfinite(sum(upper)) or all(map(math.isfinite, upper))):
        raise NonFiniteResultError(_OVERFLOW)
    _warn_if_ill_conditioned(-a, math.sqrt(-c * b))
    return _symmetric(upper)


def steady_state_closed_form(
    osc: OscillatorParams, env: EnvironmentParams
) -> NDArray[np.float64]:
    """Asymptotic covariance for a symmetric environment, from the closed forms.

    Requires the y-mode coefficients to mirror the x-mode ones; the
    cross-block entries are

        sigma_xy   = [m^2 (2 lam^2 + w^2) D_xy + 2 m lam D_xpy + D_pxpy]
                     / [2 m^2 lam (lam^2 + w^2)]
        sigma_xpy  = [-m^2 w^2 D_xy + 2 m lam D_xpy + D_pxpy]
                     / [2 m (lam^2 + w^2)]
        sigma_pxpy = [m^2 w^4 D_xy - 2 m w^2 lam D_xpy + (2 lam^2 + w^2) D_pxpy]
                     / [2 lam (lam^2 + w^2)]

    and the one-mode block entries follow from the same expressions with
    (D_xy, D_xpy, D_pxpy) replaced by (D_xx, D_xpx, D_pxpx).  Errors: see `twomode.entanglement`;
    a finite result at lam < 1e-6 omega comes with a ConditioningWarning.
    """
    upper = _mirrored_closed_form(closed_form_entries, osc, env)
    _warn_if_ill_conditioned(env.lam, osc.omega)
    return _symmetric(upper)


def closed_form_entries(osc: OscillatorParams, env: EnvironmentParams) -> tuple:
    """The ten upper entries of `steady_state_closed_form` in `model.UPPER` order, unchecked
    and elementwise for coefficient arrays: mirrored, s22 = s00, s23 = s01, s33 = s11, s12 = s03."""
    m, w, lam = osc.m, osc.omega, env.lam
    s2 = lam * lam + w * w

    def entries(dq, dqp, dp):
        qq = (m * m * (2 * lam * lam + w * w) * dq + 2 * m * lam * dqp + dp) / (
            2 * m * m * lam * s2
        )
        qp = (-(m * m * w * w) * dq + 2 * m * lam * dqp + dp) / (2 * m * s2)
        pp = (
            m * m * (w * w) * (w * w) * dq
            - 2 * m * w * w * lam * dqp
            + (2 * lam * lam + w * w) * dp
        ) / (2 * lam * s2)
        return qq, qp, pp

    xx, xpx, pxpx = entries(env.d_xx, env.d_xpx, env.d_pxpx)
    xy, xpy, pxpy = entries(env.d_xy, env.d_xpy, env.d_pxpy)
    return xx, xpx, xy, xpy, pxpx, xpy, pxpy, xx, xpx, pxpx


def propagate(
    sigma0: NDArray[np.float64],
    sigma_inf: NDArray[np.float64],
    y: NDArray[np.float64],
    t,
) -> NDArray[np.float64]:
    """Covariance at time t: M(t) (sigma0 - sigma_inf) M(t)^T + sigma_inf.

    sigma_inf is taken as an argument so one steady-state solve can be
    reused across a whole time grid; an array of times gives the stack
    [..., 4, 4] of covariances.  At t = 0 the result is the symmetrized
    sigma0 itself, untouched by the propagator's rounding.  A sigma0 or
    sigma_inf that is complex, not 4x4 or not finite, and a y off
    `build_drift_matrix`'s layout, is a ValueError.
    """
    sigma0 = _read_covariance(sigma0)[0]
    sigma_inf = _read_covariance(sigma_inf)[0]
    block = _drift_block(y)
    _check_times(t)
    mt = _damped_rotations(*block, t)
    out = mt @ (sigma0 - sigma_inf) @ np.swapaxes(mt, -1, -2) + sigma_inf
    out = np.where(np.equal(t, 0.0)[..., None, None], sigma0, out)
    return 0.5 * (out + np.swapaxes(out, -1, -2))
