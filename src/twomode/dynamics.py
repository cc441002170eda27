"""Covariance propagation and the asymptotic (steady-state) covariance matrix.

sigma(t) = M(t) sigma(0) M(t)^T + 2 int_0^t M(s) D M(s)^T ds, M(t) = exp(Y t), solves
d(sigma)/dt = Y sigma + sigma Y^T + 2 D; for a Hurwitz Y it tends to sigma_inf, which
solves Y sigma + sigma Y^T = -2 D.  Y's layout is known to `twomode.model` alone: every
function here takes diag(P, P), P = [[a, b], [c, a]] = [[-lam, 1/m], [-m omega^2, -lam]],
whose entries `_drift_block` gives to the damped rotations of M(t), to sigma(t) and to the
steady state, three 2x2 Sylvester equations with one shared left factor solved on Python
floats.  Y's eigenvalues are a +- i sqrt(-b c), so the Hurwitz test is lam > 0; any other
Y is a ValueError.  sigma_inf and sigma(t) are built from their ten upper entries in
`model.UPPER` order, which `closed_form_entries` and `propagated_entries` return.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .entanglement import _mirrored_closed_form
from .errors import NonFiniteResultError, NotHurwitzError
from .model import EnvironmentParams, OscillatorParams, _drift_block, _read_covariance
from .model import _ROW_MAJOR, _stack, _symmetric


@dataclass(frozen=True, eq=False)
class Propagator:
    """Fundamental solution M(t) = exp(Y t) of the drift part."""

    t: float
    matrix: NDArray[np.float64]


def _check_times(t) -> None:
    if not np.all(np.isfinite(t) & (np.asarray(t) >= 0.0)):
        raise ValueError(f"t must be finite and non-negative, got {t!r}")


def _damped_rotation(a: float, b: float, c: float, t) -> tuple:
    """(qq, qp, pq) of exp(P t) = [[qq, qp], [pq, qq]], P = [[a, b], [c, a]], elementwise in t."""
    omega = math.sqrt(-c * b)
    decay = np.exp(a * t)
    turn = np.sin(omega * t) / omega  # at most t and 1 / omega, where b / omega may overflow
    return decay * np.cos(omega * t), decay * (turn * b), decay * (turn * c)


def matrix_exponential(y: NDArray[np.float64], t: float) -> Propagator:
    """exp(Y t) via the analytic damped-rotation block form.

    Each 2x2 block [[a, b], [c, a]] = [[-lam, 1/m], [-m w^2, -lam]] of y gives
    exp(a t) [[cos(w t), sin(w t) b/w], [sin(w t) c/w, cos(w t)]], w = sqrt(-c b).
    A y off `build_drift_matrix`'s layout is a ValueError (`_drift_block`).
    """
    _check_times(t)
    qq, qp, pq = _damped_rotation(*_drift_block(y), t)
    rows = [[qq, qp, 0.0, 0.0], [pq, qq, 0.0, 0.0], [0.0, 0.0, qq, qp], [0.0, 0.0, pq, qq]]
    return Propagator(t=float(t), matrix=np.array(rows))


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
    -lam +- i omega, so Y is Hurwitz iff lam > 0 (NotHurwitzError otherwise).
    A singular operator, or a result that overflows, is a NonFiniteResultError.
    A complex or non-4x4 Y or D, or a non-finite D, is a ValueError before the
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
    (D_xy, D_xpy, D_pxpy) replaced by (D_xx, D_xpx, D_pxpx).  Errors: see `twomode.entanglement`.
    """
    return _symmetric(_mirrored_closed_form(closed_form_entries, osc, env))


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


def _source_integrals(a: float, w: float, t) -> tuple:
    """I0 = int_0^t exp(2 a s) ds and Re D, Im D of D = int_0^t exp(2 a s) expm1(2 i w s) ds,
    Re D = -2 int_0^t exp(2 a s) sin(w s)^2 ds, each to a few ulps of itself, elementwise in t.
    With z = 2 (a + i w), D = (exp(2 a t) expm1(2 i w t) - 2 i w I0) / z where |z t| >= 1;
    below, where that form cancels, D = t sum_k ((z t)^k - (2 a t)^k) / (k + 1)!, and I0,
    whose 2 a t may be subnormal there, is t sum_k (2 a t)^k / (k + 1)!."""
    z, i2w = complex(a + a, w + w), complex(0.0, w + w)
    zeta = np.where(abs(z * t) < 1.0, z * t, 0.0)  # the series' argument, else 0
    power, term, phi, series = 1.0, 1j * zeta.imag, 0.0, 0.0
    for k in range(2, 19):  # 1 / 18! < eps / 4
        phi = phi + power / math.factorial(k - 1)  # I0 / t = expm1(2 a t) / (2 a t)
        series = series + term / math.factorial(k)
        power = power * zeta.real
        term = zeta * term + 1j * zeta.imag * power  # (z t)^k - (2 a t)^k, each k
    i0 = np.expm1((a + a) * t) / (a + a) if a else t
    closed = (np.exp((a + a) * t) * np.expm1(i2w * t) - i2w * i0) / z
    near = zeta != 0.0
    integral = np.where(near, t * series, closed)
    return np.where(near, t * phi, i0), integral.real, integral.imag


def propagated_entries(sigma0, y, d, t) -> tuple:
    """sigma(t) = M(t) sigma0 M(t)^T + 2 int_0^t M(s) D M(s)^T ds as its ten upper entries
    in `model.UPPER` order, elementwise in t, for symmetric sigma0 and D.

    M(s) = exp(a s) (cos(w s) + sin(w s) N / w) on each block, N = P - a I, N^2 = -w^2, so
    each 2x2 block of sigma(t), from the blocks G of sigma0 and H of D, is
        M G M^T + 2 H I0 + (H - K) Re D + L Im D,  K = N H N^T / w^2,  L = (N H + H N^T) / w,
    with `_source_integrals`' I0 and D (C. Van Loan, IEEE TAC 23, 395 (1978)): no term of
    size 1/lambda, and sigma0's entries at t = 0.  Inputs are read as `propagate` reads them.
    """
    g = _read_covariance(sigma0)[1]
    a, b, c = _drift_block(y)
    h = _read_covariance(d, name="diffusion matrix")[1]
    _check_times(t)
    w = math.sqrt(-c * b)
    qq, qp, pq = _damped_rotation(a, b, c, t)
    # a zero D adds nothing, however fast M(t) grows
    i0, dr, di = _source_integrals(a, w, t) if any(h) else (0.0, 0.0, 0.0)

    def block(k: int) -> tuple:
        """The 2x2 block whose first entry is row-major entry k, row by row."""
        g00, g01, g10, g11 = g[k], g[k + 1], g[k + 4], g[k + 5]
        h00, h01, h10, h11 = h[k], h[k + 1], h[k + 4], h[k + 5]
        r00, r01 = qq * g00 + qp * g10, qq * g01 + qp * g11  # M G
        r10, r11 = pq * g00 + qq * g10, pq * g01 + qq * g11
        # H - K = [[h00 + b h11 / c, h01 + h10], [h10 + h01, h11 + c h00 / b]], L's entries:
        l0, l1, l2 = b * (h01 + h10) / w, (b * h11 + c * h00) / w, c * (h01 + h10) / w
        return (
            r00 * qq + r01 * qp + 2 * h00 * i0 + (h00 + b * h11 / c) * dr + l0 * di,
            r00 * pq + r01 * qq + 2 * h01 * i0 + (h01 + h10) * dr + l1 * di,
            r10 * qq + r11 * qp + 2 * h10 * i0 + (h10 + h01) * dr + l1 * di,
            r10 * pq + r11 * qq + 2 * h11 * i0 + (h11 + c * h00 / b) * dr + l2 * di,
        )

    (x00, x01, _, x11), (c00, c01, c10, c11), (z00, z01, _, z11) = block(0), block(2), block(10)
    return x00, x01, c00, c01, x11, c10, c11, z00, z01, z11


def propagate(
    sigma0: NDArray[np.float64],
    sigma_inf: NDArray[np.float64],
    y: NDArray[np.float64],
    t,
) -> NDArray[np.float64]:
    """Covariance at time t: M(t) (sigma0 - sigma_inf) M(t)^T + sigma_inf.

    sigma_inf is taken as an argument so one steady-state solve can be reused across a
    whole time grid; an array of times gives the stack [..., 4, 4] of covariances.  The
    first term is `propagated_entries` of the symmetrized difference with D = 0.  At t = 0
    the result is the symmetrized sigma0 itself, untouched by the propagator's rounding.
    A sigma0 or sigma_inf that is complex, not 4x4 or not finite, and a y off
    `build_drift_matrix`'s layout, is a ValueError.
    """
    sigma0 = _read_covariance(sigma0)[0]
    sigma_inf = _read_covariance(sigma_inf)[0]
    delta = sigma0 - sigma_inf
    upper = propagated_entries(0.5 * (delta + delta.T), y, np.zeros((4, 4)), t)
    out = _stack(np.reshape(_ROW_MAJOR(upper), (4, 4, *np.shape(t)))) + sigma_inf
    out = np.where(np.equal(t, 0.0)[..., None, None], sigma0, out)
    return 0.5 * (out + np.swapaxes(out, -1, -2))
