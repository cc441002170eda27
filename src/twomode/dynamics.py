"""Covariance propagation and the asymptotic (steady-state) covariance matrix.

sigma(t) = M(t) sigma(0) M(t)^T + 2 int_0^t M(s) D M(s)^T ds, M(t) = exp(Y t), solves
d(sigma)/dt = Y sigma + sigma Y^T + 2 D; for a Hurwitz Y it tends to sigma_inf, which
solves Y sigma + sigma Y^T = -2 D.  Y's layout is known to `twomode.model` alone: every
function here takes diag(P, P), P = [[a, b], [c, a]] = [[-lam, 1/m], [-m omega^2, -lam]],
whose entries `_drift_block` gives to the damped rotations of M(t), to sigma(t) and to the
steady state, whose three 2x2 blocks `_steady_state` writes in closed form on Python
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


_OVERFLOW = "steady-state covariance overflows double precision"


def _steady_state(a: float, b: float, c: float, d: list) -> list:
    """sigma_inf's ten upper entries (row-major) for Y = diag(P, P), P = [[a, b], [c, a]],
    from D's 16 entries.

    Each 2x2 block S of sigma solves P S + S P^T = -2 H, with H the block of D's symmetric
    part, (D_ij + D_ji^T) / 2: exactly D_ij for a symmetric D.  With lam = -a,
    N = P + lam I = [[0, b], [c, 0]], N^2 = -w^2 I and s2 = lam^2 + w^2, S is the t -> inf
    limit of `propagated_entries`' source term,
        S = [(2 lam^2 + w^2) H + N H N^T] / (2 lam s2) + (N H + H N^T) / (2 s2),
    whose off-diagonal 1/lam part, w^2 (h01 - h10) / (2 lam s2), is kept apart, so no entry
    cancels.  It is evaluated in canonical units: lam and w over hypot(lam, w), x-type
    entries times m w = -c / w and p-type ones times 1 / (m w) = b / w, each product taken
    between factors of balanced scale; the diagonal's leading term is read from H directly.
    C is solved once for both off-diagonal blocks.
    """
    lam, w = -a, math.sqrt(b) * math.sqrt(-c)  # w^2 = -b c may leave the doubles
    hyp = math.hypot(lam, w)
    if hyp == math.inf:  # Y and D halved give the same sigma
        return _steady_state(0.5 * a, 0.5 * b, 0.5 * c, [0.5 * x for x in d])
    u, v, beta, gamma = lam / hyp, w / hyp, b / w, -c / w  # beta = 1 / (m w), gamma = m w
    even = 0.25 + 0.25 * (u * u)  # (2 lam^2 + w^2) / (4 s2)

    def block(e00, e01, e10, e11):
        """S row by row for E = 2 H, each bracket in canonical units."""
        x, p = gamma * e00, beta * e11
        cross, shear = (e01 + e10) / hyp * v, (p - x) / hyp * v
        skew = (e01 - e10) / lam * v * v
        return (
            even * (e00 / lam) + beta * (0.25 * (v * (v * (p / lam)) + cross)),
            0.25 * (e01 / hyp * (u + u) + skew + shear),
            0.25 * (e10 / hyp * (u + u) - skew + shear),
            even * (e11 / lam) + gamma * (0.25 * (v * (v * (x / lam)) - cross)),
        )

    x00, x01, _, x11 = block(d[0] + d[0], d[1] + d[4], d[1] + d[4], d[5] + d[5])
    z00, z01, _, z11 = block(d[10] + d[10], d[11] + d[14], d[11] + d[14], d[15] + d[15])
    c00, c01, c10, c11 = block(d[2] + d[8], d[3] + d[12], d[6] + d[9], d[7] + d[13])
    return [x00, x01, c00, c01, x11, c10, c11, z00, z01, z11]


def steady_state_lyapunov(
    y: NDArray[np.float64], d: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Solve Y sigma + sigma Y^T = -2 D for the asymptotic covariance matrix.

    Y must be in `build_drift_matrix`'s layout, diag(P, P) with
    P = [[-lam, 1/m], [-m omega^2, -lam]]; any other Y is the ValueError of
    `propagate`.  The equation splits into three 2x2 Sylvester equations,
    whose closed-form solution `_steady_state` evaluates on Python floats with
    no `np.linalg` call; the result is the solution for D's symmetric part.
    Y's eigenvalues are -lam +- i omega, so Y is Hurwitz iff lam > 0
    (NotHurwitzError otherwise).  A result that overflows is a NonFiniteResultError.
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
    upper = _steady_state(a, b, c, entries)
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
