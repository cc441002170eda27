"""Covariance propagation and the asymptotic (steady-state) covariance matrix.

sigma(t) = M(t) sigma(0) M(t)^T + W(t), W(t) = 2 int_0^t M(s) D M(s)^T ds, M(t) = exp(Y t),
solves d(sigma)/dt = Y sigma + sigma Y^T + 2 D; for a Hurwitz Y it tends to sigma_inf = W(inf),
which solves Y sigma + sigma Y^T = -2 D.  Y's layout is known to `twomode.model` alone: every
function here takes diag(P, P), P = [[a, b], [c, a]] = [[-lam, 1/m], [-m omega^2, -lam]], read
by `_drift`.  `_source` writes W's three 2x2 blocks on four weights, which `propagated_entries`
gives at t and `_steady_upper`, the one steady state, at t = inf.  Y's eigenvalues are a +- i w,
w = omega, so the Hurwitz test is lam > 0; any other Y is a ValueError.  sigma_inf and sigma(t)
are built from their ten upper entries in `model.UPPER` order, which `steady_entries` (on an
environment's coefficients, floats or arrays) and `propagated_entries` return.  The mirrored
closed forms of `steady_state_closed_form` check the solve in raw units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .entanglement import _mirrored_closed_form
from .errors import NonFiniteResultError, NotHurwitzError
from .model import EnvironmentParams, OscillatorParams, _drift_block, _read_covariance
from .model import _ROW_MAJOR, _diffusion_entries, _stack, _symmetric, build_drift_matrix


@dataclass(frozen=True, eq=False)
class Propagator:
    """Fundamental solution M(t) = exp(Y t) of the drift part."""

    t: float
    matrix: NDArray[np.float64]


def _check_times(t) -> None:
    if not np.all(np.isfinite(t) & (np.asarray(t) >= 0.0)):
        raise ValueError(f"t must be finite and non-negative, got {t!r}")


def _drift(y) -> tuple:
    """`_drift_block`'s (a, b, c) and w = sqrt(b) sqrt(-c), where -b c may leave the doubles."""
    a, b, c = _drift_block(y)
    return a, b, c, math.sqrt(b) * math.sqrt(-c)


def _damped_rotation(a: float, b: float, c: float, w: float, t) -> tuple:
    """(qq, qp, pq) of exp(P t) = [[qq, qp], [pq, qq]], P = [[a, b], [c, a]], elementwise in t."""
    decay = np.exp(a * t)
    turn = np.sin(w * t) / w  # at most t and 1 / w, where b / w may overflow
    return decay * np.cos(w * t), decay * (turn * b), decay * (turn * c)


def matrix_exponential(y: NDArray[np.float64], t: float) -> Propagator:
    """exp(Y t) via the analytic damped-rotation block form.

    Each 2x2 block [[a, b], [c, a]] = [[-lam, 1/m], [-m w^2, -lam]] of y gives
    exp(a t) [[cos(w t), sin(w t) b/w], [sin(w t) c/w, cos(w t)]], w = sqrt(-c b).
    A y off `build_drift_matrix`'s layout is a ValueError (`_drift_block`).
    """
    _check_times(t)
    qq, qp, pq = _damped_rotation(*_drift(y), t)
    rows = [[qq, qp, 0.0, 0.0], [pq, qq, 0.0, 0.0], [0.0, 0.0, qq, qp], [0.0, 0.0, pq, qq]]
    return Propagator(t=float(t), matrix=np.array(rows))


def _upper(block) -> list:
    """The ten `model.UPPER` entries from block(k), the 2x2 block at row-major entry k, by rows."""
    (x00, x01, _, x11), (c00, c01, c10, c11), (z00, z01, _, z11) = block(0), block(2), block(10)
    return [x00, x01, c00, c01, x11, c10, c11, z00, z01, z11]


def _source(d: list, beta: float, gamma: float, weights: tuple) -> list:
    """The ten upper entries of W = 2 int_0^t M(s) D M(s)^T ds from D's 16 row-major entries,
    elementwise in the weights.  With `_drift`'s (a, b, c, w), beta = b / w = 1 / (m w),
    gamma = -c / w = m w and N = [[0, b], [c, 0]], M(s) = exp(a s) (cos(w s) + sin(w s) N / w)
    on each block, so each 2x2 block of W, from E = D_ij + D_ji^T (2 H for D's symmetric part
    H), is cc E + sc (N E + E N^T) / w + ss N E N^T / w^2 (C. Van Loan, IEEE TAC 23, 395 (1978)),
    (cc, ss, sc, c2) = int_0^t exp(2 a s) (cos^2, sin^2, sin cos, cos 2)(w s) ds.  In canonical
    units, x = gamma e00 and p = beta e11, with c2 for cc - ss, so nothing of size 1/lam cancels:
        s00 = cc e00 + beta (ss p + sc (e01 + e10)), s01 = c2 e01 + ss (e01 - e10) + sc (p - x),
        s11 = cc e11 + gamma (ss x - sc (e01 + e10)), s10 = c2 e10 - ss (e01 - e10) + sc (p - x)."""
    cc, ss, sc, c2 = weights

    def block(k: int) -> tuple:
        j = 4 * (k % 4) + k // 4  # the first entry of D_ji
        e00, e01 = d[k] + d[j], d[k + 1] + d[j + 4]
        e10, e11 = d[k + 4] + d[j + 1], d[k + 5] + d[j + 5]
        x, p = gamma * e00, beta * e11
        cross, skew, shear = sc * (e01 + e10), ss * (e01 - e10), sc * (p - x)
        return (cc * e00 + beta * (ss * p + cross), c2 * e01 + skew + shear,
                c2 * e10 - skew + shear, cc * e11 + gamma * (ss * x - cross))

    return _upper(block)


def _steady_state(lam: float, w: float) -> tuple:
    """`_source`'s weights at t = inf, with hyp = hypot(lam, w), u = lam / hyp and v = w / hyp:
    cc = (1 + u^2) / (4 lam), ss = v^2 / (4 lam), sc = v / (4 hyp) and c2 = u / (2 hyp), each of
    degree -1 in (lam, w): a hyp beyond the doubles is halved with them, and the weights halved."""
    hyp = math.hypot(lam, w)
    if hyp == math.inf:
        return tuple(0.5 * x for x in _steady_state(0.5 * lam, 0.5 * w))
    u, v = lam / hyp, w / hyp
    return (0.25 + 0.25 * (u * u)) / lam, 0.25 * (v * v) / lam, 0.25 * v / hyp, 0.5 * u / hyp


def _steady_upper(a: float, b: float, c: float, w: float, d: list) -> list:
    """sigma_inf's ten upper entries from `_drift`'s (a, b, c, w) and D's 16 row-major entries,
    elementwise in D's: `_source` on `_steady_state`'s t = inf weights.  NotHurwitzError unless
    lam = -a > 0.  The result is not checked for overflow."""
    if not -a > 0.0:
        raise NotHurwitzError("drift matrix has an eigenvalue with non-negative real part; "
                              "no steady state exists")
    beta, gamma, lam = b / w, -c / w, -a
    if lam < 2.0**-1020:  # near where 1 / (4 lam) overflows; Y and D scaled alike keep sigma
        lam, w, d = 2.0**54 * lam, 2.0**54 * w, [2.0**54 * x for x in d]
    return _source(d, beta, gamma, _steady_state(lam, w))


def steady_state_lyapunov(
    y: NDArray[np.float64], d: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Solve Y sigma + sigma Y^T = -2 D for the asymptotic covariance matrix.

    Y must be in `build_drift_matrix`'s layout, diag(P, P) with
    P = [[-lam, 1/m], [-m omega^2, -lam]]; any other Y is the ValueError of
    `propagate`.  sigma_inf is `_steady_upper`'s W(inf) on Python floats, with no `np.linalg`
    call: the solution for D's symmetric part.  Y is Hurwitz iff lam > 0 (NotHurwitzError
    otherwise).  A result that overflows is a NonFiniteResultError.  A complex or non-4x4 Y
    or D, or a non-finite D, is a ValueError before the solve.
    """
    upper = _steady_upper(*_drift(y), _read_covariance(d, name="diffusion matrix")[1])
    # a finite sum has finite terms; an infinite or NaN one is checked term by term
    if not (math.isfinite(sum(upper)) or all(map(math.isfinite, upper))):
        raise NonFiniteResultError("steady-state covariance overflows double precision")
    return _symmetric(upper)


def steady_entries(osc: OscillatorParams, env: EnvironmentParams) -> list:
    """`steady_state_lyapunov`'s ten upper entries in `model.UPPER` order, bit for bit, on Y of
    `build_drift_matrix` and D of `build_diffusion_matrix`: for an environment of floats, or
    elementwise for `model.Coefficients` arrays with one float lam.  Errors: those of
    `build_drift_matrix`, then NotHurwitzError; an entry that overflows is left inf or NaN."""
    return _steady_upper(*_drift(build_drift_matrix(osc, env)), _diffusion_entries(env))


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
    (D_xy, D_xpy, D_pxpy) replaced by (D_xx, D_xpx, D_pxpx).  They are evaluated in raw units,
    independently of the solve, which they check.  Errors: see `twomode.entanglement`.
    """
    return _symmetric(_mirrored_closed_form(_closed_form_entries, osc, env))


def _closed_form_entries(osc: OscillatorParams, env: EnvironmentParams) -> tuple:
    """The ten upper entries of `steady_state_closed_form` in `model.UPPER` order, unchecked:
    mirrored, s22 = s00, s23 = s01, s33 = s11, s12 = s03."""
    m, w, lam = osc.m, osc.omega, env.lam
    s2 = lam * lam + w * w

    def entries(dq, dqp, dp):
        qq = (m * m * (2 * lam * lam + w * w) * dq + 2 * m * lam * dqp + dp) / (
            2 * m * m * lam * s2)
        qp = (-(m * m * w * w) * dq + 2 * m * lam * dqp + dp) / (2 * m * s2)
        pp = (m * m * (w * w) * (w * w) * dq - 2 * m * w * w * lam * dqp
              + (2 * lam * lam + w * w) * dp) / (2 * lam * s2)
        return qq, qp, pp

    xx, xpx, pxpx = entries(env.d_xx, env.d_xpx, env.d_pxpx)
    xy, xpy, pxpy = entries(env.d_xy, env.d_xpy, env.d_pxpy)
    return xx, xpx, xy, xpy, pxpx, xpy, pxpy, xx, xpx, pxpx


def _source_integrals(a: float, w: float, t) -> tuple:
    """I0 = int_0^t exp(2 a s) ds and Re J, Im J of J = int_0^t exp(2 a s) expm1(2 i w s) ds, each
    to a few ulps of itself, and C2 = I0 + Re J = int_0^t exp(2 a s) cos(2 w s) ds, which crosses
    zero, to a few ulps of I0; elementwise in t.  With z = 2 (a + i w), J = (exp(2 a t)
    expm1(2 i w t) - 2 i w I0) / z and C2 = Re(expm1(z t) / z) where |z t| >= 1; below, where
    those cancel, J = t sum_k ((z t)^k - (2 a t)^k) / (k + 1)!, I0, whose 2 a t may be subnormal
    there, is t sum_k (2 a t)^k / (k + 1)!, and C2 = I0 + Re J cancels nothing.  The series is
    summed on those times alone."""
    z, i2w, t = complex(a + a, w + w), complex(0.0, w + w), np.asarray(t)
    grow = np.expm1((a + a) * t)
    i0 = grow / (a + a) if a else t
    turn = np.exp((a + a) * t) * np.expm1(i2w * t)  # expm1(z t) = turn + grow
    integral, c2 = np.array((turn - i2w * i0) / z), np.array(((turn + grow) / z).real)
    i0 = np.array(i0, dtype=float)  # a copy: i0 may be t itself
    near = (abs(z * t) < 1.0) & (t != 0.0)
    if near.any():
        zeta, power, phi, series = z * t[near], 1.0, 0.0, 0.0  # the series' arguments, 1-D
        term = 1j * zeta.imag
        for k in range(2, 19):  # 1 / 18! < eps / 4
            phi = phi + power / math.factorial(k - 1)  # I0 / t = expm1(2 a t) / (2 a t)
            series = series + term / math.factorial(k)
            power = power * zeta.real
            term = zeta * term + 1j * zeta.imag * power  # (z t)^k - (2 a t)^k, each k
        i0[near], integral[near] = t[near] * phi, t[near] * series
        c2[near] = i0[near] + integral.real[near]
    return i0, integral.real, integral.imag, c2


def propagated_entries(sigma0, y, d, t) -> tuple:
    """sigma(t) = M(t) sigma0 M(t)^T + W(t) as its ten upper entries in `model.UPPER` order,
    elementwise in t, for symmetric sigma0 and D: W(t) is `_source` on the weights
    cc = (I0 + C2) / 2, ss = -Re J / 2, sc = Im J / 2 and C2 of `_source_integrals`, and at
    t = 0 the entries are sigma0's.  Inputs are read as `propagate` reads them."""
    g = _read_covariance(sigma0)[1]
    a, b, c, w = _drift(y)
    h = _read_covariance(d, name="diffusion matrix")[1]
    _check_times(t)
    qq, qp, pq = _damped_rotation(a, b, c, w, t)

    def congruence(k: int) -> tuple:
        g00, g01, g10, g11 = g[k], g[k + 1], g[k + 4], g[k + 5]
        r00, r01 = qq * g00 + qp * g10, qq * g01 + qp * g11  # M G
        r10, r11 = pq * g00 + qq * g10, pq * g01 + qq * g11
        return r00 * qq + r01 * qp, r00 * pq + r01 * qq, r10 * qq + r11 * qp, r10 * pq + r11 * qq

    upper = _upper(congruence)
    if any(h):  # a zero D adds nothing, however fast M(t) grows
        i0, re_j, im_j, c2 = _source_integrals(a, w, t)
        weights = 0.5 * (i0 + c2), -0.5 * re_j, 0.5 * im_j, c2
        upper = [x + s for x, s in zip(upper, _source(h, b / w, -c / w, weights))]
    return tuple(upper)


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
    For lam << omega the two terms cancel: sigma_inf's entries are of size 1 / lam, so at
    lam = 1e-80 sigma_xx(0.5) is -1.3e64 where it is 1.1.  `propagated_entries`, fed D, is
    the accurate route there.  A sigma0 or sigma_inf that is complex, not 4x4 or not finite,
    and a y off `build_drift_matrix`'s layout, is a ValueError.
    """
    sigma0 = _read_covariance(sigma0)[0]
    sigma_inf = _read_covariance(sigma_inf)[0]
    delta = sigma0 - sigma_inf
    upper = propagated_entries(0.5 * (delta + delta.T), y, np.zeros((4, 4)), t)
    out = _stack(np.reshape(_ROW_MAJOR(upper), (4, 4, *np.shape(t)))) + sigma_inf
    out = np.where(np.equal(t, 0.0)[..., None, None], sigma0, out)
    return 0.5 * (out + np.swapaxes(out, -1, -2))
