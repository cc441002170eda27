"""Covariance propagation and the asymptotic (steady-state) covariance matrix.

The evolution d(sigma)/dt = Y sigma + sigma Y^T + 2 D has the solution
sigma(t) = M(t) (sigma(0) - sigma_inf) M(t)^T + sigma_inf with M(t) = exp(Y t),
provided Y is Hurwitz; sigma_inf solves Y sigma + sigma Y^T = -2 D.

Y's layout is known to `twomode.model` alone: `_drift_parameters` reads
(m, omega, lam) back for the damped rotations of M(t), and `_drift_spectrum`
gives the Hurwitz test and the conditioning warning Y's largest real part and
largest |imaginary part|.  No code here reads Y's layout itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .entanglement import _mirrored_closed_form
from .errors import ConditioningWarning, NonFiniteResultError, NotHurwitzError
from .model import EnvironmentParams, OscillatorParams, _as_real, _drift_parameters
from .model import _drift_spectrum, _read_covariance, _stack

# sigma_inf entries scale like 1/lambda, so warn well before that blows up.
_CONDITIONING_RATIO = 1e-6

_EYE4 = np.eye(4)
_EYE4.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Propagator:
    """Fundamental solution M(t) = exp(Y t) of the drift part."""

    t: float
    matrix: NDArray[np.float64]


def _check_times(t) -> None:
    if not np.all(np.isfinite(t) & (np.asarray(t) >= 0.0)):
        raise ValueError(f"t must be finite and non-negative, got {t!r}")


def _damped_rotations(m: float, omega: float, lam: float, t) -> NDArray[np.float64]:
    """exp(Y t) as [..., 4, 4] for a time or an array of times."""
    decay = np.exp(-lam * t)
    c = np.cos(omega * t)
    s = np.sin(omega * t)
    z = np.zeros_like(decay)
    qq, qp, pq = decay * c, decay * (s / (m * omega)), decay * (-m * omega * s)
    return _stack([[qq, qp, z, z], [pq, qq, z, z], [z, z, qq, qp], [z, z, pq, qq]])


def matrix_exponential(y: NDArray[np.float64], t: float) -> Propagator:
    """exp(Y t) via the analytic damped-rotation block form.

    Each 2x2 block equals
    exp(-lam t) [[cos(w t), sin(w t)/(m w)], [-m w sin(w t), cos(w t)]].
    A y off `build_drift_matrix`'s layout is a ValueError (`_drift_parameters`).
    """
    _check_times(t)
    return Propagator(t=float(t), matrix=_damped_rotations(*_drift_parameters(y), t))


def _warn_if_ill_conditioned(decay: float, oscillation: float) -> None:
    if decay < _CONDITIONING_RATIO * oscillation:
        warnings.warn(
            "dissipation is tiny compared to the oscillation frequency; "
            "steady-state entries scale like 1/lambda and lose precision",
            ConditioningWarning,
            stacklevel=3,
        )


def steady_state_lyapunov(
    y: NDArray[np.float64], d: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Solve Y sigma + sigma Y^T = -2 D for the asymptotic covariance matrix.

    The equation is vectorized into a dense 16x16 linear system and solved
    directly; the result is symmetrized.  The fixed tiny dimension makes a
    Bartels-Stewart style solver unnecessary.  The operator I (x) Y + Y (x) I
    is built as one broadcast product over [4, 4, 4, 4] reshaped to 16x16;
    it makes the same products and sums as two `np.kron` calls, so it is
    bit for bit the Kronecker-built operator, for any 4x4 Y.  The finiteness
    check comes after the symmetrization, whose sum can overflow too.

    Y must be Hurwitz (NotHurwitzError otherwise), and a ConditioningWarning
    is issued when its slowest decay rate is below 1e-6 times its fastest
    oscillation.  Both read Y's spectrum from `_drift_spectrum`: in closed form
    from the two 2x2 blocks of a block-diagonal Y, with no `np.linalg` call,
    and from `np.linalg.eigvals` for any other Y, so a non-finite Y raises
    numpy's LinAlgError.  A complex or non-4x4 Y or D, or a non-finite D, is
    a ValueError before the solve.
    """
    y = _as_real(y, "drift matrix")
    d = _read_covariance(d, name="diffusion matrix")[0]
    slowest, oscillation = _drift_spectrum(y)
    if not slowest < 0.0:
        raise NotHurwitzError(
            "drift matrix has an eigenvalue with non-negative real part; "
            "no steady state exists"
        )
    coefficient = (
        _EYE4[:, None, :, None] * y[None, :, None, :]
        + y[:, None, :, None] * _EYE4[None, :, None, :]
    ).reshape(16, 16)
    try:
        sigma = np.linalg.solve(coefficient, -2.0 * d.reshape(-1)).reshape(4, 4)
    except np.linalg.LinAlgError:
        raise NonFiniteResultError(
            "Lyapunov operator is singular in double precision; "
            "the coefficients span too many orders of magnitude"
        ) from None
    sigma = 0.5 * (sigma + sigma.T)
    if not np.isfinite(sigma).all():
        raise NonFiniteResultError(
            "steady-state covariance overflows double precision; "
            "lambda is too small for these diffusion coefficients"
        )
    _warn_if_ill_conditioned(-slowest, oscillation)
    return sigma


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
    xx, xpx, pxpx, xy, xpy, pxpy = _mirrored_closed_form(_closed_form_entries, osc, env)
    _warn_if_ill_conditioned(env.lam, osc.omega)
    rows = [[xx, xpx, xy, xpy], [xpx, pxpx, xpy, pxpy], [xy, xpy, xx, xpx], [xpy, pxpy, xpx, pxpx]]
    return _stack(rows)


def _closed_form_entries(osc: OscillatorParams, env: EnvironmentParams) -> tuple:
    """sigma_xx, sigma_xpx, sigma_pxpx, sigma_xy, sigma_xpy, sigma_pxpy of
    `steady_state_closed_form`, unchecked and elementwise for coefficient arrays."""
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

    return (*entries(env.d_xx, env.d_xpx, env.d_pxpx), *entries(env.d_xy, env.d_xpy, env.d_pxpy))


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
    params = _drift_parameters(y)
    _check_times(t)
    mt = _damped_rotations(*params, t)
    out = mt @ (sigma0 - sigma_inf) @ np.swapaxes(mt, -1, -2) + sigma_inf
    out = np.where(np.equal(t, 0.0)[..., None, None], sigma0, out)
    return 0.5 * (out + np.swapaxes(out, -1, -2))
