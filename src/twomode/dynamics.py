"""Covariance propagation and the asymptotic (steady-state) covariance matrix.

The evolution d(sigma)/dt = Y sigma + sigma Y^T + 2 D has the solution
sigma(t) = M(t) (sigma(0) - sigma_inf) M(t)^T + sigma_inf with M(t) = exp(Y t),
provided Y is Hurwitz; sigma_inf solves Y sigma + sigma Y^T = -2 D.

The Hurwitz test and the conditioning warning need only the largest real part
and the largest |imaginary part| of Y's spectrum.  For a block-diagonal Y, as
`build_drift_matrix` makes, they come in closed form from its two 2x2 blocks
(`_drift_spectrum`); any other Y goes through `numpy.linalg.eigvals`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .entanglement import _mirrored_closed_form
from .errors import ConditioningWarning, NonFiniteResultError, NotHurwitzError
from .model import EnvironmentParams, OscillatorParams, _stack

# sigma_inf entries scale like 1/lambda, so warn well before that blows up.
_CONDITIONING_RATIO = 1e-6

_EYE4 = np.eye(4)
_EYE4.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Propagator:
    """Fundamental solution M(t) = exp(Y t) of the drift part."""

    t: float
    matrix: NDArray[np.float64]


def _drift_parameters(y: NDArray[np.float64]) -> tuple[float, float, float]:
    """Recover (m, omega, lam) from a structured drift matrix.

    Raises ValueError when y is not block-diagonal with two identical
    damped-oscillator blocks.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (4, 4):
        raise ValueError(f"drift matrix must be 4x4, got shape {y.shape}")
    blk = y[:2, :2]
    scale = max(1.0, float(np.abs(y).max()))
    structured = (
        float(np.abs(y[:2, 2:]).max()) <= 1e-12 * scale
        and float(np.abs(y[2:, :2]).max()) <= 1e-12 * scale
        and float(np.abs(y[2:, 2:] - blk).max()) <= 1e-12 * scale
        and abs(blk[0, 0] - blk[1, 1]) <= 1e-12 * scale
        and blk[0, 1] > 0.0
        and blk[1, 0] < 0.0
    )
    if not structured:
        raise ValueError("drift matrix is not of the two-oscillator damped form")
    m = 1.0 / blk[0, 1]
    lam = -blk[0, 0]
    omega = math.sqrt(-blk[1, 0] * blk[0, 1])
    return m, omega, lam


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


# A 2x2 block whose largest |entry| lies in this range has products and sums
# of its entries in the normal range of doubles: none overflows or underflows.
_BLOCK_LOW, _BLOCK_HIGH = 1e-150, 1e150


def _block_spectrum(a: float, b: float, c: float, d: float) -> tuple[float, float] | None:
    """(largest real part, largest |imaginary part|) of the eigenvalues of [[a, b], [c, d]].

    The eigenvalues are h +- sqrt(g^2 + b c) with h = (a + d)/2, g = (a - d)/2,
    exactly a and d for a triangular block.  A real pair's larger root h + r
    cancels where h < 0; it is (a d - b c) / (h - r) there.  None when a block
    that is not triangular has its largest |entry| outside [_BLOCK_LOW, _BLOCK_HIGH].
    """
    if b == 0.0 or c == 0.0:
        return max(a, d), 0.0
    if not _BLOCK_LOW <= max(abs(a), abs(b), abs(c), abs(d)) <= _BLOCK_HIGH:
        return None
    half, gap = 0.5 * (a + d), 0.5 * (a - d)
    radicand = gap * gap + b * c
    if radicand < 0.0:
        return half, math.sqrt(-radicand)
    root = math.sqrt(radicand)
    return (half + root if half >= 0.0 else (a * d - b * c) / (half - root)), 0.0


def _drift_spectrum(y: NDArray[np.float64]) -> tuple[float, float]:
    """(largest real part, largest |imaginary part|) of the eigenvalues of y.

    A finite 4x4 y whose off-diagonal 2x2 blocks are exact zeros, as every
    drift matrix `build_drift_matrix` makes, has the eigenvalues of its two
    diagonal blocks, which `_block_spectrum` takes in closed form from one
    `tolist()`.  Any other y, and a block out of that closed form's range,
    goes through `np.linalg.eigvals`, which raises LinAlgError on a
    non-finite y.
    """
    if y.shape == (4, 4):
        (a, b, z0, z1), (c, d, z2, z3), (z4, z5, e, f), (z6, z7, g, h) = y.tolist()
        # x * 0.0 is 0.0 for finite x only: a non-finite y goes on to eigvals, which
        # raises, and no NaN reaches _block_spectrum, where max() would pass it over
        finite = (a + b + c + d + e + f + g + h) * 0.0 == 0.0
        if finite and not (z0 or z1 or z2 or z3 or z4 or z5 or z6 or z7):
            first, second = _block_spectrum(a, b, c, d), _block_spectrum(e, f, g, h)
            if first and second:
                return max(first[0], second[0]), max(first[1], second[1])
    eigs = np.linalg.eigvals(y)
    return float(eigs.real.max()), float(abs(eigs.imag).max())


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
    numpy's LinAlgError.
    """
    y = np.asarray(y, dtype=float)
    d = np.asarray(d, dtype=float)
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
    sigma0 itself, untouched by the propagator's rounding.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    sigma_inf = np.asarray(sigma_inf, dtype=float)
    params = _drift_parameters(y)
    _check_times(t)
    mt = _damped_rotations(*params, t)
    out = mt @ (sigma0 - sigma_inf) @ np.swapaxes(mt, -1, -2) + sigma_inf
    out = np.where(np.equal(t, 0.0)[..., None, None], sigma0, out)
    return 0.5 * (out + np.swapaxes(out, -1, -2))
