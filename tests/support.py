"""Shared helpers and independent oracles used across the test modules."""

import functools
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import scipy.linalg

from twomode import OscillatorParams, SymmetricEnvironmentParams


def matched_env(m, omega, lam, u, v):
    """Matched-noise environment from the scaled coordinates.

    u = m omega D_xx / lam and v = D_xpy / sqrt(lam^2 + omega^2);
    d_pxpx is locked to (m omega)^2 d_xx and d_xy = 0.
    """
    d_xx = u * lam / (m * omega)
    return SymmetricEnvironmentParams(
        lam=lam,
        d_xx=d_xx,
        d_pxpx=(m * omega) ** 2 * d_xx,
        d_xpy=v * math.sqrt(lam * lam + omega * omega),
    )


def random_symmetric_env(rng, lam_range=(0.1, 2.0), coeff_scale=1.0):
    """Symmetric environment with uniformly random coefficients."""
    lam = float(rng.uniform(*lam_range))
    vals = rng.uniform(-coeff_scale, coeff_scale, size=6)
    return SymmetricEnvironmentParams(
        lam=lam,
        d_xx=float(vals[0]),
        d_xpx=float(vals[1]),
        d_pxpx=float(vals[2]),
        d_xy=float(vals[3]),
        d_xpy=float(vals[4]),
        d_pxpy=float(vals[5]),
    )


def random_oscillator(rng, lo=0.5, hi=2.0):
    return OscillatorParams(m=float(rng.uniform(lo, hi)), omega=float(rng.uniform(lo, hi)))


def random_valid_symmetric_env(rng, mode="lenient", max_attempts=500):
    """Rejection-sample a symmetric environment passing validation."""
    from twomode import validate_environment

    for _ in range(max_attempts):
        env = SymmetricEnvironmentParams(
            lam=float(rng.uniform(0.2, 1.0)),
            d_xx=float(rng.uniform(0.3, 1.2)),
            d_xpx=float(rng.uniform(-0.2, 0.2)),
            d_pxpx=float(rng.uniform(0.3, 1.2)),
            d_xy=float(rng.uniform(-0.25, 0.25)),
            d_xpy=float(rng.uniform(-0.25, 0.25)),
            d_pxpy=float(rng.uniform(-0.25, 0.25)),
        )
        if validate_environment(env, mode).passed:
            return env
    raise RuntimeError("no valid environment found")


def random_spd(rng, dim=4, jitter=0.1):
    a = rng.normal(size=(dim, dim))
    return a @ a.T + jitter * np.eye(dim)


def pt_log_negativity(sigma):
    """Negativity from the partial-transpose symplectic spectrum.

    Independent of the determinant-based route: flips the sign of p_y,
    takes the absolute eigenvalues of i Omega sigma~ and returns
    -log2(2 nu_min).
    """
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega4 = np.zeros((4, 4))
    omega4[:2, :2] = j
    omega4[2:, 2:] = j
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    transposed = flip @ np.asarray(sigma, dtype=float) @ flip
    nu_min = float(np.abs(np.linalg.eigvals(1j * omega4 @ transposed)).min())
    return -math.log2(2.0 * nu_min)


def scaled_frobenius(delta, m, omega):
    """Frobenius norm in dimensionless quadratures (x sqrt(m w), p / sqrt(m w))."""
    root = math.sqrt(m * omega)
    weights = np.diag([root, 1.0 / root, root, 1.0 / root])
    return float(np.linalg.norm(weights @ np.asarray(delta, dtype=float) @ weights))


def random_physical_covariance(rng, max_noise=2.0, spread=0.8):
    """Thermal two-mode state under a random symplectic map exp(Omega H).

    The symplectic eigenvalues are drawn from [1/2, max_noise], so the state
    is physical; H is a random symmetric generator of size `spread`, which
    makes a good share of the states entangled.
    """
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    omega4 = np.zeros((4, 4))
    omega4[:2, :2] = j
    omega4[2:, 2:] = j
    h = rng.normal(scale=spread, size=(4, 4))
    symplectic = scipy.linalg.expm(omega4 @ (h + h.T) / 2.0)
    nu = rng.uniform(0.5, max_noise, size=2)
    thermal = np.diag([nu[0], nu[0], nu[1], nu[1]])
    sigma = symplectic @ thermal @ symplectic.T
    return 0.5 * (sigma + sigma.T)


def csv_cell(value):
    """A CSV cell as the per-field formatter wrote it before the column writer.

    17 significant digits with -0 written as 0; None is an empty cell, a bool
    is true or false and a string is itself.
    """
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    number = float(value)
    if number == 0.0:
        number = 0.0  # avoid emitting "-0"
    return format(number, ".17g")


def json_cell(value):
    """A JSON cell as json.dumps writes the value (-0.0 stays, None is null)."""
    return json.dumps(value)


def mp_damped_rotation(a, b, c, t):
    """exp(P t) for P = [[a, b], [c, a]], b > 0 > c, as mpmath rows at the working precision.

    P = a I + N with N^2 = b c I = -w^2 I, so the exponential series sums to
    exp(a t) (cos(w t) I + sin(w t) N / w), taken here on the exact inputs.
    """
    a, b, c, t = (mpmath.mpf(v) for v in (a, b, c, t))
    w = mpmath.sqrt(-b * c)
    decay, cos, sin = mpmath.exp(a * t), mpmath.cos(w * t), mpmath.sin(w * t)
    return [[decay * cos, decay * sin * b / w], [decay * sin * c / w, decay * cos]]


def mp_sigma_t(y, d, sigma0, t, dps=50):
    """sigma(t) = M(t) sigma0 M(t)^T + 2 int_0^t M(s) D M(s)^T ds in `dps`-digit mpmath.

    y is a drift matrix in `build_drift_matrix`'s layout, M(s) = exp(Y s) its
    `mp_damped_rotation` on both blocks, and the integral is taken by quadrature,
    entry by entry, so no 1/lambda-sized sigma_inf is formed or cancelled.
    Returns the 4x4 rows of mpf values from the doubles of y, d, sigma0 and t.
    """
    with mpmath.workdps(dps):
        a, b, c = float(y[0, 0]), float(y[0, 1]), float(y[1, 0])

        def congruence(s, inner):
            block, m = mp_damped_rotation(a, b, c, s), mpmath.zeros(4, 4)
            for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                m[i, j] = m[i + 2, j + 2] = block[i][j]
            return m * inner * m.T

        diffusion = mpmath.matrix(np.asarray(d, dtype=float).tolist())
        source = functools.lru_cache(maxsize=None)(lambda s: congruence(s, diffusion))
        out = congruence(t, mpmath.matrix(np.asarray(sigma0, dtype=float).tolist()))
        for i in range(4):
            for j in range(i, 4):
                out[i, j] += 2 * mpmath.quad(lambda s: source(s)[i, j], [0, t])
                out[j, i] = out[i, j]
        return out.tolist()


def exact_steady_state(y, d):
    """sigma_inf of Y sigma + sigma Y^T = -(D + D^T) in exact rational arithmetic.

    y is a drift matrix in `build_drift_matrix`'s layout, diag(P, P) with
    P = [[a, b], [c, a]], and d any real 4x4 matrix; the doubles of both are
    read as the rationals they are.  Each 2x2 block S of sigma solves
    P S + S P^T = R, R = -(D_ij + D_ji^T), which Cayley-Hamilton (P^2 = tr(P) P - det(P) I)
    turns into 2 tr(P) P S = P R - R P^T + tr(P) R, solved with P's exact inverse.
    Returns the 4x4 rows of Fractions, after asserting that the residual is exactly zero.
    """
    ym = [[Fraction(float(v)) for v in row] for row in np.asarray(y).tolist()]
    dm = [[Fraction(float(v)) for v in row] for row in np.asarray(d).tolist()]
    a, b, c = ym[0][0], ym[0][1], ym[1][0]
    trace, det = a + a, a * a - b * c
    p, pt, inverse = [[a, b], [c, a]], [[a, c], [b, a]], [[a / det, -b / det], [-c / det, a / det]]

    def product(x, z):
        return [[x[k][0] * z[0][n] + x[k][1] * z[1][n] for n in range(2)] for k in range(2)]

    sigma = [[Fraction(0)] * 4 for _ in range(4)]
    for i, j in ((0, 0), (0, 2), (2, 2)):
        r = [[-(dm[i + k][j + n] + dm[j + n][i + k]) for n in range(2)] for k in range(2)]
        pr, rp = product(p, r), product(r, pt)
        rhs = [[(pr[k][n] - rp[k][n] + trace * r[k][n]) / (2 * trace) for n in range(2)] for k in range(2)]
        block = product(inverse, rhs)
        for k in range(2):
            for n in range(2):
                sigma[i + k][j + n] = sigma[j + n][i + k] = block[k][n]
    for i in range(4):
        for j in range(4):
            ys = sum(ym[i][k] * sigma[k][j] for k in range(4))
            sy = sum(sigma[i][k] * ym[j][k] for k in range(4))
            assert ys + sy + dm[i][j] + dm[j][i] == 0, (i, j)
    return sigma
