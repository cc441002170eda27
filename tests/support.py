"""Shared helpers and independent oracles used across the test modules."""

import math

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
