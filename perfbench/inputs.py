"""Seeded input generators for the benchmark workloads.

Usage: python inputs.py WORKLOAD SEED SIZE OUTDIR  (writes config.json or envs.json)

Prints the workload's number of points: grid points, time points or
environments per invocation.

Nothing here uses the package under test: the program receives the
generated configs and parameter files, nothing else.  The same seed and
size give the same inputs byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from oracle import CONFIG_KEYS, diffusion, validity_slacks

# Full-size workloads (ROADMAP baseline sizes) and the tiny ones the
# self-tests use.
SIZES = {
    "full": {"grid_n": 201, "time_points": 10001, "envs": 10000},
    "tiny": {"grid_n": 41, "time_points": 1001, "envs": 300},
}

# Scaled sweep axes.  axis1 starts below the single-mode uncertainty bound
# 1/2 so that 20% of the rows are gated (negativity cells left empty).
AXIS1 = (0.25, 1.5)
AXIS2 = (0.0, 2.0)

# scalar-api mix: share of environments per kind, and the share of each
# kind that passes strict validation.
SCALAR_MIX = (
    ("matched", 0.40),  # matched-noise class with D_xy = 0 (closed forms apply)
    ("symmetric", 0.30),  # mirrored y-mode noise, outside the matched class
    ("general", 0.30),  # ten independent coefficients
)
STRICT_VALID_SHARE = 0.8

# Accepted environments keep this distance (relative to lambda^2) from the
# strict-validity threshold, so no verdict sits on a tolerance edge.
_VALIDITY_MARGIN = 1e-6

ENV_FIELDS = (
    "d_xx", "d_xpx", "d_xy", "d_xpy", "d_ypx",
    "d_pxpx", "d_yy", "d_ypy", "d_pxpy", "d_pypy",
)
# Reduced fields of a mirrored environment, as the package's
# SymmetricEnvironmentParams takes them.
REDUCED_FIELDS = ("d_xx", "d_xpx", "d_pxpx", "d_xy", "d_xpy", "d_pxpy")


def _oscillator(rng) -> tuple[float, float]:
    return float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))


def mirror(reduced: dict) -> dict:
    """Ten coefficients of an environment whose y-mode noise mirrors x."""
    full = {key: float(reduced.get(key, 0.0)) for key in REDUCED_FIELDS}
    full.update(
        d_yy=full["d_xx"], d_ypy=full["d_xpx"], d_pypy=full["d_pxpx"], d_ypx=full["d_xpy"]
    )
    return {key: full[key] for key in ENV_FIELDS}


def sweep_config(seed: int, size: str = "full") -> dict:
    """Scaled D_xx x D_xpy sweep; the seed picks m, omega and lambda."""
    rng = np.random.default_rng([seed, 1])
    m, omega = _oscillator(rng)
    lam = float(rng.uniform(0.2, 1.5))
    n = SIZES[size]["grid_n"]
    d_xx = lam / (m * omega)
    return {
        "oscillator": {"m": m, "omega": omega},
        "environment": {
            "lambda": lam,
            "D_xx": d_xx,
            "D_pxpx": (m * omega) ** 2 * d_xx,
            "D_xpy": 0.0,
        },
        "validation": "strict",
        "sweep": {
            "axis1": {"coefficient": "D_xx", "min": AXIS1[0], "max": AXIS1[1], "n": n},
            "axis2": {"coefficient": "D_xpy", "min": AXIS2[0], "max": AXIS2[1], "n": n},
            "scaling": "scaled",
        },
    }


def _draw_candidates(rng, kind: str, count: int, m, omega, lam) -> list[dict]:
    """Uniform proposals of one kind; m, omega, lam are arrays of length count."""
    mw = m * omega
    if kind == "matched":
        u = rng.uniform(0.3, 2.0, count)
        v = rng.uniform(0.0, 2.5, count)
        d_xx = u * lam / mw
        cols = {
            "d_xx": d_xx,
            "d_pxpx": mw**2 * d_xx,
            "d_xpy": v * np.sqrt(lam**2 + omega**2),
        }
        return [mirror({k: c[i] for k, c in cols.items()}) for i in range(count)]
    # Diagonal noise in units of lambda times the oscillator's natural scale.
    q, p = lam / mw, lam * mw
    diag = lambda s: rng.uniform(0.3, 2.0, count) * s  # noqa: E731
    cross = lambda s: rng.uniform(-0.6, 0.6, count) * s  # noqa: E731
    cols = {
        "d_xx": diag(q),
        "d_xpx": cross(lam),
        "d_pxpx": diag(p),
        "d_xy": cross(q),
        "d_xpy": cross(lam),
        "d_pxpy": cross(p),
    }
    if kind == "symmetric":
        return [mirror({k: c[i] for k, c in cols.items()}) for i in range(count)]
    cols.update(
        d_yy=diag(q), d_ypy=cross(lam), d_pypy=diag(p), d_ypx=cross(lam)
    )
    return [{k: float(cols[k][i]) for k in ENV_FIELDS} for i in range(count)]


def _classify(envs: list[dict], lams: np.ndarray) -> list[bool | None]:
    """True/False for clearly strict-valid/invalid, None near the threshold."""
    min_eig, slack = validity_slacks(np.array([diffusion(d) for d in envs]), lams)
    margin = _VALIDITY_MARGIN * lams * lams
    valid = (min_eig > margin) & (slack > margin)
    invalid = min_eig < -margin
    return [True if ok else False if bad else None for ok, bad in zip(valid, invalid)]


def sample_environments(rng, kind: str, n_valid: int, n_invalid: int) -> list[dict]:
    """Rejection-sample environments of one kind until both quotas are met."""
    out: list[dict] = []
    need = {True: n_valid, False: n_invalid}
    while need[True] or need[False]:
        batch = 64
        m = rng.uniform(0.5, 2.0, batch)
        omega = rng.uniform(0.5, 2.0, batch)
        lam = rng.uniform(0.2, 1.5, batch)
        candidates = _draw_candidates(rng, kind, batch, m, omega, lam)
        for i, (d, label) in enumerate(zip(candidates, _classify(candidates, lam))):
            if label is None or not need[label]:
                continue
            need[label] -= 1
            out.append(
                {
                    "kind": kind,
                    "m": float(m[i]),
                    "omega": float(omega[i]),
                    "lam": float(lam[i]),
                    "d": d,
                    "strict_valid": label,
                }
            )
    return out


def scalar_inputs(seed: int, size: str = "full") -> list[dict]:
    """Environments for the library loop, mixed per SCALAR_MIX and shuffled."""
    rng = np.random.default_rng([seed, 2])
    total = SIZES[size]["envs"]
    envs: list[dict] = []
    for kind, share in SCALAR_MIX:
        count = round(share * total)
        n_valid = round(STRICT_VALID_SHARE * count)
        envs.extend(sample_environments(rng, kind, n_valid, count - n_valid))
    order = rng.permutation(len(envs))
    return [envs[i] for i in order]


def _physical_state(rng) -> list[list[float]]:
    """Random mixed two-mode Gaussian state: thermal noise under a symplectic map."""
    def rotation(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, s], [-s, c]])

    def local(theta1, theta2):
        out = np.zeros((4, 4))
        out[:2, :2] = rotation(theta1)
        out[2:, 2:] = rotation(theta2)
        return out

    # Beam splitter mixing x with y and p_x with p_y.
    phi = rng.uniform(0.0, math.pi)
    c, s = math.cos(phi), math.sin(phi)
    splitter = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
    r1, r2 = rng.uniform(-0.6, 0.6, 2)
    squeeze = np.diag([math.exp(r1), math.exp(-r1), math.exp(r2), math.exp(-r2)])
    symplectic = local(*rng.uniform(0, 2 * math.pi, 2)) @ splitter @ squeeze
    thermal = np.diag(np.repeat(0.5 * rng.uniform(1.0, 2.0, 2), 2))
    sigma = symplectic @ thermal @ symplectic.T
    sigma = 0.5 * (sigma + sigma.T)
    return [[float(v) for v in row] for row in sigma]


def evolve_config(seed: int, size: str = "full") -> dict:
    """Strict-valid ten-coefficient environment and an explicit initial state."""
    rng = np.random.default_rng([seed, 3])
    env = sample_environments(rng, "general", 1, 0)[0]
    environment = {"lambda": env["lam"]}
    environment.update({key: env["d"][field] for key, field in CONFIG_KEYS.items()})
    return {
        "oscillator": {"m": env["m"], "omega": env["omega"]},
        "environment": environment,
        "initial_state": _physical_state(rng),
        "validation": "strict",
        "time_grid": {
            "t_start": 0.0,
            "t_end": float(rng.uniform(8.0, 15.0)),
            "n_points": SIZES[size]["time_points"],
        },
    }


def main(argv: list[str]) -> int:
    workload, seed, size, out = argv[0], int(argv[1]), argv[2], Path(argv[3])
    if workload == "scalar-api":
        envs = scalar_inputs(seed, size)
        (out / "envs.json").write_text(json.dumps(envs))
        points = len(envs)
    elif workload == "evolve-trace":
        config = evolve_config(seed, size)
        (out / "config.json").write_text(json.dumps(config))
        points = config["time_grid"]["n_points"]
    else:
        config = sweep_config(seed, size)
        (out / "config.json").write_text(json.dumps(config))
        points = config["sweep"]["axis1"]["n"] * config["sweep"]["axis2"]["n"]
    print(points)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
