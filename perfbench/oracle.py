"""Independent oracle for the benchmark's output checks.

Uses numpy and scipy only, never the package under test.  The steady
state comes from scipy's Bartels-Stewart solver, propagation from scipy's
`expm`, separability from the symplectic invariants of the state and of
its partial transpose, and the negativity from the partial-transpose
symplectic spectrum.

Tolerances (stated once, used by every check):

* numbers: |program - oracle| <= NUMBER_RTOL * scale, where scale is the
  magnitude of the terms the quantity is built from;
* negativities: |program - oracle| <= NEGATIVITY_ATOL + NEGATIVITY_RTOL * |oracle|;
* boundary: a row whose Simon indicator lies within BOUNDARY_RTOL * scale
  of 0 (nu_min within about that of 1/2), whose uncertainty ratio
  m w D_xx / lambda lies within BOUNDARY_ATOL of 1/2, or whose validity
  slack lies within BOUNDARY_RTOL * lambda^2 of its threshold is counted
  as a boundary row: its verdict or flag is not compared, its numbers are;
* divergent: a matched-class row with |u - v| <= BOUNDARY_ATOL, where the
  closed-form negativity diverges; its E_closed cell must be empty and
  its E_general cell is not compared.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, solve_continuous_lyapunov

NUMBER_RTOL = 1e-9
NEGATIVITY_RTOL = 1e-7
NEGATIVITY_ATOL = 1e-7
BOUNDARY_RTOL = 1e-9
BOUNDARY_ATOL = 1e-9
# The package's documented positive-semidefiniteness floor for strict mode.
PSD_FLOOR = 1e-10

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])
OMEGA = np.block([[_J, np.zeros((2, 2))], [np.zeros((2, 2)), _J]])
# Partial transposition: p_y -> -p_y.
FLIP = np.diag([1.0, 1.0, 1.0, -1.0])
# Real part of the coupling Gram matrix is S D S, its imaginary part lam/2 A.
_SIGNS = np.diag([1.0, -1.0, 1.0, -1.0])
_A = np.array(
    [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0]]
)
# Config-file coefficient names -> the field names used here.
CONFIG_KEYS = {
    "D_xx": "d_xx", "D_xpx": "d_xpx", "D_xy": "d_xy", "D_xpy": "d_xpy",
    "D_ypx": "d_ypx", "D_pxpx": "d_pxpx", "D_yy": "d_yy", "D_ypy": "d_ypy",
    "D_pxpy": "d_pxpy", "D_pypy": "d_pypy",
}
UPPER = ((0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def diffusion(d: dict) -> np.ndarray:
    return np.array(
        [
            [d["d_xx"], d["d_xpx"], d["d_xy"], d["d_xpy"]],
            [d["d_xpx"], d["d_pxpx"], d["d_ypx"], d["d_pxpy"]],
            [d["d_xy"], d["d_ypx"], d["d_yy"], d["d_ypy"]],
            [d["d_xpy"], d["d_pxpy"], d["d_ypy"], d["d_pypy"]],
        ]
    )


def drift(m: float, omega: float, lam: float) -> np.ndarray:
    blk = np.array([[-lam, 1.0 / m], [-m * omega * omega, -lam]])
    return np.block([[blk, np.zeros((2, 2))], [np.zeros((2, 2)), blk]])


def gram(dmats: np.ndarray, lams) -> np.ndarray:
    """Coupling Gram matrices of (..., 4, 4) diffusion matrices; complete
    positivity holds iff they are positive semidefinite."""
    lams = np.asarray(lams, dtype=float)[..., None, None]
    return _SIGNS @ dmats @ _SIGNS + 0.5j * lams * _A


def validity_slacks(dmats: np.ndarray, lams) -> tuple[np.ndarray, np.ndarray]:
    """(smallest Gram eigenvalue, smallest 2x2 principal minor) per environment.

    The six 2x2 principal minors are the pairwise Cauchy-Schwarz
    inequalities of lenient mode; strict mode needs the whole matrix PSD.
    """
    g = gram(dmats, lams)
    rows, cols = np.triu_indices(4, 1)
    minors = g[..., rows, rows].real * g[..., cols, cols].real - np.abs(g[..., rows, cols]) ** 2
    return np.linalg.eigvalsh(g)[..., 0], minors.min(axis=-1)


def validity(dmats: np.ndarray, lams) -> list[tuple[bool | None, bool | None]]:
    """(strict, lenient) verdict per environment; None on the threshold."""
    lams = np.broadcast_to(np.asarray(lams, dtype=float), dmats.shape[:-2])
    min_eig, slack = validity_slacks(dmats, lams)
    out = []
    for lam, eig, sl in zip(lams.ravel(), min_eig.ravel(), slack.ravel()):
        edge = BOUNDARY_RTOL * lam * lam
        lenient = None if abs(sl) <= edge else bool(lam > 0.0 and sl > 0.0)
        psd = None if abs(eig + PSD_FLOOR) <= edge else bool(eig >= -PSD_FLOOR)
        if lenient is False or psd is False:
            strict = False
        elif lenient is None or psd is None:
            strict = None
        else:
            strict = True
        out.append((strict, lenient))
    return out


def matched_class(m: float, omega: float, d: dict, rtol: float = 1e-12) -> bool:
    """Mirrored y-mode noise with momentum noise locked to position noise:
    (m w)^2 D_xx = D_pxpx, D_xpx = 0, (m w)^2 D_xy = D_pxpy."""
    def near(a, b):
        return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)

    mw2 = (m * omega) ** 2
    return (
        near(d["d_yy"], d["d_xx"]) and near(d["d_ypy"], d["d_xpx"])
        and near(d["d_pypy"], d["d_pxpx"]) and near(d["d_ypx"], d["d_xpy"])
        and near(mw2 * d["d_xx"], d["d_pxpx"]) and near(d["d_xpx"], 0.0)
        and near(mw2 * d["d_xy"], d["d_pxpy"])
    )


def steady_state(m: float, omega: float, lam: float, d: dict) -> np.ndarray:
    sigma = solve_continuous_lyapunov(drift(m, omega, lam), -2.0 * diffusion(d))
    return 0.5 * (sigma + sigma.T)


@dataclass(frozen=True)
class Invariants:
    """Separability data of one covariance matrix."""

    s: float  # Simon's indicator
    scale: float  # magnitude of the terms S is built from
    nu_pt_min: float | None  # smallest PT symplectic eigenvalue (None if not PD)

    @property
    def negativity(self) -> float | None:
        if self.nu_pt_min is None or self.nu_pt_min <= 0.0:
            return None
        return -math.log2(2.0 * self.nu_pt_min)


def invariants(sigma: np.ndarray) -> Invariants:
    """S = det sigma + 1/16 - max(Delta, Delta~)/4 with Delta = -tr((Omega sigma)^2)/2.

    For a positive-definite sigma this equals the smaller of the products
    (nu_1^2 - 1/4)(nu_2^2 - 1/4) over the symplectic spectra of sigma and of
    its partial transpose.
    """
    pt = FLIP @ sigma @ FLIP
    delta = -0.5 * float(np.trace(OMEGA @ sigma @ OMEGA @ sigma))
    delta_pt = -0.5 * float(np.trace(OMEGA @ pt @ OMEGA @ pt))
    det = float(np.linalg.det(sigma))
    big = max(delta, delta_pt)
    s = det + 1.0 / 16.0 - 0.25 * big
    scale = abs(det) + 0.25 * abs(big) + 1.0 / 16.0
    nu = None
    if float(np.linalg.eigvalsh(sigma)[0]) > 0.0:
        nu = float(np.abs(np.linalg.eigvals(1j * OMEGA @ pt)).min())
    return Invariants(s=s, scale=scale, nu_pt_min=nu)


# --------------------------------------------------------------------------
# Check results


@dataclass
class Check:
    """Tally of one output check.  `rows` counts operations (rows or calls)."""

    rows: int = 0
    failed_rows: set = field(default_factory=set)
    boundary_rows: set = field(default_factory=set)
    divergent: int = 0
    shares: dict = field(default_factory=dict)
    messages: list = field(default_factory=list)

    def fail(self, row: int, message: str) -> None:
        self.failed_rows.add(row)
        if len(self.messages) < 20:
            self.messages.append(f"row {row}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failed_rows)


def _close(a: float | None, b: float, tol: float) -> bool:
    return a is not None and math.isfinite(a) and abs(a - b) <= tol


def _negativity_close(a: float | None, b: float) -> bool:
    return _close(a, b, NEGATIVITY_ATOL + NEGATIVITY_RTOL * abs(b))


def _sample(seed, n: int, k: int) -> list[int]:
    """A seeded sample of k of the n row indices, in order."""
    rng = np.random.default_rng(seed)
    return sorted(rng.choice(n, size=min(n, k), replace=False).tolist())


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    if text in ("entangled", "separable"):
        return text
    return float(text)


SWEEP_COLUMNS = [
    "axis1", "axis2", "D_xx", "D_xpy", "valid_strict", "valid_lenient",
    "S_general", "S_special", "E_general", "E_closed", "verdict",
]


def check_sweep(config: dict, text: str, seed, sample: int) -> Check:
    """Check a scaled-sweep CSV: every row structurally, a sample numerically."""
    osc, env, sw = config["oscillator"], config["environment"], config["sweep"]
    m, w, lam = osc["m"], osc["omega"], env["lambda"]
    axis1 = np.linspace(sw["axis1"]["min"], sw["axis1"]["max"], sw["axis1"]["n"])
    axis2 = np.linspace(sw["axis2"]["min"], sw["axis2"]["max"], sw["axis2"]["n"])
    expected = len(axis1) * len(axis2)
    out = Check(rows=expected)
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0].split(",") != SWEEP_COLUMNS:
        out.failed_rows.update(range(expected))
        out.messages.append("missing or wrong CSV header")
        return out
    rows = [[_cell(c) for c in ln.split(",")] for ln in lines[1:]]
    if len(rows) != expected or any(len(r) != len(SWEEP_COLUMNS) for r in rows):
        out.failed_rows.update(range(expected))
        out.messages.append(f"expected {expected} rows of 11 cells, got {len(rows)}")
        return out

    mw, s2 = m * w, math.sqrt(lam * lam + w * w)
    envs: list[dict | None] = []
    for i, r in enumerate(rows):
        a1, a2, d_xx, d_xpy = r[:4]
        want1, want2 = axis1[i // len(axis2)], axis2[i % len(axis2)]
        if not (
            _close(a1, want1, 1e-12)
            and _close(a2, want2, 1e-12)
            and _close(d_xx, want1 * lam / mw, 1e-13 * abs(want1 * lam / mw))
            and _close(d_xpy, want2 * s2, 1e-13 * abs(want2 * s2))
        ):
            out.fail(i, f"axis or coefficient cells {r[:4]} do not match the grid")
            envs.append(None)
            continue
        envs.append({
            "d_xx": d_xx, "d_xpx": 0.0, "d_pxpx": mw * mw * d_xx, "d_xy": 0.0,
            "d_xpy": d_xpy, "d_pxpy": 0.0, "d_yy": d_xx, "d_ypy": 0.0,
            "d_pypy": mw * mw * d_xx, "d_ypx": d_xpy,
        })
    good = [i for i, d in enumerate(envs) if d is not None]
    flags = dict(zip(good, validity(np.array([diffusion(envs[i]) for i in good]).reshape(-1, 4, 4), lam)))

    entangled = gated = strict_invalid = outside = 0
    for i in good:
        d = envs[i]
        v_strict, v_lenient, s_gen, s_spec, e_gen, e_cl, verdict = rows[i][4:]
        if not isinstance(s_gen, float) or verdict != ("entangled" if s_gen < 0.0 else "separable"):
            out.fail(i, f"verdict {verdict!r} does not follow S_general {s_gen!r}")
        entangled += verdict == "entangled"
        matched = matched_class(m, w, d)
        outside += not matched
        if isinstance(s_spec, float) != matched:
            out.fail(i, "S_special presence does not match the coefficient class")
        want_strict, want_lenient = flags[i]
        strict_invalid += want_strict is False
        if want_strict is None or want_lenient is None:
            out.boundary_rows.add(i)
        if want_strict is not None and v_strict is not want_strict:
            out.fail(i, f"valid_strict {v_strict} != oracle {want_strict}")
        if want_lenient is not None and v_lenient is not want_lenient:
            out.fail(i, f"valid_lenient {v_lenient} != oracle {want_lenient}")
        u = mw * d["d_xx"] / lam
        v = d["d_xpy"] / s2
        if abs(u - 0.5) <= BOUNDARY_ATOL:
            out.boundary_rows.add(i)
        elif u < 0.5:
            gated += 1
            if e_gen is not None or e_cl is not None:
                out.fail(i, "negativity cell filled on a gated row")
        elif abs(u - v) <= BOUNDARY_ATOL:
            out.divergent += 1
            if e_cl is not None:
                out.fail(i, "E_closed filled where the closed form diverges")
        elif e_gen is None or e_cl is None:
            out.fail(i, "negativity cell empty on an ungated row")

    for i in _sample(seed, expected, sample):
        if envs[i] is None:
            continue
        d = envs[i]
        s_gen, s_spec, e_gen, e_cl, verdict = rows[i][6:]
        inv = invariants(steady_state(m, w, lam, d))
        tol = NUMBER_RTOL * inv.scale
        if not _close(s_gen, inv.s, tol):
            out.fail(i, f"S_general {s_gen!r} != oracle {inv.s!r}")
        if not _close(s_spec, inv.s, tol):
            out.fail(i, f"S_special {s_spec!r} != oracle {inv.s!r}")
        if abs(inv.s) <= BOUNDARY_RTOL * inv.scale:
            out.boundary_rows.add(i)
        elif verdict != ("entangled" if inv.s < 0.0 else "separable"):
            out.fail(i, f"verdict {verdict!r} != oracle (S = {inv.s!r})")
        e_want = inv.negativity
        u = mw * d["d_xx"] / lam
        if e_want is not None and u > 0.5 + BOUNDARY_ATOL and abs(u - d["d_xpy"] / s2) > BOUNDARY_ATOL:
            if not _negativity_close(e_gen, e_want):
                out.fail(i, f"E_general {e_gen!r} != oracle {e_want!r}")
            if not _negativity_close(e_cl, e_want):
                out.fail(i, f"E_closed {e_cl!r} != oracle {e_want!r}")
    out.shares = {
        "entangled": entangled / expected,
        "gated": gated / expected,
        "strict_invalid": strict_invalid / expected,
        "class_violation": outside / expected,
        "boundary": len(out.boundary_rows) / expected,
        "divergent": out.divergent / expected,
    }
    return out


def _strict_loads(text: str):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    return json.loads(text, parse_constant=reject)


EVOLVE_COLUMNS = [
    "t", "sigma_xx", "sigma_xpx", "sigma_xy", "sigma_xpy", "sigma_pxpx",
    "sigma_ypx", "sigma_pxpy", "sigma_yy", "sigma_ypy", "sigma_pypy",
    "S_general", "E_general", "max_abs_dev",
]


def _env_fields(environment: dict) -> dict:
    return {field: float(environment.get(key, 0.0)) for key, field in CONFIG_KEYS.items()}


def check_evolve(config: dict, text: str, seed, sample: int) -> Check:
    """Check an `evolve --format json` document against expm and the Lyapunov solve."""
    grid = config["time_grid"]
    times = np.linspace(grid["t_start"], grid["t_end"], grid["n_points"])
    out = Check(rows=len(times))
    try:
        payload = _strict_loads(text)
        rows = payload["rows"]
        if payload["columns"] != EVOLVE_COLUMNS or len(rows) != len(times):
            raise ValueError("wrong columns or row count")
    except (ValueError, KeyError, TypeError) as exc:
        out.failed_rows.update(range(len(times)))
        out.messages.append(f"unusable evolve output: {exc}")
        return out
    osc, env = config["oscillator"], config["environment"]
    m, w, lam = osc["m"], osc["omega"], env["lambda"]
    d = _env_fields(env)
    y = drift(m, w, lam)
    sigma_inf = steady_state(m, w, lam, d)
    sigma0 = np.array(config["initial_state"], dtype=float)
    entangled = 0
    for i, row in enumerate(rows):
        t, s_gen, e_gen = row[0], row[11], row[12]
        if not _close(t, float(times[i]), 1e-12 * max(1.0, grid["t_end"])):
            out.fail(i, f"time {t!r} != {times[i]!r}")
        if not isinstance(s_gen, float) or e_gen is None:
            out.fail(i, "S_general or E_general missing")
            continue
        entangled += s_gen < 0.0
        if abs(e_gen) > NEGATIVITY_ATOL and (e_gen > 0.0) != (s_gen < 0.0):
            out.fail(i, f"sign of E {e_gen!r} disagrees with S {s_gen!r}")
    for i in _sample(seed, len(times), sample):
        row = rows[i]
        mt = expm(y * float(times[i]))
        sig = mt @ (sigma0 - sigma_inf) @ mt.T + sigma_inf
        sig = 0.5 * (sig + sig.T)
        mag = float(np.abs(sig).max())
        got = row[1:11]
        if any(not _close(g, float(sig[a, b]), NUMBER_RTOL * mag) for g, (a, b) in zip(got, UPPER)):
            out.fail(i, "covariance entries differ from expm propagation")
        inv = invariants(sig)
        if not _close(row[11], inv.s, NUMBER_RTOL * inv.scale):
            out.fail(i, f"S_general {row[11]!r} != oracle {inv.s!r}")
        if abs(inv.s) <= BOUNDARY_RTOL * inv.scale:
            out.boundary_rows.add(i)
        if inv.negativity is None or not _negativity_close(row[12], inv.negativity):
            out.fail(i, f"E_general {row[12]!r} != oracle {inv.negativity!r}")
        dev = float(np.abs(sig - sigma_inf).max())
        if not _close(row[13], dev, NUMBER_RTOL * max(mag, 1.0)):
            out.fail(i, f"max_abs_dev {row[13]!r} != oracle {dev!r}")
    out.shares = {
        "entangled": entangled / len(times),
        "gated": 0.0,
        "strict_invalid": float(validity(diffusion(d)[None], lam)[0][0] is False),
        "class_violation": float(not matched_class(m, w, d)),
        "boundary": len(out.boundary_rows) / len(times),
        "divergent": 0.0,
    }
    return out


def check_scalar(envs: list[dict], results: list[dict], seed, sample: int) -> Check:
    """Check the library loop's per-environment results."""
    out = Check(rows=len(envs))
    if len(results) != len(envs):
        out.failed_rows.update(range(len(envs)))
        out.messages.append(f"expected {len(envs)} results, got {len(results)}")
        return out
    flags = validity(np.array([diffusion(e["d"]) for e in envs]), [e["lam"] for e in envs])
    entangled = gated = outside = 0
    for i, (env, res, (strict, lenient)) in enumerate(zip(envs, results, flags)):
        m, w, lam, d = env["m"], env["omega"], env["lam"], env["d"]
        in_class = matched_class(m, w, d)
        window_class = in_class and d["d_xy"] == 0.0
        outside += not in_class
        u = m * w * d["d_xx"] / lam
        if strict is None or lenient is None:
            out.boundary_rows.add(i)
        if strict is not None and (res["valid_strict"] is not strict or res["report_strict"] is not strict):
            out.fail(i, f"valid_strict {res['valid_strict']} != oracle {strict}")
        if lenient is not None and res["valid_lenient"] is not lenient:
            out.fail(i, f"valid_lenient {res['valid_lenient']} != oracle {lenient}")
        s_gen = res["s_general"]
        if not isinstance(s_gen, float) or res["verdict"] != ("entangled" if s_gen < 0.0 else "separable"):
            out.fail(i, f"verdict {res['verdict']!r} does not follow S_general {s_gen!r}")
        entangled += res["verdict"] == "entangled"
        if (res["s_special"] is not None) != in_class:
            out.fail(i, "s_special presence does not match the coefficient class")
        if (res["e_closed"] is not None) != window_class:
            out.fail(i, "e_closed presence does not match the coefficient class")
        if window_class and abs(u - 0.5) <= BOUNDARY_ATOL:
            out.boundary_rows.add(i)
            continue
        gated += window_class and u < 0.5
        if (res["window"] is not None) != (window_class and u > 0.5):
            out.fail(i, "window presence does not match class and uncertainty bound")

    for i in _sample(seed, len(envs), sample):
        env, res = envs[i], results[i]
        m, w, lam, d = env["m"], env["omega"], env["lam"], env["d"]
        sig = steady_state(m, w, lam, d)
        mag = float(np.abs(sig).max())
        if any(not _close(g, float(sig[a, b]), NUMBER_RTOL * mag) for g, (a, b) in zip(res["sigma"], UPPER)):
            out.fail(i, "steady state differs from scipy's Lyapunov solve")
        inv = invariants(sig)
        tol = NUMBER_RTOL * inv.scale
        if not _close(res["s_general"], inv.s, tol):
            out.fail(i, f"s_general {res['s_general']!r} != oracle {inv.s!r}")
        if abs(inv.s) <= BOUNDARY_RTOL * inv.scale:
            out.boundary_rows.add(i)
        elif res["verdict"] != ("entangled" if inv.s < 0.0 else "separable"):
            out.fail(i, f"verdict {res['verdict']!r} != oracle (S = {inv.s!r})")
        e_want = inv.negativity
        if e_want is not None and not _negativity_close(res["e_general"], e_want):
            out.fail(i, f"e_general {res['e_general']!r} != oracle {e_want!r}")
        if res["s_special"] is not None and not _close(res["s_special"], inv.s, tol):
            out.fail(i, f"s_special {res['s_special']!r} != oracle {inv.s!r}")
        if res["e_closed"] is not None and e_want is not None and not _negativity_close(res["e_closed"], e_want):
            out.fail(i, f"e_closed {res['e_closed']!r} != oracle {e_want!r}")
        if res["window"] is not None:
            # Entangled exactly for sqrt(lam^2 + w^2) (u - 1/2) < D_xpy < ... (u + 1/2).
            u, s2 = m * w * d["d_xx"] / lam, math.sqrt(lam * lam + w * w)
            want = (s2 * (u - 0.5), s2 * (u + 0.5))
            if not all(_close(g, x, NUMBER_RTOL * s2 * u) for g, x in zip(res["window"], want)):
                out.fail(i, f"window {res['window']!r} != {want!r}")
    n = len(envs)
    out.shares = {
        "entangled": entangled / n,
        "gated": gated / n,
        "strict_invalid": sum(strict is False for strict, _ in flags) / n,
        "class_violation": outside / n,
        "boundary": len(out.boundary_rows) / n,
        "divergent": 0.0,
    }
    return out
