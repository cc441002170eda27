"""Golden outputs of every subcommand, CSV and JSON.

The files under tests/golden/ hold the command-line front end's output for
each case in CASES.  Header lines, categorical fields and empty cells must
match exactly; numbers must match within GOLDEN_RTOL * max(1, |x|).

Regenerate (only when an output change is intended and recorded in
CHANGES.md) with:

    PYTHONPATH=src python tests/test_golden.py

Hosts differ in the last bit of numpy's exp and sin, so a regeneration moves
some cells even where the code did not change them.  To measure a change's own
drift, regenerate the parent commit's goldens first, on the same host and in a
separate checkout, and diff the change's regenerated files against those.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import sys
from pathlib import Path

import numpy as np
import pytest

from twomode import (
    OscillatorParams,
    SymmetricEnvironmentParams,
    analyze,
    build_diffusion_matrix,
    build_drift_matrix,
    steady_state_lyapunov,
)
from twomode.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_RTOL = 1e-12

_REFERENCE_ENV = {"lambda": 1.0, "D_xx": 0.6, "D_pxpx": 0.6, "D_xpy": 0.3}
_BOUNDARY_ENV = {"lambda": 0.5, "D_xx": 0.25, "D_pxpx": 0.25, "D_xpy": 0.2}
_TEN_ENV = {
    "lambda": 0.9,
    "D_xx": 0.7,
    "D_xpx": 0.02,
    "D_xy": 0.05,
    "D_xpy": 0.1,
    "D_ypx": 0.12,
    "D_pxpx": 0.8,
    "D_yy": 0.75,
    "D_ypy": 0.03,
    "D_pxpy": 0.04,
    "D_pypy": 0.85,
}
_UNIT_OSC = {"m": 1.0, "omega": 1.0}
_OSC = {"m": 1.3, "omega": 0.7}
_INITIAL = [
    [0.9, 0.1, 0.05, 0.0],
    [0.1, 0.6, 0.0, -0.02],
    [0.05, 0.0, 0.8, 0.07],
    [0.0, -0.02, 0.07, 0.5],
]


def _sweep(axis1, axis2, scaling):
    return {"axis1": axis1, "axis2": axis2, "scaling": scaling}


# name -> (subcommand, config, expected exit code)
CASES = {
    "validate_pass": ("validate", {"oscillator": _UNIT_OSC, "environment": _REFERENCE_ENV}, 0),
    "validate_fail": ("validate", {"oscillator": _UNIT_OSC, "environment": _BOUNDARY_ENV}, 2),
    "steady_symmetric": (
        "steady-state",
        {"oscillator": _UNIT_OSC, "environment": _REFERENCE_ENV},
        0,
    ),
    "steady_ten": ("steady-state", {"oscillator": _OSC, "environment": _TEN_ENV}, 0),
    "evolve_vacuum": (
        "evolve",
        {
            "oscillator": _UNIT_OSC,
            "environment": _REFERENCE_ENV,
            "time_grid": {"t_start": 0.0, "t_end": 5.0, "n_points": 21},
        },
        0,
    ),
    "evolve_explicit": (
        "evolve",
        {
            "oscillator": _OSC,
            "environment": _TEN_ENV,
            "initial_state": _INITIAL,
            "time_grid": {"t_start": 0.5, "t_end": 8.0, "n_points": 16},
        },
        0,
    ),
    "sweep_scaled": (
        "sweep",
        {
            "oscillator": {"m": 1.2, "omega": 0.9},
            "environment": {"lambda": 0.8},
            "sweep": _sweep(
                {"coefficient": "D_xx", "min": 0.25, "max": 1.5, "n": 6},
                {"coefficient": "D_xpy", "min": 0.0, "max": 1.5, "n": 7},
                "scaled",
            ),
        },
        0,
    ),
    "sweep_raw": (
        "sweep",
        {
            "oscillator": _UNIT_OSC,
            "environment": {"lambda": 1.0, "D_pxpx": 0.6, "D_xpx": 0.01},
            "sweep": _sweep(
                {"coefficient": "D_xx", "min": 0.3, "max": 0.7, "n": 5},
                {"coefficient": "D_xpy", "min": 0.0, "max": 0.6, "n": 4},
                "raw",
            ),
        },
        0,
    ),
    "sweep_raw_matched": (
        "sweep",
        {
            "oscillator": _UNIT_OSC,
            "environment": {"lambda": 1.0, "D_xpy": 0.5},
            "sweep": _sweep(
                {"coefficient": "D_xx", "min": 0.3, "max": 0.9, "n": 4},
                {"coefficient": "D_pxpx", "min": 0.3, "max": 0.9, "n": 4},
                "raw",
            ),
        },
        0,
    ),
    "sweep_raw_diagonal": (
        "sweep",
        {
            "oscillator": _UNIT_OSC,
            "environment": {"lambda": 1.0, "D_xx": 1.0, "D_pxpx": 1.0},
            "sweep": _sweep(
                {"coefficient": "D_xpy", "min": 0.0, "max": 2.0 * math.sqrt(2.0), "n": 5},
                {"coefficient": "D_pxpy", "min": -0.2, "max": 0.2, "n": 3},
                "raw",
            ),
        },
        0,
    ),
}

PARAMS = [(name, fmt) for name in CASES for fmt in ("csv", "json")]


def _run(tmp_path: Path, name: str, fmt: str) -> tuple[int, str]:
    command, config, _ = CASES[name]
    cfg_path = tmp_path / f"{name}.json"
    out_path = tmp_path / f"{name}.{fmt}.out"
    cfg_path.write_text(json.dumps(config))
    code = main(
        [command, "--config", str(cfg_path), "--format", fmt, "--output", str(out_path)]
    )
    return code, out_path.read_text()


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= GOLDEN_RTOL * max(1.0, abs(expected))


def _as_number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _compare_csv(actual: str, expected: str) -> list[str]:
    got, want = actual.splitlines(), expected.splitlines()
    if len(got) != len(want):
        return [f"{len(got)} lines, expected {len(want)}"]
    problems = []
    for lineno, (g_line, w_line) in enumerate(zip(got, want), 1):
        if w_line.startswith("#"):
            if g_line != w_line:
                problems.append(f"line {lineno}: {g_line!r} != {w_line!r}")
            continue
        # `validate` writes "key: value" lines, the other commands CSV rows.
        sep = ": " if ": " in w_line else ","
        g_cells, w_cells = g_line.split(sep), w_line.split(sep)
        if len(g_cells) != len(w_cells):
            problems.append(f"line {lineno}: {len(g_cells)} cells, expected {len(w_cells)}")
            continue
        for col, (g, w) in enumerate(zip(g_cells, w_cells)):
            g_num, w_num = _as_number(g), _as_number(w)
            if g_num is not None and w_num is not None:
                ok = _close(g_num, w_num)
            else:
                ok = g == w
            if not ok:
                problems.append(f"line {lineno} cell {col}: {g!r} != {w!r}")
    return problems


def _compare_json(actual, expected, where: str = "$") -> list[str]:
    numeric = (int, float)
    if isinstance(expected, bool) or isinstance(actual, bool) or expected is None:
        return [] if actual is expected else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, numeric) and isinstance(actual, numeric):
        if isinstance(expected, int) and isinstance(actual, int):
            return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]
        return [] if _close(actual, expected) else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if list(actual) != list(expected):
            return [f"{where}: keys {list(actual)} != {list(expected)}"]
        return [p for k in expected for p in _compare_json(actual[k], expected[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [
            p
            for i, (a, e) in enumerate(zip(actual, expected))
            for p in _compare_json(a, e, f"{where}[{i}]")
        ]
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]


def _check_golden(tmp_path: Path, name: str, fmt: str) -> None:
    code, text = _run(tmp_path, name, fmt)
    assert code == CASES[name][2]
    expected = (GOLDEN / f"{name}.{fmt}").read_text()
    if fmt == "csv":
        problems = _compare_csv(text, expected)
    else:
        problems = _compare_json(json.loads(text), json.loads(expected))
    assert not problems, "\n".join(problems[:20])


@pytest.mark.parametrize("name,fmt", PARAMS)
def test_matches_golden_output(tmp_path, name, fmt):
    _check_golden(tmp_path, name, fmt)


@pytest.mark.parametrize("name", ["sweep_scaled", "sweep_raw"])
def test_mirrored_sweep_runs_without_eigvalsh(tmp_path, monkeypatch, name):
    """Every sweep point mirrors its x-mode noise exactly, so strict validity
    takes the closed-form Gram spectrum and never falls back to eigvalsh."""

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called for a mirrored sweep")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for fmt in ("csv", "json"):
        _check_golden(tmp_path, name, fmt)


def _point_environment(config: dict, row: dict) -> SymmetricEnvironmentParams:
    """The environment at one sweep row, built from the config as the sweep builds it."""
    osc, base = config["oscillator"], config["environment"]
    mw = osc["m"] * osc["omega"]
    if config["sweep"]["scaling"] == "scaled":
        coefficients = {"D_xx": row["D_xx"], "D_pxpx": mw * mw * row["D_xx"], "D_xpy": row["D_xpy"]}
    else:
        coefficients = {k: v for k, v in base.items() if k != "lambda"}
        for axis in ("axis1", "axis2"):
            coefficients[config["sweep"][axis]["coefficient"]] = row[axis]
    reduced = {key.lower(): value for key, value in coefficients.items()}
    return SymmetricEnvironmentParams(lam=base["lambda"], **reduced)


@pytest.mark.parametrize("name", [name for name, case in CASES.items() if case[0] == "sweep"])
def test_sweep_rows_are_analyze_at_each_point(tmp_path, name):
    """Each sweep row holds analyze's fields on steady-state's sigma_inf at its point, bit for bit.

    The one rule of the sweep's own: below the uncertainty bound (the window is
    absent for that reason) the negativity cells E_general and E_closed are empty.
    """
    _, config, _ = CASES[name]
    code, text = _run(tmp_path, name, "json")
    assert code == 0
    document = json.loads(text)
    osc = OscillatorParams(**config["oscillator"])
    for values in document["rows"]:
        row = dict(zip(document["columns"], values))
        env = _point_environment(config, row)
        sigma = steady_state_lyapunov(build_drift_matrix(osc, env), build_diffusion_matrix(env))
        report = analyze(sigma, osc, env)
        below_bound = any(
            note.startswith("window: ") and "uncertainty bound" in note for note in report.notes
        )
        expected = {
            "valid_strict": report.valid_strict,
            "valid_lenient": report.valid_lenient,
            "S_general": report.s_general,
            "S_special": report.s_special,
            "E_general": None if below_bound else report.e_general,
            "E_closed": None if below_bound else report.e_closed,
            "verdict": report.verdict,
        }
        for column, want in expected.items():
            got = row[column]
            assert got == want and type(got) is type(want), (column, row)


def test_sweep_jobs_starts_no_worker(tmp_path, monkeypatch):
    # --jobs is accepted and ignored: the grid is one stacked evaluation
    def refuse(self):
        raise AssertionError("sweep started a worker process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    _, config, _ = CASES["sweep_scaled"]
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for jobs in ("1", "2"):
        out_path = tmp_path / f"jobs{jobs}.csv"
        argv = ["sweep", "--config", str(cfg_path), "--output", str(out_path), "--jobs", jobs]
        assert main(argv) == 0
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


def _regenerate(tmp_path: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, fmt in PARAMS:
        code, text = _run(tmp_path, name, fmt)
        if code != CASES[name][2]:
            raise SystemExit(f"{name}: exit code {code}, expected {CASES[name][2]}")
        (GOLDEN / f"{name}.{fmt}").write_text(text)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        _regenerate(Path(workdir))
    sys.exit(0)
