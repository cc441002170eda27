"""The table writer: its cell rules, its row blocks and the documents it writes.

The oracles are the per-field rules the column writer replaced
(tests/support.py): format(v, ".17g") with -0 written as 0 in CSV,
json.dumps per value in JSON, and the whole document as
json.dumps(indent=2) wrote it.
"""

import contextlib
import io
import json
import math
import os
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from support import csv_cell, json_cell
from twomode import (
    OscillatorParams,
    SymmetricEnvironmentParams,
    __version__,
    build_diffusion_matrix,
    build_drift_matrix,
    cli,
    steady_state_lyapunov,
)
from twomode.dynamics import propagated_entries
from twomode.model import UPPER
from twomode.cli import (
    _COMPUTE_ROWS,
    _OPTIONAL_COLUMNS,
    _WRITE_ROWS,
    MAX_GRID_POINTS,
    _format_column,
    _write_table,
    config_to_dict,
    main,
    parse_config,
)

_EDGE_DOUBLES = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    sys.float_info.max, -sys.float_info.max, 0.1, 1.0 / 3.0, 1e16, 123456789012345678.0,
]
finite = st.one_of(
    st.sampled_from(_EDGE_DOUBLES), st.floats(allow_nan=False, allow_infinity=False)
)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
_VERDICTS = ["entangled", "separable", ""]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(finite, non_finite), min_size=1, max_size=40))
def test_optional_float_cells(values):
    column = np.array(values)
    cells = [v if math.isfinite(v) else None for v in values]
    assert _format_column(column, True, False) == [csv_cell(v) for v in cells]
    assert _format_column(column, True, True) == [json_cell(v) for v in cells]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(finite, min_size=1, max_size=40), extra=st.lists(non_finite, max_size=3))
def test_float_cells(values, extra):
    assert _format_column(np.array(values), False, True) == [json_cell(v) for v in values]
    # CSV writes a non-finite value of a column without empty cells as it is
    values = values + extra
    assert _format_column(np.array(values), False, False) == [csv_cell(v) for v in values]


@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=20),
    verdicts=st.lists(st.sampled_from(_VERDICTS), min_size=1, max_size=20),
)
def test_bool_and_verdict_cells(flags, verdicts):
    for as_json in (False, True):
        cell = json_cell if as_json else csv_cell
        assert _format_column(np.array(flags), False, as_json) == list(map(cell, flags))
        texts = _format_column(np.array(verdicts), False, as_json)
        assert texts == [cell(v or None) for v in verdicts]


_CONFIG = parse_config(
    {
        "oscillator": {"m": 1.0, "omega": 1.0},
        "environment": {"lambda": 1.0, "D_xx": 0.6, "D_pxpx": 0.6, "D_xpy": 0.3},
    }
)


def written(table, fmt):
    """The document of `table`, whose full-size columns without checks are computed."""
    shape = np.broadcast_shapes(*(column.shape for column in table.values()))
    computed = {
        name: column.reshape(-1)
        for name, column in table.items()
        if column.shape == shape and (column.dtype.kind != "f" or name in _OPTIONAL_COLUMNS)
    }
    given = {name: None if name in computed else column for name, column in table.items()}

    def compute(lo, hi):
        assert 0 <= lo < hi <= min(lo + _COMPUTE_ROWS, math.prod(shape))
        return {name: column[lo:hi] for name, column in computed.items()}

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_table("sweep", _CONFIG, SimpleNamespace(format=fmt, output="-"), given, compute)
    return out.getvalue()


def expected(table, fmt):
    """The document the per-row writer built: every cell by the oracle, then one string."""
    shape = np.broadcast_shapes(*(column.shape for column in table.values()))
    flat = [np.broadcast_to(column, shape).reshape(-1).tolist() for column in table.values()]
    rows = [
        [
            None
            if name in _OPTIONAL_COLUMNS and not math.isfinite(v) or v == ""
            else v
            for name, v in zip(table, row)
        ]
        for row in zip(*flat)
    ]
    if fmt == "json":
        document = {
            "command": "sweep",
            "version": __version__,
            "config": config_to_dict(_CONFIG),
            "columns": list(table),
            "rows": rows,
        }
        return json.dumps(document, indent=2, allow_nan=False) + "\n"
    echo = json.dumps(config_to_dict(_CONFIG), sort_keys=True, separators=(",", ":"))
    header = ["# twomode sweep", f"# version: {__version__}", f"# config: {echo}"]
    lines = [*header, "# validation: strict", ",".join(table)]
    lines += [",".join(map(csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


@st.composite
def tables(draw):
    """A table around the block sizes: full columns of every kind, and grid axes."""
    w, c = _WRITE_ROWS, _COMPUTE_ROWS
    shape = draw(
        st.sampled_from(
            [(1, 1), (2, 1), (1, 2), (3, 63), (64, 64), (64, 65), (1, w - 1), (1, w), (1, w + 1),
             (3, w // 2 + 1), (1, c - 1), (1, c), (1, c + 1), (2, c + 1), (3, c // 2 + 1)]
        )
    )
    n1, n2 = shape
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    edges = np.array([*_EDGE_DOUBLES, math.nan, math.inf, -math.inf])

    def floats(size, with_non_finite):
        pool = edges if with_non_finite else edges[:-3]
        values = rng.normal(scale=10.0 ** rng.integers(-300, 300), size=size)
        pick = rng.random(size) < 0.2
        values[pick] = rng.choice(pool, size=int(pick.sum()))
        return values

    return {
        "axis1": floats((n1, 1), False),
        "axis2": floats((1, n2), False),
        "D_xx": floats((1, 1), False),
        "valid_strict": rng.random(shape) < 0.5,
        "S_general": floats(shape, True),
        "E_closed": floats(shape, True),
        "max_abs_dev": floats(shape, False),
        "verdict": rng.choice(_VERDICTS, size=shape),
    }


# No shrinking: a table comes from one seeded generator, so a smaller failing
# example is rarely found, and each attempt writes up to 8,194 rows.
@settings(max_examples=25, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_writer_matches_the_per_row_document(table, fmt):
    assert written(table, fmt) == expected(table, fmt)


# sigma(t) overflows, as CI's overflow_evolve.json: a huge initial state whose
# momentum entries grow by (m omega)^2 = 1e6 within a quarter period.
_OVERFLOW_EVOLVE = {
    "oscillator": {"m": 1.0, "omega": 1000.0},
    "environment": {"lambda": 1.0, "D_xx": 0.6, "D_pxpx": 0.6, "D_xpy": 0.3},
    "initial_state": [[1e307 * (i == j) for j in range(4)] for i in range(4)],
}


def first_non_finite_cell(payload):
    """(name, value, row from 1) of the first non-finite sigma entry or max_abs_dev in
    document order, by a scan of sigma(t) on the whole grid, from the config's D."""
    osc = OscillatorParams(**payload["oscillator"])
    env = payload["environment"]
    env = SymmetricEnvironmentParams(
        lam=env["lambda"], d_xx=env["D_xx"], d_pxpx=env["D_pxpx"], d_xpy=env["D_xpy"]
    )
    y, d = build_drift_matrix(osc, env), build_diffusion_matrix(env)
    sigma_inf = steady_state_lyapunov(y, d)
    grid = payload["time_grid"]
    times = np.linspace(grid["t_start"], grid["t_end"], grid["n_points"])
    with np.errstate(all="ignore"):
        entries = np.array(propagated_entries(np.array(payload["initial_state"]), y, d, times))
        deviation = np.abs(entries - sigma_inf[UPPER][:, None]).max(axis=0)
    names = [*cli._SIGMA_COLUMNS, "max_abs_dev"]
    for row, cells in enumerate(np.vstack([entries, deviation]).T.tolist()):
        for name, value in zip(names, cells):
            if not math.isfinite(value):
                return name, value, row + 1
    raise AssertionError("no cell overflows")


# The first bad cell: sigma_pxpx = inf in row 10 (1.7e308 in row 9), and sigma_xpx = -inf in row 2.
@pytest.mark.parametrize("t_end, n_points, compute_rows", [(1e-5, 21, 4), (3e-3, 31, 1)])
def test_evolve_names_the_first_non_finite_cell(
    tmp_path, capsys, monkeypatch, t_end, n_points, compute_rows
):
    """evolve checks its rows in a first pass: one error line in either format, nothing written."""
    grid = {"t_start": 0.0, "t_end": t_end, "n_points": n_points}
    payload = {**_OVERFLOW_EVOLVE, "time_grid": grid}
    name, value, row = first_non_finite_cell(payload)
    assert row > compute_rows  # in a later block than the first
    monkeypatch.setattr(cli, "_COMPUTE_ROWS", compute_rows)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    line = f"error: cannot write {name} = {value!r} in row {row}: "
    line += "the value overflows double precision\n"
    for fmt in ("csv", "json"):
        for output in ("-", str(tmp_path / "out")):
            argv = ["evolve", "--config", str(path), "--format", fmt, "--output", output]
            assert main(argv) == 2
            assert capsys.readouterr() == ("", line)
            assert not (tmp_path / "out").exists()


def strict_json(text):
    def reject(literal):
        raise ValueError(f"non-standard JSON literal {literal}")

    return json.loads(text, parse_constant=reject)


def run(tmp_path, capsys, command, payload, fmt):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main([command, "--config", str(path), "--format", fmt]) == 0
    return capsys.readouterr().out


def outputs(tmp_path, monkeypatch, command, payload, compute_rows, write_rows):
    """The CSV and JSON bytes of a run with the given block sizes."""
    monkeypatch.setattr(cli, "_COMPUTE_ROWS", compute_rows)
    monkeypatch.setattr(cli, "_WRITE_ROWS", write_rows)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    texts = []
    for fmt in ("csv", "json"):
        out = tmp_path / f"out.{fmt}"
        assert main([command, "--config", str(path), "--format", fmt, "--output", str(out)]) == 0
        texts.append(out.read_bytes())
    return texts


def check_blocks(text_csv, text_json, optional):
    """The JSON text as json.dumps(indent=2) writes it; every CSV cell round-trips."""
    assert text_json == json.dumps(strict_json(text_json), indent=2) + "\n"
    lines = [line for line in text_csv.splitlines() if not line.startswith("#")]
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    for row in rows:
        assert len(row) == len(header)
        for name, cell in zip(header, row):
            if name == "verdict":
                assert cell in _VERDICTS
            elif name.startswith("valid_"):
                assert cell in ("true", "false")
            elif cell == "" and name in optional:
                continue
            else:
                assert cell == format(float(cell), ".17g")
    document = strict_json(text_json)
    assert document["columns"] == header and len(document["rows"]) == len(rows)
    return rows, document["rows"]


@pytest.mark.parametrize(
    "n_points",
    [_WRITE_ROWS + 1, _COMPUTE_ROWS - 1, _COMPUTE_ROWS, _COMPUTE_ROWS + 1, 2 * _COMPUTE_ROWS + 1],
)
def test_evolve_rows_across_blocks(tmp_path, capsys, n_points):
    payload = {
        "oscillator": {"m": 1.0, "omega": 1.0},
        "environment": {"lambda": 1.0, "D_xx": 0.6, "D_pxpx": 0.6, "D_xpy": 0.3},
        "time_grid": {"t_start": 0.0, "t_end": 5.0, "n_points": n_points},
    }
    text_csv = run(tmp_path, capsys, "evolve", payload, "csv")
    text_json = run(tmp_path, capsys, "evolve", payload, "json")
    rows, json_rows = check_blocks(text_csv, text_json, {"S_general", "E_general"})
    times = np.linspace(0.0, 5.0, n_points).tolist()
    assert [float(row[0]) for row in rows] == times
    assert [row[0] for row in json_rows] == times


def test_raw_sweep_rows_across_blocks(tmp_path, capsys, monkeypatch):
    # axis2 is longer than a compute block and no multiple of it, so the
    # second and third blocks start inside the first and second axis1 value
    n1, n2 = 2, _COMPUTE_ROWS + 3
    payload = {
        "oscillator": {"m": 1.0, "omega": 1.0},
        "environment": {"lambda": 1.0, "D_pxpx": 0.6},
        "sweep": {
            "axis1": {"coefficient": "D_xx", "min": 0.3, "max": 0.9, "n": n1},
            "axis2": {"coefficient": "D_xpy", "min": -0.4, "max": 0.6, "n": n2},
            "scaling": "raw",
        },
    }
    text_csv = run(tmp_path, capsys, "sweep", payload, "csv")
    text_json = run(tmp_path, capsys, "sweep", payload, "json")
    rows, json_rows = check_blocks(text_csv, text_json, _OPTIONAL_COLUMNS)
    axis1, axis2 = np.linspace(0.3, 0.9, n1), np.linspace(-0.4, 0.6, n2)
    grid = [(a, b) for a in axis1.tolist() for b in axis2.tolist()]
    assert [(float(row[0]), float(row[1])) for row in rows] == grid
    assert [(row[0], row[1]) for row in json_rows] == grid
    assert [(float(row[2]), float(row[3])) for row in rows] == grid  # D_xx, D_xpy
    whole = outputs(tmp_path, monkeypatch, "sweep", payload, MAX_GRID_POINTS, MAX_GRID_POINTS)
    assert [text_csv.encode(), text_json.encode()] == whole


_BASE = {
    "oscillator": {"m": 1.3, "omega": 0.7},
    "environment": {"lambda": 0.9, "D_xx": 0.6, "D_pxpx": 0.6 * 0.91**2, "D_xpy": 0.3},
}
# Small grids, so a block of one row stays cheap; the raw sweep's axis2 is longer
# than a block of 7 rows and no multiple of it, so blocks start inside an axis1 value.
_BLOCK_CASES = {
    "sweep_scaled": (
        "sweep",
        {
            **_BASE,
            "sweep": {
                "axis1": {"coefficient": "D_xx", "min": 0.25, "max": 1.5, "n": 4},
                "axis2": {"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": 9},
            },
        },
    ),
    "sweep_raw": (
        "sweep",
        {
            "oscillator": _BASE["oscillator"],
            "environment": {"lambda": 0.9, "D_xx": 0.6, "D_pxpx": 0.5, "D_xpx": 0.05},
            "sweep": {
                "axis1": {"coefficient": "D_xpy", "min": -0.5, "max": 1.2, "n": 3},
                "axis2": {"coefficient": "D_pxpy", "min": -0.3, "max": 0.3, "n": 17},
                "scaling": "raw",
            },
        },
    ),
    "evolve": (
        "evolve",
        {
            **_BASE,
            "initial_state": [[2, 0, 0.1, 0], [0, 2, 0, 0], [0.1, 0, 2, 0], [0, 0, 0, 2]],
            "time_grid": {"t_start": 0.0, "t_end": 6.0, "n_points": 31},
        },
    ),
}


# A block of one row, of 7 rows, and one block for the whole table.
@pytest.mark.parametrize("write_rows", [1, 7, MAX_GRID_POINTS])
@pytest.mark.parametrize("compute_rows", [1, 7, MAX_GRID_POINTS])
@pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
def test_block_sizes_leave_the_output_unchanged(
    tmp_path, monkeypatch, case, compute_rows, write_rows
):
    """Each row's computation and its text are the same in any block: bit for bit."""
    command, payload = _BLOCK_CASES[case]
    whole = outputs(tmp_path, monkeypatch, command, payload, MAX_GRID_POINTS, MAX_GRID_POINTS)
    blocks = outputs(tmp_path, monkeypatch, command, payload, compute_rows, write_rows)
    assert blocks == whole


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path):
    """A sweep holds one block of rows at a time: five times the points, the same peak."""

    def traced_peak(n1, n2):
        payload = {**_BASE, "sweep": {
            "axis1": {"coefficient": "D_xx", "min": 0.25, "max": 1.5, "n": n1},
            "axis2": {"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": n2},
        }}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            assert main(["sweep", "--config", str(path), "--output", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(201, 201), traced_peak(201, 1005)
    assert abs(large - small) <= 2**20, (small, large)


def test_evolve_memory_grows_by_its_time_grid_alone(tmp_path):
    """evolve holds t and one block of rows: five times the points add 8 bytes a row."""

    def traced_peak(n_points):
        payload = {**_BASE, "time_grid": {"t_start": 0.0, "t_end": 5.0, "n_points": n_points}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        tracemalloc.start()
        try:
            assert main(["evolve", "--config", str(path), "--output", os.devnull]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    n = 5_000
    small, large = traced_peak(n), traced_peak(5 * n)
    assert large - small <= 8 * 4 * n + 2**20, (small, large)
