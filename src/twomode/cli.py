"""Command-line front end.

Subcommands: `validate` (environment positivity checks), `steady-state`
(asymptotic covariance plus entanglement report), `evolve` (covariance
trace on a time grid) and `sweep` (two-coefficient grid emitting plot
data).  Configuration is a JSON document; the fields of `OscillatorParams`,
`TimeGrid` and `AxisSpec` are its sections' keys, and a malformed one exits
1 with one `error: <json.path>: ...` line.  Output is CSV with a `#`
metadata header, or JSON behind --format.

The CLI runs OpenBLAS on one thread unless OPENBLAS_NUM_THREADS is set:
see the comment above the numpy import.  Importing this module also pauses
the garbage collector while its imports load, then freezes every object
alive at that moment (`gc.freeze`), with no collection first, so no later
collection, nor the final ones at shutdown, walks numpy's import-time
objects: see the comment above the imports.  The library itself leaves
BLAS threading and `gc` alone.
"""

from __future__ import annotations

import gc

# The imports below build some 33,000 long-lived objects, nearly all numpy's,
# and the cyclic garbage collector would walk them dozens of times while they
# load, then again at every full collection and at interpreter shutdown.  So
# it is paused while they load, and what they built is frozen (moved out of
# its reach) with no collection first: the few hundred objects of cyclic
# garbage numpy's import leaves (about 0.25 MB) cost less to keep than a full
# collection to free.  The caller's enabled state is restored either way.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    import argparse
    import json
    import math
    import os
    import sys
    from dataclasses import asdict, dataclass, fields
    from pathlib import Path

    # Every matrix here is 4x4, too small for a second BLAS thread, yet OpenBLAS
    # starts one idle worker per extra CPU when numpy loads, and each spins for
    # about 0.1 s of CPU.  Set before numpy loads (`import twomode` loads none);
    # a user's own OPENBLAS_NUM_THREADS wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    import numpy as np

    from . import __version__
    from .dynamics import (
        propagated_entries,
        steady_entries,
        steady_state_closed_form,
        steady_state_lyapunov,
    )
    from .entanglement import analyze, report
    from .errors import ClassViolationError, NonFiniteResultError, TwoModeError
    from .model import (
        MIRROR,
        UPPER,
        Coefficients,
        EnvironmentParams,
        OscillatorParams,
        SymmetricEnvironmentParams,
        build_diffusion_matrix,
        build_drift_matrix,
        check_state_covariance,
        is_symmetric_environment,
        make_vacuum_covariance,
        validate_environment,
    )

    gc.freeze()
finally:
    if _gc_was_enabled:
        gc.enable()


class ConfigError(Exception):
    """Malformed configuration input (usage error, exit code 1)."""


# JSON coefficient key -> EnvironmentParams field: lam is "lambda", d_ab is "D_ab".
_ENV_KEYS = {
    "lambda" if f.name == "lam" else "D" + f.name[1:]: f.name for f in fields(EnvironmentParams)
}
_Y_DUPLICATE_KEYS = tuple("D" + y[1:] for y in MIRROR)
_REDUCED_KEYS = ("D_xx", "D_xpx", "D_pxpx", "D_xy", "D_xpy", "D_pxpy")
_FULL_KEYS = tuple(_ENV_KEYS)[1:]

#: Most points a time grid or a sweep grid (axis1.n * axis2.n) may have.
MAX_GRID_POINTS = 10**6

# The columns of sigma's ten upper entries, in `UPPER` order.
_SIGMA_COLUMNS = (
    "sigma_xx", "sigma_xpx", "sigma_xy", "sigma_xpy", "sigma_pxpx",
    "sigma_ypx", "sigma_pxpy", "sigma_yy", "sigma_ypy", "sigma_pypy",
)

# EntanglementReport fields in JSON order, and the report columns of the CSV
# row; each column names a field case-insensitively.
_REPORT_FIELDS = (
    "det_a", "det_b", "det_c", "s_general", "s_special", "f_sigma", "e_general",
    "e_closed", "window", "verdict", "valid_strict", "valid_lenient", "notes",
)
_REPORT_COLUMNS = (
    "det_a", "det_b", "det_c", "S_general", "S_special", "f_sigma", "E_general",
    "E_closed", "verdict", "valid_strict", "valid_lenient",
)


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    n_points: int


@dataclass(frozen=True)
class AxisSpec:
    coefficient: str
    min: float
    max: float
    n: int


@dataclass(frozen=True)
class SweepSpec:
    axis1: AxisSpec
    axis2: AxisSpec
    scaling: str


@dataclass(frozen=True)
class RunConfig:
    oscillator: OscillatorParams
    environment: EnvironmentParams
    initial_state: str | tuple[tuple[float, ...], ...]
    validation: str
    time_grid: TimeGrid | None
    sweep: SweepSpec | None


# The values of an omitted sweep axis or axis key.
_AXIS_DEFAULTS = {
    "axis1": {"coefficient": "D_xx", "min": 0.5, "max": 1.5, "n": 11},
    "axis2": {"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": 21},
}

# Field annotation -> the JSON values it accepts and their name in the error.
_KINDS = {"float": ((int, float), "a number"), "int": (int, "an integer"), "str": (str, "a string")}


def _section(obj, allowed, where: str) -> dict:
    """`obj` if it is a JSON object with no key outside `allowed`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")
    return obj


def _checked(value, kind: str, where: str):
    """`value` if it is of the annotated `kind`; a "float" value is returned as a float."""
    types, noun = _KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{where}: expected {noun}, got {value!r}")
    if kind != "float":
        return value
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: integer too large for a float") from None


def _read(cls, obj, where: str, defaults: dict | None = None):
    """The config section `obj` as dataclass `cls`.

    The fields of `cls` are the section's keys and their annotations the
    value types; a key missing from `obj` takes its value from `defaults`.
    """
    obj = _section(obj, [f.name for f in fields(cls)], where)
    values = {}
    for f in fields(cls):
        if f.name in obj:
            values[f.name] = _checked(obj[f.name], f.type, f"{where}.{f.name}")
        elif defaults is not None and f.name in defaults:
            values[f.name] = defaults[f.name]
        else:
            raise ConfigError(f"{where}: missing required key '{f.name}'")
    return cls(**values)


def _parse_environment(obj) -> EnvironmentParams:
    obj = _section(obj, _ENV_KEYS, "environment")
    if "lambda" not in obj:
        raise ConfigError("environment: missing required key 'lambda'")
    lam = _checked(obj["lambda"], "float", "environment.lambda")
    present_dup = [k for k in _Y_DUPLICATE_KEYS if k in obj]
    if present_dup and len(present_dup) != len(_Y_DUPLICATE_KEYS):
        missing = sorted(set(_Y_DUPLICATE_KEYS) - set(present_dup))
        raise ConfigError(
            "environment: provide all of "
            f"{', '.join(_Y_DUPLICATE_KEYS)} or none (missing {', '.join(missing)})"
        )
    cls = EnvironmentParams if present_dup else SymmetricEnvironmentParams
    values = {
        _ENV_KEYS[key]: _checked(obj.get(key, 0.0), "float", f"environment.{key}")
        for key in (_FULL_KEYS if present_dup else _REDUCED_KEYS)
    }
    return cls(lam=lam, **values)


def _state_entry(value) -> float:
    """One `initial_state` entry: a finite number (JSON's NaN and Infinity are refused)."""
    value = _checked(value, "float", "initial_state")
    if not math.isfinite(value):
        raise ConfigError(f"initial_state: entries must be finite, got {value!r}")
    return value


def _parse_initial_state(value) -> str | tuple[tuple[float, ...], ...]:
    if value == "vacuum":
        return "vacuum"
    if isinstance(value, list):
        if len(value) != 4 or any(
            not isinstance(row, list) or len(row) != 4 for row in value
        ):
            raise ConfigError("initial_state: matrix must be 4x4 (row-major)")
        return tuple(tuple(map(_state_entry, row)) for row in value)
    raise ConfigError("initial_state: expected \"vacuum\" or a 4x4 array")


def _parse_time_grid(obj) -> TimeGrid:
    grid = _read(TimeGrid, obj, "time_grid")
    if not (math.isfinite(grid.t_start) and grid.t_start >= 0.0):
        raise ConfigError(f"time_grid.t_start: must be >= 0, got {grid.t_start!r}")
    if not (math.isfinite(grid.t_end) and grid.t_end > grid.t_start):
        raise ConfigError(f"time_grid.t_end: must exceed t_start, got {grid.t_end!r}")
    if not 2 <= grid.n_points <= MAX_GRID_POINTS:
        raise ConfigError(
            f"time_grid.n_points: must be between 2 and {MAX_GRID_POINTS}, "
            f"got {grid.n_points!r}"
        )
    return grid


def _parse_axis(obj, name: str) -> AxisSpec:
    where = f"sweep.{name}"
    axis = _read(AxisSpec, obj, where, _AXIS_DEFAULTS[name])
    if axis.coefficient not in _ENV_KEYS or axis.coefficient == "lambda":
        raise ConfigError(f"{where}.coefficient: unknown coefficient {axis.coefficient!r}")
    if not (math.isfinite(axis.min) and math.isfinite(axis.max) and axis.min < axis.max):
        raise ConfigError(f"{where}: need finite min < max, got [{axis.min!r}, {axis.max!r}]")
    if axis.n < 2:
        raise ConfigError(f"{where}.n: must be >= 2, got {axis.n!r}")
    return axis


def _parse_sweep(obj) -> SweepSpec:
    obj = _section(obj, [f.name for f in fields(SweepSpec)], "sweep")
    scaling = obj.get("scaling", "scaled")
    if scaling not in ("raw", "scaled"):
        raise ConfigError(f"sweep.scaling: expected 'raw' or 'scaled', got {scaling!r}")
    axis1 = _parse_axis(obj.get("axis1", {}), "axis1")
    axis2 = _parse_axis(obj.get("axis2", {}), "axis2")
    if axis1.n * axis2.n > MAX_GRID_POINTS:
        raise ConfigError(
            f"sweep: axis1.n * axis2.n must be at most {MAX_GRID_POINTS}, "
            f"got {axis1.n * axis2.n!r}"
        )
    return SweepSpec(axis1=axis1, axis2=axis2, scaling=scaling)


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a decoded JSON document."""
    data = _section(data, [f.name for f in fields(RunConfig)], "config")
    for key in ("oscillator", "environment"):
        if key not in data:
            raise ConfigError(f"config: missing required key '{key}'")
    try:
        osc = _read(OscillatorParams, data["oscillator"], "oscillator")
    except ValueError as exc:
        raise ConfigError(f"oscillator: {exc}") from exc
    try:
        env = _parse_environment(data["environment"])
    except ValueError as exc:
        raise ConfigError(f"environment: {exc}") from exc
    initial_state = _parse_initial_state(data.get("initial_state", "vacuum"))
    validation = data.get("validation", "strict")
    if validation not in ("strict", "lenient"):
        raise ConfigError(
            f"validation: expected 'strict' or 'lenient', got {validation!r}"
        )
    time_grid = _parse_time_grid(data["time_grid"]) if "time_grid" in data else None
    sweep = _parse_sweep(data["sweep"]) if "sweep" in data else None
    return RunConfig(
        oscillator=osc,
        environment=env,
        initial_state=initial_state,
        validation=validation,
        time_grid=time_grid,
        sweep=sweep,
    )


def load_config(path: str) -> RunConfig:
    """Read and parse a JSON configuration file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path!r} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except ValueError as exc:  # e.g. an integer literal beyond the digit limit
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
    return parse_config(data)


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical JSON-serializable echo; parse_config inverts it exactly."""
    out = {key: value for key, value in asdict(cfg).items() if value is not None}
    env = cfg.environment
    keys = _REDUCED_KEYS if isinstance(env, SymmetricEnvironmentParams) else _FULL_KEYS
    out["environment"] = {"lambda": env.lam, **{k: getattr(env, _ENV_KEYS[k]) for k in keys}}
    if cfg.initial_state != "vacuum":
        out["initial_state"] = [list(row) for row in cfg.initial_state]
    return out


# Rows computed, and rows formatted, joined and written, at a time (see _write_table).
_COMPUTE_ROWS, _WRITE_ROWS = 4096, 1024
# Columns whose non-finite cells are empty ("" in CSV, null in JSON): undefined,
# suppressed or overflowed values.
_OPTIONAL_COLUMNS = frozenset({"S_general", "S_special", "E_general", "E_closed"})


def _csv_header(command: str, cfg: RunConfig) -> str:
    echo = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return (
        f"# twomode {command}\n# version: {__version__}\n# config: {echo}\n"
        f"# validation: {cfg.validation}"
    )


def _document(command: str, cfg: RunConfig, payload: dict) -> str:
    """The indented JSON document; the caller has checked that its numbers are finite."""
    document = {"command": command, "version": __version__, "config": config_to_dict(cfg)}
    return json.dumps({**document, **payload}, indent=2, allow_nan=False)


def _emit(args, chunks) -> None:
    """Write the text `chunks` to stdout or to the --output file, one at a time."""
    if args.output == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(args.output, "w") as out:
            out.writelines(chunks)


def _write(command: str, cfg: RunConfig, args, payload: dict, csv_lines: list) -> None:
    """Write `payload` as JSON or `csv_lines` under the `#` header, per --format."""
    if args.format == "json":
        text = _document(command, cfg, payload)
    else:
        text = "\n".join([_csv_header(command, cfg), *csv_lines])
    _emit(args, [text, "\n"])


def _format_column(values: np.ndarray, optional: bool, as_json: bool) -> list[str]:
    """The text of the cells of a 1-D column, by its kind.

    A float is written with 17 significant digits, in CSV with -0 as 0 and
    in JSON as its repr (-0.0 stays); a non-finite one is an empty cell in
    an `optional` column.  A bool is true or false.  A string is itself,
    quoted in JSON, and "" is an empty cell.  An empty cell is "" in CSV
    and null in JSON.
    """
    if values.dtype == bool:
        return np.where(values, "true", "false").tolist()
    if values.dtype.kind == "U":
        cells = values.tolist()
        if not as_json:
            return cells
        quoted = {text: json.dumps(text) if text else "null" for text in set(cells)}
        return [quoted[text] for text in cells]
    if as_json:
        cells = json.dumps(values.tolist())[1:-1].split(", ")
    else:
        cells = list(map("%.17g".__mod__, (values + 0.0).tolist()))
    if optional:
        empty = "null" if as_json else ""
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            cells[i] = empty
    return cells


def _write_table(command: str, cfg: RunConfig, args, table: dict, compute) -> None:
    """Write `table` ({name: column}) as CSV or JSON rows, _WRITE_ROWS at a time.

    The given columns broadcast to one shape, and a row is one element of it,
    in row-major order; one smaller than it (a grid axis) has each of its
    values formatted once.  A None column is computed: `compute(lo, hi)` returns
    {name: 1-D array} of rows lo..hi, _COMPUTE_ROWS at a time.  The writer only
    formats and writes: the caller has checked, before calling it, that every
    float cell outside _OPTIONAL_COLUMNS is finite, so a failed run writes nothing.
    """
    as_json = args.format == "json"
    given = {name: column for name, column in table.items() if column is not None}
    shape = np.broadcast_shapes(*(column.shape for column in given.values()))
    n_rows = math.prod(shape)
    if as_json:
        head = _document(command, cfg, {"columns": list(table)})[:-2] + ',\n  "rows": [\n'
        # A row is "[cell, ...]" indented as json.dumps(indent=2) would write it.
        cell_sep, row_sep, block_sep = ",\n      ", "\n    ],\n    [\n      ", ",\n"
        start, end, tail = "    [\n      ", "\n    ]", "\n  ]\n}\n"
    else:
        head = _csv_header(command, cfg) + "\n" + ",".join(table) + "\n"
        cell_sep, row_sep, block_sep = ",", "\n", ""
        start, end, tail = "", "\n", ""

    def cells_of(name: str, column: np.ndarray):
        """(lo, hi) -> the cells of rows lo..hi of the given `column`."""
        optional = name in _OPTIONAL_COLUMNS
        if column.size == n_rows:
            flat = column.reshape(-1)
            return lambda lo, hi: _format_column(flat[lo:hi], optional, as_json)
        texts = np.array(_format_column(column.reshape(-1), optional, as_json), dtype=object)
        grid = np.broadcast_to(texts.reshape(column.shape), shape)
        return lambda lo, hi: grid.flat[lo:hi].tolist()

    sources = {name: cells_of(name, column) for name, column in given.items()}

    def chunks():
        yield head
        for first in range(0, n_rows, _COMPUTE_ROWS):
            last = min(first + _COMPUTE_ROWS, n_rows)
            block = compute(first, last)
            for lo in range(first, last, _WRITE_ROWS):
                hi = min(lo + _WRITE_ROWS, last)
                columns = (
                    sources[name](lo, hi) if name in sources else _format_column(
                        block[name][lo - first:hi - first], name in _OPTIONAL_COLUMNS, as_json
                    )
                    for name in table
                )
                rows = map(cell_sep.join, zip(*columns, strict=True))
                yield (block_sep if lo else "") + start + row_sep.join(rows) + end
        yield tail

    _emit(args, chunks())


def _format_cell(value) -> str:
    """One CSV cell holding a Python value, by the rules of _format_column; None is empty."""
    return "" if value is None else _format_column(np.array([value]), False, False)[0]


def _require_finite(values, report: str) -> None:
    """Raise NonFiniteResultError when a float among `values` is not finite."""
    if not all(math.isfinite(v) for v in values if isinstance(v, float)):
        raise NonFiniteResultError(
            f"{report} overflows double precision; the coefficients are too extreme"
        )


def cmd_validate(cfg: RunConfig, args) -> int:
    report = validate_environment(cfg.environment, cfg.validation)
    payload = asdict(report)
    _require_finite(payload.values(), "validation report")
    csv_lines = [
        f"{key}: {','.join(value) if isinstance(value, tuple) else _format_cell(value)}"
        for key, value in payload.items()
        if value is not None
    ]
    _write("validate", cfg, args, {"report": payload}, csv_lines)
    return 0 if report.passed else 2


def cmd_steady_state(cfg: RunConfig, args) -> int:
    osc, env = cfg.oscillator, cfg.environment
    y = build_drift_matrix(osc, env)
    d = build_diffusion_matrix(env)
    sigma = steady_state_lyapunov(y, d)
    sigma_closed = max_diff = None
    try:  # the paper's closed form cross-checks the solve where it applies and is finite
        closed = steady_state_closed_form(osc, env)
        diff = float(np.abs(sigma - closed).max())
        sigma_closed, max_diff = (closed, diff) if math.isfinite(diff) else (None, None)
    except (ClassViolationError, NonFiniteResultError):
        pass
    analysis = analyze(sigma, osc, env)
    payload = {
        "sigma_infinity": sigma.tolist(),
        "sigma_infinity_closed_form": sigma_closed.tolist() if sigma_closed is not None else None,
        "closed_form_max_diff": max_diff,
        "report": {name: getattr(analysis, name) for name in _REPORT_FIELDS},
    }
    columns = (
        list(_SIGMA_COLUMNS)
        + [f"cf_{name}" for name in _SIGMA_COLUMNS]
        + ["closed_form_max_diff", *_REPORT_COLUMNS]
    )
    closed_entries = sigma_closed[UPPER].tolist() if sigma_closed is not None else [None] * 10
    row = sigma[UPPER].tolist() + closed_entries + [max_diff]
    row += [getattr(analysis, name.lower()) for name in _REPORT_COLUMNS]
    csv_lines = [",".join(columns), ",".join(map(_format_cell, row))]
    _write("steady-state", cfg, args, payload, csv_lines)
    return 0


def _initial_covariance(cfg: RunConfig) -> np.ndarray:
    if cfg.initial_state == "vacuum":
        return make_vacuum_covariance(cfg.oscillator)
    try:
        return check_state_covariance(np.array(cfg.initial_state, dtype=float))
    except ValueError as exc:
        raise TwoModeError(f"initial_state: {exc}") from exc


def cmd_evolve(cfg: RunConfig, args) -> int:
    if cfg.time_grid is None:
        raise ConfigError("evolve requires a time_grid section in the config")
    osc, env = cfg.oscillator, cfg.environment
    y = build_drift_matrix(osc, env)
    d = build_diffusion_matrix(env)
    _write_table("evolve", cfg, args, *_evolve_table(cfg, y, d, steady_state_lyapunov(y, d)))
    return 0


def _evolve_table(cfg: RunConfig, y: np.ndarray, d: np.ndarray, sigma_inf: np.ndarray) -> tuple:
    """The evolve table (t, sigma(t)'s entries, S, E, the distance to sigma_inf) and its
    `compute` (see _write_table), which propagates sigma(t) a block at a time.

    A first pass propagates every block and keeps nothing: it raises at the first
    non-finite sigma entry or max_abs_dev in document order, so the table holds t
    and one block, and the writer's second pass finds every cell it must write finite.
    """
    sigma0 = _initial_covariance(cfg)
    grid = np.linspace(cfg.time_grid.t_start, cfg.time_grid.t_end, cfg.time_grid.n_points)
    upper_inf = sigma_inf[UPPER][:, None]

    def checked(lo: int, hi: int) -> dict:
        """The columns without empty cells, sigma's entries and max_abs_dev, of rows lo..hi."""
        sigmas = np.array(propagated_entries(sigma0, y, d, grid[lo:hi]))
        columns = dict(zip(_SIGMA_COLUMNS, sigmas))
        return {**columns, "max_abs_dev": np.abs(sigmas - upper_inf).max(axis=0)}

    for lo in range(0, grid.size, _COMPUTE_ROWS):
        columns = checked(lo, lo + _COMPUTE_ROWS)
        bad = ~np.isfinite(np.array(list(columns.values())))
        if bad.any():
            row = int(bad.any(axis=0).argmax())
            name = list(columns)[int(bad[:, row].argmax())]
            raise NonFiniteResultError(
                f"cannot write {name} = {float(columns[name][row])!r} in row {lo + row + 1}: "
                "the value overflows double precision"
            )

    def compute(lo: int, hi: int) -> dict:
        columns = checked(lo, hi)
        at = report([columns[name] for name in _SIGMA_COLUMNS])
        return {**columns, "S_general": at.s, "E_general": at.e}

    computed = (*_SIGMA_COLUMNS, "S_general", "E_general", "max_abs_dev")
    return {"t": grid, **dict.fromkeys(computed)}, compute


def _sweep_grid(cfg: RunConfig) -> dict:
    """The grid's axes and the environment's diffusion coefficients on it.

    Each broadcasts to the grid's shape (axis1.n, axis2.n) and varies along
    the axes it depends on only.
    """
    osc, env, sweep = cfg.oscillator, cfg.environment, cfg.sweep
    m, w, lam = osc.m, osc.omega, env.lam
    a1 = np.linspace(sweep.axis1.min, sweep.axis1.max, sweep.axis1.n)[:, None]
    a2 = np.linspace(sweep.axis2.min, sweep.axis2.max, sweep.axis2.n)[None, :]
    zero = np.zeros((1, 1))
    values = {_ENV_KEYS[k]: zero + getattr(env, _ENV_KEYS[k]) for k in _REDUCED_KEYS}
    if sweep.scaling == "scaled":  # on a base whose d_xpx, d_xy and d_pxpy are 0 (cmd_sweep)
        d_xx = a1 * lam / (m * w)
        d_xpy = a2 * math.sqrt(lam * lam + w * w)
        values.update(d_xx=d_xx, d_pxpx=(m * w) * (m * w) * d_xx, d_xpy=d_xpy)
    else:
        values[_ENV_KEYS[sweep.axis1.coefficient]] = a1
        values[_ENV_KEYS[sweep.axis2.coefficient]] = a2
    values.update({y: values[x] for y, x in MIRROR.items()})
    grid = {"axis1": a1, "axis2": a2, **values}
    if not all(np.isfinite(x).all() for x in (lam, *grid.values())):
        raise NonFiniteResultError("sweep grid overflows double precision")
    return grid


def _sweep_table(cfg: RunConfig) -> tuple:
    """The sweep table and its `compute` (see _write_table) of `report`'s fields on
    `steady_entries`, the sigma_inf of `steady-state` at each point, at the grid's flat rows lo..hi.

    The sweep's own rule: where the report is gated, below the single-mode
    uncertainty bound, the state is unphysical and the negativity cells are
    empty.  So are non-finite numbers, and the verdict where S is not finite.
    """
    osc, lam = cfg.oscillator, cfg.environment.lam
    grid = _sweep_grid(cfg)
    shape, keys = (grid["axis1"].size, grid["axis2"].size), Coefficients._fields[1:]

    def compute(lo: int, hi: int) -> dict:
        env = Coefficients(lam, *(np.broadcast_to(grid[k], shape).flat[lo:hi] for k in keys))
        at = report(steady_entries(osc, env), osc, env)
        return {
            "valid_strict": at.valid_strict,
            "valid_lenient": at.valid_lenient,
            "S_general": at.s,
            "S_special": at.forms.s_special,
            "E_general": np.where(at.gated, np.nan, at.e),
            "E_closed": np.where(at.gated, np.nan, at.forms.e_closed),
            "verdict": at.verdict,
        }

    fixed = {name: grid[name.lower()] for name in ("axis1", "axis2", "D_xx", "D_xpy")}
    computed = "valid_strict valid_lenient S_general S_special E_general E_closed verdict".split()
    return {**fixed, **dict.fromkeys(computed)}, compute


def cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep requires a sweep section in the config")
    env, sweep = cfg.environment, cfg.sweep
    if not is_symmetric_environment(env):
        raise ConfigError(
            "sweep requires a symmetric base environment "
            "(mirrored y-mode coefficients)"
        )
    if env.d_xy != 0.0:
        raise ConfigError("sweep requires D_xy = 0 in the base environment")
    if sweep.scaling == "scaled":
        if (sweep.axis1.coefficient, sweep.axis2.coefficient) != ("D_xx", "D_xpy"):
            raise ConfigError(
                "scaled sweeps run over axis1=D_xx and axis2=D_xpy "
                f"(got {sweep.axis1.coefficient!r}, {sweep.axis2.coefficient!r})"
            )
        if env.d_xpx != 0.0 or env.d_pxpy != 0.0:
            raise ConfigError(
                "scaled sweeps require D_xpx = 0 and D_pxpy = 0 in the base "
                "environment"
            )
    else:
        for axis in (sweep.axis1, sweep.axis2):
            if axis.coefficient not in _REDUCED_KEYS:
                raise ConfigError(
                    f"raw sweeps accept coefficients {sorted(_REDUCED_KEYS)}, "
                    f"got {axis.coefficient!r}"
                )
    steady_entries(cfg.oscillator, env)  # steady-state's refusals, before the header is written
    _write_table("sweep", cfg, args, *_sweep_table(cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twomode",
        description=(
            "Steady-state covariance dynamics and entanglement of two damped "
            "oscillators in a common environment."
        ),
    )
    parser.add_argument("--version", action="version", version=f"twomode {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("validate", "check the environment coefficients against positivity"),
        ("steady-state", "asymptotic covariance matrix and entanglement report"),
        ("evolve", "covariance, S and E on a time grid"),
        ("sweep", "two-coefficient grid of S and E values"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config")
        cmd.add_argument(
            "--output", default="-", help="output path, or - for stdout (default)"
        )
        cmd.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format"
        )
        if name == "sweep":
            cmd.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    return parser


_HANDLERS = {
    "validate": cmd_validate,
    "steady-state": cmd_steady_state,
    "evolve": cmd_evolve,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    """Entry point returning the process exit code.

    0 on success, 1 on usage/parse errors, 2 on physics-validation or
    solver errors.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        cfg = load_config(args.config)
        # Overflow is reported as empty cells or a NonFiniteResultError, not by numpy on stderr.
        with np.errstate(all="ignore"):
            return _HANDLERS[args.command](cfg, args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TwoModeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
