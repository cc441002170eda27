"""Command-line front end.

Subcommands: `validate` (environment positivity checks), `steady-state`
(asymptotic covariance plus entanglement report), `evolve` (covariance
trace on a time grid) and `sweep` (two-coefficient grid emitting plot
data).  Configuration is a JSON document; the fields of `OscillatorParams`,
`TimeGrid` and `AxisSpec` are its sections' keys, and a malformed one exits
1 with one `error: <json.path>: ...` line.  Output is CSV with a `#`
metadata header, or JSON behind --format.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from .dynamics import (
    _closed_form_sigma,
    propagate,
    steady_state_closed_form,
    steady_state_lyapunov,
)
from .entanglement import _UNCERTAINTY, _closed_forms, _invariants, _verdict, analyze
from .errors import NonFiniteResultError, TwoModeError
from .model import (
    EnvironmentParams,
    OscillatorParams,
    SymmetricEnvironmentParams,
    _MIRROR,
    _require_positive_lambda,
    _validity,
    build_diffusion_matrix,
    build_drift_matrix,
    check_state_covariance,
    is_symmetric_environment,
    make_vacuum_covariance,
    validate_environment,
)


class ConfigError(Exception):
    """Malformed configuration input (usage error, exit code 1)."""


# JSON coefficient key -> EnvironmentParams field: lam is "lambda", d_ab is "D_ab".
_ENV_KEYS = {
    "lambda" if f.name == "lam" else "D" + f.name[1:]: f.name for f in fields(EnvironmentParams)
}
_Y_DUPLICATE_KEYS = tuple("D" + y[1:] for y in _MIRROR)
_REDUCED_KEYS = ("D_xx", "D_xpx", "D_pxpx", "D_xy", "D_xpy", "D_pxpy")
_FULL_KEYS = tuple(_ENV_KEYS)[1:]

#: Most points a time grid or a sweep grid (axis1.n * axis2.n) may have.
MAX_GRID_POINTS = 10**6

_SIGMA_COLUMNS = (
    "sigma_xx", "sigma_xpx", "sigma_xy", "sigma_xpy", "sigma_pxpx",
    "sigma_ypx", "sigma_pxpy", "sigma_yy", "sigma_ypy", "sigma_pypy",
)
# Row and column indices of the upper triangle, in _SIGMA_COLUMNS order.
_UPPER_ROWS = (0, 0, 0, 0, 1, 1, 1, 2, 2, 3)
_UPPER_COLS = (0, 1, 2, 3, 1, 2, 3, 2, 3, 3)

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


def _parse_initial_state(value) -> str | tuple[tuple[float, ...], ...]:
    if value == "vacuum":
        return "vacuum"
    if isinstance(value, list):
        if len(value) != 4 or any(
            not isinstance(row, list) or len(row) != 4 for row in value
        ):
            raise ConfigError("initial_state: matrix must be 4x4 (row-major)")
        rows = []
        for row in value:
            for entry in row:
                if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                    raise ConfigError(
                        f"initial_state: expected numeric entries, got {entry!r}"
                    )
            rows.append(tuple(_checked(entry, "float", "initial_state") for entry in row))
        return tuple(rows)
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
        text = Path(path).read_text()
    except OSError as exc:
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


def _fmt(value) -> str:
    """Format one CSV field; 17 significant digits keep doubles round-trip safe."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    number = float(value)
    if number == 0.0:
        number = 0.0  # avoid emitting "-0"
    return format(number, ".17g")


def _write(command: str, cfg: RunConfig, args, payload, csv_lines) -> None:
    """Write `payload()` as JSON or `csv_lines()` under the `#` header, per --format.

    Both are callables, so only the requested format is built.
    """
    if args.format == "json":
        document = {"command": command, "version": __version__, "config": config_to_dict(cfg)}
        try:
            text = json.dumps({**document, **payload()}, indent=2, allow_nan=False)
        except ValueError as exc:  # a non-finite number: strict JSON has no encoding for it
            raise NonFiniteResultError(f"cannot write strict JSON: {exc}") from None
    else:
        echo = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
        header = [f"# twomode {command}", f"# version: {__version__}", f"# config: {echo}"]
        text = "\n".join([*header, f"# validation: {cfg.validation}", *csv_lines()])
    if args.output == "-":
        sys.stdout.write(text + "\n")
    else:
        Path(args.output).write_text(text + "\n")


def _write_table(command: str, cfg: RunConfig, args, columns, rows) -> None:
    def csv_lines() -> list[str]:
        return [",".join(columns), *(",".join(map(_fmt, row)) for row in rows)]

    _write(command, cfg, args, lambda: {"columns": list(columns), "rows": rows}, csv_lines)


def _upper_entries(sigma: np.ndarray) -> list:
    """The ten independent entries of a 4x4 sigma, in _SIGMA_COLUMNS order."""
    return sigma[_UPPER_ROWS, _UPPER_COLS].tolist()


def _cells(values: np.ndarray) -> list:
    """Values as a list, with a non-finite (undefined, suppressed or overflowed) value as None."""
    return [v if math.isfinite(v) else None for v in values.tolist()]


def cmd_validate(cfg: RunConfig, args) -> int:
    report = validate_environment(cfg.environment, cfg.validation)
    payload = asdict(report)
    lines = [
        f"{key}: {','.join(value) if isinstance(value, tuple) else _fmt(value)}"
        for key, value in payload.items()
        if value is not None
    ]
    _write("validate", cfg, args, lambda: {"report": payload}, lambda: lines)
    return 0 if report.passed else 2


def cmd_steady_state(cfg: RunConfig, args) -> int:
    osc, env = cfg.oscillator, cfg.environment
    y = build_drift_matrix(osc, env)
    d = build_diffusion_matrix(env)
    sigma = steady_state_lyapunov(y, d)
    sigma_closed = None
    max_diff = None
    if is_symmetric_environment(env):
        sigma_closed = steady_state_closed_form(osc, env)
        max_diff = float(np.abs(sigma - sigma_closed).max())
    report = analyze(sigma, osc, env)

    def payload() -> dict:
        return {
            "sigma_infinity": sigma.tolist(),
            "sigma_infinity_closed_form": (
                sigma_closed.tolist() if sigma_closed is not None else None
            ),
            "closed_form_max_diff": max_diff,
            "report": {name: getattr(report, name) for name in _REPORT_FIELDS},
        }

    columns = (
        list(_SIGMA_COLUMNS)
        + [f"cf_{name}" for name in _SIGMA_COLUMNS]
        + ["closed_form_max_diff", *_REPORT_COLUMNS]
    )
    closed_entries = _upper_entries(sigma_closed) if sigma_closed is not None else [None] * 10
    row = _upper_entries(sigma) + closed_entries + [max_diff]
    row += [getattr(report, name.lower()) for name in _REPORT_COLUMNS]
    # analyze leaves no closed-form field non-finite; the rest of the row may overflow
    if not all(math.isfinite(v) for v in row if isinstance(v, float)):
        raise NonFiniteResultError(
            "steady-state report overflows double precision; "
            "the coefficients are too extreme"
        )
    csv_lines = [",".join(columns), ",".join(map(_fmt, row))]
    _write("steady-state", cfg, args, payload, lambda: csv_lines)
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
    _write_table("evolve", cfg, args, *_evolve_table(cfg, y, steady_state_lyapunov(y, d)))
    return 0


def _evolve_table(cfg: RunConfig, y: np.ndarray, sigma_inf: np.ndarray) -> tuple[list, list]:
    """Column names and rows of the evolve table.

    A function of its own so the stacked arrays and the columns are freed
    before formatting.
    """
    sigma0 = _initial_covariance(cfg)
    grid = np.linspace(cfg.time_grid.t_start, cfg.time_grid.t_end, cfg.time_grid.n_points)
    sigmas = propagate(sigma0, sigma_inf, y, grid)
    inv = _invariants(sigmas)
    table = {
        "t": grid.tolist(),
        **dict(zip(_SIGMA_COLUMNS, sigmas[:, _UPPER_ROWS, _UPPER_COLS].T.tolist())),
        "S_general": _cells(inv.s),
        "E_general": _cells(inv.e),
        "max_abs_dev": np.abs(sigmas - sigma_inf).max(axis=(-2, -1)).tolist(),
    }
    del sigmas, inv  # freed before the rows are built, which lowers the peak RSS
    return list(table), list(zip(*table.values()))


def _sweep_environments(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, SimpleNamespace]:
    """Grid coordinates, row-major, and an environment whose diffusion coefficients are arrays."""
    osc, env, sweep = cfg.oscillator, cfg.environment, cfg.sweep
    m, w, lam = osc.m, osc.omega, env.lam
    axis1 = np.linspace(sweep.axis1.min, sweep.axis1.max, sweep.axis1.n)
    axis2 = np.linspace(sweep.axis2.min, sweep.axis2.max, sweep.axis2.n)
    a1 = np.repeat(axis1, axis2.size)
    a2 = np.tile(axis2, axis1.size)
    zeros = np.zeros(a1.size)
    values = {_ENV_KEYS[k]: zeros + getattr(env, _ENV_KEYS[k]) for k in _REDUCED_KEYS}
    if sweep.scaling == "scaled":
        # The base's d_xpx, d_xy and d_pxpy are zero to 1e-12; the grid uses 0.
        d_xx = a1 * lam / (m * w)
        d_xpy = a2 * math.sqrt(lam * lam + w * w)
        values.update(d_xx=d_xx, d_xpx=zeros, d_pxpx=(m * w) * (m * w) * d_xx, d_xy=zeros)
        values.update(d_xpy=d_xpy, d_pxpy=zeros)
    else:
        values[_ENV_KEYS[sweep.axis1.coefficient]] = a1
        values[_ENV_KEYS[sweep.axis2.coefficient]] = a2
    values.update({y: values[x] for y, x in _MIRROR.items()})
    return a1, a2, SimpleNamespace(lam=lam, **values)


def _sweep_table(cfg: RunConfig) -> tuple[list, list]:
    """Column names and rows: analyze's fields on the closed-form sigma_inf at each point.

    Below the single-mode uncertainty bound the asymptotic state is
    unphysical, so the negativity cells of those points are left empty.
    Non-finite numbers are left empty too, and so is the verdict of a row
    whose S_general is not finite.
    """
    osc = cfg.oscillator
    a1, a2, env = _sweep_environments(cfg)
    if not all(np.isfinite(x).all() for x in (a1, a2, *vars(env).values())):
        raise NonFiniteResultError("sweep grid overflows double precision")
    valid_strict, valid_lenient = _validity(env)
    inv = _invariants(_closed_form_sigma(osc, env))
    forms = _closed_forms(osc, env)
    unphysical = forms.window_code == _UNCERTAINTY
    table = {
        "axis1": a1.tolist(),
        "axis2": a2.tolist(),
        "D_xx": env.d_xx.tolist(),
        "D_xpy": env.d_xpy.tolist(),
        "valid_strict": valid_strict.tolist(),
        "valid_lenient": valid_lenient.tolist(),
        "S_general": _cells(inv.s),
        "S_special": _cells(forms.s_special),
        "E_general": _cells(np.where(unphysical, np.nan, inv.e)),
        "E_closed": _cells(np.where(unphysical, np.nan, forms.e_closed)),
    }
    table["verdict"] = [None if s is None else _verdict(s) for s in table["S_general"]]
    return list(table), list(zip(*table.values()))


def cmd_sweep(cfg: RunConfig, args) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep requires a sweep section in the config")
    osc, env, sweep = cfg.oscillator, cfg.environment, cfg.sweep
    if not is_symmetric_environment(env):
        raise ConfigError(
            "sweep requires a symmetric base environment "
            "(mirrored y-mode coefficients)"
        )
    if abs(env.d_xy) > 1e-12:
        raise ConfigError("sweep requires D_xy = 0 in the base environment")
    if sweep.scaling == "scaled":
        if (sweep.axis1.coefficient, sweep.axis2.coefficient) != ("D_xx", "D_xpy"):
            raise ConfigError(
                "scaled sweeps run over axis1=D_xx and axis2=D_xpy "
                f"(got {sweep.axis1.coefficient!r}, {sweep.axis2.coefficient!r})"
            )
        if abs(env.d_xpx) > 1e-12 or abs(env.d_pxpy) > 1e-12:
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
    _require_positive_lambda(env.lam, "sweep requires a positive dissipation constant, got")
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
        cmd.add_argument(
            "--jobs", type=int, default=1, help="accepted and ignored"
        )
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
        # Overflow is reported as empty cells or a NonFiniteResultError, not as numpy warnings.
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
