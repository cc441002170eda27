"""Command-line front end.

Subcommands: `validate` (environment positivity checks), `steady-state`
(asymptotic covariance plus entanglement report), `evolve` (covariance
trace on a time grid) and `sweep` (two-coefficient grid emitting plot
data).  Configuration is a JSON document; output is CSV with a `#`
metadata header, or JSON behind --format.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
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
from .entanglement import (
    _DIVERGENCE_TOLERANCE,
    _closed_form_negativity,
    _in_matched_class,
    _invariants,
    _s_special,
    _scaled_coordinates,
    analyze,
)
from .errors import NonFiniteResultError, NotHurwitzError, TwoModeError
from .model import (
    EnvironmentParams,
    OscillatorParams,
    SymmetricEnvironmentParams,
    _require_positive_lambda,
    _validity,
    build_diffusion_matrix,
    build_drift_matrix,
    check_state_covariance,
    is_hurwitz,
    is_symmetric_environment,
    make_vacuum_covariance,
    validate_environment,
)


class ConfigError(Exception):
    """Malformed configuration input (usage error, exit code 1)."""


# JSON coefficient key -> EnvironmentParams field.
_ENV_KEYS = {
    "lambda": "lam",
    "D_xx": "d_xx",
    "D_xpx": "d_xpx",
    "D_xy": "d_xy",
    "D_xpy": "d_xpy",
    "D_ypx": "d_ypx",
    "D_pxpx": "d_pxpx",
    "D_yy": "d_yy",
    "D_ypy": "d_ypy",
    "D_pxpy": "d_pxpy",
    "D_pypy": "d_pypy",
}
_Y_DUPLICATE_KEYS = ("D_ypx", "D_yy", "D_ypy", "D_pypy")
_REDUCED_KEYS = ("D_xx", "D_xpx", "D_pxpx", "D_xy", "D_xpy", "D_pxpy")
_SWEEPABLE_KEYS = frozenset(_REDUCED_KEYS)

#: Most points a time grid or a sweep grid (axis1.n * axis2.n) may have.
MAX_GRID_POINTS = 10**6

_DEFAULT_AXIS1 = ("D_xx", 0.5, 1.5, 11)
_DEFAULT_AXIS2 = ("D_xpy", 0.0, 2.0, 21)

_SIGMA_COLUMNS = (
    "sigma_xx", "sigma_xpx", "sigma_xy", "sigma_xpy", "sigma_pxpx",
    "sigma_ypx", "sigma_pxpy", "sigma_yy", "sigma_ypy", "sigma_pypy",
)
# Row and column indices of the upper triangle, in _SIGMA_COLUMNS order.
_UPPER_ROWS = (0, 0, 0, 0, 1, 1, 1, 2, 2, 3)
_UPPER_COLS = (0, 1, 2, 3, 1, 2, 3, 2, 3, 3)

_SWEEP_COLUMNS = (
    "axis1", "axis2", "D_xx", "D_xpy", "valid_strict", "valid_lenient",
    "S_general", "S_special", "E_general", "E_closed", "verdict",
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
    start: float
    stop: float
    count: int


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


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    return obj


def _reject_unknown(obj: dict, allowed, where: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(unknown)}")


def _to_float(value, where: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: integer too large for a float") from None


def _get_number(obj: dict, key: str, where: str, default=None) -> float:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}.{key}: expected a number, got {value!r}")
    return _to_float(value, f"{where}.{key}")


def _get_int(obj: dict, key: str, where: str, default=None) -> int:
    if key not in obj:
        if default is None:
            raise ConfigError(f"{where}: missing required key '{key}'")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


def _parse_environment(obj: dict) -> EnvironmentParams:
    obj = _require_mapping(obj, "environment")
    _reject_unknown(obj, _ENV_KEYS, "environment")
    lam = _get_number(obj, "lambda", "environment")
    present_dup = [k for k in _Y_DUPLICATE_KEYS if k in obj]
    if not present_dup:
        values = {
            _ENV_KEYS[k]: _get_number(obj, k, "environment", default=0.0)
            for k in _REDUCED_KEYS
        }
        return SymmetricEnvironmentParams(lam=lam, **values)
    if len(present_dup) != len(_Y_DUPLICATE_KEYS):
        missing = sorted(set(_Y_DUPLICATE_KEYS) - set(present_dup))
        raise ConfigError(
            "environment: provide all of "
            f"{', '.join(_Y_DUPLICATE_KEYS)} or none (missing {', '.join(missing)})"
        )
    values = {
        field: _get_number(obj, key, "environment", default=0.0)
        for key, field in _ENV_KEYS.items()
        if key != "lambda"
    }
    return EnvironmentParams(lam=lam, **values)


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
            rows.append(tuple(_to_float(entry, "initial_state") for entry in row))
        return tuple(rows)
    raise ConfigError("initial_state: expected \"vacuum\" or a 4x4 array")


def _parse_time_grid(obj: dict) -> TimeGrid:
    obj = _require_mapping(obj, "time_grid")
    _reject_unknown(obj, ("t_start", "t_end", "n_points"), "time_grid")
    t_start = _get_number(obj, "t_start", "time_grid")
    t_end = _get_number(obj, "t_end", "time_grid")
    n_points = _get_int(obj, "n_points", "time_grid")
    if not (math.isfinite(t_start) and t_start >= 0.0):
        raise ConfigError(f"time_grid.t_start: must be >= 0, got {t_start!r}")
    if not (math.isfinite(t_end) and t_end > t_start):
        raise ConfigError(f"time_grid.t_end: must exceed t_start, got {t_end!r}")
    if not 2 <= n_points <= MAX_GRID_POINTS:
        raise ConfigError(
            f"time_grid.n_points: must be between 2 and {MAX_GRID_POINTS}, got {n_points!r}"
        )
    return TimeGrid(t_start=t_start, t_end=t_end, n_points=n_points)


def _parse_axis(obj, default: tuple, where: str) -> AxisSpec:
    if obj is None:
        return AxisSpec(*default)
    obj = _require_mapping(obj, where)
    _reject_unknown(obj, ("coefficient", "min", "max", "n"), where)
    coefficient = obj.get("coefficient", default[0])
    if coefficient not in _ENV_KEYS or coefficient == "lambda":
        raise ConfigError(f"{where}.coefficient: unknown coefficient {coefficient!r}")
    start = _get_number(obj, "min", where, default=default[1])
    stop = _get_number(obj, "max", where, default=default[2])
    count = _get_int(obj, "n", where, default=default[3])
    if not (math.isfinite(start) and math.isfinite(stop) and start < stop):
        raise ConfigError(f"{where}: need finite min < max, got [{start!r}, {stop!r}]")
    if count < 2:
        raise ConfigError(f"{where}.n: must be >= 2, got {count!r}")
    return AxisSpec(coefficient=coefficient, start=start, stop=stop, count=count)


def _parse_sweep(obj: dict) -> SweepSpec:
    obj = _require_mapping(obj, "sweep")
    _reject_unknown(obj, ("axis1", "axis2", "scaling"), "sweep")
    scaling = obj.get("scaling", "scaled")
    if scaling not in ("raw", "scaled"):
        raise ConfigError(f"sweep.scaling: expected 'raw' or 'scaled', got {scaling!r}")
    axis1 = _parse_axis(obj.get("axis1"), _DEFAULT_AXIS1, "sweep.axis1")
    axis2 = _parse_axis(obj.get("axis2"), _DEFAULT_AXIS2, "sweep.axis2")
    if axis1.count * axis2.count > MAX_GRID_POINTS:
        raise ConfigError(
            f"sweep: axis1.n * axis2.n must be at most {MAX_GRID_POINTS}, "
            f"got {axis1.count * axis2.count!r}"
        )
    return SweepSpec(axis1=axis1, axis2=axis2, scaling=scaling)


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a decoded JSON document."""
    data = _require_mapping(data, "config")
    _reject_unknown(
        data,
        ("oscillator", "environment", "initial_state", "validation", "time_grid", "sweep"),
        "config",
    )
    for key in ("oscillator", "environment"):
        if key not in data:
            raise ConfigError(f"config: missing required key '{key}'")
    osc_obj = _require_mapping(data["oscillator"], "oscillator")
    _reject_unknown(osc_obj, ("m", "omega"), "oscillator")
    try:
        osc = OscillatorParams(
            m=_get_number(osc_obj, "m", "oscillator"),
            omega=_get_number(osc_obj, "omega", "oscillator"),
        )
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
    env = cfg.environment
    env_obj: dict = {"lambda": env.lam}
    if isinstance(env, SymmetricEnvironmentParams):
        keys = _REDUCED_KEYS
    else:
        keys = tuple(k for k in _ENV_KEYS if k != "lambda")
    for key in keys:
        env_obj[key] = getattr(env, _ENV_KEYS[key])
    out: dict = {
        "oscillator": {"m": cfg.oscillator.m, "omega": cfg.oscillator.omega},
        "environment": env_obj,
        "initial_state": (
            cfg.initial_state
            if cfg.initial_state == "vacuum"
            else [list(row) for row in cfg.initial_state]
        ),
        "validation": cfg.validation,
    }
    if cfg.time_grid is not None:
        out["time_grid"] = {
            "t_start": cfg.time_grid.t_start,
            "t_end": cfg.time_grid.t_end,
            "n_points": cfg.time_grid.n_points,
        }
    if cfg.sweep is not None:
        out["sweep"] = {
            "axis1": _axis_to_dict(cfg.sweep.axis1),
            "axis2": _axis_to_dict(cfg.sweep.axis2),
            "scaling": cfg.sweep.scaling,
        }
    return out


def _axis_to_dict(axis: AxisSpec) -> dict:
    return {
        "coefficient": axis.coefficient,
        "min": axis.start,
        "max": axis.stop,
        "n": axis.count,
    }


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
    lines = [
        f"mode: {report.mode}",
        f"passed: {_fmt(report.passed)}",
        f"failed: {','.join(report.failed)}",
    ]
    if report.min_gram_eigenvalue is not None:
        lines.append(f"min_gram_eigenvalue: {_fmt(report.min_gram_eigenvalue)}")
    payload = {
        "mode": report.mode,
        "passed": report.passed,
        "failed": list(report.failed),
        "min_gram_eigenvalue": report.min_gram_eigenvalue,
    }
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
    numbers = [v for v in (*row, *(report.window or ())) if isinstance(v, float)]
    if not all(map(math.isfinite, numbers)):
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
    if not is_hurwitz(y):
        raise NotHurwitzError(
            "drift matrix is not Hurwitz (lambda <= 0); no asymptotic state"
        )
    rows = _evolve_rows(cfg, y, steady_state_lyapunov(y, d))
    columns = ["t", *_SIGMA_COLUMNS, "S_general", "E_general", "max_abs_dev"]
    _write_table("evolve", cfg, args, columns, rows)
    return 0


def _evolve_rows(cfg: RunConfig, y: np.ndarray, sigma_inf: np.ndarray) -> list[list]:
    # A function of its own so the stacked arrays are freed before formatting.
    sigma0 = _initial_covariance(cfg)
    grid = np.linspace(cfg.time_grid.t_start, cfg.time_grid.t_end, cfg.time_grid.n_points)
    sigmas = propagate(sigma0, sigma_inf, y, grid)
    inv = _invariants(sigmas)
    deviation = np.abs(sigmas - sigma_inf).max(axis=(-2, -1))
    upper = sigmas[:, _UPPER_ROWS, _UPPER_COLS]
    rows = np.column_stack([grid, upper, inv.s, inv.e, deviation]).tolist()
    s_index = 1 + len(_SIGMA_COLUMNS)  # after t and the sigma entries; E follows S
    # Empty cells where E is undefined, or where S or E overflowed
    for i, k in zip(*np.nonzero(~np.isfinite(np.column_stack([inv.s, inv.e])))):
        rows[i][s_index + k] = None
    return rows


def _sweep_environments(cfg: RunConfig) -> tuple[np.ndarray, np.ndarray, SimpleNamespace]:
    """Grid coordinates, row-major, and an environment whose coefficients are arrays."""
    osc, env, sweep = cfg.oscillator, cfg.environment, cfg.sweep
    m, w, lam = osc.m, osc.omega, env.lam
    axis1 = np.linspace(sweep.axis1.start, sweep.axis1.stop, sweep.axis1.count)
    axis2 = np.linspace(sweep.axis2.start, sweep.axis2.stop, sweep.axis2.count)
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
    mirrored = dict(d_yy=values["d_xx"], d_ypy=values["d_xpx"], d_pypy=values["d_pxpx"])
    grid = SimpleNamespace(lam=zeros + lam, d_ypx=values["d_xpy"], **mirrored, **values)
    return a1, a2, grid


def _sweep_rows(cfg: RunConfig) -> list[tuple]:
    """Every sweep row: validity, S, the negativities and the verdict.

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
    matched = _in_matched_class(osc, env)
    zero_cross = matched & (abs(env.d_xy) <= 1e-12)
    u, v, _ = _scaled_coordinates(osc, env)
    gap = abs(u - v)
    shown = ~(zero_cross & (u < 0.5))
    closed = shown & zero_cross & (gap >= _DIVERGENCE_TOLERANCE)
    s_general = _cells(inv.s)
    columns = (
        a1.tolist(),
        a2.tolist(),
        env.d_xx.tolist(),
        env.d_xpy.tolist(),
        valid_strict.tolist(),
        valid_lenient.tolist(),
        s_general,
        _cells(np.where(matched, _s_special(osc, env), np.nan)),
        _cells(np.where(shown, inv.e, np.nan)),
        _cells(_closed_form_negativity(np.where(closed, gap, np.nan))),
        [None if s is None else "entangled" if s < 0.0 else "separable" for s in s_general],
    )
    return list(zip(*columns))


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
            if axis.coefficient not in _SWEEPABLE_KEYS:
                raise ConfigError(
                    f"raw sweeps accept coefficients {sorted(_SWEEPABLE_KEYS)}, "
                    f"got {axis.coefficient!r}"
                )
    _require_positive_lambda(env.lam, "sweep requires a positive dissipation constant, got")
    _write_table("sweep", cfg, args, _SWEEP_COLUMNS, _sweep_rows(cfg))
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TwoModeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
