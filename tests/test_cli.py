import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twomode
from twomode.cli import MAX_GRID_POINTS, config_to_dict, load_config, main, parse_config

from support import exact_closed_forms, mp_sigma_t

REFERENCE_CONFIG = {
    "oscillator": {"m": 1.0, "omega": 1.0},
    "environment": {"lambda": 1.0, "D_xx": 0.6, "D_pxpx": 0.6, "D_xpy": 0.3},
    "validation": "strict",
}

BOUNDARY_CONFIG = {
    "oscillator": {"m": 1.0, "omega": 1.0},
    "environment": {"lambda": 0.5, "D_xx": 0.25, "D_pxpx": 0.25, "D_xpy": 0.2},
    "validation": "strict",
}

# All ten coefficients, so no closed form: the golden steady_ten case.
TEN_CONFIG = {
    "oscillator": {"m": 1.3, "omega": 0.7},
    "environment": {
        "lambda": 0.9, "D_xx": 0.7, "D_xpx": 0.02, "D_xy": 0.05, "D_xpy": 0.1, "D_ypx": 0.12,
        "D_pxpx": 0.8, "D_yy": 0.75, "D_ypy": 0.03, "D_pxpy": 0.04, "D_pypy": 0.85,
    },
    "validation": "strict",
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def strict_json(text):
    """Parse JSON, rejecting the NaN and Infinity literals strict JSON lacks."""

    def reject(literal):
        raise ValueError(f"non-standard JSON literal {literal}")

    return json.loads(text, parse_constant=reject)


def data_lines(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def parse_csv(text):
    lines = data_lines(text)
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return rows


class TestValidateCommand:
    def test_strict_pass(self, tmp_path, capsys):
        code = main(["validate", "--config", write_config(tmp_path, REFERENCE_CONFIG)])
        out = capsys.readouterr().out
        assert code == 0
        assert "passed: true" in out

    def test_strict_fail_lenient_pass(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BOUNDARY_CONFIG)
        assert main(["validate", "--config", cfg_path]) == 2
        out = capsys.readouterr().out
        assert "gram_psd" in out
        lenient = dict(BOUNDARY_CONFIG, validation="lenient")
        assert main(["validate", "--config", write_config(tmp_path, lenient)]) == 0

    def test_missing_lambda(self, tmp_path, capsys):
        payload = {
            "oscillator": {"m": 1.0, "omega": 1.0},
            "environment": {"D_xx": 0.6},
        }
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1
        assert "lambda" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\n  'oscillator': }")
        assert main(["validate", "--config", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        payload = dict(REFERENCE_CONFIG)
        payload["environment"] = dict(payload["environment"], D_zz=1.0)
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 1
        assert "D_zz" in capsys.readouterr().err

    def test_json_format(self, tmp_path, capsys):
        # a mirrored environment (closed-form Gram spectrum) and a ten-coefficient one (eigvalsh)
        for payload in (REFERENCE_CONFIG, TEN_CONFIG):
            path = write_config(tmp_path, payload)
            assert main(["validate", "--config", path, "--format", "json"]) == 0
            report = strict_json(capsys.readouterr().out)["report"]
            assert report["passed"] is True
            eigenvalue = report["min_gram_eigenvalue"]
            assert math.isfinite(eigenvalue) and eigenvalue > 0


class TestSteadyStateCommand:
    def test_reference_point(self, tmp_path, capsys, reference_sigma_inf):
        code = main(
            [
                "steady-state",
                "--config",
                write_config(tmp_path, REFERENCE_CONFIG),
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        sigma = np.array(payload["sigma_infinity"])
        np.testing.assert_allclose(sigma, reference_sigma_inf, atol=1e-9)
        assert payload["closed_form_max_diff"] <= 1e-12
        assert payload["report"]["verdict"] == "entangled" and payload["report"]["s_general"] < 0
        assert abs(payload["report"]["e_general"] - 0.3663624675484261) <= 1e-6

    def test_ten_coefficient_point(self, tmp_path, capsys):
        # no closed form: the solve's sigma_inf solves Y sigma + sigma Y^T = -2 D to a relative
        # residual of 1e-12, and the verdict is the sign of S
        path = write_config(tmp_path, TEN_CONFIG)
        assert main(["steady-state", "--config", path, "--format", "json"]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["sigma_infinity_closed_form"] is payload["closed_form_max_diff"] is None
        cfg = parse_config(TEN_CONFIG)
        y = twomode.build_drift_matrix(cfg.oscillator, cfg.environment)
        d = twomode.build_diffusion_matrix(cfg.environment)
        sigma = np.array(payload["sigma_infinity"])
        residual = np.abs(y @ sigma + sigma @ y.T + 2 * d).max()
        assert residual <= 1e-12 * np.abs(y).max() * np.abs(sigma).max()
        report = payload["report"]
        assert report["verdict"] == ("entangled" if report["s_general"] < 0 else "separable")

    def test_unmirrored_point_has_no_closed_form(self, tmp_path, capsys):
        # y-mode noise 0.9 k against x-mode noise 0.6 k is not mirrored at k = 1e-13 either:
        # class membership does not depend on the unit of time
        coefficients = {
            "D_xx": 0.6, "D_pxpx": 0.6, "D_xpy": 0.3, "D_ypx": 0.3,
            "D_yy": 0.9, "D_ypy": 0.0, "D_pypy": 0.9,
        }
        reports = []
        for k in (1.0, 1e-13):
            environment = {"lambda": k, **{key: value * k for key, value in coefficients.items()}}
            payload = {"oscillator": {"m": 1 / k, "omega": k}, "environment": environment}
            path = write_config(tmp_path, payload)
            assert main(["steady-state", "--config", path, "--format", "json"]) == 0
            reports.append(strict_json(capsys.readouterr().out)["report"])
        for report in reports:
            assert (report["s_special"], report["e_closed"], report["window"]) == (None, None, None)
        assert reports[0]["notes"] == reports[1]["notes"] != []

    def test_huge_lambda_without_a_closed_form(self, tmp_path, capsys):
        # lambda = 1e155: sigma_inf ~ D / lambda is tiny, and an environment that is not
        # mirrored has no closed form to overflow; sigma_xx = D_xx / lambda, a separable state
        environment = {
            "lambda": 1e155, "D_xx": 1.0, "D_pxpx": 1.0, "D_yy": 1.5, "D_ypy": 0.0, "D_pypy": 1.5,
            "D_xpy": 0.3, "D_ypx": 0.3,
        }
        path = write_config(tmp_path, dict(REFERENCE_CONFIG, environment=environment))
        assert main(["steady-state", "--config", path, "--format", "json"]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["report"]["verdict"] == "separable"
        assert abs(payload["sigma_infinity"][0][0] - 1e-155) <= 1e-13 * 1e-155

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "environment",
        [
            {**REFERENCE_CONFIG["environment"], "lambda": 1e300},
            {"lambda": 1e155, "D_xx": 1e155, "D_pxpx": 1e155, "D_xpy": 3e154},
        ],
        ids=["reference_at_1e300", "matched_at_1e155"],
    )
    def test_overflowing_closed_form_leaves_the_cross_check_empty(
        self, tmp_path, capsys, environment, fmt
    ):
        # the solve and its report are finite, but the paper's raw-unit sigma_inf overflows:
        # its ten cf_* cells and closed_form_max_diff are empty, as outside the mirrored class
        path = write_config(tmp_path, dict(REFERENCE_CONFIG, environment=environment))
        assert main(["steady-state", "--config", path, "--format", fmt]) == 0
        out = capsys.readouterr().out
        cfg = load_config(path)
        y = twomode.build_drift_matrix(cfg.oscillator, cfg.environment)
        sigma = twomode.steady_state_lyapunov(y, twomode.build_diffusion_matrix(cfg.environment))
        if fmt == "json":
            payload = strict_json(out)
            assert payload["sigma_infinity_closed_form"] is payload["closed_form_max_diff"] is None
            assert payload["sigma_infinity"] == sigma.tolist()
            e_general, e_closed = payload["report"]["e_general"], payload["report"]["e_closed"]
        else:
            (row,) = parse_csv(out)
            cross_check = [key for key in row if key.startswith("cf_") or key == "closed_form_max_diff"]
            assert len(cross_check) == 11 and all(row[key] == "" for key in cross_check)
            cells = [float(value) for key, value in row.items() if key.startswith("sigma_")]
            assert cells == sigma[twomode.model.UPPER].tolist()
            e_general, e_closed = (float(row[key] or "nan") for key in ("E_general", "E_closed"))
        if environment["lambda"] == 1e155:  # u = 1, v = 0.3: the closed form's E is the solve's
            assert abs(e_closed - e_general) <= 1e-13

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_tiny_lambda_s_special_is_exact(self, tmp_path, capsys, fmt):
        # u = 1 and v = 0.3 at lambda = 1e-160, where lambda^2 underflows: S_special is the
        # paper's 0.3456, computed in exact rationals from the config's doubles
        environment = {"lambda": 1e-160, "D_xx": 1e-160, "D_pxpx": 1e-160, "D_xpy": 0.3}
        path = write_config(tmp_path, dict(REFERENCE_CONFIG, environment=environment))
        assert main(["steady-state", "--config", path, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            s_special = strict_json(out)["report"]["s_special"]
        else:
            (row,) = parse_csv(out)
            s_special = float(row["S_special"])
        cfg = load_config(path)
        exact = exact_closed_forms(cfg.oscillator, cfg.environment)[0]
        assert abs(exact - Fraction(3456, 10000)) <= 1e-16
        assert abs(Fraction(s_special) - exact) <= 1e-14 * max(1, abs(exact))

    def test_uncorrelated_point(self, tmp_path, capsys):
        payload_cfg = dict(REFERENCE_CONFIG)
        payload_cfg["environment"] = {"lambda": 1.0, "D_xx": 0.6, "D_pxpx": 0.6}
        code = main(
            [
                "steady-state",
                "--config",
                write_config(tmp_path, payload_cfg),
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["verdict"] == "separable"
        assert abs(payload["report"]["e_general"] - (-0.2630344058337938)) <= 1e-6

    def test_no_steady_state_for_zero_damping(self, tmp_path, capsys):
        payload_cfg = dict(REFERENCE_CONFIG)
        payload_cfg["environment"] = dict(payload_cfg["environment"], **{"lambda": 0.0})
        path = write_config(tmp_path, payload_cfg)
        for fmt in ("csv", "json"):
            code = main(["steady-state", "--config", path, "--format", fmt])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            # the Hurwitz test, read off the drift spectrum -lambda +- i omega
            assert len(captured.err.splitlines()) == 1
            assert captured.err.startswith("error: drift matrix has an eigenvalue")

    def test_csv_single_row(self, tmp_path, capsys):
        code = main(["steady-state", "--config", write_config(tmp_path, REFERENCE_CONFIG)])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0]["verdict"] == "entangled"
        assert float(rows[0]["sigma_xx"]) == pytest.approx(0.6, abs=1e-12)
        # both steady-state routes are emitted for symmetric environments
        assert float(rows[0]["cf_sigma_xpy"]) == pytest.approx(0.15, abs=1e-12)
        assert float(rows[0]["closed_form_max_diff"]) <= 1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 6: only the sweep empties the negativity below the "
        "single-mode uncertainty bound",
    )
    def test_negativity_is_empty_below_the_uncertainty_bound(self, tmp_path, capsys):
        # m omega D_xx / lambda = 0.3 < 1/2: the sweep leaves this point's E cells empty
        payload_cfg = dict(
            REFERENCE_CONFIG, environment={"lambda": 1.0, "D_xx": 0.3, "D_pxpx": 0.3, "D_xpy": 0.3}
        )
        path = write_config(tmp_path, payload_cfg)
        assert main(["steady-state", "--config", path, "--format", "json"]) == 0
        report = strict_json(capsys.readouterr().out)["report"]
        assert (report["e_general"], report["e_closed"]) == (None, None)


def _tiny_lambda_rows(tmp_path, capsys, lam):
    """evolve's rows at t = 0, 0.5 and 1 from the vacuum, at m = omega = 1 and a tiny lambda,
    with warnings as errors and nothing on stderr."""
    payload_cfg = dict(
        REFERENCE_CONFIG,
        environment={"lambda": lam, "D_xx": 0.6, "D_pxpx": 0.6, "D_xpy": 0.3},
        time_grid={"t_start": 0.0, "t_end": 1.0, "n_points": 3},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", write_config(tmp_path, payload_cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = parse_csv(captured.out)
    assert [float(row["t"]) for row in rows] == [0.0, 0.5, 1.0]
    return rows


class TestEvolveCommand:
    def test_tiny_lambda_against_mpmath(self, tmp_path, capsys):
        osc = twomode.OscillatorParams(1.0, 1.0)
        env = twomode.SymmetricEnvironmentParams(1e-9, d_xx=0.6, d_pxpx=0.6, d_xpy=0.3)
        row = _tiny_lambda_rows(tmp_path, capsys, 1e-9)[1]
        y, d = twomode.build_drift_matrix(osc, env), twomode.build_diffusion_matrix(env)
        exact = mp_sigma_t(y, d, twomode.make_vacuum_covariance(osc), 0.5)[0][0]
        assert abs(float(row["sigma_xx"]) - exact) <= 1e-13 * abs(exact)

    def test_vanishing_lambda(self, tmp_path, capsys):
        # sigma_inf ~ 1e80 cancels in no entry: sigma_xx(0.5) is 0.5 + 2 D_xx t to within 1e-80
        rows = _tiny_lambda_rows(tmp_path, capsys, 1e-80)
        assert abs(float(rows[1]["sigma_xx"]) - 1.1) <= 1e-13
        for row in rows:
            det_a = float(row["sigma_xx"]) * float(row["sigma_pxpx"]) - float(row["sigma_xpx"]) ** 2
            assert det_a >= 0.25  # a quantum state's uncertainty bound

    def test_extreme_scales_against_mpmath(self, tmp_path, capsys):
        # m omega = 7.5e174 and omega / lambda = 1.4e38, each coefficient of order one in
        # canonical units: c (D_xpy + D_ypx) / omega once overflowed in sigma_pxpy's
        # source term, which made row 1 a NaN and the run exit 2
        m, omega, lam = 3.97e79, 1.89e95, 1.38e57
        mw = m * omega
        environment = {"lambda": lam, "D_xx": 0.6 * lam / mw, "D_pxpx": 0.6 * lam * mw, "D_xpy": 0.3 * lam}
        payload = {
            "oscillator": {"m": m, "omega": omega},
            "environment": environment,
            "time_grid": {"t_start": 0.0, "t_end": 10.0 / omega, "n_points": 3},
        }
        code = main(["evolve", "--config", write_config(tmp_path, payload), "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        trace = strict_json(captured.out)
        osc = twomode.OscillatorParams(m, omega)
        env = twomode.SymmetricEnvironmentParams(
            lam, d_xx=environment["D_xx"], d_pxpx=environment["D_pxpx"], d_xpy=environment["D_xpy"]
        )
        y, d = twomode.build_drift_matrix(osc, env), twomode.build_diffusion_matrix(env)
        sigma0 = twomode.make_vacuum_covariance(osc)
        pairs = [(i, j) for i in range(4) for j in range(i, 4)]  # the sigma columns' order
        for values in trace["rows"]:
            row = dict(zip(trace["columns"], values))
            exact = mp_sigma_t(y, d, sigma0, row["t"])
            sigma = [value for name, value in row.items() if name.startswith("sigma_")]
            # normwise in canonical units: x-type entries times m omega, p-type over it
            weights = [mpmath.mpf(mw) ** (1 - i % 2 - j % 2) for i, j in pairs]
            gap = max(abs(s - exact[i][j]) * k for s, (i, j), k in zip(sigma, pairs, weights))
            assert gap <= 1e-13 * max(abs(exact[i][j]) * k for (i, j), k in zip(pairs, weights))
        # and out to t = 60 / lambda, where sigma(t) meets sigma_inf
        payload["time_grid"] = {"t_start": 0.0, "t_end": 60.0 / lam, "n_points": 11}
        code = main(["evolve", "--config", write_config(tmp_path, payload), "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert len(strict_json(captured.out)["rows"]) == 11

    def test_vacuum_trace(self, tmp_path, capsys):
        # 5,001 times span two compute blocks of 4,096 rows
        for n_points in (101, 5001):
            payload_cfg = dict(
                REFERENCE_CONFIG,
                time_grid={"t_start": 0.0, "t_end": 10.0, "n_points": n_points},
            )
            code = main(["evolve", "--config", write_config(tmp_path, payload_cfg)])
            assert code == 0
            rows = parse_csv(capsys.readouterr().out)
            assert len(rows) == n_points
            first = rows[0]
            assert float(first["t"]) == 0.0
            assert float(first["sigma_xx"]) == 0.5
            assert float(first["sigma_xpx"]) == 0.0
            assert float(first["sigma_xy"]) == 0.0
            assert float(first["sigma_pxpx"]) == 0.5
            # monotone time column and convergence to the asymptotic state
            times = [float(r["t"]) for r in rows]
            assert times == sorted(times)
            assert float(rows[-1]["max_abs_dev"]) <= 1e-8

    def test_explicit_initial_state_trace(self, tmp_path, capsys):
        # ten coefficients from 2 I: row 0 is the initial state, and the state relaxes
        # towards sigma_inf
        initial = (2.0 * np.eye(4)).tolist()
        time_grid = {"t_start": 0.0, "t_end": 10.0, "n_points": 11}
        path = write_config(tmp_path, dict(TEN_CONFIG, initial_state=initial, time_grid=time_grid))
        assert main(["evolve", "--config", path, "--format", "json"]) == 0
        trace = strict_json(capsys.readouterr().out)
        assert len(trace["rows"]) == 11
        first = dict(zip(trace["columns"], trace["rows"][0]))
        sigma = [value for name, value in first.items() if name.startswith("sigma_")]
        assert sigma == [initial[i][j] for i in range(4) for j in range(i, 4)]
        deviation = [row[trace["columns"].index("max_abs_dev")] for row in trace["rows"]]
        assert deviation[-1] < deviation[0]

    def test_stationary_initial_state(self, tmp_path, capsys):
        # starting from the computed asymptotic state, every row is that state
        code = main(
            [
                "steady-state",
                "--config",
                write_config(tmp_path, REFERENCE_CONFIG),
                "--format",
                "json",
            ]
        )
        assert code == 0
        sigma_inf = json.loads(capsys.readouterr().out)["sigma_infinity"]
        payload_cfg = dict(
            REFERENCE_CONFIG,
            initial_state=sigma_inf,
            time_grid={"t_start": 0.0, "t_end": 5.0, "n_points": 6},
        )
        code = main(["evolve", "--config", write_config(tmp_path, payload_cfg)])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        # sigma(t) = M sigma_inf M^T + W(t) meets sigma_inf to rounding, not bit for bit
        tolerance = 4 * np.finfo(float).eps * np.abs(sigma_inf).max()
        first = {k: float(v) for k, v in rows[0].items() if k.startswith("sigma_")}
        for row in rows:
            for name, value in first.items():
                assert abs(float(row[name]) - value) <= tolerance, (row["t"], name)
            assert float(row["max_abs_dev"]) <= tolerance

    def test_requires_time_grid(self, tmp_path, capsys):
        assert main(["evolve", "--config", write_config(tmp_path, REFERENCE_CONFIG)]) == 1
        assert "time_grid" in capsys.readouterr().err

    def test_rejects_degenerate_grid(self, tmp_path, capsys):
        payload_cfg = dict(
            REFERENCE_CONFIG, time_grid={"t_start": 0.0, "t_end": 0.0, "n_points": 2}
        )
        assert main(["evolve", "--config", write_config(tmp_path, payload_cfg)]) == 1
        assert "t_end" in capsys.readouterr().err

    def test_rejects_unphysical_initial_state(self, tmp_path, capsys):
        payload_cfg = dict(
            REFERENCE_CONFIG,
            initial_state=[
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, -1.0],
            ],
            time_grid={"t_start": 0.0, "t_end": 1.0, "n_points": 3},
        )
        assert main(["evolve", "--config", write_config(tmp_path, payload_cfg)]) == 2
        assert "positive definite" in capsys.readouterr().err


def sweep_config(axis1=None, axis2=None, scaling="scaled", environment=None):
    sweep = {"scaling": scaling}
    if axis1 is not None:
        sweep["axis1"] = axis1
    if axis2 is not None:
        sweep["axis2"] = axis2
    return {
        "oscillator": {"m": 1.0, "omega": 1.0},
        "environment": environment or {"lambda": 1.0},
        "validation": "strict",
        "sweep": sweep,
    }


class TestSweepCommand:
    def test_window_structure(self, tmp_path, capsys):
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 0.5, "max": 1.5, "n": 6},
            axis2={"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": 11},
        )
        code = main(["sweep", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 66
        for row in rows:
            u, v = float(row["axis1"]), float(row["axis2"])
            s = float(row["S_general"])
            inside = abs(u - v) < 0.5
            if abs(abs(u - v) - 0.5) < 1e-9:
                continue  # boundary grid points
            assert (s < 0.0) == inside
            if row["E_general"]:
                assert (float(row["E_general"]) > 0.0) == (s < 0.0)

    def test_reference_grid_point(self, tmp_path, capsys):
        v_ref = 0.3 / math.sqrt(2.0)
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 0.6, "max": 1.2, "n": 2},
            axis2={"coefficient": "D_xpy", "min": v_ref, "max": 1.0, "n": 2},
        )
        code = main(["sweep", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        point = rows[0]
        assert float(point["D_xx"]) == pytest.approx(0.6, abs=1e-12)
        assert float(point["D_xpy"]) == pytest.approx(0.3, abs=1e-12)
        assert float(point["E_general"]) == pytest.approx(0.3663624675484261, abs=1e-6)
        assert float(point["E_closed"]) == pytest.approx(0.3663624675484261, abs=1e-6)
        assert point["verdict"] == "entangled"
        assert point["valid_strict"] == "true"

    def test_uncertainty_gate_empties_negativity(self, tmp_path, capsys):
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 0.3, "max": 0.45, "n": 3},
            axis2={"coefficient": "D_xpy", "min": 0.0, "max": 1.0, "n": 3},
        )
        code = main(["sweep", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        for row in rows:
            assert row["E_general"] == ""
            assert row["E_closed"] == ""
            assert row["valid_lenient"] == "false"

    def test_divergent_diagonal_left_empty(self, tmp_path, capsys):
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 0.5, "max": 1.0, "n": 2},
            axis2={"coefficient": "D_xpy", "min": 0.5, "max": 1.0, "n": 2},
        )
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        rows = parse_csv(capsys.readouterr().out)
        diagonal = [r for r in rows if r["axis1"] == r["axis2"]]
        assert diagonal
        for row in diagonal:
            assert row["E_closed"] == ""
            assert row["valid_strict"] == "false"

    def test_raw_sweep(self, tmp_path, capsys):
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 0.5, "max": 0.7, "n": 3},
            axis2={"coefficient": "D_xpy", "min": 0.0, "max": 0.4, "n": 3},
            scaling="raw",
            environment={"lambda": 1.0, "D_pxpx": 0.6},
        )
        code = main(["sweep", "--config", write_config(tmp_path, cfg)])
        assert code == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 9
        # raw axes feed the coefficients directly
        assert {float(r["D_xx"]) for r in rows} == {0.5, 0.6, 0.7}
        # S_special applies only where momentum noise matches position noise
        matched = [r for r in rows if float(r["D_xx"]) == 0.6]
        unmatched = [r for r in rows if float(r["D_xx"]) != 0.6]
        assert all(r["S_special"] != "" for r in matched)
        assert all(r["S_special"] == "" for r in unmatched)

    def test_row_on_the_uncertainty_bound_is_valid_and_ungated(self, tmp_path, capsys):
        # axis1 = 1/2 puts D_xx D_pxpx = lambda^2/4 and u = 1/2 within rounding
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 0.5, "max": 1.5, "n": 3},
            axis2={"coefficient": "D_xpy", "min": 0.0, "max": 1.0, "n": 3},
        )
        cfg["oscillator"] = {"m": 0.3, "omega": 0.3}
        cfg["environment"] = {"lambda": 0.5}
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        row = parse_csv(capsys.readouterr().out)[0]
        assert (row["axis1"], row["axis2"]) == ("0.5", "0")
        assert (row["valid_strict"], row["valid_lenient"]) == ("true", "true")
        assert row["E_general"] != "" and row["E_closed"] != ""

    def test_nan_slack_fails_validity(self, tmp_path, capsys):
        # D_xx D_pypy - D_xpy^2 is inf - inf at every point of this grid
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 1e160, "max": 2e160, "n": 2},
            axis2={"coefficient": "D_xpy", "min": 1e170, "max": 2e170, "n": 2},
            scaling="raw",
            environment={"lambda": 1.0, "D_pxpx": 1e160},
        )
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 0
        rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 4
        assert all(r["valid_lenient"] == r["valid_strict"] == "false" for r in rows)

    def test_rejects_asymmetric_base(self, tmp_path, capsys):
        cfg = sweep_config()
        cfg["environment"] = {
            "lambda": 1.0,
            "D_xx": 0.6,
            "D_yy": 0.5,
            "D_ypx": 0.0,
            "D_ypy": 0.0,
            "D_pypy": 0.6,
        }
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
        assert "symmetric" in capsys.readouterr().err

    def test_rejects_nonzero_position_cross(self, tmp_path, capsys):
        cfg = sweep_config(environment={"lambda": 1.0, "D_xy": 0.1})
        assert main(["sweep", "--config", write_config(tmp_path, cfg)]) == 1
        assert "D_xy" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refuses_an_oscillator_out_of_the_double_range(self, tmp_path, fmt):
        # m omega^2 = 1e-320 is subnormal: the sweep refuses the oscillator with the
        # builder's one line, as steady-state does
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 0.25, "max": 1.5, "n": 3},
            axis2={"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": 3},
            environment={"lambda": 1.0, "D_xx": 0.6, "D_pxpx": 6e-321},
        )
        cfg["oscillator"] = {"m": 1.0, "omega": 1e-160}
        path = write_config(tmp_path, cfg)
        steady = run_to("steady-state", path, fmt)
        assert steady[2].startswith("error: drift matrix is out of double-precision range")
        for target in (None, tmp_path / "out"):
            assert run_to("sweep", path, fmt, target) == (2, "" if target is None else None, steady[2])

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_refuses_a_non_positive_lambda_as_steady_state_does(self, tmp_path, fmt, lam):
        # no steady state: one error line, exit 2, and nothing written, not even the header
        path = write_config(tmp_path, sweep_config(environment={"lambda": lam}))
        steady = run_to("steady-state", path, fmt)
        assert steady[:2] == (2, "")
        assert steady[2].startswith("error: drift matrix has an eigenvalue with non-negative")
        assert steady[2].count("\n") == 1
        for target in (None, tmp_path / "out"):
            assert run_to("sweep", path, fmt, target) == (2, "" if target is None else None, steady[2])

    @pytest.mark.parametrize("lam", [1e104, 1e150, 1e155, 1e200])
    def test_huge_lambda_rows_are_steady_state_at_each_point(self, tmp_path, capsys, lam):
        # the paper's raw-unit sigma_inf divides by 2 m^2 lam (lam^2 + w^2), beyond the
        # doubles here; the sweep's sigma_inf is steady-state's solve, so S, the verdict and
        # E (no row is gated: u = 1/2 and 3/2) are that command's cells at each point.  E is
        # empty only where f = 0, at u = v = 1/2.  S_special, on the scaled coordinates, is
        # written in every row
        cfg = sweep_config(
            axis1={"n": 2}, axis2={"coefficient": "D_xpy", "min": 0.5, "max": 1.0, "n": 3}
        )
        cfg["environment"] = {"lambda": lam}
        assert main(["sweep", "--config", write_config(tmp_path, cfg), "--format", "json"]) == 0
        payload = strict_json(capsys.readouterr().out)
        rows = [dict(zip(payload["columns"], values)) for values in payload["rows"]]
        assert len(rows) == 6
        for row in rows:
            environment = {"lambda": lam, "D_xx": row["D_xx"], "D_pxpx": row["D_xx"], "D_xpy": row["D_xpy"]}
            point = write_config(tmp_path, dict(REFERENCE_CONFIG, environment=environment))
            assert main(["steady-state", "--config", point, "--format", "json"]) == 0
            report = strict_json(capsys.readouterr().out)["report"]
            assert None not in (row["S_general"], row["verdict"]), row
            assert (row["S_general"], row["verdict"]) == (report["s_general"], report["verdict"])
            assert row["E_general"] == report["e_general"]
            assert row["S_special"] is not None and row["S_special"] == report["s_special"]
        assert [row["E_general"] is None for row in rows] == [True] + [False] * 5

    def test_requires_sweep_section(self, tmp_path, capsys):
        assert main(["sweep", "--config", write_config(tmp_path, REFERENCE_CONFIG)]) == 1

    def test_deterministic_output(self, tmp_path):
        cfg_path = write_config(tmp_path, sweep_config())
        out1, out2, out3 = (tmp_path / f"out{i}.csv" for i in range(3))
        assert main(["sweep", "--config", cfg_path, "--output", str(out1)]) == 0
        assert main(["sweep", "--config", cfg_path, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (
            main(["sweep", "--config", cfg_path, "--output", str(out3), "--jobs", "2"])
            == 0
        )
        assert out1.read_bytes() == out3.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        # the default axes, and a 101 x 101 grid over three compute blocks of 4,096 rows
        fine = sweep_config(
            axis1={"coefficient": "D_xx", "min": 0.25, "max": 1.5, "n": 101},
            axis2={"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": 101},
        )
        for cfg, count in ((sweep_config(), 11 * 21), (fine, 101 * 101)):
            code = main(["sweep", "--config", write_config(tmp_path, cfg), "--format", "json"])
            assert code == 0
            payload = strict_json(capsys.readouterr().out)
            assert payload["columns"][0] == "axis1"
            assert len(payload["rows"]) == count
            # the kernel's S and E against the matched class's closed forms, where both are written
            rows = [dict(zip(payload["columns"], values)) for values in payload["rows"]]
            closed_e = [r for r in rows if None not in (r["E_general"], r["E_closed"])]
            closed_s = [r for r in rows if None not in (r["S_general"], r["S_special"])]
            assert closed_e and closed_s
            for row in closed_e:
                assert abs(row["E_general"] - row["E_closed"]) <= 1e-9, row
            for row in closed_s:
                gap = abs(row["S_general"] - row["S_special"])
                assert gap <= 1e-12 * max(1.0, abs(row["S_special"])), row


class TestConfigRoundTrip:
    def test_echo_reproduces_config(self, tmp_path, capsys):
        payload = dict(
            REFERENCE_CONFIG,
            initial_state=[
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.5],
            ],
            time_grid={"t_start": 0.0, "t_end": 2.0, "n_points": 3},
            sweep={},
        )
        cfg_path = write_config(tmp_path, payload)
        cfg = load_config(cfg_path)
        assert main(["evolve", "--config", cfg_path]) == 0
        out = capsys.readouterr().out
        echo_line = next(
            line for line in out.splitlines() if line.startswith("# config: ")
        )
        echoed = parse_config(json.loads(echo_line[len("# config: "):]))
        assert echoed == cfg

    def test_full_environment_round_trip(self):
        cfg = parse_config(
            {
                "oscillator": {"m": 1.5, "omega": 0.8},
                "environment": {
                    "lambda": 0.9,
                    "D_xx": 0.4,
                    "D_xpx": 0.02,
                    "D_xy": 0.01,
                    "D_xpy": 0.05,
                    "D_ypx": 0.06,
                    "D_pxpx": 0.5,
                    "D_yy": 0.45,
                    "D_ypy": 0.03,
                    "D_pxpy": 0.04,
                    "D_pypy": 0.55,
                },
            }
        )
        assert parse_config(config_to_dict(cfg)) == cfg

    def test_mixed_y_keys_rejected(self):
        with pytest.raises(Exception, match="D_yy"):
            parse_config(
                {
                    "oscillator": {"m": 1.0, "omega": 1.0},
                    "environment": {"lambda": 1.0, "D_ypx": 0.1},
                }
            )


# (config, json.dumps of its config_to_dict echo, the CSV `# config:` line), for
# one reduced and one ten-coefficient environment; the keys are given shuffled.
ECHO_TEXTS = [
    pytest.param(
        {
            "oscillator": {"m": 1.3, "omega": 0.7},
            "environment": {
                "D_pxpy": 0.04, "D_xpy": 0.3, "lambda": 0.9, "D_xx": 0.6, "D_pxpx": 0.6
            },
            "time_grid": {"n_points": 3, "t_end": 1.0, "t_start": 0.0},
            "sweep": {"axis2": {"n": 3}, "scaling": "raw"},
        },
        '{"oscillator": {"m": 1.3, "omega": 0.7}, "environment": {"lambda": 0.9, "D_xx": 0.6, '
        '"D_xpx": 0.0, "D_pxpx": 0.6, "D_xy": 0.0, "D_xpy": 0.3, "D_pxpy": 0.04}, '
        '"initial_state": "vacuum", "validation": "strict", "time_grid": {"t_start": 0.0, '
        '"t_end": 1.0, "n_points": 3}, "sweep": {"axis1": {"coefficient": "D_xx", "min": 0.5, '
        '"max": 1.5, "n": 11}, "axis2": {"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": 3}, '
        '"scaling": "raw"}}',
        '# config: {"environment":{"D_pxpx":0.6,"D_pxpy":0.04,"D_xpx":0.0,"D_xpy":0.3,"D_xx":0.6,'
        '"D_xy":0.0,"lambda":0.9},"initial_state":"vacuum","oscillator":{"m":1.3,"omega":0.7},'
        '"sweep":{"axis1":{"coefficient":"D_xx","max":1.5,"min":0.5,"n":11},"axis2":'
        '{"coefficient":"D_xpy","max":2.0,"min":0.0,"n":3},"scaling":"raw"},"time_grid":'
        '{"n_points":3,"t_end":1.0,"t_start":0.0},"validation":"strict"}',
        id="reduced",
    ),
    pytest.param(
        {
            "environment": {
                "D_pypy": 0.85, "D_ypy": 0.03, "D_yy": 0.75, "D_ypx": 0.12, "lambda": 0.9,
                "D_xx": 0.7, "D_xpx": 0.02, "D_xy": 0.05, "D_xpy": 0.1, "D_pxpx": 0.8,
                "D_pxpy": 0.04,
            },
            "oscillator": {"omega": 0.7, "m": 1.3},
            "validation": "lenient",
            "initial_state": [
                [0.9, 0.1, 0.05, 0.0],
                [0.1, 0.6, 0.0, -0.02],
                [0.05, 0.0, 0.8, 0.07],
                [0.0, -0.02, 0.07, 0.5],
            ],
        },
        '{"oscillator": {"m": 1.3, "omega": 0.7}, "environment": {"lambda": 0.9, "D_xx": 0.7, '
        '"D_xpx": 0.02, "D_xy": 0.05, "D_xpy": 0.1, "D_ypx": 0.12, "D_pxpx": 0.8, "D_yy": 0.75, '
        '"D_ypy": 0.03, "D_pxpy": 0.04, "D_pypy": 0.85}, "initial_state": [[0.9, 0.1, 0.05, 0.0], '
        '[0.1, 0.6, 0.0, -0.02], [0.05, 0.0, 0.8, 0.07], [0.0, -0.02, 0.07, 0.5]], '
        '"validation": "lenient"}',
        '# config: {"environment":{"D_pxpx":0.8,"D_pxpy":0.04,"D_pypy":0.85,"D_xpx":0.02,'
        '"D_xpy":0.1,"D_xx":0.7,"D_xy":0.05,"D_ypx":0.12,"D_ypy":0.03,"D_yy":0.75,"lambda":0.9},'
        '"initial_state":[[0.9,0.1,0.05,0.0],[0.1,0.6,0.0,-0.02],[0.05,0.0,0.8,0.07],'
        '[0.0,-0.02,0.07,0.5]],"oscillator":{"m":1.3,"omega":0.7},"validation":"lenient"}',
        id="ten-coefficient",
    ),
]


@pytest.mark.parametrize("payload, echo, csv_line", ECHO_TEXTS)
def test_config_echo_text(tmp_path, capsys, payload, echo, csv_line):
    # Key order included: the golden JSON comparison parses the echo and cannot see it.
    assert json.dumps(config_to_dict(parse_config(payload))) == echo
    main(["validate", "--config", write_config(tmp_path, payload)])
    assert csv_line in capsys.readouterr().out.splitlines()


def test_readme_config_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = json.loads(re.search(r"Config schema:\s*```json\n(.*?)```", readme, re.S)[1])
    assert parse_config(example).sweep.axis1.coefficient == "D_xx"
    # the axes README shows are the defaults of an empty sweep section
    defaults = config_to_dict(parse_config(dict(example, sweep={})))
    assert defaults["sweep"] == example["sweep"]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_config_flag(self, capsys):
        assert main(["validate"]) == 1

    def test_unreadable_config(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 1

    @pytest.mark.parametrize("command", ["validate", "steady-state", "evolve", "sweep"])
    def test_config_that_is_not_utf8(self, tmp_path, capsys, command):
        # a \xff byte is no UTF-8; the file is read as UTF-8 whatever the locale
        path = tmp_path / "config.json"
        data = b'{"oscillator": {"m": 1.0, "omega": 1.0}, "note": "\xff"}'
        path.write_bytes(data)
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read config file {str(path)!r}: 'utf-8' codec can't decode "
            f"byte 0xff in position {data.index(0xFF)}: invalid start byte\n"
        )

    def test_config_in_utf8_is_read_as_utf8(self, tmp_path, capsys):
        # a non-ASCII key is read as written: the error names it
        path = tmp_path / "config.json"
        payload = dict(REFERENCE_CONFIG, environment={"lambda": 1.0, "D_\u00e9": 0.5})
        path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
        assert main(["validate", "--config", str(path)]) == 1
        assert "D_\u00e9" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "steady-state", "evolve"])
    def test_jobs_is_an_option_of_sweep_alone(self, tmp_path, capsys, command):
        # sweep accepts --jobs and ignores it; the other commands do not know it
        sweep = sweep_config(axis1={"n": 2}, axis2={"n": 2})["sweep"]
        time_grid = {"t_start": 0.0, "t_end": 1.0, "n_points": 3}
        path = write_config(tmp_path, dict(REFERENCE_CONFIG, sweep=sweep, time_grid=time_grid))
        assert main([command, "--config", path]) == 0
        assert main(["sweep", "--config", path, "--jobs", "1"]) == 0
        capsys.readouterr()
        assert main([command, "--config", path, "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --jobs 1" in captured.err


class TestErrorContract:
    """Inputs that used to escape as a raw exception: one `error:` line, no traceback."""

    @staticmethod
    def run(tmp_path, capsys, command, text):
        path = tmp_path / "config.json"
        path.write_text(text)
        code = main([command, "--config", str(path)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        return code, err

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        text = '{"oscillator": {"m": 1, "omega": 1}, "environment": {"lambda": 1%s}}'
        code, err = self.run(tmp_path, capsys, "validate", text % ("0" * 400))
        assert code == 1 and "environment.lambda" in err

    def test_integer_beyond_the_digit_limit(self, tmp_path, capsys):
        text = '{"oscillator": {"m": 1, "omega": 1}, "environment": {"lambda": 1%s}}'
        code, _ = self.run(tmp_path, capsys, "validate", text % ("0" * 5000))
        assert code == 1

    def test_initial_state_entry_too_large(self, tmp_path, capsys):
        payload = dict(
            REFERENCE_CONFIG,
            initial_state=[[10**400, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            time_grid={"t_start": 0.0, "t_end": 1.0, "n_points": 3},
        )
        code, err = self.run(tmp_path, capsys, "evolve", json.dumps(payload))
        assert code == 1 and "initial_state" in err

    def test_steady_state_overflow(self, tmp_path, capsys):
        payload = dict(
            REFERENCE_CONFIG,
            environment={"lambda": 1e-300, "D_xx": 1e300, "D_pxpx": 1e300},
        )
        code, err = self.run(tmp_path, capsys, "steady-state", json.dumps(payload))
        assert code == 2 and "overflows" in err

    def test_evolve_without_damping(self, tmp_path, capsys):
        payload = dict(
            REFERENCE_CONFIG,
            environment={**REFERENCE_CONFIG["environment"], "lambda": 0.0},
            time_grid={"t_start": 0.0, "t_end": 1.0, "n_points": 3},
        )
        code, err = self.run(tmp_path, capsys, "evolve", json.dumps(payload))
        assert code == 2 and "no steady state" in err

    def test_validate_huge_lambda(self, tmp_path, capsys):
        payload = dict(REFERENCE_CONFIG, environment={"lambda": 1e300, "D_xx": 0.6})
        assert main(["validate", "--config", write_config(tmp_path, payload)]) == 2
        out = capsys.readouterr().out
        assert "cs_xx_pxpx" in out

    def test_missing_oscillator_section(self, tmp_path, capsys):
        payload = {"environment": REFERENCE_CONFIG["environment"]}
        code, err = self.run(tmp_path, capsys, "validate", json.dumps(payload))
        assert code == 1 and "missing required key 'oscillator'" in err

    @pytest.mark.parametrize(
        "oscillator, environment",
        [
            (
                {"m": 1.0, "omega": 1.0},
                {"lambda": 1.0, "D_xx": 1e160, "D_pxpx": 1e160, "D_xpy": 1e150},
            ),
            ({"m": 1.0, "omega": 1e200}, REFERENCE_CONFIG["environment"]),
            # sigma_inf ~ 6e99 is finite, det sigma ~ 7e398 is not
            (
                {"m": 1.0, "omega": 1.0},
                {"lambda": 1e200, "D_xx": 6e299, "D_pxpx": 6e299, "D_xpy": 3e299},
            ),
            ({"m": 1.0, "omega": 1e-160}, REFERENCE_CONFIG["environment"]),
        ],
        ids=["huge_diffusion", "omega_squared_overflows", "huge_lambda", "subnormal_spring"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_steady_state_non_finite_report(
        self, tmp_path, capsys, oscillator, environment, fmt
    ):
        payload = dict(REFERENCE_CONFIG, oscillator=oscillator, environment=environment)
        path = write_config(tmp_path, payload)
        code = main(["steady-state", "--config", path, "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: ") and len(captured.err.splitlines()) == 1
        assert "double" in captured.err and "precision" in captured.err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_steady_state_overflowing_invariants(self, tmp_path, capsys, fmt):
        # sigma_inf is finite (sigma_xy = 1e308, C solved once, no symmetrized
        # sum); the report's invariants are not
        environment = {"lambda": 0.3, "D_xpy": 1e307}
        payload = dict(REFERENCE_CONFIG, oscillator={"m": 1.0, "omega": 0.1}, environment=environment)
        code = main(["steady-state", "--config", write_config(tmp_path, payload), "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "error: covariance invariants overflow double precision\n"

    def test_steady_state_tiny_lambda(self, tmp_path, capsys):
        # sigma_inf ~ 0.6 / lambda = 6e169: its invariants overflow
        environment = {"lambda": 1e-170, "D_xx": 0.6, "D_pxpx": 0.6, "D_xpy": 0.3}
        path = write_config(tmp_path, dict(REFERENCE_CONFIG, environment=environment))
        for fmt in ("csv", "json"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["steady-state", "--config", path, "--format", fmt])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")

    def test_steady_state_is_silent_when_barely_damped(self, tmp_path, capsys):
        # sigma_inf ~ 1/lambda loses no precision: the solve and the closed form agree
        environment = {**REFERENCE_CONFIG["environment"], "lambda": 1e-7}
        path = write_config(tmp_path, dict(REFERENCE_CONFIG, environment=environment))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["steady-state", "--config", path, "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        payload = strict_json(captured.out)
        largest = np.abs(payload["sigma_infinity"]).max()
        assert payload["closed_form_max_diff"] <= 1e-9 * largest
        report = payload["report"]
        assert report["verdict"] == ("entangled" if report["s_general"] < 0 else "separable")

    def test_sweep_overflowing_s_is_strict_json(self, tmp_path, capsys):
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 1e160, "max": 2e160, "n": 3},
            axis2={"coefficient": "D_xpy", "min": 0.0, "max": 1e150, "n": 3},
            scaling="raw",
            environment={"lambda": 1.0, "D_pxpx": 1e160},
        )
        path = write_config(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = strict_json(captured.out)
        columns = payload["columns"]
        rows = [dict(zip(columns, row)) for row in payload["rows"]]
        assert all(row["S_general"] is None and row["verdict"] is None for row in rows)
        assert main(["sweep", "--config", path]) == 0
        for row in parse_csv(capsys.readouterr().out):
            assert row["S_general"] == "" and row["verdict"] == ""

    @pytest.mark.parametrize("command", ["validate", "steady-state", "evolve", "sweep"])
    @pytest.mark.parametrize(
        "axis, coefficient", [("axis1", ["D_xx"]), ("axis2", {"D_xpy": 1}), ("axis1", 5)]
    )
    def test_non_string_axis_coefficient(self, tmp_path, capsys, command, axis, coefficient):
        # a list or object used to escape as "TypeError: unhashable type"
        payload = dict(REFERENCE_CONFIG, sweep={axis: {"coefficient": coefficient}})
        code, err = self.run(tmp_path, capsys, command, json.dumps(payload))
        assert code == 1
        assert err == f"error: sweep.{axis}.coefficient: expected a string, got {coefficient!r}\n"

    @pytest.mark.parametrize("n_points", [10**30, MAX_GRID_POINTS + 1])
    def test_time_grid_size_limit(self, tmp_path, capsys, n_points):
        payload = dict(
            REFERENCE_CONFIG, time_grid={"t_start": 0.0, "t_end": 1.0, "n_points": n_points}
        )
        code, err = self.run(tmp_path, capsys, "evolve", json.dumps(payload))
        assert code == 1 and "time_grid.n_points" in err

    @pytest.mark.parametrize(
        "counts", [(10**30, 21), (101, 9901)], ids=["huge", "limit_plus_one"]
    )
    def test_sweep_grid_size_limit(self, tmp_path, capsys, counts):
        assert counts[0] * counts[1] > MAX_GRID_POINTS
        cfg = sweep_config(
            axis1={"coefficient": "D_xx", "min": 0.5, "max": 1.5, "n": counts[0]},
            axis2={"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": counts[1]},
        )
        code, err = self.run(tmp_path, capsys, "sweep", json.dumps(cfg))
        assert code == 1 and "axis1.n * axis2.n" in err

    def test_grid_size_limit_is_inclusive(self):
        cfg = parse_config(
            dict(
                sweep_config(
                    axis1={"coefficient": "D_xx", "min": 0.5, "max": 1.5, "n": 1000},
                    axis2={"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": 1000},
                ),
                time_grid={"t_start": 0.0, "t_end": 1.0, "n_points": MAX_GRID_POINTS},
            )
        )
        assert cfg.time_grid.n_points == MAX_GRID_POINTS
        assert cfg.sweep.axis1.n * cfg.sweep.axis2.n == MAX_GRID_POINTS


def malformed(**sections):
    """REFERENCE_CONFIG with whole sections replaced; a None value drops the section."""
    payload = dict(REFERENCE_CONFIG, **sections)
    return {key: value for key, value in payload.items() if value is not None}


GRID = {"t_start": 0.0, "t_end": 1.0, "n_points": 3}
ENV = REFERENCE_CONFIG["environment"]

# (subcommand, config, the exact stderr line): one row for each ConfigError
# raise site of the config reader and the subcommands.
CONFIG_ERRORS = [
    pytest.param(
        "validate", [1], "error: config: expected an object", id="config-not-object"
    ),
    pytest.param(
        "validate", malformed(extra=1), "error: config: unknown key(s) extra", id="config-unknown"
    ),
    pytest.param(
        "validate",
        malformed(environment=None),
        "error: config: missing required key 'environment'",
        id="config-missing-environment",
    ),
    pytest.param(
        "validate",
        malformed(oscillator=[1.0, 1.0]),
        "error: oscillator: expected an object",
        id="oscillator-not-object",
    ),
    pytest.param(
        "validate",
        malformed(oscillator={"m": 1.0, "omega": 1.0, "k": 2.0}),
        "error: oscillator: unknown key(s) k",
        id="oscillator-unknown",
    ),
    pytest.param(
        "validate",
        malformed(oscillator={"m": 1.0}),
        "error: oscillator: missing required key 'omega'",
        id="oscillator-missing-omega",
    ),
    pytest.param(
        "validate",
        malformed(oscillator={"m": "1", "omega": 1.0}),
        "error: oscillator.m: expected a number, got '1'",
        id="oscillator-string-m",
    ),
    pytest.param(
        "validate",
        malformed(oscillator={"m": 1.0, "omega": True}),
        "error: oscillator.omega: expected a number, got True",
        id="oscillator-bool-omega",
    ),
    pytest.param(
        "validate",
        malformed(oscillator={"m": 0, "omega": 1.0}),
        "error: oscillator: m must be positive and finite, got 0.0",
        id="oscillator-zero-m",
    ),
    pytest.param(
        "validate",
        malformed(environment={"D_xx": 0.6}),
        "error: environment: missing required key 'lambda'",
        id="environment-missing-lambda",
    ),
    pytest.param(
        "validate",
        malformed(environment={**ENV, "D_xx": None}),
        "error: environment.D_xx: expected a number, got None",
        id="environment-null-coefficient",
    ),
    pytest.param(
        "validate",
        malformed(environment={**ENV, "lambda": 10**400}),
        "error: environment.lambda: integer too large for a float",
        id="environment-integer-too-large",
    ),
    pytest.param(
        "validate",
        malformed(environment={**ENV, "lambda": math.inf}),
        "error: environment: lam must be finite, got inf",
        id="environment-infinite-lambda",
    ),
    pytest.param(
        "validate",
        malformed(environment={**ENV, "D_yy": 0.6, "D_ypx": 0.3}),
        "error: environment: provide all of D_ypx, D_yy, D_ypy, D_pypy or none "
        "(missing D_pypy, D_ypy)",
        id="environment-mixed-y-keys",
    ),
    pytest.param(
        "validate",
        malformed(initial_state="thermal"),
        'error: initial_state: expected "vacuum" or a 4x4 array',
        id="initial-state-name",
    ),
    pytest.param(
        "validate",
        malformed(initial_state=[[1.0, 0.0], [0.0, 1.0]]),
        "error: initial_state: matrix must be 4x4 (row-major)",
        id="initial-state-shape",
    ),
    pytest.param(
        "validate",
        malformed(initial_state=[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, "1"]]),
        "error: initial_state: expected a number, got '1'",
        id="initial-state-entry",
    ),
    pytest.param(
        "validate",
        # the first failing entry in row-major order is the one reported
        malformed(initial_state=[[1, 10**400, "1", 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
        "error: initial_state: integer too large for a float",
        id="initial-state-first-failing-entry",
    ),
    pytest.param(
        "evolve",
        # json.loads takes the NaN and Infinity literals; the reader refuses them
        malformed(
            initial_state=[[1, 0, 0, 0], [0, math.nan, 0, 0], [0, 0, "1", 0], [0, 0, 0, 1]],
            time_grid=GRID,
        ),
        "error: initial_state: entries must be finite, got nan",
        id="initial-state-nan",
    ),
    pytest.param(
        "evolve",
        malformed(
            initial_state=[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -math.inf]],
            time_grid=GRID,
        ),
        "error: initial_state: entries must be finite, got -inf",
        id="initial-state-infinity",
    ),
    pytest.param(
        "validate",
        malformed(validation="loose"),
        "error: validation: expected 'strict' or 'lenient', got 'loose'",
        id="validation-mode",
    ),
    pytest.param(
        "validate",
        malformed(time_grid={**GRID, "dt": 0.1}),
        "error: time_grid: unknown key(s) dt",
        id="time-grid-unknown",
    ),
    pytest.param(
        "validate",
        malformed(time_grid={"t_start": 0.0, "t_end": 1.0}),
        "error: time_grid: missing required key 'n_points'",
        id="time-grid-missing-n-points",
    ),
    pytest.param(
        "validate",
        malformed(time_grid={**GRID, "n_points": 3.0}),
        "error: time_grid.n_points: expected an integer, got 3.0",
        id="time-grid-float-n-points",
    ),
    pytest.param(
        "validate",
        malformed(time_grid={**GRID, "n_points": False}),
        "error: time_grid.n_points: expected an integer, got False",
        id="time-grid-bool-n-points",
    ),
    pytest.param(
        "validate",
        malformed(time_grid={**GRID, "t_start": -1}),
        "error: time_grid.t_start: must be >= 0, got -1.0",
        id="time-grid-negative-start",
    ),
    pytest.param(
        "validate",
        malformed(time_grid={**GRID, "t_end": 0.0}),
        "error: time_grid.t_end: must exceed t_start, got 0.0",
        id="time-grid-empty",
    ),
    pytest.param(
        "validate",
        malformed(time_grid={**GRID, "n_points": 1}),
        f"error: time_grid.n_points: must be between 2 and {MAX_GRID_POINTS}, got 1",
        id="time-grid-one-point",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"scaling": "log"}),
        "error: sweep.scaling: expected 'raw' or 'scaled', got 'log'",
        id="sweep-scaling",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis3": {}}),
        "error: sweep: unknown key(s) axis3",
        id="sweep-unknown",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis1": "D_xx"}),
        "error: sweep.axis1: expected an object",
        id="axis-not-object",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis1": None}),
        "error: sweep.axis1: expected an object",
        id="axis1-null",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis2": None}),
        "error: sweep.axis2: expected an object",
        id="axis2-null",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis2": {"step": 0.1}}),
        "error: sweep.axis2: unknown key(s) step",
        id="axis-unknown",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis1": {"coefficient": "lambda"}}),
        "error: sweep.axis1.coefficient: unknown coefficient 'lambda'",
        id="axis-lambda-coefficient",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis2": {"coefficient": "D_zz"}}),
        "error: sweep.axis2.coefficient: unknown coefficient 'D_zz'",
        id="axis-unknown-coefficient",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis1": {"min": "0"}}),
        "error: sweep.axis1.min: expected a number, got '0'",
        id="axis-string-min",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis2": {"n": 2.5}}),
        "error: sweep.axis2.n: expected an integer, got 2.5",
        id="axis-float-n",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis1": {"min": 2.0, "max": 1.0}}),
        "error: sweep.axis1: need finite min < max, got [2.0, 1.0]",
        id="axis-reversed-bounds",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis2": {"max": -(10**400)}}),
        "error: sweep.axis2.max: integer too large for a float",
        id="axis-integer-too-large",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis1": {"n": 1}}),
        "error: sweep.axis1.n: must be >= 2, got 1",
        id="axis-one-point",
    ),
    pytest.param(
        "validate",
        malformed(sweep={"axis1": {"n": 1001}, "axis2": {"n": 1000}}),
        f"error: sweep: axis1.n * axis2.n must be at most {MAX_GRID_POINTS}, got 1001000",
        id="sweep-too-large",
    ),
    pytest.param(
        "evolve",
        malformed(),
        "error: evolve requires a time_grid section in the config",
        id="evolve-without-grid",
    ),
    pytest.param(
        "sweep",
        malformed(),
        "error: sweep requires a sweep section in the config",
        id="sweep-without-section",
    ),
    pytest.param(
        "sweep",
        malformed(
            environment={**ENV, "D_ypx": 0.3, "D_yy": 0.5, "D_ypy": 0.0, "D_pypy": 0.6},
            sweep={},
        ),
        "error: sweep requires a symmetric base environment (mirrored y-mode coefficients)",
        id="sweep-asymmetric-base",
    ),
    pytest.param(  # mirrored means exactly equal: no absolute floor below 1
        "sweep",
        malformed(
            environment={**ENV, "D_ypx": 0.3, "D_yy": 0.6000000000001, "D_ypy": 0.0, "D_pypy": 0.6},
            sweep={},
        ),
        "error: sweep requires a symmetric base environment (mirrored y-mode coefficients)",
        id="sweep-nearly-mirrored-base",
    ),
    pytest.param(
        "sweep",
        malformed(environment={**ENV, "D_xy": 0.1}, sweep={}),
        "error: sweep requires D_xy = 0 in the base environment",
        id="sweep-position-cross",
    ),
    pytest.param(
        "sweep",
        malformed(environment={**ENV, "D_xy": 1e-13}, sweep={}),
        "error: sweep requires D_xy = 0 in the base environment",
        id="sweep-tiny-position-cross",
    ),
    pytest.param(
        "sweep",
        malformed(sweep={"axis2": {"coefficient": "D_pxpx"}}),
        "error: scaled sweeps run over axis1=D_xx and axis2=D_xpy (got 'D_xx', 'D_pxpx')",
        id="sweep-scaled-axes",
    ),
    pytest.param(
        "sweep",
        malformed(environment={**ENV, "D_xpx": 0.1}, sweep={}),
        "error: scaled sweeps require D_xpx = 0 and D_pxpy = 0 in the base environment",
        id="sweep-scaled-base",
    ),
    pytest.param(
        "sweep",
        malformed(environment={**ENV, "D_pxpy": 1e-13}, sweep={}),
        "error: scaled sweeps require D_xpx = 0 and D_pxpy = 0 in the base environment",
        id="sweep-tiny-scaled-base",
    ),
    pytest.param(
        "sweep",
        malformed(sweep={"axis1": {"coefficient": "D_yy"}, "scaling": "raw"}),
        "error: raw sweeps accept coefficients "
        "['D_pxpx', 'D_pxpy', 'D_xpx', 'D_xpy', 'D_xx', 'D_xy'], got 'D_yy'",
        id="sweep-raw-coefficient",
    ),
]


@pytest.mark.parametrize("command, payload, line", CONFIG_ERRORS)
def test_config_error_contract(tmp_path, capsys, command, payload, line):
    code = main([command, "--config", write_config(tmp_path, payload)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", line + "\n")


def test_invalid_json_names_the_position(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"oscillator": }')
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid JSON in {str(path)!r} at line 1, column 16: Expecting value\n"
    )


def extreme_numbers():
    """Finite doubles across the whole exponent range, plus a few plain values."""
    magnitudes = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
    signed = st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda t: t[0] * t[1])
    return st.one_of(st.sampled_from([0.0, 0.3, 1.0]), signed)


@st.composite
def extreme_configs(draw):
    positive = extreme_numbers().map(abs).filter(lambda x: x > 0.0)
    environment = {"lambda": draw(st.one_of(positive, extreme_numbers()))}
    for key in ("D_xx", "D_xpx", "D_pxpx", "D_xy", "D_xpy", "D_pxpy"):
        if draw(st.booleans()):
            environment[key] = draw(extreme_numbers())
    axes = [
        {"coefficient": name, "min": -draw(positive), "max": draw(positive), "n": 3}
        for name in ("D_xx", "D_xpy")
    ]
    return {
        "oscillator": {"m": draw(positive), "omega": draw(positive)},
        "environment": environment,
        "time_grid": {"t_start": 0.0, "t_end": draw(positive), "n_points": 3},
        "sweep": {
            "axis1": axes[0],
            "axis2": axes[1],
            "scaling": draw(st.sampled_from(["raw", "scaled"])),
        },
    }


def run_to(command, path, fmt, target=None):
    """Exit code and what the run wrote (to stdout, or to `target` with --output)."""
    argv = [command, "--config", str(path), "--format", fmt]
    if target is not None:
        argv += ["--output", str(target)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if target is None:
        return code, out.getvalue(), err.getvalue()
    assert out.getvalue() == ""
    written = target.read_text() if target.exists() else None
    target.unlink(missing_ok=True)
    return code, written, err.getvalue()


# Both span several write blocks of 1,024 rows.
_PROCESS_CONFIG = dict(
    REFERENCE_CONFIG,
    time_grid={"t_start": 0.0, "t_end": 5.0, "n_points": 1500},
    sweep={
        "axis1": {"coefficient": "D_xx", "min": 0.25, "max": 1.5, "n": 41},
        "axis2": {"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": 31},
    },
)


class TestProcess:
    """The CLI as its own process, in development mode, where an unclosed file
    or an exception ignored at shutdown is written to stderr."""

    @staticmethod
    def spawn(argv):
        env = dict(os.environ)
        src = str(Path(twomode.__file__).parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-X", "dev", "-m", "twomode.cli", *argv], env=env, capture_output=True
        )

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["sweep", "evolve"])
    def test_a_pipe_and_a_file_get_the_same_bytes(self, tmp_path, command, fmt):
        argv = [command, "--config", write_config(tmp_path, _PROCESS_CONFIG), "--format", fmt]
        piped = self.spawn(argv)
        target = tmp_path / f"out.{fmt}"
        written = self.spawn([*argv, "--output", str(target)])
        for done in (piped, written):
            assert (done.returncode, done.stderr) == (0, b"")
        assert written.stdout == b""
        assert piped.stdout == target.read_bytes()
        # and the bytes an in-process run writes
        assert run_to(command, argv[2], fmt) == (0, piped.stdout.decode(), "")


@settings(max_examples=60, deadline=None)
@given(config=extreme_configs())
def test_extreme_coefficients_keep_the_error_contract(config):
    # Every subcommand exits 0, 1 or 2 without an exception, and its JSON
    # output is strict, for any finite coefficients; a failed run writes
    # nothing to stdout or to --output.
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(config))
        for command in ("validate", "steady-state", "evolve", "sweep"):
            for fmt in ("csv", "json"):
                for target in (None, Path(workdir) / "out"):
                    code, written, _ = run_to(command, path, fmt, target)
                    assert code in (0, 1, 2)
                    # not even the file is created; validate's exit 2 is a report
                    if code != 0 and not (command == "validate" and code == 2):
                        assert not written
                    if fmt == "json" and written:
                        strict_json(written)


# One config per subcommand whose numbers overflow.  In either format the run
# exits 2 with one `error:` line and writes nothing.
_OVERFLOWS = {
    # the strict Gram matrix overflows: its smallest eigenvalue is -inf
    "validate": dict(
        REFERENCE_CONFIG,
        environment={"lambda": 1.0, "D_xx": -1.7e308, "D_pxpx": 1.7e308, "D_xy": 1.7e308},
    ),
    "steady-state": dict(
        REFERENCE_CONFIG,
        environment={"lambda": 1.0, "D_xx": 1e160, "D_pxpx": 1e160, "D_xpy": 1e150},
    ),
    # sigma(t) overflows: some sigma and max_abs_dev cells would read inf or nan
    "evolve": dict(
        REFERENCE_CONFIG,
        oscillator={"m": 1.0, "omega": 1000.0},
        initial_state=[[1e307 * (i == j) for j in range(4)] for i in range(4)],
        time_grid={"t_start": 0.0, "t_end": 1.0, "n_points": 8193},  # over two row blocks
    ),
    # D_xpy = axis2 sqrt(lambda^2 + omega^2) reaches 1e308 x 1e300
    "sweep": sweep_config(
        axis1={"coefficient": "D_xx", "min": 0.5, "max": 1.5, "n": 3},
        axis2={"coefficient": "D_xpy", "min": 0.0, "max": 1e308, "n": 3},
        environment={"lambda": 1e300},
    ),
}


@pytest.mark.parametrize("command", list(_OVERFLOWS))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_overflow_writes_nothing(tmp_path, command, fmt):
    path = write_config(tmp_path, _OVERFLOWS[command])
    csv_error = run_to(command, path, "csv")[2]
    for target in (None, tmp_path / "out"):
        code, written, err = run_to(command, path, fmt, target)
        assert code == 2 and written in ("", None)
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "double precision" in err
        assert err == csv_error  # the same line in either format


FULL_CONFIG = {
    "oscillator": {"m": 1.3, "omega": 0.7},
    "environment": {"lambda": 0.9, "D_xx": 0.6, "D_pxpx": 0.6, "D_xpy": 0.3},
    "initial_state": [
        [0.9, 0.1, 0.05, 0.0],
        [0.1, 0.6, 0.0, -0.02],
        [0.05, 0.0, 0.8, 0.07],
        [0.0, -0.02, 0.07, 0.5],
    ],
    "validation": "strict",
    "time_grid": {"t_start": 0.0, "t_end": 1.0, "n_points": 3},
    "sweep": {
        "axis1": {"coefficient": "D_xx", "min": 0.5, "max": 1.5, "n": 3},
        "axis2": {"coefficient": "D_xpy", "min": 0.0, "max": 2.0, "n": 3},
        "scaling": "scaled",
    },
}


def json_nodes(node, path=()):
    """(path, node) for every node of a decoded JSON document, the root included."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from json_nodes(child, (*path, key))


_NODES = list(json_nodes(FULL_CONFIG))
_REPLACEMENTS = [None, True, "x", [], {}, [[1]], 10**400]


@st.composite
def mutated_configs(draw):
    """FULL_CONFIG with one node deleted, given an unknown key, or replaced."""
    path, node = draw(st.sampled_from(_NODES))
    actions = ["replace"] + ["delete"] * bool(path) + ["unknown"] * isinstance(node, dict)
    action = draw(st.sampled_from(actions))
    doc = json.loads(json.dumps(FULL_CONFIG))
    if action == "unknown":
        target = doc
        for key in path:
            target = target[key]
        target["zz_unknown"] = 1
        return doc
    value = draw(st.sampled_from(_REPLACEMENTS))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if action == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@settings(max_examples=150, deadline=None)
@given(config=mutated_configs())
def test_malformed_configs_keep_the_error_contract(config):
    # Exit 0, 1 or 2 with no exception; a failure is one `error:` line, except
    # validate's exit 2, which reports the failed checks; JSON output is strict.
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(config))
        for command in ("validate", "steady-state", "evolve", "sweep"):
            for fmt in ("csv", "json"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(path), "--format", fmt])
                assert code in (0, 1, 2)
                if code == 0 or (command == "validate" and code == 2 and out.getvalue()):
                    assert err.getvalue() == ""
                else:
                    lines = err.getvalue().splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error: ")
                    assert out.getvalue() == ""
                if fmt == "json" and out.getvalue():
                    strict_json(out.getvalue())
