import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twomode import (
    EnvironmentParams,
    OscillatorParams,
    SymmetricEnvironmentParams,
    build_diffusion_matrix,
    build_drift_matrix,
    build_gram_matrix,
    check_state_covariance,
    is_hurwitz,
    is_symmetric_environment,
    make_vacuum_covariance,
    validate_environment,
)

from support import random_symmetric_env


# The paper's symmetric environment class: (y-mode field, the x-mode field it equals).
MIRRORED_PAIRS = (("d_yy", "d_xx"), ("d_ypy", "d_xpx"), ("d_pypy", "d_pxpx"), ("d_ypx", "d_xpy"))


class TestParams:
    def test_oscillator_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            OscillatorParams(m=0.0, omega=1.0)
        with pytest.raises(ValueError):
            OscillatorParams(m=1.0, omega=-2.0)
        with pytest.raises(ValueError):
            OscillatorParams(m=math.nan, omega=1.0)

    def test_environment_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EnvironmentParams(lam=math.inf)
        with pytest.raises(ValueError):
            EnvironmentParams(lam=1.0, d_xy=math.nan)
        # lam <= 0 is a validation matter, not a construction error
        EnvironmentParams(lam=-1.0)

    def test_symmetric_environment_mirrors_exactly(self):
        env = SymmetricEnvironmentParams(
            lam=0.8, d_xx=0.2, d_xpx=0.05, d_pxpx=0.3, d_xy=0.01, d_xpy=0.07, d_pxpy=0.02
        )
        assert env.d_yy == env.d_xx
        assert env.d_ypy == env.d_xpx
        assert env.d_pypy == env.d_pxpx
        assert env.d_ypx == env.d_xpy
        assert is_symmetric_environment(env)

    @settings(max_examples=100, deadline=None)
    @given(
        reduced=st.lists(st.tuples(*[st.floats(-1e300, 1e300)] * 6), min_size=1, max_size=4),
        stacked=st.booleans(),
        data=st.data(),
    )
    def test_mirror_relation(self, reduced, stacked, data):
        envs = [SymmetricEnvironmentParams(0.5, *row) for row in reduced]
        for env in envs:
            for y, x in MIRRORED_PAIRS:
                assert getattr(env, y) == getattr(env, x)
        if stacked:  # array coefficients, one environment per element
            values = {f.name: np.array([getattr(e, f.name) for e in envs]) for f in fields(envs[0])}
            mirrored = is_symmetric_environment(SimpleNamespace(**values))
            assert mirrored.tolist() == [True] * len(envs)
        else:
            values = {f.name: getattr(envs[0], f.name) for f in fields(envs[0])}
            assert is_symmetric_environment(envs[0]) is True
        # Perturbing any one y-field by 1e-9 relative (of max(|value|, 1)) breaks the mirror.
        y, _ = data.draw(st.sampled_from(MIRRORED_PAIRS))
        if stacked:
            index = data.draw(st.integers(0, len(envs) - 1))
            values[y][index] += 1e-9 * max(abs(values[y][index]), 1.0)
            expected = [i != index for i in range(len(envs))]
            assert is_symmetric_environment(SimpleNamespace(**values)).tolist() == expected
        else:
            values[y] += 1e-9 * max(abs(values[y]), 1.0)
            assert is_symmetric_environment(EnvironmentParams(**values)) is False

    def test_asymmetric_environment_detected(self):
        env = EnvironmentParams(lam=1.0, d_xx=0.5, d_yy=0.4)
        assert not is_symmetric_environment(env)


class TestDriftMatrix:
    def test_reference_point(self):
        y = build_drift_matrix(OscillatorParams(1.0, 1.0), EnvironmentParams(lam=1.0))
        expected = np.array(
            [[-1, 1, 0, 0], [-1, -1, 0, 0], [0, 0, -1, 1], [0, 0, -1, -1]], dtype=float
        )
        np.testing.assert_array_equal(y, expected)

    def test_rotation_generator_at_zero_damping(self):
        y = build_drift_matrix(OscillatorParams(2.0, 0.5), EnvironmentParams(lam=0.0))
        np.testing.assert_array_equal(y[:2, :2], [[0.0, 0.5], [-0.5, 0.0]])
        np.testing.assert_array_equal(y[2:, 2:], y[:2, :2])

    def test_half_damping_block(self):
        y = build_drift_matrix(OscillatorParams(1.0, 1.0), EnvironmentParams(lam=0.5))
        np.testing.assert_array_equal(y[:2, :2], [[-0.5, 1.0], [-1.0, -0.5]])

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.floats(0.1, 10.0),
        omega=st.floats(0.1, 10.0),
        lam=st.floats(0.0, 3.0),
    )
    def test_eigenvalues_are_damped_rotations(self, m, omega, lam):
        y = build_drift_matrix(OscillatorParams(m, omega), EnvironmentParams(lam=lam))
        eigs = np.sort_complex(np.linalg.eigvals(y))
        expected = np.sort_complex(
            np.array([-lam - 1j * omega, -lam - 1j * omega, -lam + 1j * omega, -lam + 1j * omega])
        )
        assert np.abs(eigs - expected).max() <= 1e-10


class TestDiffusionMatrix:
    def test_zero_environment(self):
        np.testing.assert_array_equal(
            build_diffusion_matrix(EnvironmentParams(lam=0.0)), np.zeros((4, 4))
        )

    def test_symmetric_placement(self):
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=0.6, d_pxpx=0.6, d_xpy=0.3)
        d = build_diffusion_matrix(env)
        np.testing.assert_array_equal(np.diag(d), [0.6, 0.6, 0.6, 0.6])
        assert d[0, 3] == d[3, 0] == 0.3
        assert d[1, 2] == d[2, 1] == 0.3
        zeroed = d.copy()
        zeroed[[0, 3, 1, 2], [3, 0, 2, 1]] = 0.0
        np.testing.assert_array_equal(zeroed - np.diag(np.diag(zeroed)), np.zeros((4, 4)))

    def test_position_cross_placement(self):
        d = build_diffusion_matrix(EnvironmentParams(lam=0.0, d_xy=0.1))
        expected = np.zeros((4, 4))
        expected[0, 2] = expected[2, 0] = 0.1
        np.testing.assert_array_equal(d, expected)

    def test_always_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = build_diffusion_matrix(random_symmetric_env(rng))
            np.testing.assert_array_equal(d, d.T)


class TestGramMatrix:
    def test_zero_environment(self):
        np.testing.assert_array_equal(
            build_gram_matrix(EnvironmentParams(lam=0.0)), np.zeros((4, 4), complex)
        )

    def test_hermitian_with_real_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            env = random_symmetric_env(rng)
            g = build_gram_matrix(env)
            np.testing.assert_array_equal(g, g.conj().T)
            np.testing.assert_array_equal(
                g.diagonal().real, [env.d_xx, env.d_pxpx, env.d_yy, env.d_pypy]
            )
            np.testing.assert_array_equal(g.diagonal().imag, np.zeros(4))

    def test_minimum_eigenvalue_positive_case(self, reference_env):
        # Symmetry reduces the spectrum to d +/- sqrt(c^2 + lam^2/4), twice each.
        g = build_gram_matrix(reference_env)
        eigs = np.linalg.eigvalsh(g)
        expected_min = 0.6 - math.sqrt(0.3**2 + 0.25)
        assert abs(eigs[0] - expected_min) < 1e-12
        assert eigs[0] > 0
        np.testing.assert_allclose(
            eigs,
            [expected_min, expected_min, 0.6 + math.sqrt(0.34), 0.6 + math.sqrt(0.34)],
            atol=1e-12,
        )

    def test_minimum_eigenvalue_indefinite_case(self, boundary_env):
        eigs = np.linalg.eigvalsh(build_gram_matrix(boundary_env))
        expected_min = 0.25 - math.sqrt(0.2**2 + 0.0625)
        assert abs(eigs[0] - expected_min) < 1e-12
        assert eigs[0] < 0


class TestValidation:
    def test_reference_env_passes_strict(self, reference_env):
        report = validate_environment(reference_env, "strict")
        assert report.passed
        assert report.failed == ()
        assert report.min_gram_eigenvalue > 0

    def test_boundary_env_lenient_only(self, boundary_env):
        # Pairwise: 0.0625 >= 0.0625 holds with equality, 0.0625 >= 0.04 holds.
        lenient = validate_environment(boundary_env, "lenient")
        assert lenient.passed
        strict = validate_environment(boundary_env, "strict")
        assert not strict.passed
        assert "gram_psd" in strict.failed
        assert strict.min_gram_eigenvalue < -1e-4

    def test_zero_diffusion_fails_lenient(self):
        report = validate_environment(EnvironmentParams(lam=1.0), "lenient")
        assert not report.passed
        assert "cs_xx_pxpx" in report.failed
        assert "cs_yy_pypy" in report.failed

    @pytest.mark.parametrize("mode", ["lenient", "strict"])
    def test_nan_slack_is_violated(self, mode):
        # D_xx D_pypy - D_xpy^2 is inf - inf here: a slack of unknown sign fails
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=1e160, d_pxpx=1e160, d_xpy=1e170)
        report = validate_environment(env, mode)
        assert not report.passed
        assert report.failed[:2] == ("cs_xx_pypy", "cs_yy_pxpx")

    def test_nonpositive_lambda_reported(self):
        report = validate_environment(
            SymmetricEnvironmentParams(lam=0.0, d_xx=1.0, d_pxpx=1.0), "lenient"
        )
        assert "lambda_positive" in report.failed

    def test_unknown_mode_rejected(self, reference_env):
        with pytest.raises(ValueError):
            validate_environment(reference_env, "loose")

    def test_validation_is_pure(self, boundary_env):
        assert validate_environment(boundary_env, "strict") == validate_environment(
            boundary_env, "strict"
        )

    def test_strict_implies_lenient(self):
        rng = np.random.default_rng(2024)
        strict_passes = 0
        for _ in range(10_000):
            env = EnvironmentParams(
                lam=float(rng.uniform(-0.2, 1.0)),
                d_xx=float(rng.uniform(0.0, 1.2)),
                d_pxpx=float(rng.uniform(0.0, 1.2)),
                d_yy=float(rng.uniform(0.0, 1.2)),
                d_pypy=float(rng.uniform(0.0, 1.2)),
                d_xpx=float(rng.uniform(-0.3, 0.3)),
                d_xy=float(rng.uniform(-0.3, 0.3)),
                d_xpy=float(rng.uniform(-0.3, 0.3)),
                d_ypx=float(rng.uniform(-0.3, 0.3)),
                d_ypy=float(rng.uniform(-0.3, 0.3)),
                d_pxpy=float(rng.uniform(-0.3, 0.3)),
            )
            if validate_environment(env, "strict").passed:
                strict_passes += 1
                assert validate_environment(env, "lenient").passed
        # the sampler must actually exercise the implication
        assert strict_passes > 100


class TestHurwitz:
    def test_damped_is_hurwitz(self):
        y = build_drift_matrix(OscillatorParams(1, 1), EnvironmentParams(lam=1.0))
        assert is_hurwitz(y)

    def test_undamped_is_not(self):
        y = build_drift_matrix(OscillatorParams(1, 1), EnvironmentParams(lam=0.0))
        assert not is_hurwitz(y)

    def test_weak_damping_is_hurwitz(self):
        y = build_drift_matrix(OscillatorParams(1, 2), EnvironmentParams(lam=0.01))
        assert is_hurwitz(y)


class TestVacuum:
    @pytest.mark.parametrize(
        "m,omega,expected",
        [
            (1.0, 1.0, [0.5, 0.5, 0.5, 0.5]),
            (2.0, 1.0, [0.25, 1.0, 0.25, 1.0]),
            (1.0, 4.0, [0.125, 2.0, 0.125, 2.0]),
        ],
    )
    def test_ground_state_diagonal(self, m, omega, expected):
        np.testing.assert_array_equal(
            make_vacuum_covariance(OscillatorParams(m, omega)), np.diag(expected)
        )


class TestStateCovariance:
    def test_accepts_vacuum(self, osc):
        sigma = check_state_covariance(make_vacuum_covariance(osc))
        np.testing.assert_array_equal(sigma, make_vacuum_covariance(osc))

    def test_rejects_asymmetric(self):
        bad = np.eye(4)
        bad[0, 1] = 0.2
        with pytest.raises(ValueError, match="symmetric"):
            check_state_covariance(bad)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            check_state_covariance(np.diag([1.0, 1.0, 1.0, -0.1]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            check_state_covariance(np.eye(3))
