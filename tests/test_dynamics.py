import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from twomode import (
    ConditioningWarning,
    is_hurwitz,
    EnvironmentParams,
    NonFiniteResultError,
    NonPositiveLambdaError,
    NotHurwitzError,
    OscillatorParams,
    SymmetricEnvironmentParams,
    build_diffusion_matrix,
    build_drift_matrix,
    make_vacuum_covariance,
    matrix_exponential,
    propagate,
    steady_state_closed_form,
    steady_state_lyapunov,
)

from twomode.dynamics import _drift_spectrum

from support import (
    matched_env,
    random_oscillator,
    random_symmetric_env,
    random_valid_symmetric_env,
    scaled_frobenius,
)


def drift(m=1.0, omega=1.0, lam=1.0):
    return build_drift_matrix(OscillatorParams(m, omega), EnvironmentParams(lam=lam))


class TestMatrixExponential:
    def test_identity_at_zero(self):
        prop = matrix_exponential(drift(1.3, 0.7, 0.4), 0.0)
        np.testing.assert_array_equal(prop.matrix, np.eye(4))
        assert prop.t == 0.0

    def test_half_turn_at_zero_damping(self):
        prop = matrix_exponential(drift(1.0, 1.0, 0.0), math.pi)
        np.testing.assert_allclose(prop.matrix[:2, :2], [[-1, 0], [0, -1]], atol=1e-15)
        np.testing.assert_allclose(prop.matrix[2:, 2:], [[-1, 0], [0, -1]], atol=1e-15)

    def test_damped_rotation_at_log_two(self):
        t = math.log(2.0)
        prop = matrix_exponential(drift(1.0, 1.0, 1.0), t)
        c, s = math.cos(t), math.sin(t)
        np.testing.assert_allclose(
            prop.matrix[:2, :2], 0.5 * np.array([[c, s], [-s, c]]), atol=1e-15
        )
        # generic scaling-and-squaring oracle
        np.testing.assert_allclose(
            prop.matrix, scipy.linalg.expm(drift(1.0, 1.0, 1.0) * t), atol=1e-14
        )

    def test_matches_generic_exponential(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m, omega, lam = rng.uniform(0.5, 2.0, size=3)
            y = drift(m, omega, lam)
            for t in (0.1, 1.0, 10.0):
                np.testing.assert_allclose(
                    matrix_exponential(y, t).matrix,
                    scipy.linalg.expm(y * t),
                    atol=1e-12,
                )

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.0, 10.0), t=st.floats(0.0, 10.0))
    def test_semigroup_property(self, s, t):
        y = drift(1.2, 0.9, 0.6)
        left = matrix_exponential(y, s).matrix @ matrix_exponential(y, t).matrix
        right = matrix_exponential(y, s + t).matrix
        assert np.abs(left - right).max() <= 1e-10

    def test_determinant_decay(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            m, omega, lam = rng.uniform(0.5, 2.0, size=3)
            t = float(rng.uniform(0.0, 5.0))
            det = np.linalg.det(matrix_exponential(drift(m, omega, lam), t).matrix)
            assert abs(det - math.exp(-4 * lam * t)) <= 1e-8 * math.exp(-4 * lam * t)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            matrix_exponential(drift(), -0.1)

    def test_rejects_unstructured_matrix(self):
        with pytest.raises(ValueError):
            matrix_exponential(-np.eye(4), 1.0)


class TestSteadyStateLyapunov:
    def test_identity_drift(self):
        # generic solver path: -2 sigma = -2 D
        sigma = steady_state_lyapunov(-np.eye(4), np.eye(4))
        np.testing.assert_allclose(sigma, np.eye(4), atol=1e-14)

    def test_reference_environment(self, osc, reference_env, reference_sigma_inf):
        y = build_drift_matrix(osc, reference_env)
        d = build_diffusion_matrix(reference_env)
        sigma = steady_state_lyapunov(y, d)
        np.testing.assert_allclose(sigma, reference_sigma_inf, atol=1e-12)
        residual = np.abs(y @ sigma + sigma @ y.T + 2 * d).max()
        assert residual <= 1e-10

    def test_requires_hurwitz(self):
        y = drift(lam=0.0)
        with pytest.raises(NotHurwitzError):
            steady_state_lyapunov(y, np.eye(4))

    def test_matches_scipy_solver(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            osc = random_oscillator(rng)
            env = random_symmetric_env(rng, lam_range=(0.2, 2.0))
            y = build_drift_matrix(osc, env)
            d = build_diffusion_matrix(env)
            ours = steady_state_lyapunov(y, d)
            reference = scipy.linalg.solve_continuous_lyapunov(y, -2.0 * d)
            np.testing.assert_allclose(ours, reference, rtol=1e-9, atol=1e-11)

    def test_warns_when_barely_damped(self):
        y = drift(lam=1e-8)
        with pytest.warns(ConditioningWarning) as record:
            steady_state_lyapunov(y, np.eye(4))
        assert len(record) == 1

    def test_real_spectrum(self):
        # eigvals of a diagonal Y is a float array, with no imaginary part
        y = np.diag([-1.0, -2.0, -3.0, -4.0])
        assert np.linalg.eigvals(y).dtype == np.float64
        d = np.arange(16.0).reshape(4, 4)
        d = d + d.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = steady_state_lyapunov(y, d)
        rates = np.diag(y)
        np.testing.assert_allclose(sigma, -2.0 * d / (rates[:, None] + rates[None, :]), rtol=1e-14)

    def test_overflow_in_the_symmetrization_is_an_error(self):
        # the solve gives finite entries near 3e307 whose symmetrized sum
        # overflows: the result used to carry inf, and analyze then raised
        # ValueError out of `twomode steady-state`
        osc, env = OscillatorParams(1.0, 0.1), SymmetricEnvironmentParams(lam=0.3, d_xpy=1e307)
        y, d = build_drift_matrix(osc, env), build_diffusion_matrix(env)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteResultError, match="overflows"):
            steady_state_lyapunov(y, d)

    def test_real_eigenvalue_zero_is_not_hurwitz(self):
        with pytest.raises(NotHurwitzError):
            steady_state_lyapunov(np.diag([-1.0, 0.0, -3.0, -4.0]), np.eye(4))

    @pytest.mark.parametrize("structured", [True, False])
    def test_equals_kronecker_solve(self, structured):
        # The broadcast-built operator must be the np.kron-built one bit for
        # bit, for the model's drift matrices and for any dense Hurwitz Y.
        rng = np.random.default_rng(11 if structured else 12)
        eye = np.eye(4)
        for _ in range(100):
            if structured:
                y = build_drift_matrix(random_oscillator(rng), EnvironmentParams(lam=1.0))
                y[[0, 1, 2, 3], [0, 1, 2, 3]] = -rng.uniform(0.05, 3.0)
            else:
                y = rng.normal(size=(4, 4))
                y -= (np.linalg.eigvals(y).real.max() + rng.uniform(0.1, 2.0)) * eye
            d = rng.normal(size=(4, 4))
            d = d @ d.T
            expected = np.linalg.solve(
                np.kron(eye, y) + np.kron(y, eye), -2.0 * d.reshape(-1)
            ).reshape(4, 4)
            expected = 0.5 * (expected + expected.T)
            ours = steady_state_lyapunov(y, d)
            assert ours.tobytes() == expected.tobytes()
            reference = scipy.linalg.solve_continuous_lyapunov(y, -2.0 * d)
            np.testing.assert_allclose(ours, reference, rtol=1e-8, atol=1e-10)


def _eigvals_extent(y):
    eigs = np.linalg.eigvals(y)
    return float(eigs.real.max()), float(abs(eigs.imag).max())


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
_NONZERO = st.floats(0.125, 8.0) | st.floats(-8.0, -0.125)
_ENTRY = _NONZERO | _SIGNED_ZERO


@st.composite
def _blocks(draw):
    """A 2x2 block [[a, b], [c, d]] with an exactly known kind of spectrum.

    Returns (block, exact): exact when the block's eigenvalues are its diagonal
    (triangular) or re +- i im with re its diagonal, so the sign of the largest
    real part is known without rounding.
    """
    kind = draw(st.sampled_from(["complex", "triangular", "repeated", "zero", "real", "any"]))
    if kind == "complex":  # re +- i im, re = +-0.0 included (lambda = 0 in the drift)
        re, b = draw(_ENTRY), draw(_NONZERO)
        im = draw(st.floats(0.125, 8.0))
        return [[re, b], [-im * im / b, re]], True
    if kind == "triangular":
        a, d, off = draw(_ENTRY), draw(_ENTRY), draw(_ENTRY)
        return ([[a, off], [0.0, d]] if draw(st.booleans()) else [[a, 0.0], [off, d]]), True
    if kind == "repeated":  # l I or a Jordan block
        lam, off = draw(_ENTRY), draw(_ENTRY)
        return [[lam, off], [0.0, lam]], True
    if kind == "zero":  # rank one: eigenvalues 0 and a + d
        p, q, r = draw(_NONZERO), draw(_NONZERO), draw(_NONZERO)
        return [[p * q, p * r], [q, r]], False
    if kind == "real":  # b c > 0: two distinct real eigenvalues
        b, c = draw(_NONZERO), draw(_NONZERO)
        return [[draw(_ENTRY), b], [math.copysign(c, b), draw(_ENTRY)]], False
    return [[draw(_ENTRY), draw(_ENTRY)], [draw(_ENTRY), draw(_ENTRY)]], False


def _block_diagonal(first, second):
    y = np.zeros((4, 4))
    y[:2, :2], y[2:, 2:] = first, second
    return y


class TestDriftSpectrum:
    """The closed-form spectrum of block-diagonal drift matrices against eigvals."""

    @settings(max_examples=500, deadline=None)
    @given(first=_blocks(), second=_blocks())
    def test_matches_eigvals(self, first, second):
        y = _block_diagonal(first[0], second[0])
        want = _eigvals_extent(y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigvals", None)  # the closed form never calls it
            real, imag = _drift_spectrum(y)
        # a repeated root moves by sqrt(eps) under rounding, in either computation
        tol = 1e-7 * max(1.0, float(np.abs(y).max()))
        assert abs(real - want[0]) <= tol and abs(imag - want[1]) <= tol, (real, imag, want)
        if first[1] and second[1]:
            assert (real < 0.0) == (want[0] < 0.0)
            assert is_hurwitz(y) == (want[0] < 0.0)

    @pytest.mark.parametrize(
        "y, hurwitz",
        [
            (np.diag([-1.0, 0.0, -3.0, -4.0]), False),
            (np.diag([-1.0, -2.0, -3.0, -4.0]), True),
            (drift(lam=0.0), False),
            (drift(lam=-0.0), False),
            (drift(1.3, 0.7, 0.9), True),
            (drift(lam=1e-300), True),
        ],
    )
    def test_exact_cases(self, y, hurwitz):
        assert _drift_spectrum(y) == _eigvals_extent(y)
        assert is_hurwitz(y) is hurwitz

    def test_small_real_root_keeps_its_digits(self):
        # h + r cancels to a relative 4e-5 here (eigvals is off by 1e-4); the larger
        # root is -9.8999999999999900808e-13 (40-digit mpmath)
        y = _block_diagonal([[-1e-12, 1e-7], [1e-7, -1.0]], -3.0 * np.eye(2))
        want = -9.8999999999999900808e-13
        assert abs(_drift_spectrum(y)[0] - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize(
        "y",
        [
            np.arange(16.0).reshape(4, 4) - 20.0 * np.eye(4),  # dense
            drift() + np.diag([0.0, 1e-300, 0.0], 1),  # one off-block entry, upper right
            drift() + np.diag([0.0, -0.5, 0.0], -1),  # lower left
            _block_diagonal([[-1e200, 1e200], [-1e200, -1e200]], -np.eye(2)),  # beyond its range
            _block_diagonal([[-1e-200, 1e-200], [-1e-200, -1e-200]], -np.eye(2)),  # below it
            -np.eye(3),  # not 4x4
        ],
    )
    def test_other_matrices_use_eigvals(self, y, monkeypatch):
        want = _eigvals_extent(y)
        eigvals, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        assert _drift_spectrum(y) == want
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (3, 2), (0, 2)])
    def test_non_finite_drift_raises_linalg_error(self, bad, where, monkeypatch):
        y = drift()
        y[where] = bad
        eigvals, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        for function in (_drift_spectrum, is_hurwitz, lambda y: steady_state_lyapunov(y, np.eye(4))):
            with pytest.raises(np.linalg.LinAlgError):
                function(y)
        assert len(calls) == 3

    def test_barely_damped_warns_once_without_eigvals(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", None)
        with pytest.warns(ConditioningWarning) as record:
            steady_state_lyapunov(drift(lam=1e-8), np.eye(4))
        assert len(record) == 1


class TestSteadyStateClosedForm:
    def test_reference_environment(self, osc, reference_env, reference_sigma_inf):
        sigma = steady_state_closed_form(osc, reference_env)
        np.testing.assert_allclose(sigma, reference_sigma_inf, atol=1e-15)

    def test_cross_entries_only(self, osc):
        env = SymmetricEnvironmentParams(lam=0.5, d_xpy=0.1)
        sigma = steady_state_closed_form(osc, env)
        assert abs(sigma[0, 2] - 0.08) <= 1e-15
        assert abs(sigma[0, 3] - 0.04) <= 1e-15
        assert sigma[0, 3] == sigma[1, 2]

    def test_zero_cross_coefficients_give_uncorrelated_modes(self, osc):
        env = SymmetricEnvironmentParams(lam=0.7, d_xx=0.4, d_xpx=0.1, d_pxpx=0.5)
        sigma = steady_state_closed_form(osc, env)
        np.testing.assert_array_equal(sigma[:2, 2:], np.zeros((2, 2)))

    def test_rejects_nonpositive_lambda(self, osc):
        with pytest.raises(NonPositiveLambdaError):
            steady_state_closed_form(osc, SymmetricEnvironmentParams(lam=0.0, d_xx=1.0))

    def test_rejects_asymmetric_environment(self, osc):
        env = EnvironmentParams(lam=1.0, d_xx=0.5, d_yy=0.4)
        with pytest.raises(ValueError):
            steady_state_closed_form(osc, env)

    def test_agrees_with_lyapunov_solver(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            osc = random_oscillator(rng)
            env = random_symmetric_env(rng, lam_range=(0.1, 2.0))
            closed = steady_state_closed_form(osc, env)
            solved = steady_state_lyapunov(
                build_drift_matrix(osc, env), build_diffusion_matrix(env)
            )
            np.testing.assert_allclose(closed, solved, rtol=1e-8, atol=1e-10)

    def test_warns_when_barely_damped(self, osc):
        with pytest.warns(ConditioningWarning):
            steady_state_closed_form(
                osc, SymmetricEnvironmentParams(lam=1e-8, d_xx=1.0, d_pxpx=1.0)
            )

    def test_strictly_valid_environments_yield_physical_states(self):
        # completely positive dynamics must relax to a state satisfying the
        # two-mode uncertainty relation sigma + i Omega / 2 >= 0
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        omega4 = np.zeros((4, 4))
        omega4[:2, :2] = j
        omega4[2:, 2:] = j
        rng = np.random.default_rng(11)
        for _ in range(300):
            osc = random_oscillator(rng)
            env = random_valid_symmetric_env(rng, mode="strict")
            sigma = steady_state_closed_form(osc, env)
            assert np.linalg.eigvalsh(sigma + 0.5j * omega4).min() >= -1e-10


class TestPropagate:
    def test_time_zero_is_exact(self, osc, reference_env, reference_sigma_inf):
        y = build_drift_matrix(osc, reference_env)
        sigma0 = make_vacuum_covariance(osc)
        np.testing.assert_array_equal(
            propagate(sigma0, reference_sigma_inf, y, 0.0), sigma0
        )

    def test_steady_state_is_fixed_point(self, osc, reference_env, reference_sigma_inf):
        y = build_drift_matrix(osc, reference_env)
        for t in (0.3, 1.7, 12.0):
            np.testing.assert_allclose(
                propagate(reference_sigma_inf, reference_sigma_inf, y, t),
                reference_sigma_inf,
                atol=1e-15,
            )

    def test_output_symmetric(self, osc, reference_env, reference_sigma_inf):
        y = build_drift_matrix(osc, reference_env)
        sig = propagate(make_vacuum_covariance(osc), reference_sigma_inf, y, 0.83)
        np.testing.assert_array_equal(sig, sig.T)

    def test_decay_bound(self, osc, reference_env, reference_sigma_inf):
        # |entries| of M (sigma0 - sigma_inf) M^T bounded by 4 e^{-2 lam t} max|delta|
        y = build_drift_matrix(osc, reference_env)
        sigma0 = make_vacuum_covariance(osc)
        sig5 = propagate(sigma0, reference_sigma_inf, y, 5.0)
        lhs = np.abs(sig5 - reference_sigma_inf).max()
        rhs = math.exp(-10.0) * np.abs(sigma0 - reference_sigma_inf).max() * 4.0
        assert lhs <= rhs

    def test_ode_residual(self):
        # central difference of sigma(t) matches Y sigma + sigma Y^T + 2 D
        rng = np.random.default_rng(9)
        h = 1e-4
        for _ in range(30):
            osc = random_oscillator(rng)
            env = random_symmetric_env(rng, lam_range=(0.2, 2.0))
            y = build_drift_matrix(osc, env)
            d = build_diffusion_matrix(env)
            sigma_inf = steady_state_lyapunov(y, d)
            sigma0 = make_vacuum_covariance(osc)
            t = float(rng.uniform(h, 5.0))
            lhs = (
                propagate(sigma0, sigma_inf, y, t + h)
                - propagate(sigma0, sigma_inf, y, t - h)
            ) / (2 * h)
            sig = propagate(sigma0, sigma_inf, y, t)
            rhs = y @ sig + sig @ y.T + 2 * d
            assert np.abs(lhs - rhs).max() <= 1e-6

    def test_decay_rate_in_scaled_metric(self):
        # in dimensionless quadratures the deviation decays at e^{-2 lam} per
        # unit time; the unscaled max-norm deviation stays under a periodic
        # envelope c e^{-2 lam t}
        rng = np.random.default_rng(10)
        for _ in range(10):
            m, omega, lam = (float(v) for v in rng.uniform(0.5, 2.0, size=3))
            osc = OscillatorParams(m, omega)
            env = matched_env(m, omega, lam, u=0.8, v=0.45)
            y = build_drift_matrix(osc, env)
            sigma_inf = steady_state_closed_form(osc, env)
            sigma0 = make_vacuum_covariance(osc)
            # stay within lam*t <= 8 so the deviation is far above rounding
            for lam_t in np.linspace(3.0, 6.0, 7):
                t = float(lam_t / lam)
                num = scaled_frobenius(
                    propagate(sigma0, sigma_inf, y, t + 1.0) - sigma_inf, m, omega
                )
                den = scaled_frobenius(
                    propagate(sigma0, sigma_inf, y, t) - sigma_inf, m, omega
                )
                ratio = num / den
                assert abs(ratio / math.exp(-2 * lam) - 1.0) <= 0.10

            # envelope check on the factored deviation M(t) delta0 M(t)^T,
            # which avoids the sigma_inf add/subtract cancellation noise
            delta0 = sigma0 - sigma_inf

            def prefactor(t):
                mt = matrix_exponential(y, float(t)).matrix
                return np.abs(mt @ delta0 @ mt.T).max() * math.exp(2 * lam * float(t))

            t0 = 3.0 / lam
            period = math.pi / omega
            envelope = max(prefactor(t) for t in np.linspace(t0, t0 + period, 64))
            for t in t0 + period + rng.uniform(0.0, 5.0, size=40):
                assert prefactor(t) <= envelope * 1.01
