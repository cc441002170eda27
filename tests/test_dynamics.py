import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twomode import (
    ClassViolationError,
    is_hurwitz,
    EnvironmentParams,
    NonFiniteResultError,
    NonPositiveLambdaError,
    NotHurwitzError,
    OscillatorParams,
    SymmetricEnvironmentParams,
    analyze,
    build_diffusion_matrix,
    build_drift_matrix,
    make_vacuum_covariance,
    matrix_exponential,
    propagate,
    steady_state_closed_form,
    steady_state_lyapunov,
)

from twomode import dynamics, model
from twomode.model import UPPER

from support import (
    exact_steady_state,
    matched_env,
    mp_damped_rotation,
    mp_sigma_t,
    random_oscillator,
    random_physical_covariance,
    random_symmetric_env,
    random_valid_symmetric_env,
    scaled_frobenius,
)


def drift(m=1.0, omega=1.0, lam=1.0):
    return build_drift_matrix(OscillatorParams(m, omega), EnvironmentParams(lam=lam))


def _drift_with(entries, m=1.0):
    y = drift(m)
    for where, value in entries.items():
        y[where] = value
    return y


_ONE_ULP_LESS = np.nextafter(-1.0, 0.0)

# Drift matrices off the layout build_drift_matrix writes.  The first three lie within
# 1e-12 max(1, max|Y|) of it: a reader with that tolerance exponentiates them as another
# matrix (for the first, M[0, 2] = 0.0 where scipy's expm gives 0.1504).
_OFF_LAYOUT = {
    "tiny_mass_off_block": _drift_with({(0, 2): 0.9, (2, 2): -1.9, (3, 3): -1.9}, m=1e-12),
    "second_lambda_one_ulp": _drift_with({(2, 2): _ONE_ULP_LESS, (3, 3): _ONE_ULP_LESS}),
    "off_block_entry": _drift_with({(0, 2): 1e-300}),
    "unequal_diagonal": _drift_with({(0, 0): _ONE_ULP_LESS, (2, 2): _ONE_ULP_LESS}),
    "inf_inverse_mass": _drift_with({(0, 1): math.inf, (2, 3): math.inf}),
    "nan_lambda": _drift_with({(i, i): math.nan for i in range(4)}),
    "inf_off_block": _drift_with({(3, 0): -math.inf}),
    "nan_off_block": _drift_with({(1, 2): math.nan}),
}


class TestMatrixExponential:
    def test_rejects_a_drift_matrix_that_is_not_4x4(self):
        with pytest.raises(ValueError, match=r"^drift matrix must be 4x4, got shape \(3, 3\)$"):
            matrix_exponential(np.eye(3), 1.0)

    def test_identity_at_zero(self):
        prop = matrix_exponential(drift(1.3, 0.7, 0.4), 0.0)
        np.testing.assert_array_equal(prop.matrix, np.eye(4))
        assert prop.t == 0.0
        # 1 / (m omega) overflows, yet sin(0) times it is no NaN: the block of m = 1e-300 and
        # omega = 3e-12, written by hand, as build_drift_matrix refuses its subnormal m omega^2
        block = [[-1.0, 1.0 / 1e-300], [-1e-300 * (3e-12 * 3e-12), -1.0]]
        np.testing.assert_array_equal(matrix_exponential(_block_diagonal(block, block), 0.0).matrix, np.eye(4))

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

    @pytest.mark.parametrize("y", _OFF_LAYOUT.values(), ids=_OFF_LAYOUT.keys())
    def test_refuses_a_drift_matrix_off_the_layout(self, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^drift matrix is not of the two-oscillator"):
                matrix_exponential(y, 1.0)
            with pytest.raises(ValueError, match="^drift matrix is not of the two-oscillator"):
                propagate(np.eye(4), np.eye(4), y, 1.0)

    def test_refuses_a_complex_drift_matrix(self):
        y = drift() * (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^drift matrix must be real"):
                matrix_exponential(y, 1.0)
            with pytest.raises(ValueError, match="^drift matrix must be real"):
                propagate(np.eye(4), np.eye(4), y, 1.0)
            with pytest.raises(ValueError, match="^drift matrix must be real"):
                is_hurwitz(y)
        assert is_hurwitz(-np.eye(3))  # any square y


_LAMBDAS = st.sampled_from([0.0, -0.0]) | st.floats(-1e300, -1e-300) | st.floats(1e-300, 1e300)


@st.composite
def _oscillators(draw):
    """(m, omega) in [1e-300, 1e300], omega where omega^2 and m omega^2 are finite and nonzero."""
    m = draw(st.floats(1e-300, 1e300))
    root = math.sqrt(m)
    return m, draw(st.floats(max(3e-162, 3e-162 / root), min(1.3e154, 1.3e154 / root)))


@st.composite
def _exponential_cases(draw):
    """(m, omega, lam, t): `_oscillators()`, lam from 0 to 1e300 omega and omega t <= 10,
    with lam t <= 700, so that exp(-lam t) is a normal double."""
    m, omega = draw(_oscillators())
    ratio = draw(st.floats(0.0, 1e300))
    phase = draw(st.floats(0.0, min(10.0, 700.0 / ratio) if ratio else 10.0))
    return m, omega, ratio * omega, phase / omega


_NORMAL = (float(np.finfo(float).tiny), float(np.finfo(float).max))


class TestDriftParameters:
    """exp(Y t) from the entries of Y's block, over the whole range of built drift matrices."""

    @settings(max_examples=300, deadline=None)
    @given(case=_exponential_cases())
    @example(case=(1e-308, 1.0, 1.0, 0.5))
    @example(case=(1.0, 1.0, 1e-300, 10.0))
    @example(case=(1e300, 1e-150, 1e148, 7e-148))
    @example(case=(2.442274850304323e299, 17143.204335939663, 1.5e-33, 3.663556258861528e-4))
    def test_full_range_against_mpmath(self, case):
        # Each entry of a block [[a, b], [c, a]] is exp(a t) f g(x), with x = w t, w = sqrt(-b c),
        # f one of 1, b / w and c / w, and g cos or sin.  Rounding a t moves exp(a t) by
        # about eps lam t, and rounding w t moves g(x) by about eps x g'(x), however small
        # g(x) is.  So an entry lies within 32 eps (1 + lam t + x) exp(a t) |f| (|g| + x |g'|),
        # wherever b, -c, w^2 = -b c, x, exp(a t), the factors f and that size are normal.
        m, omega, lam, t = case
        try:
            y = drift(m, omega, lam)
        except (NonFiniteResultError, ValueError):  # rounding at the edges, or lam = inf
            assume(False)
        with mpmath.workdps(40):
            a, b, c = (mpmath.mpf(float(v)) for v in (y[0, 0], y[0, 1], y[1, 0]))
            w = mpmath.sqrt(-b * c)
            x, decay = w * t, mpmath.exp(a * t)
            cos, sin = abs(mpmath.cos(x)) + x * abs(mpmath.sin(x)), abs(mpmath.sin(x)) + x * abs(mpmath.cos(x))
            sizes = [[decay * cos, decay * sin * b / w], [-decay * sin * c / w, decay * cos]]
            steps = [b, -c, -b * c, x or 1, decay, b / w, -c / w, *sizes[0], *sizes[1]]
            assume(all(_NORMAL[0] <= v <= _NORMAL[1] for v in steps if v))
            exact = mp_damped_rotation(a, b, c, t)
            ours = matrix_exponential(y, t).matrix
            scale = 32 * np.finfo(float).eps * (1 - a * t + x)
            for rows in ((0, 1), (2, 3)):
                block = ours[np.ix_(rows, rows)]
                for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    gap = abs(mpmath.mpf(float(block[i, j])) - exact[i][j])
                    assert gap <= scale * sizes[i][j], (case, i, j, float(gap / sizes[i][j]))
            assert (ours[:2, 2:] == 0.0).all() and (ours[2:, :2] == 0.0).all()

    def test_tiny_mass(self):
        # 1/m = 1e308 in both blocks: finite entries whose sum overflows; the block of
        # m = 1e-308 and omega = 1, written by hand, as build_drift_matrix refuses its
        # subnormal m omega^2
        block = [[-1.0, 1.0 / 1e-308], [-1e-308, -1.0]]
        assert matrix_exponential(_block_diagonal(block, block), 0.5).matrix[0, 0] == 0.5322807302156708


def _canonical_error(sigma, exact, mw=Fraction(1)):
    """Normwise max |sigma - exact| / max |exact|, exactly, in canonical phase-space units:
    x-type entries times m omega (mw, a Fraction), p-type entries over it; at the default
    mw = 1, in sigma's own units.  exact is `support.exact_steady_state`'s."""
    weights = [[mw ** (1 - i % 2 - j % 2) for j in range(4)] for i in range(4)]
    pairs = [(i, j) for i in range(4) for j in range(4)]
    gap = max(abs(Fraction(float(sigma[i][j])) - exact[i][j]) * weights[i][j] for i, j in pairs)
    return float(gap / max(abs(exact[i][j]) * weights[i][j] for i, j in pairs))


class TestSteadyStateLyapunov:
    @pytest.mark.parametrize(
        "y, d, message",
        [
            (drift(), np.eye(3), r"^diffusion matrix must be 4x4, got shape \(3, 3\)$"),
            (-np.eye(3), np.eye(3), r"^drift matrix must be 4x4, got shape \(3, 3\)$"),
            (drift(), np.eye(4) * (1 + 1j), "^diffusion matrix must be real"),
            (drift() * (1 + 1j), np.eye(4), "^drift matrix must be real"),
            (drift(), np.full((4, 4), math.nan), "^diffusion matrix entries must be finite$"),
            (drift(), np.diag([1.0, math.inf, 1.0, 1.0]), "^diffusion matrix entries must be"),
        ],
        ids=["d_3x3", "y_3x3", "d_complex", "y_complex", "d_nan", "d_inf"],
    )
    def test_reads_its_inputs_before_it_solves(self, y, d, message, monkeypatch):
        monkeypatch.setattr(np.linalg, "solve", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                steady_state_lyapunov(y, d)

    def test_identity_drift(self, monkeypatch):
        # -I is Hurwitz, and its steady state is D, but it is no drift matrix the
        # model builds: the solve refuses it as propagate does, without eigvals
        assert is_hurwitz(-np.eye(4))
        monkeypatch.setattr(np.linalg, "eigvals", None)
        with pytest.raises(ValueError, match="^drift matrix is not of the two-oscillator"):
            steady_state_lyapunov(-np.eye(4), np.eye(4))

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

    def test_silent_when_barely_damped(self):
        # entries of size 1/lambda lose no precision
        y = drift(lam=1e-8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = steady_state_lyapunov(y, np.eye(4))
        assert _canonical_error(sigma, exact_steady_state(y, np.eye(4))) <= 1e-15

    def test_real_spectrum(self):
        # eigvals of a diagonal Y is a float array, with no imaginary part: is_hurwitz
        # reads it, and the solve refuses the matrix, with no warning
        y = np.diag([-1.0, -2.0, -3.0, -4.0])
        assert np.linalg.eigvals(y).dtype == np.float64
        d = np.arange(16.0).reshape(4, 4)
        d = d + d.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_hurwitz(y)
            with pytest.raises(ValueError, match="^drift matrix is not of the two-oscillator"):
                steady_state_lyapunov(y, d)

    def test_refuses_a_permuted_drift_matrix(self):
        # a built Y and D permuted to the order (x, y, p_x, p_y): Y's off-diagonal
        # blocks are non-zero, and the solve takes only the model's own order
        osc, env = OscillatorParams(1.0, 0.1), SymmetricEnvironmentParams(lam=0.3, d_xpy=1e307)
        order = [0, 2, 1, 3]
        y = build_drift_matrix(osc, env)[np.ix_(order, order)]
        d = build_diffusion_matrix(env)[np.ix_(order, order)]
        assert y[:2, 2:].any() and is_hurwitz(y)
        with pytest.raises(ValueError, match="^drift matrix is not of the two-oscillator"):
            steady_state_lyapunov(y, d)

    def test_block_path_has_no_symmetrization_to_overflow(self):
        # the same environment in the model's order: C is solved once for both
        # off-diagonal blocks, so sigma_xy = 1e308 is no sum of two halves
        osc, env = OscillatorParams(1.0, 0.1), SymmetricEnvironmentParams(lam=0.3, d_xpy=1e307)
        sigma = steady_state_lyapunov(build_drift_matrix(osc, env), build_diffusion_matrix(env))
        closed = steady_state_closed_form(osc, env)
        assert abs(sigma - closed).max() <= 1e-15 * abs(closed).max()
        assert sigma[0, 2] == sigma[2, 0] and sigma[0, 2] > 1e307

    def test_real_eigenvalue_zero_is_not_hurwitz(self):
        y = np.diag([-1.0, 0.0, -3.0, -4.0])
        assert not is_hurwitz(y)
        with pytest.raises(ValueError, match="^drift matrix is not of the two-oscillator"):
            steady_state_lyapunov(y, np.eye(4))

    def test_equals_the_exact_and_scipy_solves(self):
        # built drift matrices with a random lambda, against the exact solve and scipy's
        rng = np.random.default_rng(11)
        for _ in range(100):
            y = build_drift_matrix(random_oscillator(rng), EnvironmentParams(lam=1.0))
            y[[0, 1, 2, 3], [0, 1, 2, 3]] = -rng.uniform(0.05, 3.0)
            d = rng.normal(size=(4, 4))
            d = d @ d.T
            ours = steady_state_lyapunov(y, d)
            assert _canonical_error(ours, exact_steady_state(y, d)) <= 1e-13
            reference = scipy.linalg.solve_continuous_lyapunov(y, -2.0 * d)
            np.testing.assert_allclose(ours, reference, rtol=1e-8, atol=1e-10)

    def test_refuses_a_dense_drift_matrix(self):
        # dense Hurwitz Y, which the model never builds: is_hurwitz takes them to
        # eigvals, the solve refuses them
        rng = np.random.default_rng(12)
        for _ in range(100):
            y = rng.normal(size=(4, 4))
            y -= (np.linalg.eigvals(y).real.max() + rng.uniform(0.1, 2.0)) * np.eye(4)
            d = rng.normal(size=(4, 4))
            assert is_hurwitz(y)
            with pytest.raises(ValueError, match="^drift matrix is not of the two-oscillator"):
                steady_state_lyapunov(y, d @ d.T)


def _normal_or_zero(v):
    return v == 0 or np.finfo(float).tiny <= abs(v) <= np.finfo(float).max


# EnvironmentParams' ten coefficients in field order, by type: x-type (1), p-type (-1), mixed (0)
_COEFFICIENT_TYPES = (1, 0, 1, 0, 0, -1, 1, 0, -1, -1)


class TestBlockSteadyState:
    """The three 2x2 blocks of a built drift matrix's steady state, against the exact solve;
    a block-diagonal Y of any other form is refused."""

    @pytest.mark.parametrize("lam", [10.0**-k for k in range(0, 151, 10)] + [1e-170, 1e-300])
    def test_drift_environments_against_the_exact_solve(self, lam):
        rng = np.random.default_rng(round(-math.log10(lam)))
        for _ in range(5):
            osc = random_oscillator(rng, 0.1, 10.0)
            coefficients = rng.uniform(-1.0, 1.0, size=10).tolist()
            env = EnvironmentParams(lam, *coefficients)
            y, d = build_drift_matrix(osc, env), build_diffusion_matrix(env)
            sigma = steady_state_lyapunov(y, d)
            assert _canonical_error(sigma, exact_steady_state(y, d)) <= 1e-13
            assert (sigma == sigma.T).all()

    def test_refuses_distinct_blocks(self, monkeypatch):
        # block-diagonal Hurwitz Y whose blocks differ, or are not of the damped
        # form [[-lam, 1/m], [-m omega^2, -lam]]: refused before any linalg call
        rng = np.random.default_rng(15)
        blocks = []
        for _ in range(60):
            block = rng.normal(size=(2, 2))
            block -= (np.linalg.eigvals(block).real.max() + 10 ** rng.uniform(-6, 0)) * np.eye(2)
            blocks.append(block)
        damped = drift(1.3, 0.7, 0.9)[:2, :2]
        pairs = list(zip(blocks[::2], blocks[1::2])) + [(b, b) for b in blocks[:10]]
        pairs += [(damped, damped * 1.5), (damped, damped.T), (damped.T, damped.T)]
        d = np.eye(4)
        monkeypatch.setattr(np.linalg, "eigvals", None)
        for first, second in pairs:
            with pytest.raises(ValueError, match="^drift matrix is not of the two-oscillator"):
                steady_state_lyapunov(_block_diagonal(first, second), d)

    def test_built_drift_matrix_needs_no_linalg(self, osc, reference_env, reference_sigma_inf, monkeypatch):
        y, d = build_drift_matrix(osc, reference_env), build_diffusion_matrix(reference_env)
        monkeypatch.setattr(np.linalg, "solve", None)
        monkeypatch.setattr(np.linalg, "eigvals", None)
        sigma = steady_state_lyapunov(y, d)
        np.testing.assert_allclose(sigma, reference_sigma_inf, rtol=0, atol=1e-15)
        assert sigma.base is None  # a view would keep a second array alive per result

    @pytest.mark.parametrize(
        "m, omega, lam, diffusion, message",
        [
            (1.0, 1.0, 1e-300, 1e300, "overflows"),  # sigma_xx ~ D / lam = 1e600
            (1.0, 1.0, 5e-324, 1.0, "overflows"),  # sigma_xx ~ 1 / lam = 2e323
            (1e-57, 1e-59, 1e-180, 1.0, "overflows"),  # sigma_xx ~ 1 / (m omega)^2 lam = 5e411
        ],
    )
    def test_non_finite_results_are_errors(self, m, omega, lam, diffusion, message):
        env = SymmetricEnvironmentParams(lam, diffusion, 0.0, diffusion)
        y, d = build_drift_matrix(OscillatorParams(m, omega), env), build_diffusion_matrix(env)
        with pytest.raises(NonFiniteResultError, match=message):
            steady_state_lyapunov(y, d)

    def test_reads_the_drift_matrix_once(self, osc, reference_env, monkeypatch):
        y, d = build_drift_matrix(osc, reference_env), build_diffusion_matrix(reference_env)
        read, calls = model._drift_block, []

        def counted(y):
            calls.append(y)
            return read(y)

        monkeypatch.setattr(model, "_drift_block", counted)
        monkeypatch.setattr(dynamics, "_drift_block", counted)
        steady_state_lyapunov(y, d)
        assert len(calls) == 1

    def test_huge_lambda_against_the_exact_solve(self):
        env = SymmetricEnvironmentParams(lam=1e155, d_xx=1.0, d_pxpx=1.0, d_xpy=0.3)
        y, d = build_drift_matrix(OscillatorParams(1.0, 1.0), env), build_diffusion_matrix(env)
        exact = exact_steady_state(y, d)
        assert _canonical_error(steady_state_lyapunov(y, d), exact) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(
        exponents=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
        coefficients=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
    )
    def test_range_against_the_exact_solve(self, exponents, coefficients):
        # m, omega and lam log-uniform over 1e+-100, and the ten coefficients in
        # canonical units: x-type times lam / (m omega), p-type times lam m omega,
        # mixed times lam
        m, omega, lam = (10.0**e for e in exponents)
        mw = m * omega
        env = EnvironmentParams(
            lam, *(v * lam * mw**-kind for v, kind in zip(coefficients, _COEFFICIENT_TYPES))
        )
        y, d = build_drift_matrix(OscillatorParams(m, omega), env), build_diffusion_matrix(env)
        exact = exact_steady_state(y, d)
        assume(all(_normal_or_zero(v) for row in exact for v in row) and any(map(any, exact)))
        sigma = steady_state_lyapunov(y, d)
        assert _canonical_error(sigma, exact, Fraction(m) * Fraction(omega)) <= 1e-13

    def test_extreme_point_against_the_exact_solve(self):
        # sigma_xx = 5e115 beside sigma_pxpx = 5e-117: the state lies on the
        # single-mode uncertainty bound, and its exact S is +4.976e-36, separable
        osc = OscillatorParams(1e-57, 1e-59)
        env = SymmetricEnvironmentParams(lam=1e-180, d_xx=1e-180, d_pxpx=1e-296, d_xpy=3e-181)
        y, d = build_drift_matrix(osc, env), build_diffusion_matrix(env)
        sigma, exact = steady_state_lyapunov(y, d), exact_steady_state(y, d)
        for i in range(4):
            for j in range(4):
                assert abs(Fraction(sigma[i, j]) - exact[i][j]) <= 1e-13 * abs(exact[i][j]), (i, j)
        report = analyze(sigma, osc, env)
        assert report.s_general >= 0.0 and report.verdict == "separable"

    def test_hypot_beyond_the_doubles(self):
        # a drift matrix of the layout with hypot(lam, omega) ~ 2e308, which no built
        # one reaches: Y and D halved have the same steady state
        block = [[-1.7e308, 1e308], [-1e308, -1.7e308]]
        y, d = _block_diagonal(block, block), np.diag([1e300, 2e300, 3e300, 4e300])
        d[0, 3] = d[3, 0] = 1e299
        exact = exact_steady_state(y, d)
        assert _canonical_error(steady_state_lyapunov(y, d), exact) <= 1e-15

    @pytest.mark.parametrize("lam, diffusion", [(1e-310, 1e-300), (5e-324, 1e-320)])
    def test_subnormal_lambda_against_the_exact_solve(self, lam, diffusion):
        # 1 / (4 lam) is beyond the doubles, and sigma ~ D / lam (1e10 and 2e3) is not
        env = SymmetricEnvironmentParams(lam, diffusion, 0.0, diffusion, 0.0, 0.3 * diffusion)
        y, d = build_drift_matrix(OscillatorParams(1.0, 1.0), env), build_diffusion_matrix(env)
        exact = exact_steady_state(y, d)
        assert _canonical_error(steady_state_lyapunov(y, d), exact) <= 1e-15

    def test_tiny_lambda_does_not_underflow(self):
        # lam^2 = 1e-340 is below the doubles, and sigma ~ 1 / lam = 1e170
        osc, env = OscillatorParams(1.0, 1.0), SymmetricEnvironmentParams(1e-170, 0.6, 0.0, 0.6, 0.0, 0.3)
        y, d = build_drift_matrix(osc, env), build_diffusion_matrix(env)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = steady_state_lyapunov(y, d)
        assert _canonical_error(sigma, exact_steady_state(y, d)) <= 1e-15


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
    """The sign of the drift spectrum: is_hurwitz reads lam > 0 off a built drift
    matrix and takes any other square matrix to eigvals; the solve refuses the latter."""

    @settings(max_examples=500, deadline=None)
    @given(first=_blocks(), second=_blocks(), repeated=st.booleans())
    def test_matches_eigvals(self, first, second, repeated):
        if repeated:
            second = first
        y = _block_diagonal(first[0], second[0])
        want = _eigvals_extent(y)
        eigvals, calls = np.linalg.eigvals, []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
            hurwitz = is_hurwitz(y)
        (a, b), (c, d) = first[0]
        built = first[0] == second[0] and a == d and b > 0.0 > c  # the model's layout
        assert len(calls) == (0 if built else 1)
        if first[1] and second[1]:
            assert hurwitz == (want[0] < 0.0)

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
        assert (_eigvals_extent(y)[0] < 0.0) is hurwitz
        assert is_hurwitz(y) is hurwitz

    def test_small_real_root_keeps_its_digits(self):
        # h + r cancels to a relative 4e-5 here and eigvals is off by 1e-4; the larger
        # root is -9.8999999999999900808e-13 (40-digit mpmath), and at +1e-12 on the
        # diagonal it is +1.01e-12: enough digits for its sign either way
        y = _block_diagonal([[-1e-12, 1e-7], [1e-7, -1.0]], -3.0 * np.eye(2))
        assert is_hurwitz(y)
        y[0, 0] = 1e-12
        assert not is_hurwitz(y)

    @pytest.mark.parametrize(
        "y",
        [
            np.arange(16.0).reshape(4, 4) - 20.0 * np.eye(4),  # dense
            drift() + np.diag([0.0, 1e-300, 0.0], 1),  # one off-block entry, upper right
            drift() + np.diag([0.0, -0.5, 0.0], -1),  # lower left
            _block_diagonal([[-1e200, 1e200], [-1e200, -1e200]], -np.eye(2)),  # distinct blocks
            _block_diagonal([[-1e-200, 1e-200], [-1e-200, -1e-200]], -np.eye(2)),
            -np.eye(3),  # not 4x4
        ],
    )
    def test_other_matrices_use_eigvals(self, y, monkeypatch):
        want = _eigvals_extent(y)
        eigvals, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        assert is_hurwitz(y) == (want[0] < 0.0)
        assert len(calls) == 1
        with pytest.raises(ValueError, match="^drift matrix (is not of|must be 4x4)"):
            steady_state_lyapunov(y, np.eye(4))
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (3, 2), (0, 2)])
    def test_non_finite_drift_raises_linalg_error(self, bad, where, monkeypatch):
        # is_hurwitz takes a non-finite y to eigvals, which raises; the solve
        # refuses it as off the layout, with no eigvals call
        y = drift()
        y[where] = bad
        eigvals, calls = np.linalg.eigvals, []
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        with pytest.raises(np.linalg.LinAlgError):
            is_hurwitz(y)
        with pytest.raises(ValueError, match="^drift matrix is not of the two-oscillator"):
            steady_state_lyapunov(y, np.eye(4))
        assert len(calls) == 1

    def test_barely_damped_without_eigvals(self, monkeypatch):
        y = drift(lam=1e-8)
        exact = exact_steady_state(y, np.eye(4))
        monkeypatch.setattr(np.linalg, "eigvals", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = steady_state_lyapunov(y, np.eye(4))
        assert _canonical_error(sigma, exact) <= 1e-15


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
        with pytest.raises(ClassViolationError):
            steady_state_closed_form(osc, env)

    @pytest.mark.parametrize(
        "m, env",
        [
            # entries overflow to inf
            (1.0, SymmetricEnvironmentParams(lam=1e-10, d_xx=1e300, d_pxpx=1e300, d_xpy=0.3)),
            # m^2 underflows to zero in the denominator of sigma_xx
            (1e-170, SymmetricEnvironmentParams(lam=1e-170, d_xx=0.6, d_pxpx=0.6, d_xpy=0.3)),
        ],
        ids=["overflow", "denominator_underflow"],
    )
    def test_non_finite_raises_before_any_warning(self, m, env):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match="not finite in double precision"):
                steady_state_closed_form(OscillatorParams(m, 1.0), env)

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

    @settings(max_examples=200, deadline=None)
    @given(
        osc=st.tuples(st.floats(1e-20, 1e20), st.floats(1e-20, 1e20)),
        lam=st.floats(1e-20, 1e20),
        stack=st.lists(
            st.lists(st.floats(-1e20, 1e20), min_size=10, max_size=10), min_size=1, max_size=3
        ),
    )
    def test_entries_are_the_matrix_upper_entries(self, osc, lam, stack):
        # steady_entries is steady_state_lyapunov's upper triangle bit for bit: on each
        # environment's floats, and elementwise on their Coefficients stack, as the sweep runs it
        osc, envs = OscillatorParams(*osc), [EnvironmentParams(lam, *row) for row in stack]
        try:
            sigmas = [
                steady_state_lyapunov(build_drift_matrix(osc, env), build_diffusion_matrix(env))
                for env in envs
            ]
        except NonFiniteResultError:
            assume(False)
        stacked = np.array(dynamics.steady_entries(osc, model.Coefficients(lam, *np.array(stack).T)))
        for env, sigma, column in zip(envs, sigmas, stacked.T, strict=True):
            want = [v.hex() for v in sigma[UPPER].tolist()]
            assert [v.hex() for v in dynamics.steady_entries(osc, env)] == want
            assert [v.hex() for v in column.tolist()] == want

    def test_silent_when_barely_damped(self, osc):
        env = SymmetricEnvironmentParams(lam=1e-8, d_xx=1.0, d_pxpx=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = steady_state_closed_form(osc, env)
        exact = exact_steady_state(build_drift_matrix(osc, env), build_diffusion_matrix(env))
        assert _canonical_error(sigma, exact) <= 1e-15

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


class TestSteadyEntries:
    """`steady_entries` on coefficient stacks, against the exact solve over the double range."""

    @settings(max_examples=100, deadline=None)
    @given(
        exponents=st.lists(st.floats(-150.0, 150.0), min_size=3, max_size=3),
        stack=st.lists(
            st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10), min_size=1, max_size=3
        ),
    )
    def test_stacks_against_the_exact_solve(self, exponents, stack):
        # m, omega and lam log-uniform over 1e+-150, and each environment's ten coefficients
        # in canonical units, as in test_range_against_the_exact_solve; a stack keeps the
        # environments whose exact sigma_inf and D are normal doubles or zeros
        m, omega, lam = (10.0**e for e in exponents)
        osc, mw = OscillatorParams(m, omega), Fraction(m) * Fraction(omega)
        try:
            y = build_drift_matrix(osc, EnvironmentParams(lam))
        except NonFiniteResultError:
            assume(False)
        rows, exacts = [], []
        for values in stack:
            row = [v * lam * (m * omega) ** -kind for v, kind in zip(values, _COEFFICIENT_TYPES)]
            if not all(map(_normal_or_zero, row)):
                continue
            exact = exact_steady_state(y, build_diffusion_matrix(EnvironmentParams(lam, *row)))
            if all(_normal_or_zero(v) for line in exact for v in line) and any(map(any, exact)):
                rows.append(row)
                exacts.append(exact)
        assume(rows)
        entries = np.array(dynamics.steady_entries(osc, model.Coefficients(lam, *np.array(rows).T)))
        for column, exact in zip(entries.T, exacts, strict=True):
            assert _canonical_error(model._symmetric(column.tolist()), exact, mw) <= 1e-13


class TestPropagate:
    @pytest.mark.parametrize(
        "sigma0, sigma_inf, t, message",
        [
            (np.eye(4) * (1 + 1j), np.eye(4), 1.0, "^covariance matrix must be real"),
            (np.full((4, 4), math.nan), np.eye(4), 1.0, "^covariance matrix entries must be"),
            (np.eye(4), np.full((4, 4), math.nan), 0.0, "^covariance matrix entries must be"),
            (np.eye(4), np.eye(3), 1.0, r"^covariance matrix must be 4x4, got shape \(3, 3\)$"),
        ],
        ids=["sigma0_complex", "sigma0_nan", "sigma_inf_nan_at_zero", "sigma_inf_3x3"],
    )
    def test_reads_its_covariances(self, sigma0, sigma_inf, t, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                propagate(sigma0, sigma_inf, drift(), t)

    def test_time_zero_is_exact(self, osc, reference_env, reference_sigma_inf):
        y = build_drift_matrix(osc, reference_env)
        sigma0 = make_vacuum_covariance(osc)
        np.testing.assert_array_equal(
            propagate(sigma0, reference_sigma_inf, y, 0.0), sigma0
        )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 17: propagate's M (sigma0 - sigma_inf) M^T + sigma_inf cancels "
        "entries of size 1 / lambda; propagated_entries, fed D, is the accurate route",
    )
    def test_tiny_lambda_keeps_sigma(self):
        # lambda = 1e-80 at m = omega = 1 from the vacuum: sigma_xx(0.5) is 1.1, which
        # propagated_entries gives, and propagate gives -1.3e64
        osc = OscillatorParams(1.0, 1.0)
        env = SymmetricEnvironmentParams(lam=1e-80, d_xx=0.6, d_pxpx=0.6, d_xpy=0.3)
        y, d = build_drift_matrix(osc, env), build_diffusion_matrix(env)
        sigma0 = make_vacuum_covariance(osc)
        assert dynamics.propagated_entries(sigma0, y, d, 0.5)[0] == pytest.approx(1.1, rel=1e-12)
        got = propagate(sigma0, steady_state_lyapunov(y, d), y, 0.5)[0, 0]
        assert got == pytest.approx(1.1, rel=1e-12)

    def test_growing_propagator(self):
        # lambda < 0: M sigma0 M^T ~ e^706 is finite where the unused source integral
        # e^706 / (2 |lambda|) is not, and D = 0 never forms it
        y, t = drift(lam=-1e-3), 706.0 / 2e-3
        mt = matrix_exponential(y, t).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma = propagate(np.eye(4), np.zeros((4, 4)), y, t)
        np.testing.assert_allclose(sigma, mt @ mt.T, rtol=0, atol=1e-12 * np.abs(mt @ mt.T).max())

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


@st.composite
def _propagation_cases(draw):
    """(y, D, sigma0, t): m and omega log-uniform in [e^-3, e^3], lambda in [1e-300, 1e3],
    ten standard-normal coefficients, a physical sigma0 and omega t in [0, 10]."""
    m, omega = (math.exp(draw(st.floats(-3.0, 3.0))) for _ in range(2))
    lam = 10.0 ** draw(st.floats(-300.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    env = EnvironmentParams(lam, *rng.standard_normal(10).tolist())
    y = build_drift_matrix(OscillatorParams(m, omega), env)
    return y, build_diffusion_matrix(env), random_physical_covariance(rng), draw(st.floats(0.0, 10.0)) / omega


class TestPropagatedEntries:
    """sigma(t) from sigma0 and D with no sigma_inf, against 50-digit quadrature."""

    @settings(max_examples=25, deadline=None)
    @given(case=_propagation_cases())
    def test_against_mpmath(self, case):
        y, d, sigma0, t = case
        exact = np.array(mp_sigma_t(y, d, sigma0, t), dtype=float)[UPPER]
        got = np.array(dynamics.propagated_entries(sigma0, y, d, t))
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("lam", [1e-300, 1e-9, 0.1, 1.0, 10.0, 1e3])
    def test_source_integrals_against_mpmath(self, lam):
        # I0, Re J and Im J each to 1e-14 of itself: Re J carries the sin^2 integral,
        # which cancels in the closed form for a small |z t|, as for lambda >> omega.
        # C2, the cos(2 w s) integral, crosses zero: to 1e-14 of I0
        for w in (0.05, 1.0, 20.0):
            times = [1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0]
            got = np.array(dynamics._source_integrals(-lam, w, np.array(times)))
            with mpmath.workdps(80):
                x, z = -2 * mpmath.mpf(lam), mpmath.mpc(-2 * mpmath.mpf(lam), 2 * mpmath.mpf(w))
                for t, values in zip(times, got.T):
                    i0, cosine = mpmath.expm1(x * t) / x, mpmath.expm1(z * t) / z
                    d = cosine - i0
                    exacts, scales = (i0, d.real, d.imag, cosine.real), (i0, d.real, d.imag, i0)
                    for value, exact, scale in zip(values, exacts, scales, strict=True):
                        assert abs(value - exact) <= 1e-14 * abs(scale), (lam, w, t)

    @pytest.mark.parametrize("lam", [1e-2, 1e-4, 1e-6, 1e-9])
    def test_long_times_reach_the_exact_steady_state(self, lam):
        # sigma(60 / lam) from sigma0 = 0 is sigma_inf to exp(-120) ~ 1e-52, entry by entry:
        # no entry of size 1 / lam cancels in W(t) as t grows
        coefficients = (0.7, 0.02, 0.05, 0.1, 0.12, 0.8, 0.75, 0.03, 0.04, 0.85)
        env = EnvironmentParams(lam, *coefficients)
        y, d = build_drift_matrix(OscillatorParams(1.3, 0.7), env), build_diffusion_matrix(env)
        exact = exact_steady_state(y, d)
        got = dynamics.propagated_entries(np.zeros((4, 4)), y, d, 60.0 / lam)
        for (i, j), value in zip(zip(*UPPER), got, strict=True):
            assert abs(Fraction(float(value)) - exact[i][j]) <= 1e-12 * abs(exact[i][j]), (i, j)

    @settings(max_examples=200, deadline=None)
    @given(
        exponents=st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
        coefficients=st.lists(st.floats(-1.0, 1.0), min_size=10, max_size=10),
    )
    @example(
        # D_xx = 0.6 lam / (m omega), D_pxpx = 0.6 lam m omega and D_xpy = 0.3 lam, mirrored:
        # there c (D_xpy + D_ypx) / omega overflowed in sigma_pxpy's source term, to a NaN
        exponents=[math.log10(3.97e79), math.log10(1.89e95), math.log10(1.38e57)],
        coefficients=[0.6, 0.0, 0.0, 0.3, 0.3, 0.6, 0.6, 0.0, 0.0, 0.6],
    )
    def test_range_at_long_times_against_the_exact_solve(self, exponents, coefficients):
        # test_range_against_the_exact_solve's draws, from sigma0 = 0 to t = 60 / lam, where
        # sigma(t) is sigma_inf to exp(-120): finite wherever sigma_inf is normal
        m, omega, lam = (10.0**e for e in exponents)
        mw = m * omega
        env = EnvironmentParams(
            lam, *(v * lam * mw**-kind for v, kind in zip(coefficients, _COEFFICIENT_TYPES))
        )
        y, d = build_drift_matrix(OscillatorParams(m, omega), env), build_diffusion_matrix(env)
        exact = exact_steady_state(y, d)
        assume(all(_normal_or_zero(v) for row in exact for v in row) and any(map(any, exact)))
        got = dynamics.propagated_entries(np.zeros((4, 4)), y, d, 60.0 / lam)
        sigma = model._symmetric([float(v) for v in got])
        assert np.isfinite(sigma).all()
        assert _canonical_error(sigma, exact, Fraction(m) * Fraction(omega)) <= 1e-13

    def test_time_zero_is_sigma0(self):
        rng = np.random.default_rng(11)
        sigma0 = random_physical_covariance(rng)
        env = EnvironmentParams(1e-9, *rng.standard_normal(10).tolist())
        y, d = build_drift_matrix(OscillatorParams(1.3, 0.7), env), build_diffusion_matrix(env)
        got = dynamics.propagated_entries(sigma0, y, d, np.array([0.0, 1.0]))
        assert [float(v[0]) for v in got] == sigma0[UPPER].tolist()

    def test_propagate_is_the_kernel_without_diffusion(self):
        # D = 0: sigma_inf = 0, and propagate adds nothing to the kernel's entries
        rng = np.random.default_rng(12)
        times = np.linspace(0.0, 7.0, 15)
        zero = np.zeros((4, 4))
        for _ in range(20):
            osc = random_oscillator(rng, 0.1, 10.0)
            y = build_drift_matrix(osc, EnvironmentParams(float(rng.uniform(0.01, 2.0))))
            sigma0 = random_physical_covariance(rng)
            kernel = np.array(dynamics.propagated_entries(sigma0, y, zero, times)).T
            np.testing.assert_array_equal(propagate(sigma0, zero, y, times)[:, UPPER[0], UPPER[1]], kernel)

    def test_propagate_agrees_with_the_kernel(self):
        # with a source: M (sigma0 - sigma_inf) M^T + sigma_inf against M sigma0 M^T + W(t)
        rng = np.random.default_rng(13)
        times = np.linspace(0.0, 7.0, 15)
        for _ in range(20):
            osc = random_oscillator(rng, 0.1, 10.0)
            env = EnvironmentParams(float(rng.uniform(0.1, 2.0)), *rng.standard_normal(10).tolist())
            y, d = build_drift_matrix(osc, env), build_diffusion_matrix(env)
            sigma0 = random_physical_covariance(rng)
            sigmas = propagate(sigma0, steady_state_lyapunov(y, d), y, times)[:, UPPER[0], UPPER[1]]
            kernel = np.array(dynamics.propagated_entries(sigma0, y, d, times)).T
            np.testing.assert_allclose(kernel, sigmas, rtol=0, atol=1e-13 * np.abs(sigmas).max())
