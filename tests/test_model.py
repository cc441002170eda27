import math
import tracemalloc
from dataclasses import asdict, fields, make_dataclass, replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from twomode import (
    EnvironmentParams,
    NonFiniteResultError,
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
from twomode.model import PSD_TOLERANCE, Coefficients, _gram, _min_gram_eigenvalue, _validity

from support import random_symmetric_env


# The paper's symmetric environment class: (y-mode field, the x-mode field it equals).
MIRRORED_PAIRS = (("d_yy", "d_xx"), ("d_ypy", "d_xpx"), ("d_pypy", "d_pxpx"), ("d_ypx", "d_xpy"))


def _bytes_per_object(make, count=10_000):
    """Traced bytes per object of a list of count objects from make()."""
    make()
    tracemalloc.start()
    try:
        objects = [make() for _ in range(count)]
        return tracemalloc.get_traced_memory()[0] / len(objects)
    finally:
        tracemalloc.stop()


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

    def test_the_first_non_finite_field_is_named(self):
        # field order, not argument order: d_xpy comes before d_pypy
        with pytest.raises(ValueError, match=r"^d_xpy must be finite, got nan$"):
            EnvironmentParams(lam=1.0, d_pypy=math.inf, d_xpy=math.nan)
        # a mirrored environment names the given field, not its mirror d_ypx
        with pytest.raises(ValueError, match=r"^d_xpy must be finite, got -inf$"):
            SymmetricEnvironmentParams(lam=1.0, d_xpy=-math.inf)
        # the values sum to NaN: the first of the two in field order is named
        with pytest.raises(ValueError, match=r"^d_xy must be finite, got -inf$"):
            EnvironmentParams(lam=1.0, d_pxpy=math.inf, d_xy=-math.inf)
        # finite values whose sum overflows are finite, numpy scalars with no
        # overflow warning (an error under the suite's filter)
        env = EnvironmentParams(lam=1.5e308, d_xx=1.5e308, d_pxpx=1.5e308)
        assert (env.lam, env.d_xx, env.d_pxpx) == (1.5e308,) * 3
        EnvironmentParams(lam=np.float64(1.5e308), d_xx=np.float64(1.5e308))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: EnvironmentParams(1.0, 0.6, 0.01, 0.02, 0.3, 0.31, 0.6, 0.61, 0.01, 0.02, 0.6),
            lambda: SymmetricEnvironmentParams(1.0, 0.6, 0.01, 0.6, 0.02, 0.3, 0.02),
            lambda: OscillatorParams(1.0, 2.0),
        ],
        ids=["EnvironmentParams", "SymmetricEnvironmentParams", "OscillatorParams"],
    )
    def test_parameter_objects_stay_small(self, make):
        # No larger than a plain frozen dataclass of the same values: about 180 bytes
        # an environment on Python 3.11, the list's pointer included.  A check that
        # reads or writes the instance __dict__ makes a dict per object there (240 B).
        values = [getattr(make(), f.name) for f in fields(make())]
        bare = make_dataclass("Bare", [f.name for f in fields(make())], frozen=True)
        assert _bytes_per_object(make) <= _bytes_per_object(lambda: bare(*values)) + 16

    def test_symmetric_environment_mirrors_exactly(self):
        env = SymmetricEnvironmentParams(
            lam=0.8, d_xx=0.2, d_xpx=0.05, d_pxpx=0.3, d_xy=0.01, d_xpy=0.07, d_pxpy=0.02
        )
        assert env.d_yy == env.d_xx
        assert env.d_ypy == env.d_xpx
        assert env.d_pypy == env.d_pxpx
        assert env.d_ypx == env.d_xpy
        assert is_symmetric_environment(env)

    def test_replace_mirrors_the_x_mode_fields(self):
        env = SymmetricEnvironmentParams(1.0, 0.6, 0.05, 0.6, 0.01, 0.3, 0.02)
        assert replace(SymmetricEnvironmentParams(lam=1.0)) == SymmetricEnvironmentParams(lam=1.0)
        moved = replace(env, d_xx=0.7, d_xpy=0.2)
        assert type(moved) is SymmetricEnvironmentParams
        assert moved == SymmetricEnvironmentParams(1.0, 0.7, 0.05, 0.6, 0.01, 0.2, 0.02)
        assert (moved.d_yy, moved.d_ypx) == (0.7, 0.2)
        for y in ("d_ypx", "d_yy", "d_ypy", "d_pypy"):
            with pytest.raises(ValueError, match="init=False"):
                replace(env, **{y: 0.5})

    def test_symmetric_environment_is_the_same_value(self):
        # the y-mode fields are declared again, without changing the field order,
        # the repr, equality or the hash
        env = SymmetricEnvironmentParams(0.8, 0.2, 0.05, 0.3, 0.01, 0.07, 0.02)
        assert [f.name for f in fields(env)] == [f.name for f in fields(EnvironmentParams)]
        assert repr(env) == (
            "SymmetricEnvironmentParams(lam=0.8, d_xx=0.2, d_xpx=0.05, d_xy=0.01, d_xpy=0.07, "
            "d_ypx=0.07, d_pxpx=0.3, d_yy=0.2, d_ypy=0.05, d_pxpy=0.02, d_pypy=0.3)"
        )
        assert hash(env) == hash(tuple(asdict(env).values()))
        assert env == SymmetricEnvironmentParams(0.8, 0.2, 0.05, 0.3, 0.01, 0.07, 0.02)
        assert env != EnvironmentParams(**asdict(env))

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
            # an EnvironmentParams gives a bool, for numpy-scalar fields too; 0.0 == -0.0
            for scalar in (float, np.float64):
                env = EnvironmentParams(**{k: scalar(v) for k, v in values.items()})
                assert is_symmetric_environment(env) is True
            y, x = data.draw(st.sampled_from(MIRRORED_PAIRS))
            signed = EnvironmentParams(**{**values, x: 0.0, y: -0.0})
            assert is_symmetric_environment(signed) is True
        # Perturbing any one y-field by 1e-9 relative (of max(|value|, 1)) breaks the mirror.
        y, _ = data.draw(st.sampled_from(MIRRORED_PAIRS))
        if stacked:
            index = data.draw(st.integers(0, len(envs) - 1))
            values[y][index] += 1e-9 * max(abs(values[y][index]), 1.0)
            expected = [i != index for i in range(len(envs))]
            assert is_symmetric_environment(SimpleNamespace(**values)).tolist() == expected
        else:
            values[y] += 1e-9 * max(abs(values[y]), 1.0)
            for scalar in (float, np.float64):
                env = EnvironmentParams(**{k: scalar(v) for k, v in values.items()})
                assert is_symmetric_environment(env) is False

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
        # the diagonal is -lam = -0.0, the off-diagonal blocks +0.0, in a new C-ordered array
        assert np.signbit(np.diag(y)).all()
        assert not (np.signbit(y[:2, 2:]).any() or np.signbit(y[2:, :2]).any())
        assert y.flags.c_contiguous and y.flags.writeable and y.flags.owndata

    def test_half_damping_block(self):
        y = build_drift_matrix(OscillatorParams(1.0, 1.0), EnvironmentParams(lam=0.5))
        np.testing.assert_array_equal(y[:2, :2], [[-0.5, 1.0], [-1.0, -0.5]])

    @pytest.mark.parametrize(
        "m, omega", [(1.0, 1e-160), (9.11, 3e-162), (1e-300, 3e-12), (1e-308, 1.0), (1e308, 1.0)]
    )
    def test_refuses_an_entry_below_the_normal_doubles(self, m, omega):
        # a subnormal omega^2, m omega^2 or 1/m keeps too few digits for exp(Y t): at m = 1,
        # omega = 1e-160, exp(Y t)[0, 0] at t = 3e160 came out -0.98999014 for -0.98999250
        message = r"must lie in \[2\.2250738585072014e-308, 1\.8e308\)$"
        with pytest.raises(NonFiniteResultError, match=message):
            build_drift_matrix(OscillatorParams(m, omega), EnvironmentParams(lam=1.0))

    def test_smallest_normal_spring(self):
        tiny = float(np.finfo(float).tiny)
        y = build_drift_matrix(OscillatorParams(tiny, 1.0), EnvironmentParams(lam=1.0))
        assert (y[1, 0], y[0, 1]) == (-tiny, 1.0 / tiny)

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


_REDUCED = ("lam", "d_xx", "d_xpx", "d_pxpx", "d_xy", "d_xpy", "d_pxpy")
# Decades that the nonzero coefficients of one environment span.  Beyond a few
# hundred decades LAPACK's Hermitian eigensolvers lose digits, so eigvalsh is no
# oracle there (see test_wide_span_is_exact).
_SPAN = 100


@st.composite
def reduced_coefficients(draw):
    """lam and the six reduced coefficients: free, or on the boundary D_xx D_pxpx = lam^2/4.

    The nonzero coefficients have either sign and magnitudes from 10**top down
    to _SPAN decades below it, top being 0 or drawn from -300 to 299.
    On the boundary D_xx = k |lam|/2 and D_pxpx = |lam|/(2k) with k a power of
    two, so the product is exact; D_xx may then be lowered by up to 4e-10, which
    moves the minimum eigenvalue across -PSD_TOLERANCE when lam is of order one.
    """
    top = draw(st.one_of(st.just(0), st.integers(-300, 299)))
    coefficient = st.one_of(
        st.just(0.0),
        st.builds(
            lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
            st.sampled_from((-1.0, 1.0)),
            st.floats(1.0, 9.99),
            st.integers(max(-300, top - _SPAN), top),
        ),
    )
    values = dict(zip(_REDUCED, draw(st.tuples(*[coefficient] * 7))))
    if draw(st.booleans()):
        k, half = 2.0 ** draw(st.integers(-20, 20)), abs(values["lam"]) / 2.0
        values.update(d_xx=k * half, d_pxpx=half / k)
        if draw(st.booleans()):
            values.update(d_xpx=0.0, d_xy=0.0, d_xpy=0.0, d_pxpy=0.0)
        values["d_xx"] -= draw(st.sampled_from((0.0, 1e-10, 2e-10, 4e-10)))
    return values


@st.composite
def mirrored_environments(draw):
    """A SymmetricEnvironmentParams, or a stack of them as arrays, of drawn coefficients."""
    rows = draw(st.lists(reduced_coefficients(), min_size=1, max_size=6))
    envs = [SymmetricEnvironmentParams(**row) for row in rows]
    if not draw(st.booleans()):
        return envs[0]
    names = [f.name for f in fields(EnvironmentParams)]
    return SimpleNamespace(**{name: np.array([getattr(e, name) for e in envs]) for name in names})


def _gram_oracle(env):
    """Minimum Gram eigenvalue by eigvalsh, and 16 eps max|G| per environment.

    eigvalsh runs on G scaled by a power of two to a largest real or imaginary
    part in [0.5, 1), which is exact.  On the unscaled G it lost up to 1e11 eps
    max|G| on a few of these environments of extreme magnitude; scaled, it
    stayed within 10.
    """
    gram = build_gram_matrix(env)
    band = 16 * np.finfo(float).eps * np.abs(gram).max(axis=(-2, -1))
    exponent = np.frexp(np.maximum(abs(gram.real), abs(gram.imag)).max(axis=(-2, -1)))[1]
    scale = -exponent[..., None, None]
    gram.real, gram.imag = np.ldexp(gram.real, scale), np.ldexp(gram.imag, scale)
    return np.ldexp(np.linalg.eigvalsh(gram)[..., 0], exponent)[()], band


def _mp_min_gram_eigenvalue(env):
    """The smallest eigenvalue of env's Gram matrix, to double precision from 80 digits."""
    rows = build_gram_matrix(env).tolist()
    with mpmath.workdps(80):
        gram = mpmath.matrix([[mpmath.mpc(z) for z in row] for row in rows])
        return float(min(mpmath.eighe(gram, eigvals_only=True)))


class TestClosedFormGramSpectrum:
    """The closed-form spectrum of exactly mirrored environments against eigvalsh."""

    @settings(max_examples=200, deadline=None)
    @given(env=mirrored_environments())
    def test_matches_eigvalsh(self, env):
        oracle, band = _gram_oracle(env)
        closed = _min_gram_eigenvalue(env)
        same_infinity = np.isinf(oracle) & (closed == oracle)
        assert np.all((np.abs(closed - oracle) <= band) | same_infinity), (closed, oracle)

    @settings(max_examples=200, deadline=None)
    @given(env=mirrored_environments())
    def test_verdicts_match_eigvalsh(self, env):
        oracle, band = _gram_oracle(env)
        psd_failed = oracle < -PSD_TOLERANCE
        decided = np.abs(oracle + PSD_TOLERANCE) > band
        if isinstance(env, EnvironmentParams):
            if decided:
                lenient = validate_environment(env, "lenient")
                strict = validate_environment(env, "strict")
                assert strict.failed == lenient.failed + ("gram_psd",) * bool(psd_failed)
                assert strict.passed == (lenient.passed and not psd_failed)
        else:
            with np.errstate(all="ignore"):  # array slacks overflow, as in the sweep
                valid_strict, valid_lenient = _validity(env)
            expected = valid_lenient & ~psd_failed
            np.testing.assert_array_equal(valid_strict[decided], expected[decided])

    @settings(max_examples=100, deadline=None)
    @given(env=mirrored_environments(), data=st.data())
    def test_unmirrored_environment_uses_eigvalsh(self, env, data):
        # One y-field one step off its x-field, at one point of a stack.
        y, x = data.draw(st.sampled_from(MIRRORED_PAIRS))
        values = {f.name: np.array(getattr(env, f.name)) for f in fields(EnvironmentParams)}
        index = data.draw(st.integers(0, values[y].size - 1))
        values[y].reshape(-1)[index] = np.nextafter(values[x].reshape(-1)[index], np.inf)
        if isinstance(env, EnvironmentParams):
            env = EnvironmentParams(**{k: float(v) for k, v in values.items()})
        else:
            env = SimpleNamespace(**values)
        closed = _min_gram_eigenvalue(env)
        assert np.asarray(closed).tobytes() == np.asarray(_gram_oracle(env)[0]).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(values=reduced_coefficients(), data=st.data())
    def test_unmirrored_spectrum_matches_mpmath(self, values, data):
        # Every y-field moved off its x-field by a drawn factor, so the
        # environment takes the eigvalsh path, on entries up to 1e299 that span
        # up to _SPAN decades.
        env = SymmetricEnvironmentParams(**values)
        factor = st.sampled_from((0.5, 0.9, 1.0, 1.1, 2.0, -1.0))
        moved = {y: getattr(env, x) * data.draw(factor) for y, x in MIRRORED_PAIRS}
        env = EnvironmentParams(**{**asdict(env), **moved})
        ours, want = _min_gram_eigenvalue(env), _mp_min_gram_eigenvalue(env)
        band = 16 * np.finfo(float).eps * np.abs(build_gram_matrix(env)).max()
        assert abs(ours - want) <= band, (ours, want)
        assert validate_environment(env).min_gram_eigenvalue == ours

    def test_unmirrored_wide_span(self):
        # the twin of test_wide_span_is_exact, one ulp off mirrored: unscaled,
        # eigvalsh gave -6.232310015111197e135
        env = EnvironmentParams(
            lam=8.13728406e-265, d_xx=9.99e-254, d_xpx=-4.99474192e-26, d_xy=6.23478513e135,
            d_yy=math.nextafter(9.99e-254, 1.0), d_ypy=-4.99474192e-26,
        )
        assert _mp_min_gram_eigenvalue(env) == -6.23478513e135
        assert validate_environment(env).min_gram_eigenvalue == -6.23478513e135

    def test_wide_span_is_exact(self):
        # Gram entries from 6e135 down to 1e-254: the smaller eigenvalue of the
        # P - Q block is D_xx - D_xy to double precision, which the closed form
        # gives.  LAPACK's Hermitian solvers (numpy's eigvalsh; scipy's ev, evd,
        # evr and evx drivers) gave -6.2323e135 with OpenBLAS 0.3.31 on x86-64.
        env = SymmetricEnvironmentParams(
            lam=8.13728406e-265, d_xx=9.99e-254, d_xpx=-4.99474192e-26, d_xy=6.23478513e135
        )
        assert _min_gram_eigenvalue(env) == env.d_xx - env.d_xy == -6.23478513e135
        assert validate_environment(env).min_gram_eigenvalue == -6.23478513e135

    def test_mirrored_validation_does_not_call_eigvalsh(self, monkeypatch, reference_env):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called for a mirrored environment")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for env in (reference_env, SymmetricEnvironmentParams(0.5, 0.25, 0.01, 0.25, 0.02, 0.2)):
            assert isinstance(validate_environment(env, "strict").min_gram_eigenvalue, float)


# A coefficient of either sign with a magnitude from 1e-300 to 1e300, or a zero.
_WIDE = st.sampled_from([0.0, -0.0]) | st.builds(
    lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([1.0, -1.0]), st.floats(-300, 300)
)


class TestGramRule:
    """One rule for the Gram spectrum of an environment that is not mirrored: floats
    for one environment, arrays for a stack, the same bits either way."""

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(_WIDE, min_size=11, max_size=11),
        others=st.lists(st.lists(_WIDE, min_size=11, max_size=11), min_size=1, max_size=3),
        index=st.integers(0, 3),
    )
    @example(  # lam/2 600 decades below the largest coefficient
        values=[1e-300, 1e300, 0.5, -2.0, 3.0, 0.0, 1e300, 7.0, 1e-200, -0.0, 1e299],
        others=[[1.0] * 11],
        index=1,
    )
    @example(  # -d_xpx scales to -0.0; summed as -0.0 + 0j it was +0.0, and eigvalsh moved a bit
        values=[0.0, 0.0, 1e-202, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1e122, 0.0],
        others=[[0.0] * 11],
        index=0,
    )
    def test_one_environment_equals_its_point_of_a_stack(self, values, others, index):
        env = EnvironmentParams(*values)
        assume(not all(getattr(env, y) == getattr(env, x) for y, x in MIRRORED_PAIRS))
        index = min(index, len(others))
        rows = others[:index] + [values] + others[index:]
        stack = Coefficients(*[np.array(column) for column in zip(*rows)])
        single = _min_gram_eigenvalue(env)
        assert type(single) is float
        assert single.hex() == float(_min_gram_eigenvalue(stack)[index]).hex()
        # and the scale taken on the built matrix gives the same bits
        assert single.hex() == float(_gram_oracle(env)[0]).hex()

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_WIDE, min_size=11, max_size=11))
    def test_one_gram_matrix_equals_its_stack_of_one(self, values):
        # one environment's floats go through one np.array call, a stack through
        # _stack and assigned imaginary parts: the same entries, signed zeros too
        env = EnvironmentParams(*values)
        one = build_gram_matrix(env)
        stacked = _gram(*[np.array([v]) for v in values[1:]], np.array([0.5 * values[0]]))[0]
        assert one.shape == (4, 4)
        for part in (np.real, np.imag):
            assert np.array_equal(part(one), part(stacked))
            assert np.array_equal(np.signbit(part(one)), np.signbit(part(stacked)))

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_stack_beyond_the_double_range_is_silent(self, mirrored):
        # -inf with no RuntimeWarning (an error under the suite's filter), as for one environment
        values = dict(lam=1.0, d_xx=-1.7e308, d_pxpx=1.7e308, d_xy=1.7e308)
        if mirrored:
            values.update(d_yy=-1.7e308, d_pypy=1.7e308)
        one = EnvironmentParams(**values)
        stack = Coefficients(*[np.array([getattr(one, f.name)]) for f in fields(one)])
        assert _min_gram_eigenvalue(one) == -math.inf
        assert _min_gram_eigenvalue(stack).tolist() == [-math.inf]


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
