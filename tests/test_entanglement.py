import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twomode import (
    ClassViolationError,
    DivergentNegativityError,
    EnvironmentParams,
    NegativeRadicandError,
    NonFiniteResultError,
    NonPositiveFError,
    NonPositiveLambdaError,
    OscillatorParams,
    SymmetricEnvironmentParams,
    TwoModeError,
    UncertaintyViolationError,
    analyze,
    block_decompose,
    det_c_closed_form,
    entanglement_window,
    f_sigma,
    log_negativity,
    log_negativity_closed_form,
    make_vacuum_covariance,
    simon_s,
    simon_s_special,
    steady_state_closed_form,
)

from twomode.entanglement import _invariants

from support import (
    matched_env,
    pt_log_negativity,
    random_physical_covariance,
    random_spd,
    random_valid_symmetric_env,
)

VACUUM = np.diag([0.5, 0.5, 0.5, 0.5])

# reference values recomputed through independent routes below
E_REFERENCE = -math.log2(2.0 * (0.6 - 0.3 / math.sqrt(2.0)))
E_SEPARABLE = -math.log2(1.2)


class TestBlockDecompose:
    def test_vacuum_blocks(self):
        blocks = block_decompose(VACUUM)
        np.testing.assert_array_equal(blocks.a, 0.5 * np.eye(2))
        np.testing.assert_array_equal(blocks.b, 0.5 * np.eye(2))
        np.testing.assert_array_equal(blocks.c, np.zeros((2, 2)))

    def test_reference_blocks(self, reference_sigma_inf):
        blocks = block_decompose(reference_sigma_inf)
        np.testing.assert_array_equal(blocks.a, 0.6 * np.eye(2))
        np.testing.assert_array_equal(blocks.b, 0.6 * np.eye(2))
        np.testing.assert_array_equal(blocks.c, [[0.15, 0.15], [0.15, -0.15]])

    def test_reassembly_round_trip(self):
        rng = np.random.default_rng(21)
        sigma = random_spd(rng)
        np.testing.assert_array_equal(block_decompose(sigma).reassemble(), sigma)


class TestDetCClosedForm:
    def test_zero_cross_coefficients(self, osc):
        env = SymmetricEnvironmentParams(lam=0.9, d_xx=0.3, d_pxpx=0.4)
        assert det_c_closed_form(osc, env) == 0.0

    def test_momentum_position_cross_only(self, osc, reference_env):
        value = det_c_closed_form(osc, reference_env)
        assert abs(value - (-0.045)) <= 1e-15
        # cross-check against the determinant of the steady-state cross block
        c = block_decompose(steady_state_closed_form(osc, reference_env)).c
        assert abs(value - np.linalg.det(c)) <= 1e-15

    def test_second_point(self, osc):
        env = SymmetricEnvironmentParams(lam=0.5, d_xpy=0.2)
        value = det_c_closed_form(osc, env)
        assert abs(value - (-0.032)) <= 1e-15
        c = block_decompose(steady_state_closed_form(osc, env)).c
        assert abs(value - np.linalg.det(c)) <= 1e-15

    def test_rejects_nonpositive_lambda(self, osc):
        with pytest.raises(NonPositiveLambdaError):
            det_c_closed_form(osc, SymmetricEnvironmentParams(lam=-0.5))

    @pytest.mark.parametrize("closed_form", [det_c_closed_form, simon_s_special])
    def test_lambda_squared_underflow(self, osc, closed_form):
        env = SymmetricEnvironmentParams(lam=1e-170, d_xx=0.6, d_pxpx=0.6, d_xpy=0.3)
        with pytest.raises(NonFiniteResultError, match="lambda is too small"):
            closed_form(osc, env)

    def test_separability_gate(self):
        # for completely positive dynamics (strictly valid environment),
        # det C >= 0 guarantees a separable asymptotic state; the converse
        # direction is not asserted
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(300):
            osc = OscillatorParams(float(rng.uniform(0.5, 2)), float(rng.uniform(0.5, 2)))
            env = random_valid_symmetric_env(rng, mode="strict")
            if det_c_closed_form(osc, env) >= 0.0:
                sigma = steady_state_closed_form(osc, env)
                assert simon_s(block_decompose(sigma)) >= 0.0
                checked += 1
        assert checked > 50


class TestSimonS:
    def test_vacuum_boundary(self):
        assert simon_s(block_decompose(VACUUM)) == 0.0

    def test_reference_state_entangled(self, reference_sigma_inf):
        value = simon_s(block_decompose(reference_sigma_inf))
        assert abs(value - (-0.040775)) <= 1e-12

    def test_uncorrelated_state_separable(self):
        value = simon_s(block_decompose(0.6 * np.eye(4)))
        assert abs(value - 0.0121) <= 1e-12


class TestSimonSSpecial:
    def test_reference_environment(self, osc, reference_env):
        value = simon_s_special(osc, reference_env)
        assert abs(value - (-0.040775)) <= 1e-12

    def test_second_point(self, osc, boundary_env):
        value = simon_s_special(osc, boundary_env)
        assert abs(value - (-0.030976)) <= 1e-12

    def test_uncertainty_boundary_is_zero(self, osc):
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=0.5, d_pxpx=0.5)
        assert simon_s_special(osc, env) == 0.0

    def test_rejects_unmatched_momentum_noise(self, osc):
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=0.6, d_pxpx=0.5)
        with pytest.raises(ClassViolationError):
            simon_s_special(osc, env)

    def test_rejects_position_momentum_correlation(self, osc):
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=0.6, d_xpx=0.1, d_pxpx=0.6)
        with pytest.raises(ClassViolationError):
            simon_s_special(osc, env)

    def test_agrees_with_general_route(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            m, omega, lam = (float(v) for v in rng.uniform(0.5, 2.0, size=3))
            osc = OscillatorParams(m, omega)
            env = matched_env(m, omega, lam, u=float(rng.uniform(0.5, 3)), v=float(rng.uniform(0, 3)))
            special = simon_s_special(osc, env)
            general = simon_s(block_decompose(steady_state_closed_form(osc, env)))
            assert abs(special - general) <= 1e-9 * max(1.0, abs(special))


    @pytest.mark.parametrize(
        "d_xy, d_xpy, det_c_sign",
        [(0.3, 0.05, 1.0), (0.1, 0.4, -1.0)],
        ids=["det_c_positive", "det_c_negative"],
    )
    def test_position_cross_noise(self, osc, d_xy, d_xpy, det_c_sign):
        # matched class with D_xy != 0; (1/4 - |det C|)^2 differs from the
        # closed form's (1/4 + det C)^2 when det C > 0
        env = SymmetricEnvironmentParams(
            lam=1.0, d_xx=0.8, d_pxpx=0.8, d_xy=d_xy, d_xpy=d_xpy, d_pxpy=d_xy
        )
        assert np.sign(det_c_closed_form(osc, env)) == det_c_sign
        general = simon_s(block_decompose(steady_state_closed_form(osc, env)))
        assert abs(simon_s_special(osc, env) - general) <= 1e-12

    def test_agrees_with_general_route_for_cross_noise(self):
        rng = np.random.default_rng(27)
        signs = set()
        for _ in range(300):
            m, omega, lam = (float(v) for v in rng.uniform(0.5, 2.0, size=3))
            osc = OscillatorParams(m, omega)
            d_xx, d_xy, d_xpy = (float(v) for v in rng.uniform(-1.0, 1.0, size=3))
            mw2 = (m * omega) ** 2
            env = SymmetricEnvironmentParams(
                lam=lam, d_xx=abs(d_xx), d_pxpx=mw2 * abs(d_xx), d_xy=d_xy,
                d_xpy=d_xpy, d_pxpy=mw2 * d_xy,
            )
            signs.add(det_c_closed_form(osc, env) > 0.0)
            special = simon_s_special(osc, env)
            general = simon_s(block_decompose(steady_state_closed_form(osc, env)))
            assert abs(special - general) <= 1e-9 * max(1.0, abs(general))
        assert signs == {True, False}


class TestEntanglementWindow:
    def test_reference_window(self, osc):
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=0.6, d_pxpx=0.6)
        lo, hi = entanglement_window(osc, env)
        assert abs(lo - 0.1 * math.sqrt(2.0)) <= 1e-15
        assert abs(hi - 1.1 * math.sqrt(2.0)) <= 1e-15

    def test_uncertainty_boundary(self, osc):
        env = SymmetricEnvironmentParams(lam=0.5, d_xx=0.25, d_pxpx=0.25)
        lo, hi = entanglement_window(osc, env)
        assert lo == 0.0
        assert abs(hi - math.sqrt(1.25)) <= 1e-15

    def test_below_uncertainty_bound(self, osc):
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=0.4, d_pxpx=0.4)
        with pytest.raises(UncertaintyViolationError):
            entanglement_window(osc, env)

    def test_requires_zero_position_cross(self, osc):
        env = SymmetricEnvironmentParams(
            lam=1.0, d_xx=0.6, d_pxpx=0.6, d_xy=0.1, d_pxpy=0.1
        )
        with pytest.raises(ClassViolationError):
            entanglement_window(osc, env)


class TestFSigma:
    def test_vacuum(self):
        blocks = block_decompose(VACUUM)
        assert f_sigma(blocks, float(np.linalg.det(VACUUM))) == 0.25

    def test_reference_state(self, reference_sigma_inf):
        value = f_sigma(
            block_decompose(reference_sigma_inf),
            float(np.linalg.det(reference_sigma_inf)),
        )
        assert abs(value - (0.405 - math.sqrt(0.0648))) <= 1e-15

    @pytest.mark.parametrize("a", [0.5, 0.7, 1.3])
    def test_scaled_identity(self, a):
        sigma = a * np.eye(4)
        value = f_sigma(block_decompose(sigma), float(np.linalg.det(sigma)))
        np.testing.assert_allclose(value, a * a, rtol=1e-12)

    def test_negative_radicand_rejected(self):
        blocks = block_decompose(VACUUM)
        with pytest.raises(NegativeRadicandError):
            f_sigma(blocks, 1.0)

    def test_nonnegative_on_positive_definite_matrices(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            sigma = random_spd(rng)
            value = f_sigma(block_decompose(sigma), float(np.linalg.det(sigma)))
            assert value >= 0.0


class TestLogNegativity:
    def test_vacuum_is_boundary(self):
        assert abs(log_negativity(VACUUM)) <= 1e-12

    def test_reference_state(self, reference_sigma_inf):
        value = log_negativity(reference_sigma_inf)
        assert abs(value - E_REFERENCE) <= 1e-9
        # independent symplectic-spectrum recomputation
        assert abs(value - pt_log_negativity(reference_sigma_inf)) <= 1e-9

    def test_uncorrelated_state(self):
        value = log_negativity(0.6 * np.eye(4))
        assert abs(value - E_SEPARABLE) <= 1e-12
        assert value < 0.0

    def test_singular_state_rejected(self):
        sigma = np.array(
            [
                [0.5, 0.0, 0.5, 0.0],
                [0.0, 0.5, 0.0, -0.5],
                [0.5, 0.0, 0.5, 0.0],
                [0.0, -0.5, 0.0, 0.5],
            ]
        )
        with pytest.raises(NonPositiveFError):
            log_negativity(sigma)


class TestLogNegativityClosedForm:
    def test_reference_environment(self, osc, reference_env):
        value = log_negativity_closed_form(osc, reference_env)
        assert abs(value - E_REFERENCE) <= 1e-12

    def test_second_point(self, osc, boundary_env):
        value = log_negativity_closed_form(osc, boundary_env)
        expected = -math.log2(2.0 * abs(0.5 - 0.2 / math.sqrt(1.25)))
        assert abs(value - expected) <= 1e-12

    def test_window_boundary_gives_zero(self, osc):
        lam, omega, u = 1.0, 1.0, 0.8
        d_xpy = math.sqrt(lam**2 + omega**2) * (u - 0.5)
        env = SymmetricEnvironmentParams(lam=lam, d_xx=u, d_pxpx=u, d_xpy=d_xpy)
        assert abs(log_negativity_closed_form(osc, env)) <= 1e-12

    def test_divergent_combination_rejected(self, osc):
        env = matched_env(1.0, 1.0, 1.0, u=0.7, v=0.7)
        with pytest.raises(DivergentNegativityError):
            log_negativity_closed_form(osc, env)

    def test_requires_matched_class(self, osc):
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=0.6, d_pxpx=0.4)
        with pytest.raises(ClassViolationError):
            log_negativity_closed_form(osc, env)

    def test_initial_state_independence(self, osc, reference_env):
        # the closed form depends on the environment only; propagating any
        # Gaussian state leaves the asymptotic negativity unchanged
        from twomode import build_drift_matrix, propagate

        y = build_drift_matrix(osc, reference_env)
        sigma_inf = steady_state_closed_form(osc, reference_env)
        e_closed = log_negativity_closed_form(osc, reference_env)
        for scale in (0.5, 1.0, 2.5):
            sigma0 = scale * make_vacuum_covariance(osc)
            late = propagate(sigma0, sigma_inf, y, 25.0)
            assert abs(log_negativity(late) - e_closed) <= 1e-6


class TestCriterionConsistency:
    @pytest.mark.parametrize(
        "m,omega,lam", [(1.0, 1.0, 1.0), (0.7, 1.4, 0.6), (1.8, 0.6, 1.3)]
    )
    def test_window_sign_equivalence_on_grid(self, m, omega, lam):
        # sign(S) < 0 <=> E_closed > 0 <=> d_xpy strictly inside the window
        osc = OscillatorParams(m, omega)
        for u in np.linspace(0.5, 2.0, 16):
            env0 = matched_env(m, omega, lam, float(u), 0.0)
            lo, hi = entanglement_window(osc, env0)
            for v in np.linspace(0.013, 2.6, 21):
                env = matched_env(m, omega, lam, float(u), float(v))
                if abs(u - v) <= 1e-9:
                    continue
                s = simon_s_special(osc, env)
                e = log_negativity_closed_form(osc, env)
                inside = lo < env.d_xpy < hi
                assert (s < 0.0) == inside
                assert (e > 0.0) == inside

    def test_route_equivalence_on_random_environments(self):
        rng = np.random.default_rng(25)
        for _ in range(300):
            m, omega, lam = (float(v) for v in rng.uniform(0.5, 2.0, size=3))
            osc = OscillatorParams(m, omega)
            u = float(rng.uniform(0.5, 3.0))
            v = float(rng.uniform(0.0, 3.0))
            if abs(u - v) < 1e-3:
                continue
            env = matched_env(m, omega, lam, u, v)
            sigma = steady_state_closed_form(osc, env)
            s_general = simon_s(block_decompose(sigma))
            s_special = simon_s_special(osc, env)
            assert abs(s_general - s_special) <= 1e-9 * max(1.0, abs(s_general))
            e_general = log_negativity(sigma)
            e_closed = log_negativity_closed_form(osc, env)
            assert abs(e_general - e_closed) <= 1e-8

    def test_local_squeezing_invariance(self, reference_sigma_inf):
        # x -> alpha x, p_x -> p_x/alpha applied to both modes is a local
        # symplectic transformation and must not change S or E
        rng = np.random.default_rng(26)
        s0 = simon_s(block_decompose(reference_sigma_inf))
        e0 = log_negativity(reference_sigma_inf)
        for _ in range(50):
            alpha = float(rng.uniform(0.5, 2.0))
            scaling = np.diag([alpha, 1.0 / alpha, alpha, 1.0 / alpha])
            transformed = scaling @ reference_sigma_inf @ scaling.T
            assert abs(simon_s(block_decompose(transformed)) - s0) <= 1e-9
            assert abs(log_negativity(transformed) - e0) <= 1e-9


# Ways to take an environment out of the matched class with D_xy = 0.
_CLASS_BREAKS = ("mirror", "pxpx", "xpx", "pxpy")
_BREAKS = (*_CLASS_BREAKS, "xy", "lam", "uncertainty", "divergent")


@st.composite
def closed_form_cases(draw):
    """(osc, env, broken): a matched-class environment with D_xy = 0 and the
    set of conditions then broken, so each closed-form branch is reached."""
    m, omega, lam = (draw(st.floats(0.3, 3.0)) for _ in range(3))
    broken = draw(st.sets(st.sampled_from(_BREAKS), max_size=3))
    mw = m * omega
    mw2 = mw * mw
    root = math.sqrt(lam * lam + omega * omega)
    u = draw(st.floats(0.01, 0.49) if "uncertainty" in broken else st.floats(0.51, 3.0))
    d = {"d_xx": u * lam / mw, "d_xpx": 0.0, "d_xy": 0.0, "d_pxpy": 0.0}
    if "divergent" in broken:
        d["d_xpy"] = u * root
    else:
        d["d_xpy"] = draw(st.floats(0.0, 4.0).filter(lambda v: abs(v - u) > 1e-6)) * root
    d["d_pxpx"] = mw2 * d["d_xx"]
    if "pxpx" in broken:
        d["d_pxpx"] += 0.1
    if "xpx" in broken:
        d["d_xpx"] = 0.05
    if "xy" in broken:
        d["d_xy"] = draw(st.sampled_from([-0.07, 0.07]))
        d["d_pxpy"] = mw2 * d["d_xy"]
    if "pxpy" in broken:
        d["d_pxpy"] += 0.1
    mirror = {"d_yy": d["d_xx"], "d_ypy": d["d_xpx"], "d_pypy": d["d_pxpx"], "d_ypx": d["d_xpy"]}
    if "mirror" in broken:
        mirror["d_yy"] += 0.1
    if "lam" in broken:
        lam = draw(st.sampled_from([0.0, -0.5]))
    return OscillatorParams(m, omega), EnvironmentParams(lam=lam, **d, **mirror), broken


def _expected_closed_form_error(name, broken):
    """The error type a closed form raises: class, then lambda, then its own bound."""
    if broken & set(_CLASS_BREAKS):
        return ClassViolationError
    if "xy" in broken and name != "s_special":
        return ClassViolationError
    if "lam" in broken:
        return NonPositiveLambdaError
    if name == "e_closed" and "divergent" in broken:
        return DivergentNegativityError
    if name == "window" and "uncertainty" in broken:
        return UncertaintyViolationError
    return type(None)


class TestAnalyze:
    def test_vacuum_without_context(self):
        report = analyze(VACUUM)
        assert report.verdict == "separable"
        assert report.s_general == 0.0
        assert abs(report.e_general) <= 1e-12
        assert report.s_special is None
        assert report.e_closed is None
        assert report.window is None
        assert report.valid_strict is None

    def test_reference_with_context(self, osc, reference_env, reference_sigma_inf):
        report = analyze(reference_sigma_inf, osc, reference_env)
        assert report.verdict == "entangled"
        assert abs(report.s_general - (-0.040775)) <= 1e-9
        assert abs(report.s_special - (-0.040775)) <= 1e-9
        assert abs(report.e_general - report.e_closed) <= 1e-8
        assert abs(report.e_general - E_REFERENCE) <= 1e-9
        assert report.window is not None
        assert report.valid_strict and report.valid_lenient
        assert report.notes == ()

    def test_uncorrelated_with_context(self, osc):
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=0.6, d_pxpx=0.6)
        sigma = steady_state_closed_form(osc, env)
        report = analyze(sigma, osc, env)
        assert report.verdict == "separable"
        assert abs(report.s_general - 0.0121) <= 1e-12
        assert abs(report.e_general - E_SEPARABLE) <= 1e-9
        assert report.e_closed is not None

    def test_partial_report_outside_class(self, osc, reference_sigma_inf):
        env = SymmetricEnvironmentParams(lam=1.0, d_xx=0.6, d_pxpx=0.5)
        report = analyze(reference_sigma_inf, osc, env)
        assert report.s_special is None
        assert report.e_closed is None
        assert any("s_special" in note for note in report.notes)
        assert report.s_general is not None

    def test_agreement_invariants_on_random_environments(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            m, omega, lam = (float(v) for v in rng.uniform(0.5, 2.0, size=3))
            osc = OscillatorParams(m, omega)
            env = matched_env(
                m, omega, lam, u=float(rng.uniform(0.5, 2.5)), v=float(rng.uniform(0, 2.5))
            )
            sigma = steady_state_closed_form(osc, env)
            report = analyze(sigma, osc, env)
            assert (report.verdict == "entangled") == (report.s_general < 0)
            if report.s_special is not None:
                assert abs(report.s_special - report.s_general) <= 1e-9 * max(
                    1.0, abs(report.s_general)
                )
            if report.e_closed is not None and report.e_general is not None:
                assert abs(report.e_closed - report.e_general) <= 1e-8

    @settings(max_examples=300, deadline=None)
    @given(case=closed_form_cases())
    def test_closed_forms_match_public_functions(self, case):
        osc, env, broken = case
        report = analyze(VACUUM, osc, env)
        expected_notes = []
        for name, public in (
            ("s_special", simon_s_special),
            ("e_closed", log_negativity_closed_form),
            ("window", entanglement_window),
        ):
            try:
                value, error = public(osc, env), None
            except TwoModeError as exc:
                value, error = None, exc
                expected_notes.append(f"{name}: {exc}")
            assert getattr(report, name) == value
            assert type(error) is _expected_closed_form_error(name, broken)
        assert report.notes == tuple(expected_notes)

    def test_non_finite_closed_forms_become_notes(self, osc):
        # u = m omega D_xx / lambda overflows and lambda^2 underflows
        env = SymmetricEnvironmentParams(lam=1e-300, d_xx=1e10, d_pxpx=1e10, d_xpy=0.3)
        report = analyze(VACUUM, osc, env)
        assert (report.s_special, report.e_closed, report.window) == (None, None, None)
        assert [note.split(": ")[0] for note in report.notes] == ["s_special", "e_closed", "window"]
        assert all("not finite in double precision" in note for note in report.notes)
        for public in (simon_s_special, log_negativity_closed_form, entanglement_window):
            with pytest.raises(NonFiniteResultError):
                public(osc, env)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("function", [analyze, log_negativity, block_decompose])
    def test_rejects_non_finite_sigma(self, function, bad):
        sigma = VACUUM.copy()
        sigma[0, 2] = sigma[2, 0] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            function(sigma)
        with pytest.raises(ValueError, match="entries must be finite"):
            function(np.full((4, 4), bad))

    def test_rejects_asymmetric_sigma(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            analyze(bad)

    def test_rejects_partial_context(self, osc):
        with pytest.raises(ValueError):
            analyze(VACUUM, osc, None)


class TestStackedKernel:
    """The stacked kernel against its one-matrix views and the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_stack_matches_single_matrices(self, seed, n):
        rng = np.random.default_rng(seed)
        stack = np.array([random_physical_covariance(rng) for _ in range(n)])
        inv = _invariants(stack)
        assert inv.s.shape == (n,)
        for i, sigma in enumerate(stack):
            # S is quartic and f quadratic in the entries
            tol = 1e-13 * max(1.0, float(np.abs(sigma).max())) ** 4
            single = _invariants(sigma)
            for field in ("det_a", "det_b", "det_c", "s", "radicand", "f", "e"):
                assert abs(getattr(inv, field)[i] - getattr(single, field)) <= tol, field
            assert abs(simon_s(block_decompose(sigma)) - inv.s[i]) <= tol
            assert abs(log_negativity(sigma) - inv.e[i]) <= 1e-9
            assert abs(inv.e[i] - pt_log_negativity(sigma)) <= 1e-9

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(28)
        stack = np.array([random_physical_covariance(rng) for _ in range(6)])
        flat = _invariants(stack)
        grid = _invariants(stack.reshape(2, 3, 4, 4))
        for field in flat._fields:
            np.testing.assert_array_equal(getattr(grid, field).reshape(6), getattr(flat, field))
