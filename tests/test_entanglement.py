import copy
import math
import sys
import threading
import warnings
from dataclasses import asdict, replace

import mpmath
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
    build_diffusion_matrix,
    build_drift_matrix,
    check_state_covariance,
    det_c_closed_form,
    entanglement_window,
    f_sigma,
    log_negativity,
    log_negativity_closed_form,
    make_vacuum_covariance,
    simon_s,
    simon_s_special,
    steady_state_closed_form,
    steady_state_lyapunov,
    validate_environment,
)

from twomode.entanglement import (
    _CROSS,
    _DIVERGENT,
    _LAMBDA,
    _MIRRORED,
    _NONFINITE,
    _PXPX,
    _PXPY,
    _UNCERTAINTY,
    _XPX,
    report,
)
from twomode.dynamics import closed_form_entries
from twomode.model import UPPER, Coefficients, _validity

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
        message = "^closed form is not finite in double precision$"
        with pytest.raises(NonFiniteResultError, match=message):
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


def _bound_cases(n, seed):
    """n (osc, m, omega, lam) with m, omega and lam log-uniform in [e^-3, e^3]."""
    rng = np.random.default_rng(seed)
    for m, omega, lam in np.exp(rng.uniform(-3.0, 3.0, size=(n, 3))).tolist():
        yield OscillatorParams(m, omega), m, omega, lam


class TestUncertaintyBound:
    # An environment on the bound u = m w D_xx / lam = 1/2, built as the scaled sweep
    # builds it, meets D_xx D_pxpx >= lam^2/4 with equality: its slack and u - 1/2
    # are rounding noise, so it is valid and has a window (from 0).  Moved below the
    # bound by 1e-9, far beyond rounding, it is invalid and gated.
    def test_environments_on_the_bound_are_valid_and_ungated(self):
        for osc, m, omega, lam in _bound_cases(4000, 29):
            env = matched_env(m, omega, lam, 0.5, 0.0)
            assert validate_environment(env, "lenient").failed == (), (m, omega, lam)
            low, _ = entanglement_window(osc, env)
            assert (low, math.copysign(1.0, low)) == (0.0, 1.0)

    def test_environments_below_the_bound_are_invalid_and_gated(self):
        for osc, m, omega, lam in _bound_cases(4000, 29):
            env = matched_env(m, omega, lam, 0.5 - 1e-9, 0.0)
            assert "cs_xx_pxpx" in validate_environment(env, "lenient").failed, (m, omega, lam)
            with pytest.raises(UncertaintyViolationError):
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

    def test_window_edges_are_separable(self):
        # The window is open, so a state on its edge, D_xpy = sqrt(lam^2 + w^2)
        # (u +- 1/2), is separable: its S and E are rounding noise, written as
        # +0.  Moved inward by 1e-6 sqrt(lam^2 + w^2), the state is entangled.
        rng = np.random.default_rng(27)
        for _ in range(1000):
            m, omega, lam = np.exp(rng.uniform(-1.0, 1.0, size=3)).tolist()
            u = float(rng.uniform(0.5, 3.0))
            osc = OscillatorParams(m, omega)
            for side in (-0.5, 0.5):
                inward = u + side * (1 - 2e-6)
                for v, verdict in ((u + side, "separable"), (inward, "entangled")):
                    env = matched_env(m, omega, lam, u, v)
                    rep = analyze(steady_state_closed_form(osc, env), osc, env)
                    assert rep.verdict == verdict, (m, omega, lam, u, v, rep.s_general)
                    if verdict == "separable":
                        zeros = [math.copysign(1.0, x) for x in (rep.s_general, rep.e_general)]
                        assert (rep.s_general, rep.e_general, zeros) == (0.0, 0.0, [1.0, 1.0])

    def test_closed_form_negativity_is_zero_on_window_edges(self):
        # On an edge 2 |u - v| is 1 to rounding and E_closed is +0; off the edges
        # it keeps every bit of -log2(2 |u - v|)
        rng = np.random.default_rng(28)
        for _ in range(1000):
            m, omega, lam = np.exp(rng.uniform(-1.0, 1.0, size=3)).tolist()
            u = float(rng.uniform(0.5, 3.0))
            osc = OscillatorParams(m, omega)
            for v in (u - 0.5, u + 0.5):
                e = log_negativity_closed_form(osc, matched_env(m, omega, lam, u, v))
                assert (e, math.copysign(1.0, e)) == (0.0, 1.0), (m, omega, lam, u, v)
            env = matched_env(m, omega, lam, u, float(rng.uniform(0.0, 4.0)))
            u_env = m * omega * env.d_xx / lam
            v_env = env.d_xpy / math.sqrt(lam * lam + omega * omega)
            if abs(2.0 * abs(u_env - v_env) - 1.0) > 1e-12:
                want = float(-np.log2(2.0 * abs(u_env - v_env)))
                assert log_negativity_closed_form(osc, env) == want

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
def closed_form_cases(draw, shared=None):
    """(osc, env, broken): a matched-class environment with D_xy = 0 and the
    set of conditions then broken, so each closed-form branch is reached.

    `shared` = (m, omega, lam) fixes the oscillator and lambda, and then
    lambda is not among the conditions broken.
    """
    m, omega, lam = shared or (draw(st.floats(0.3, 3.0)) for _ in range(3))
    breaks = _BREAKS if shared is None else tuple(b for b in _BREAKS if b != "lam")
    broken = draw(st.sets(st.sampled_from(breaks), max_size=3))
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
    """The error type a closed form raises: class, then lambda, then its own bound.

    det_c and sigma, the mirrored-class closed forms, need no matched class.
    """
    if name in ("det_c", "sigma"):
        broken = broken & {"mirror", "lam"}
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
        for name, public in (("det_c", det_c_closed_form), ("sigma", steady_state_closed_form)):
            try:
                public(osc, env)
                error = None
            except TwoModeError as exc:
                error = exc
            assert type(error) is _expected_closed_form_error(name, broken)

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

    @pytest.mark.parametrize("scale", [1e80, 1e200, 1e307])
    def test_overflowing_sigma_is_an_error(self, scale):
        # det(sigma) ~ scale^4 overflows; the report used to say "separable" with S = nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match="double precision"):
                analyze(np.eye(4) * scale)

    @pytest.mark.parametrize("scale", [1e80, 1e200])
    def test_overflowing_sigma_is_an_error_for_log_negativity_and_f_sigma(self, scale):
        # log_negativity used to return -inf at 1e80 and NaN at 1e200, f_sigma 0.0 at both
        sigma = np.eye(4) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match="double precision"):
                log_negativity(sigma)
            with pytest.raises(NonFiniteResultError, match="double precision"):
                f_sigma(block_decompose(sigma), 1e308)

    def test_negative_radicand_becomes_a_note(self):
        a = np.random.default_rng(0).standard_normal((4, 4))
        report = analyze((a + a.T) / 2)
        assert report.f_sigma is None and report.e_general is None
        assert report.notes == (
            "f_sigma: radicand -0.11064422928261035 is negative beyond tolerance; "
            "input is not a physical covariance matrix",
        )

    @pytest.mark.parametrize(
        "function", [analyze, log_negativity, block_decompose, check_state_covariance]
    )
    @pytest.mark.parametrize("form", [np.asarray, np.ndarray.tolist], ids=["array", "lists"])
    def test_rejects_complex_sigma(self, function, form):
        # the cast to float used to drop the imaginary parts with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^covariance matrix must be real"):
                function(form(np.eye(4) * (1 + 1j)))

    def test_large_finite_sigma_is_analyzed(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = analyze(np.eye(4) * 1e76)
        assert report.s_general == pytest.approx(1e304) and report.verdict == "separable"

    def test_rejects_asymmetric_sigma(self):
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            analyze(bad)

    def test_rejects_partial_context(self, osc):
        with pytest.raises(ValueError):
            analyze(VACUUM, osc, None)


def _stacked(envs):
    """The environments as one with a diffusion coefficient array each, as in the sweep.

    They share lambda, which stays a float.
    """
    (lam,) = {env.lam for env in envs}
    names = Coefficients._fields[1:]
    return Coefficients(lam, *(np.array([getattr(env, name) for env in envs]) for name in names))


def _same_bits(ours, theirs):
    """The same float, bit for bit, or NaN both."""
    ours, theirs = np.float64(ours), np.float64(theirs)
    return ours.tobytes() == theirs.tobytes() or (np.isnan(ours) and np.isnan(theirs))


def _assert_closed_forms_match_stacked(osc, envs):
    """The report of each Python-float environment is its element of their stack's report.

    The entries are sigma_inf's closed-form entries on the stack, as the sweep
    passes them.  The kernel's fields, the verdict, both validity flags, the
    closed forms and their codes and the gate agree bit for bit, E too.
    """
    stack = _stacked(envs)
    with np.errstate(all="ignore"):  # arrays overflow silently, as the CLI runs the sweep
        entries = np.array(closed_form_entries(osc, stack))
        stacked = report(entries, osc, stack)
    reports = []
    for i, env in enumerate(envs):
        ours = report(entries[:, i].tolist(), osc, env)
        for field in ("det_a", "det_b", "det_c", "s", "radicand", "f"):
            assert _same_bits(getattr(ours, field), getattr(stacked, field)[i]), (field, i)
        assert _same_bits(ours.e, stacked.e[i]), (ours.e, stacked.e[i])
        assert ours.verdict == stacked.verdict[i]
        simon = "entangled" if ours.s < 0.0 else "separable"
        assert ours.verdict == (simon if math.isfinite(ours.s) else "")
        assert ours.valid_strict == stacked.valid_strict[i]
        assert ours.valid_lenient == stacked.valid_lenient[i]
        assert ours.gated == stacked.gated[i]
        assert ours.forms[3:] == tuple(int(code[i]) for code in stacked.forms[3:])
        values = [ours.forms.s_special, ours.forms.e_closed, *ours.forms.window]
        expected = [stacked.forms.s_special, stacked.forms.e_closed, *stacked.forms.window]
        assert all(_same_bits(v, x[i]) for v, x in zip(values, expected)), (values, i)
        reports.append(ours)
    return reports


# One environment (m = omega = 1) per code that a closed form's absence can have.
_CODE_CASES = {
    _MIRRORED: EnvironmentParams(
        lam=1.0, d_xx=0.6, d_pxpx=0.6, d_xpy=0.3, d_ypx=0.3, d_yy=0.7, d_pypy=0.6
    ),
    _PXPX: SymmetricEnvironmentParams(lam=1.0, d_xx=0.6, d_pxpx=0.5, d_xpy=0.3),
    _XPX: SymmetricEnvironmentParams(lam=1.0, d_xx=0.6, d_xpx=0.1, d_pxpx=0.6, d_xpy=0.3),
    _PXPY: SymmetricEnvironmentParams(1.0, 0.6, 0.0, 0.6, d_xy=0.1, d_xpy=0.3, d_pxpy=0.2),
    _CROSS: SymmetricEnvironmentParams(1.0, 0.6, 0.0, 0.6, d_xy=0.1, d_xpy=0.3, d_pxpy=0.1),
    _LAMBDA: SymmetricEnvironmentParams(lam=-0.5, d_xx=0.6, d_pxpx=0.6, d_xpy=0.3),
    _DIVERGENT: matched_env(1.0, 1.0, 1.0, u=0.6, v=0.6),
    _UNCERTAINTY: matched_env(1.0, 1.0, 1.0, u=0.3, v=1.0),
    _NONFINITE: SymmetricEnvironmentParams(lam=1e-300, d_xx=1e10, d_pxpx=1e10, d_xpy=0.3),
}


@st.composite
def closed_form_stacks(draw):
    """(osc, envs): one to five closed_form_cases of one oscillator and one lambda.

    Half of the stacks break lambda > 0, which they share.
    """
    shared = tuple(draw(st.floats(0.3, 3.0)) for _ in range(3))
    cases = draw(st.lists(closed_form_cases(shared), min_size=1, max_size=5))
    envs = [env for _, env, _ in cases]
    if draw(st.booleans()):
        lam = draw(st.sampled_from([0.0, -0.5]))
        envs = [replace(env, lam=lam) for env in envs]
    return cases[0][0], envs


class TestClosedFormsOnOneEnvironment:
    """Python floats return at the first class failure; the stack evaluates every form.

    The report of one environment is the report of a stack at its element.
    """

    @pytest.mark.parametrize("code", sorted(_CODE_CASES))
    def test_each_code_matches_the_stacked_path(self, code):
        osc = OscillatorParams(1.0, 1.0)
        (ours,) = _assert_closed_forms_match_stacked(osc, [_CODE_CASES[code]])
        assert code in (ours.forms.s_code, ours.forms.e_code, ours.forms.window_code)

    def test_codes_in_one_stack(self):
        # the seven cases with lambda = 1, one of them not mirrored, so the stack's
        # Gram spectrum comes from eigvalsh and the mirrored ones' from the closed form
        envs = [env for env in _CODE_CASES.values() if env.lam == 1.0]
        reports = _assert_closed_forms_match_stacked(OscillatorParams(1.0, 1.0), envs)
        assert len(reports) == 7 and any(r.gated for r in reports)

    @settings(max_examples=200, deadline=None)
    @given(stack=closed_form_stacks())
    def test_drawn_cases_match_the_stacked_path(self, stack):
        _assert_closed_forms_match_stacked(*stack)


_FIVE_CLOSED_FORMS = (
    steady_state_closed_form,
    det_c_closed_form,
    simon_s_special,
    log_negativity_closed_form,
    entanglement_window,
)


class TestOneAbsenceRule:
    """The five public closed forms raise the same error for the same condition."""

    @pytest.mark.parametrize("closed_form", _FIVE_CLOSED_FORMS)
    @pytest.mark.parametrize(
        "env, error",
        [
            (_CODE_CASES[_MIRRORED], ClassViolationError),
            (SymmetricEnvironmentParams(0.0, 0.6, 0.0, 0.6, 0.0, 0.3), NonPositiveLambdaError),
            (SymmetricEnvironmentParams(-0.5, 0.6, 0.0, 0.6, 0.0, 0.3), NonPositiveLambdaError),
            # sigma_inf, det C, S_special, E_closed and the window all overflow
            (
                SymmetricEnvironmentParams(1e-10, 1e300, 0.0, 1e300, 0.0, 1e300),
                NonFiniteResultError,
            ),
        ],
        ids=["not_mirrored", "zero_lambda", "negative_lambda", "overflow"],
    )
    def test_same_error_for_the_same_condition(self, closed_form, env, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                closed_form(OscillatorParams(1.0, 1.0), env)


@st.composite
def scalar_api_environments(draw):
    """(osc, env) of a benchmark scalar kind: matched class, mirrored, ten coefficients.

    The ranges make a good share of the environments pass lenient validation
    and fail or pass strict, so the two modes' results differ.
    """
    m, omega = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    lam = draw(st.floats(0.2, 1.0))
    kind = draw(st.sampled_from(("matched", "mirrored", "general")))
    if kind == "matched":
        env = matched_env(m, omega, lam, u=draw(st.floats(0.3, 3.0)), v=draw(st.floats(0.0, 3.0)))
        return OscillatorParams(m, omega), env
    diagonal, off = st.floats(0.3, 1.2), st.floats(-0.25, 0.25)
    env = SymmetricEnvironmentParams(
        lam, draw(diagonal), draw(off), draw(diagonal), draw(off), draw(off), draw(off)
    )
    if kind == "general":  # the y-mode coefficients move off their mirror images
        moved = {y: getattr(env, y) + draw(off) for y in ("d_ypx", "d_yy", "d_ypy", "d_pypy")}
        env = EnvironmentParams(**{**asdict(env), **moved})
    return OscillatorParams(m, omega), env


def _pipeline(osc, env, mode="strict"):
    """The reprs of validate_environment and then analyze on the same env object."""
    return repr(validate_environment(env, mode)), repr(analyze(VACUUM, osc, env))


def _fresh(osc, env, mode="strict"):
    """_pipeline's results computed on fresh copies of env, which no cache holds."""
    report = validate_environment(copy.copy(env), mode)
    return repr(report), repr(analyze(VACUUM, osc, copy.copy(env)))


class TestRepeatedValidity:
    """analyze reuses validate_environment's checks for the same env object, and only then."""

    @settings(max_examples=200, deadline=None)
    @given(case=scalar_api_environments(), mode=st.sampled_from(["strict", "lenient"]))
    def test_analyze_after_validate_equals_a_fresh_object(self, case, mode):
        assert _pipeline(*case, mode) == _fresh(*case, mode)

    @settings(max_examples=100, deadline=None)
    @given(first=scalar_api_environments(), second=scalar_api_environments())
    def test_another_validation_in_between(self, first, second):
        osc, env = first
        validate_environment(env)
        validate_environment(second[1])
        assert repr(analyze(VACUUM, osc, env)) == _fresh(osc, env)[1]

    def test_lenient_validation_then_analyze(self, osc, boundary_env):
        assert validate_environment(boundary_env, "lenient").passed
        report = analyze(VACUUM, osc, boundary_env)
        assert (report.valid_strict, report.valid_lenient) == (False, True)

    def test_analyze_reuses_the_strict_gram_check(self, monkeypatch, osc):
        env = _CODE_CASES[_MIRRORED]  # not mirrored: its Gram spectrum comes from eigvalsh
        eigvalsh, calls = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        validate_environment(env)
        analyze(VACUUM, osc, env)
        assert len(calls) == 1

    def test_equal_environments_keep_their_own_reports(self):
        # the two compare and hash equal, yet their Gram eigenvalues are 0.0 and -0.0
        zero, negative_zero = (
            SymmetricEnvironmentParams(0.0, -0.0, -0.0, -0.0, d_xy, -0.0, -0.0)
            for d_xy in (0.0, -0.0)
        )
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        for _ in range(2):
            assert repr(validate_environment(zero).min_gram_eigenvalue) == "0.0"
            assert repr(validate_environment(negative_zero).min_gram_eigenvalue) == "-0.0"

    def test_array_environment_is_never_kept(self, reference_env):
        # the sweep's environment is mutable, so a result kept for it could go stale
        env = _stacked([reference_env])
        assert [bool(v[0]) for v in _validity(env)] == [True, True]
        env.d_xx[0] = -1.0
        assert [bool(v[0]) for v in _validity(env)] == [False, False]

    def test_threads_get_the_serial_results(self):
        rng = np.random.default_rng(31)
        cases = []
        for _ in range(4):
            osc = OscillatorParams(*(float(v) for v in rng.uniform(0.5, 2.0, size=2)))
            mirrored = random_valid_symmetric_env(rng, "strict")
            general = EnvironmentParams(**{**asdict(mirrored), "d_yy": mirrored.d_yy + 0.1})
            v = float(rng.uniform(0, 2))
            matched = matched_env(osc.m, osc.omega, mirrored.lam, u=0.8, v=v)
            cases += [(osc, mirrored), (osc, general), (osc, matched)]
        # four threads, each on its own environments
        n_threads = 4
        serial = [_pipeline(*case) for case in cases]
        expected = [serial[k::n_threads] * 100 for k in range(n_threads)]
        results = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def work(k):
            barrier.wait()
            results[k] = [_pipeline(*case) for _ in range(100) for case in cases[k::n_threads]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == expected


def _report_of(sigma):
    """`report` on sigma[..., 4, 4]: Python floats for one matrix, arrays for a stack."""
    upper = sigma[..., UPPER[0], UPPER[1]]
    return report(upper.tolist() if upper.ndim == 1 else np.moveaxis(upper, -1, 0))


class TestStackedKernel:
    """The stacked report against its one-matrix views and the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_stack_matches_single_matrices(self, seed, n):
        rng = np.random.default_rng(seed)
        stack = np.array([random_physical_covariance(rng) for _ in range(n)])
        inv = _report_of(stack)
        assert inv.s.shape == (n,)
        for i, sigma in enumerate(stack):
            # S is quartic and f quadratic in the entries
            tol = 1e-13 * max(1.0, float(np.abs(sigma).max())) ** 4
            single = _report_of(sigma)
            for field in ("det_a", "det_b", "det_c", "s", "radicand", "f", "e"):
                assert abs(getattr(inv, field)[i] - getattr(single, field)) <= tol, field
            assert abs(simon_s(block_decompose(sigma)) - inv.s[i]) <= tol
            assert abs(log_negativity(sigma) - inv.e[i]) <= 1e-9
            assert abs(inv.e[i] - pt_log_negativity(sigma)) <= 1e-9

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(28)
        stack = np.array([random_physical_covariance(rng) for _ in range(6)])
        flat = _report_of(stack)
        grid = _report_of(stack.reshape(2, 3, 4, 4))
        for field in ("det_a", "det_b", "det_c", "s", "radicand", "f", "e", "verdict"):
            np.testing.assert_array_equal(getattr(grid, field).reshape(6), getattr(flat, field))


def _mp_invariants(sigma):
    """S and E of sigma's double entries, in 50-digit mpmath through the block matrices.

    S = det A det B + (1/4 - |det C|)^2 - Tr[A J C J B J C^T J] - (det A + det B)/4
    and f = h - sqrt(h^2 - det sigma) as written, with mpmath's determinants and
    matrix products: an independent route to the kernel's closed polynomials.
    """
    with mpmath.workdps(50):
        s = mpmath.matrix(np.asarray(sigma, dtype=float).tolist())
        j = mpmath.matrix([[0, 1], [-1, 0]])
        a, b, c = s[0:2, 0:2], s[2:4, 2:4], s[0:2, 2:4]
        det_a, det_b, det_c = mpmath.det(a), mpmath.det(b), mpmath.det(c)
        chain = a * j * c * j * b * j * c.T * j
        cross = chain[0, 0] + chain[1, 1]
        quarter = mpmath.mpf(1) / 4
        s_value = det_a * det_b + (quarter - abs(det_c)) ** 2 - cross - quarter * (det_a + det_b)
        head = (det_a + det_b) / 2 - det_c
        f = head - mpmath.sqrt(head * head - mpmath.det(s))
        return s_value, -mpmath.log(4 * f, 2) / 2


def _near_product(rng):
    sigma = random_physical_covariance(rng)
    sigma[:2, 2:] *= 1e-6
    sigma[2:, :2] *= 1e-6
    return sigma


def _near_degenerate(rng):
    # B = A to a relative 1e-9 and a cross block C of size 1e-4 or 1e-8: the radicand
    # is about |C|^2 h^2, so as the difference h^2 - det sigma it loses 8 or 16 digits
    sigma = random_physical_covariance(rng)
    sigma[2:, 2:] = sigma[:2, :2] * (1.0 + 1e-9 * rng.standard_normal())
    scale = 10.0 ** -float(rng.choice([4, 8]))
    sigma[:2, 2:] *= scale
    sigma[2:, :2] *= scale
    return sigma


def _two_mode_squeezed(rng):
    # thermal two-mode squeezed states, r up to 2 (E up to about 5.5) under local
    # rotations: f is far below h, and h - sqrt(radicand) would keep 1e-10 of E
    r = rng.uniform(0.5, 2.0)
    c, s = math.cosh(2.0 * r) / 2.0, math.sinh(2.0 * r) / 2.0
    sigma = rng.uniform(1.0, 1.5) * np.array(
        [[c, 0.0, s, 0.0], [0.0, c, 0.0, -s], [s, 0.0, c, 0.0], [0.0, -s, 0.0, c]]
    )
    local = np.zeros((4, 4))
    for k in (0, 2):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        cos, sin = math.cos(angle), math.sin(angle)
        local[k : k + 2, k : k + 2] = [[cos, sin], [-sin, cos]]
    sigma = local @ sigma @ local.T
    return 0.5 * (sigma + sigma.T)


class TestKernelAgainstMpmath:
    """The kernel, one matrix (Python floats) and a stack (arrays), against 50 digits."""

    @pytest.mark.parametrize(
        "states", [random_physical_covariance, _near_product, _near_degenerate, _two_mode_squeezed]
    )
    def test_s_and_e_match_mpmath(self, states):
        rng = np.random.default_rng(91)
        stack = np.array([states(rng) for _ in range(150)])
        stacked = _report_of(stack)
        for i, sigma in enumerate(stack):
            s_want, e_want = _mp_invariants(sigma)
            s_tol = 1e-14 * max(1.0, float(np.abs(sigma).max())) ** 4
            single = _report_of(sigma)
            for s, e in ((single.s, single.e), (stacked.s[i], stacked.e[i])):
                assert abs(s - s_want) <= s_tol, (i, s, s_want)
                assert abs(e - e_want) <= 1e-11, (i, e, e_want)
            assert abs(simon_s(block_decompose(sigma)) - s_want) <= s_tol
            assert abs(log_negativity(sigma) - e_want) <= 1e-11

    def test_product_states(self):
        # a I is a product state: f = a^2 exactly, where sqrt of a rounding-level
        # radicand used to cost half the digits of E or raise NegativeRadicandError
        for a in np.geomspace(1e-3, 1e3, 2001).tolist():
            want = -0.5 * math.log2(4.0 * a * a)
            sigma = a * np.eye(4)
            assert abs(log_negativity(sigma) - want) <= 1e-12, a
            assert abs(analyze(sigma).e_general - want) <= 1e-12, a

    def test_singular_state_has_no_negativity(self):
        # at the closed form's divergence (u = v) sigma is singular and E infinite;
        # its determinant is rounding noise, so f is 0 (or noise <= 0) and E absent,
        # not a large number
        rng = np.random.default_rng(93)
        for _ in range(200):
            m, omega, lam = (float(v) for v in rng.uniform(0.5, 2.0, size=3))
            u = float(rng.uniform(0.5, 3.0))
            env = matched_env(m, omega, lam, u, u)
            sigma = steady_state_closed_form(OscillatorParams(m, omega), env)
            report = analyze(sigma)
            assert report.e_general is None and abs(report.f_sigma) <= 1e-30, (m, omega, lam, u)
            assert report.notes == ("e_general: f(sigma) <= 0",)
            with pytest.raises(NonPositiveFError):
                log_negativity(sigma)

    def test_tiny_product_states(self):
        # det sigma = a^4 underflows below a = 1e-77; f = det A (det(B - C^T A^-1 C) /
        # (h + root)) has factors in range
        values = np.geomspace(1e-150, 1e-77, 731)
        stacked = _report_of(values[:, None, None] * np.eye(4))
        for a, e_stacked in zip(values.tolist(), stacked.e.tolist()):
            want = -0.5 * math.log2(4.0 * a * a)
            sigma = a * np.eye(4)
            assert abs(log_negativity(sigma) - want) <= 1e-12, a
            report = analyze(sigma)
            assert abs(report.e_general - want) <= 1e-12 and report.notes == (), a
            assert abs(e_stacked - want) <= 1e-12, a

    def test_underflowing_determinant(self):
        report = analyze(np.eye(4) * 1e-100)
        assert report.e_general == pytest.approx(331.19280948873626, abs=1e-12)
        assert abs(report.f_sigma - 1e-200) <= 1e-15 * 1e-200

    @pytest.mark.parametrize("scale", [1e-78, 1e-100, 1e-120, 1e-150])
    def test_tiny_product_states_match_mpmath(self, scale):
        # A (+) A with A a random one-mode state: the radicand is exactly 0, and f = det A
        rng = np.random.default_rng(94)
        stack = []
        for _ in range(40):
            one_mode = random_physical_covariance(rng)[:2, :2]
            sigma = np.zeros((4, 4))
            sigma[:2, :2] = sigma[2:, 2:] = scale * one_mode
            stack.append(sigma)
        stacked = _report_of(np.array(stack))
        for i, sigma in enumerate(stack):
            _, e_want = _mp_invariants(sigma)
            for e in (_report_of(sigma).e, stacked.e[i], log_negativity(sigma)):
                assert abs(e - e_want) <= 1e-11, (i, e, e_want)
            assert abs(analyze(sigma).e_general - e_want) <= 1e-11, i


class TestCovarianceRead:
    """analyze and log_negativity read sigma once; errors and reports as before."""

    @pytest.mark.parametrize("function", [analyze, log_negativity])
    @pytest.mark.parametrize(
        "sigma, message",
        [
            (np.eye(3), r"covariance matrix must be 4x4, got shape \(3, 3\)"),
            (np.ones(16), r"covariance matrix must be 4x4, got shape \(16,\)"),
            ([[1.0] * 5] * 4, r"covariance matrix must be 4x4, got shape \(4, 5\)"),
        ],
    )
    def test_wrong_shape(self, function, sigma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            function(sigma)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
    def test_asymmetry_beyond_tolerance(self, scale):
        # the tolerance is 1e-10 max |entry|, with no floor, at each of the 12 off-diagonal entries
        for where in [(i, j) for i in range(4) for j in range(4) if i != j]:
            sigma = scale * VACUUM
            sigma[where] = 2e-10 * 0.5 * scale
            with pytest.raises(ValueError, match="^covariance matrix must be symmetric$"):
                analyze(sigma)
            sigma[where] = 0.5e-10 * 0.5 * scale
            assert analyze(sigma).verdict == "separable", where
            assert math.isfinite(log_negativity(sigma)), where

    def test_tiny_antisymmetric_matrix_is_refused(self):
        # 1e-12 I with s01 = -s10 = 1e-12 is as far from symmetric as a matrix gets
        sigma = 1e-12 * np.eye(4)
        sigma[0, 1], sigma[1, 0] = 1e-12, -1e-12
        for function in (analyze, check_state_covariance):
            with pytest.raises(ValueError, match="^covariance matrix must be symmetric$"):
                function(sigma)

    def test_overflowing_asymmetry(self):
        sigma = np.full((4, 4), 1e308)
        sigma[0, 1] = -1e308  # the difference overflows to inf
        with pytest.raises(ValueError, match="^covariance matrix must be symmetric$"):
            analyze(sigma)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 1), (1, 0), (2, 3)])
    def test_non_finite_is_reported_before_asymmetry(self, bad, where):
        sigma = VACUUM.copy()
        sigma[0, 3] = 1.0
        sigma[where] = bad
        with pytest.raises(ValueError, match="^covariance matrix entries must be finite$"):
            analyze(sigma)

    @staticmethod
    def _views(sigma):
        base = np.zeros((8, 8))
        base[::2, ::2] = sigma
        read_only = sigma.copy()
        read_only.flags.writeable = False
        return {
            "nested lists": sigma.tolist(),
            "Fortran order": np.asfortranarray(sigma),
            "transposed view": sigma.T,  # Fortran-ordered, of a symmetric sigma
            "non-contiguous view": base[::2, ::2],
            "np.matrix": np.matrix(sigma),
            "read-only": read_only,
            "big-endian": sigma.astype(">f8"),
        }

    @pytest.mark.filterwarnings("ignore:the matrix subclass:PendingDeprecationWarning")
    def test_input_forms_give_the_same_report(self, osc, reference_env, reference_sigma_inf):
        rng = np.random.default_rng(95)
        for sigma in (reference_sigma_inf, VACUUM, random_physical_covariance(rng)):
            want = (repr(analyze(sigma, osc, reference_env)), repr(analyze(sigma)))
            negativity = log_negativity(sigma)
            for name, form in self._views(sigma).items():
                got = (repr(analyze(form, osc, reference_env)), repr(analyze(form)))
                assert got == want, name
                assert log_negativity(form) == negativity, name

    def test_integer_array(self, osc, reference_env):
        sigma = np.diag([2, 3, 2, 3])
        want = analyze(sigma.astype(float), osc, reference_env)
        assert repr(analyze(sigma, osc, reference_env)) == repr(want)
        assert log_negativity(sigma) == log_negativity(sigma.astype(float))


# (m, omega) and the environment of four steady states: one whose y-mode noise is
# not mirrored, only close at small scales (D_yy = D_pypy = 0.9 against 0.6), the
# golden steady_ten and steady_symmetric cases, and a matched one with m omega = 2.
_TIME_UNIT_CASES = {
    "unmirrored": ((1.0, 1.0), EnvironmentParams(
        lam=1.0, d_xx=0.6, d_pxpx=0.6, d_xpy=0.3, d_ypx=0.3, d_yy=0.9, d_pypy=0.9
    )),
    "steady_ten": ((1.3, 0.7), EnvironmentParams(
        lam=0.9, d_xx=0.7, d_xpx=0.02, d_xy=0.05, d_xpy=0.1, d_ypx=0.12,
        d_pxpx=0.8, d_yy=0.75, d_ypy=0.03, d_pxpy=0.04, d_pypy=0.85,
    )),
    "steady_symmetric": ((1.0, 1.0), SymmetricEnvironmentParams(
        lam=1.0, d_xx=0.6, d_pxpx=0.6, d_xpy=0.3
    )),
    "matched": ((4.0, 0.5), SymmetricEnvironmentParams(lam=0.8, d_xx=0.5, d_pxpx=2.0, d_xpy=1.0)),
}


def _rescaled(env, k):
    """env with time rescaled by k: lambda and every D times k.  With omega times k and
    m over k, H scales by k and the physics, sigma_inf included, stays as it is."""
    return EnvironmentParams(**{name: value * k for name, value in asdict(env).items()})


class TestUnitsOfTime:
    """Every decision and value is the same in any power-of-two unit of time."""

    @staticmethod
    def _steady_report(case, k):
        (m, omega), env = _TIME_UNIT_CASES[case]
        osc, env = OscillatorParams(m / k, omega * k), _rescaled(env, k)
        sigma = steady_state_lyapunov(build_drift_matrix(osc, env), build_diffusion_matrix(env))
        return sigma, analyze(sigma, osc, env)

    @pytest.mark.parametrize(
        "k", [2.0**-60, 2.0**-40, 2.0**-20, 2.0**20, 2.0**40, 2.0**60],
        ids=lambda k: f"2^{math.frexp(k)[1] - 1}",
    )
    @pytest.mark.parametrize("case", list(_TIME_UNIT_CASES))
    def test_steady_state_report_is_units_free(self, case, k):
        sigma1, want = self._steady_report(case, 1.0)
        sigma, got = self._steady_report(case, k)
        assert sigma.tobytes() == sigma1.tobytes()
        assert (got.notes, got.verdict, got.valid_lenient) == (
            want.notes, want.verdict, want.valid_lenient
        )
        assert (got.s_general, got.e_general) == (want.s_general, want.e_general)
        assert (got.s_special, got.e_closed) == (want.s_special, want.e_closed)
        # the window is a range of D_xpy, which scales with k
        scaled_window = None if want.window is None else tuple(k * edge for edge in want.window)
        assert got.window == scaled_window
        assert (want.window is None) == (case in ("unmirrored", "steady_ten"))

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 9: strict validity compares the minimum Gram eigenvalue, "
        "which scales with k, with the absolute floor PSD_TOLERANCE = 1e-10; "
        "perfbench/oracle.py pins the same floor as PSD_FLOOR",
    )
    @pytest.mark.parametrize("k", [2.0**-30, 2.0**-40, 2.0**-60], ids=["2^-30", "2^-40", "2^-60"])
    def test_strict_validity_is_units_free(self, k):
        # validate_fail's environment: its eigenvalue -0.07 k clears -1e-10 below k = 2^-30
        env = SymmetricEnvironmentParams(lam=0.5, d_xx=0.25, d_pxpx=0.25, d_xpy=0.2)
        assert validate_environment(_rescaled(env, k)).failed == validate_environment(env).failed


def test_equal_partial_transpose_eigenvalues_keep_e():
    # sigma = P (nu S S^T) P, with P flipping p_y and S a beam splitter after two
    # squeezers: its partial transpose nu S S^T has both symplectic eigenvalues nu,
    # so the radicand is 0 and E = -log2(2 nu)
    rng = np.random.default_rng(2024)
    nu, flip = 100.0, np.diag([1.0, 1.0, 1.0, -1.0])
    missed = []
    for _ in range(200):
        phi = rng.uniform(0.0, math.pi)
        c, s = math.cos(phi), math.sin(phi)
        splitter = np.array([[c, 0, s, 0], [0, c, 0, s], [-s, 0, c, 0], [0, -s, 0, c]])
        r1, r2 = rng.uniform(-1.0, 1.0, 2)
        symplectic = splitter @ np.diag(np.exp([r1, -r1, r2, -r2]))
        sigma = flip @ (nu * symplectic @ symplectic.T) @ flip
        e = analyze(0.5 * (sigma + sigma.T)).e_general
        if e is None or abs(e + math.log2(2.0 * nu)) > 1e-6:
            missed.append(e)
    assert missed == []
