import math

import numpy as np
import pytest

from heaviforge.quadrature import CutoffParams, integrate_interval
from heaviforge.stepfun import (
    Backend,
    StepKind,
    eval_c,
    eval_delta,
    eval_f,
    eval_q,
    eval_rt,
    eval_step,
    eval_u,
    snap,
)

QUAD = Backend.QUADRATURE
CLOSED = Backend.CLOSED_FORM

T50 = CutoffParams(half_line_T=50.0)
U50 = CutoffParams(indicator_scale_U=50.0)
BOTH50 = CutoffParams(half_line_T=50.0, indicator_scale_U=50.0)


def logistic_tail(z):
    # oracle for 1/(1 + e^z) at large positive z
    a = math.exp(-z)
    return a / (1.0 + a)


# ---------------------------------------------------------------------------
# odd ramp f / its tangent twin c

def test_f_is_zero_at_origin():
    assert eval_f(0.0) == 0.0
    assert abs(eval_f(0.0, T50, QUAD)) <= 1e-8


def test_f_positive_side():
    truth = 0.5 - logistic_tail(250.0)  # closed-form antiderivative at T = 50
    assert eval_f(5.0, T50) == truth
    assert eval_f(5.0, T50) == pytest.approx(0.5, abs=1e-12)
    assert eval_f(5.0, T50, QUAD) == pytest.approx(truth, abs=1e-8)


def test_f_negative_side():
    assert eval_f(-5.0, T50) == pytest.approx(-0.5, abs=1e-12)


def test_f_antisymmetry_exact_in_closed_form():
    for x in (0.25, 1.0, 3.75, 17.0):
        assert eval_f(-x, T50) == -eval_f(x, T50)


def test_c_matches_f_when_scales_agree():
    for x in (-2.0, -0.3, 0.0, 0.4, 1.0, 5.0):
        assert abs(eval_c(x, BOTH50) - eval_f(x, BOTH50)) <= 1e-12


def test_c_examples():
    assert eval_c(0.0, U50) == 0.0
    truth = 0.5 - logistic_tail(50.0)
    assert eval_c(1.0, U50) == pytest.approx(truth, rel=1e-15)
    assert eval_c(-1.0, U50) == -eval_c(1.0, U50)
    assert eval_c(1.0, U50, QUAD) == pytest.approx(truth, abs=1e-8)


# ---------------------------------------------------------------------------
# nonzero indicators u / q and the zero indicator rt

def test_u_examples():
    assert eval_u(0.0, T50) == 0.0
    assert eval_u(1.0, T50) == pytest.approx(-math.expm1(-50.0), rel=1e-15)
    # resolution limit: tiny x is still far from the discrete value 1
    assert eval_u(1e-3, T50) == pytest.approx(-math.expm1(-5e-5), rel=1e-13)
    assert eval_u(1e-3, T50) == pytest.approx(5e-5, rel=1e-3)
    assert eval_u(1.0, T50, QUAD) == pytest.approx(eval_u(1.0, T50), abs=1e-8)


def test_q_examples():
    assert eval_q(0.0, U50) == 0.0
    assert eval_q(2.0, U50) == pytest.approx(-math.expm1(-200.0), rel=1e-15)
    assert eval_q(0.1, U50, QUAD) == pytest.approx(eval_q(0.1, U50), abs=1e-8)


def test_rt_examples():
    assert eval_rt(0.0, U50) == 1.0
    assert eval_rt(1.0, U50) == math.exp(-50.0)
    assert eval_rt(0.5, U50) == math.exp(-12.5)
    assert eval_rt(0.5, U50, QUAD) == pytest.approx(math.exp(-12.5), abs=1e-8)


def test_rt_strictly_decreasing_in_magnitude():
    xs = [0.0, 0.05, 0.1, 0.3, 0.7, 1.5, 3.0]
    vals = [eval_rt(x, U50) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


# ---------------------------------------------------------------------------
# steps

def test_step_origin_values_exact():
    assert eval_step(StepKind.H2, 0.0) == 0.5
    assert eval_step(StepKind.H1, 0.0) == 1.0


def test_step_far_sides():
    assert eval_step(StepKind.H1, -2.0, U50) < 1e-20
    assert eval_step(StepKind.H1, 2.0, U50) == pytest.approx(1.0, abs=1e-20)
    assert eval_step(StepKind.H2, -3.0, U50) == pytest.approx(0.0, abs=1e-20)


def test_step_quadrature_backend():
    for x in (-1.0, -0.05, 0.0, 0.02, 0.8):
        for kind in (StepKind.H1, StepKind.H2):
            closed = eval_step(kind, x, U50)
            quad = eval_step(kind, x, U50, QUAD)
            assert quad == pytest.approx(closed, abs=1e-8)


def test_h2_range_and_monotonicity():
    # strict bounds are honest wherever the logistic residual is still
    # representable next to 1/2 (|U x| below ~37); past that the truncated
    # value and the discrete limit are the same double
    xs = [k * 0.02 for k in range(-36, 37)]
    vals = [eval_step(StepKind.H2, x, U50) for x in xs]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    wide = [eval_step(StepKind.H2, x, U50) for x in (-40.0, -4.0, 4.0, 40.0)]
    assert all(0.0 <= v <= 1.0 for v in wide)


def test_h1_converges_to_discrete_step_as_scale_doubles():
    # strictly monotone convergence needs |x| past the Gaussian/logistic
    # crossover near 0.1 but small enough that the deviation stays
    # fp-representable at the largest scale; outside that window the
    # deviations are still non-increasing, saturating at zero
    for x in (-0.15, -0.1, 0.1, 0.15):
        discrete = 1.0 if x >= 0.0 else 0.0
        devs = [
            abs(eval_step(StepKind.H1, x, CutoffParams(indicator_scale_U=u)) - discrete)
            for u in (25.0, 50.0, 100.0, 200.0)
        ]
        assert all(b < a for a, b in zip(devs, devs[1:])), (x, devs)
    for x in (-2.0, -0.5, 0.5, 2.0):
        discrete = 1.0 if x >= 0.0 else 0.0
        devs = [
            abs(eval_step(StepKind.H1, x, CutoffParams(indicator_scale_U=u)) - discrete)
            for u in (25.0, 50.0, 100.0, 200.0)
        ]
        assert all(b <= a for a, b in zip(devs, devs[1:])), (x, devs)


# ---------------------------------------------------------------------------
# nascent delta

def test_delta_peak_is_quarter_scale():
    assert eval_delta(0.0, CutoffParams(half_line_T=100.0)) == 25.0
    assert eval_delta(0.0, CutoffParams(half_line_T=100.0), QUAD) == pytest.approx(25.0, abs=1e-8)


@pytest.mark.parametrize("T", [1.0, 100.0])
def test_delta_at_infinity_is_its_limit(T):
    params = CutoffParams(half_line_T=T)
    assert eval_delta(math.inf, params) == 0.0
    assert eval_delta(-math.inf, params) == 0.0


def test_delta_vanishes_away_from_origin():
    val = eval_delta(1.0, CutoffParams(half_line_T=100.0))
    assert abs(val) < 1e-40


def test_delta_mass_is_one():
    params = CutoffParams(half_line_T=100.0)
    integrand = np.vectorize(lambda x: eval_delta(x, params))
    res = integrate_interval(integrand, -1.0, 1.0, 1e-9)
    assert res.value == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("g", [math.cos, lambda x: math.exp(-x * x), lambda x: 1.0 + x * x],
                         ids=["cos", "gaussian", "one_plus_square"])
def test_delta_sifting_error_shrinks_as_scale_doubles(g):
    errors = []
    for T in (10.0, 20.0, 40.0, 80.0):
        params = CutoffParams(half_line_T=T)
        integrand = np.vectorize(lambda x: eval_delta(x, params) * g(x))
        value = integrate_interval(integrand, -1.0, 1.0, 1e-9).value
        errors.append(abs(value - g(0.0)))
    assert all(b < a for a, b in zip(errors, errors[1:])), errors


def test_delta_matches_step_derivative():
    # central difference of H2 against the logistic-density part of delta;
    # the Gaussian term is the derivative of the H1 correction and stays out
    T = 50.0
    params = CutoffParams(half_line_T=T, indicator_scale_U=T)
    h = 1e-4
    for k in range(-20, 21):
        x = 0.01 * k
        fd = (eval_step(StepKind.H2, x + h, params) - eval_step(StepKind.H2, x - h, params)) / (2.0 * h)
        density_part = eval_delta(x, params) + 2.0 * T * x * math.exp(-T * x * x)
        assert fd == pytest.approx(density_part, rel=1e-4)


# ---------------------------------------------------------------------------
# backend agreement and snapping

def test_backend_agreement_random_sample():
    rng = np.random.default_rng(314159)
    tol = 1e-9
    for _ in range(60):
        T = 10.0 ** rng.uniform(1.0, 2.301)
        x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, math.log10(500.0 / T)))
        params = CutoffParams(half_line_T=T, indicator_scale_U=T)
        for fn in (eval_f, eval_c, eval_u, eval_q, eval_rt, eval_delta):
            assert abs(fn(x, params, QUAD, tol) - fn(x, params, CLOSED, tol)) <= 10.0 * tol
        for kind in (StepKind.H1, StepKind.H2):
            a = eval_step(kind, x, params, QUAD, tol)
            b = eval_step(kind, x, params, CLOSED, tol)
            assert abs(a - b) <= 10.0 * tol


def test_antisymmetry_in_quadrature_within_tolerance():
    tol = 1e-9
    for x in (0.2, 1.0, 4.0):
        assert abs(eval_f(-x, T50, QUAD, tol) + eval_f(x, T50, QUAD, tol)) <= 2.0 * tol
        assert abs(eval_c(-x, U50, QUAD, tol) + eval_c(x, U50, QUAD, tol)) <= 2.0 * tol


def test_snap():
    assert snap(0.49999999996, 1e-6) == 0.5
    assert snap(1.0000004, 1e-6) == 1.0
    assert snap(-0.5000001, 1e-6) == -0.5
    assert snap(24.9999999, 1e-6) == 25.0
    assert snap(0.3, 1e-6) == 0.3  # too far from any half-integer: unchanged
    assert snap(0.25, 1e-6) == 0.25
    assert snap(math.inf) == math.inf
    assert snap(7e-10) == 0.0  # default tolerance 1e-9
    assert snap(7e-10, 0.0) == 7e-10
