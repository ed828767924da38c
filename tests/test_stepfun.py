import hashlib
import inspect
import json
import math
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heaviforge import cli, quadrature, stepfun
from heaviforge.quadrature import CutoffParams, eval_quadrature, integrate_interval
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
FUNCTIONS = ("f", "c", "u", "q", "rt", "H1", "H2", "delta")


def logistic_tail(z):
    # oracle for 1/(1 + e^z) at large positive z
    a = math.exp(-z)
    return a / (1.0 + a)


# ---------------------------------------------------------------------------
# the family table

def _function_choices(command):
    subcommands = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return next(set(a.choices) for a in subcommands.choices[command]._actions if a.dest == "function")


def test_the_family_is_named_once():
    assert set(stepfun.FAMILY) == set(quadrature._QUADRATURE) == set(FUNCTIONS)
    assert cli._FUNCTIONS is stepfun.FAMILY
    for command in ("eval", "table", "plot"):
        assert _function_choices(command) == set(FUNCTIONS)
    for name in ("f", "c", "u", "q", "rt", "delta"):
        assert stepfun.FAMILY[name] is getattr(stepfun, f"eval_{name}")
    for kind in StepKind:
        assert eval_step(kind, 0.25, U50) == stepfun.FAMILY[kind.value](0.25, U50)


# public evaluator -> the first line of its docstring
PUBLIC_EVALUATORS = {
    eval_f: "Odd ramp over the half-line: -1/2 for x<0, 0 at 0, +1/2 for x>0.",
    eval_c: "Tangent-interval twin of :func:`eval_f`; identical values when U = T.",
    eval_u: "Nonzero indicator over the half-line: 1 - e^{-T x^2}, in [0, 1).",
    eval_q: "Nonzero indicator over the tangent interval: 1 - e^{-U x^2}.",
    eval_rt: "Zero indicator rt(x) = 1 - q(x) = e^{-U x^2}, in (0, 1]; 1 iff x = 0.",
    eval_step: "Unit step at scale U.",
    eval_delta: "Nascent delta at scale T.",
}


@pytest.mark.parametrize("fn", PUBLIC_EVALUATORS, ids=lambda fn: fn.__name__)
def test_public_evaluators_keep_their_face(fn):
    assert fn.__name__ in stepfun.__all__ and getattr(stepfun, fn.__name__) is fn
    assert fn.__qualname__ == fn.__name__
    assert fn.__module__ == "heaviforge.stepfun"
    assert fn.__doc__.splitlines()[0] == PUBLIC_EVALUATORS[fn]
    signature = [(p.name, p.default, p.kind) for p in inspect.signature(fn).parameters.values()]
    positional, empty = inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.empty
    expected = [("x", empty, positional), ("params", None, positional),
                ("backend", Backend.CLOSED_FORM, positional), ("tol", 1e-9, positional)]
    if fn is eval_step:
        expected.insert(0, ("kind", empty, positional))
    assert signature == expected


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


@pytest.mark.parametrize("value", [sys.float_info.max, -sys.float_info.max, 2.0**52, -(2.0**53 + 2.0)])
def test_snap_leaves_large_floats_alone(value):
    # from 2^52 on every float is an integer, so already a multiple of 1/2;
    # value * 2 would overflow near the largest float
    assert snap(value) == value
    assert snap(value, 0.0) == value


# ---------------------------------------------------------------------------
# batched quadrature: a block of rows refined together

# One row's own integrate_* call runs the block's loop on that row alone.
# What these calls returned, warned and raised when they ran a refinement
# loop of their own is pinned in golden/quadrature_reference.json: rows as
# sha256 pins of their (value, abs_error_estimate, evaluations), failures
# and warnings as they are.
with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "quadrature_reference.json")) as _f:
    _CAPTURED = json.load(_f)


def _reference_row(name, x, params, tol):
    """One row as an ``integrate_*`` call at a float x, which evaluates its
    own seed wave."""
    on_half_line, integrand_of, finish = quadrature._QUADRATURE[name]
    integrate = quadrature.integrate_half_line if on_half_line else quadrature.integrate_tan_interval
    r = integrate(integrand_of(x), params, tol)
    return (r.value if finish is None else finish(r.value)), r.abs_error_estimate, r.evaluations


def _as_tuples(results):
    return [(r.value, r.abs_error_estimate, r.evaluations) for r in results]


@pytest.mark.parametrize("name", FUNCTIONS)
@pytest.mark.parametrize("params,tol,grid,refines", [
    (CutoffParams(), 1e-9, (-3.0, 3.0, 0.03), False),
    (CutoffParams(half_line_T=25.0, tan_margin_eps=0.05), 1e-12, (-0.5, 0.5, 0.03125), False),
    (CutoffParams(half_line_T=200.0, indicator_scale_U=512.0), 1e-12, (-8.0, 8.0, 0.25), True),
    # two blocks: rows of every function refine on both sides of the boundary
    (CutoffParams(half_line_T=200.0, indicator_scale_U=512.0), 1e-12, (-8.0, 8.0, 0.05), True),
])
def test_batched_column_equals_one_row_calls(name, params, tol, grid, refines):
    # every grid spans several chunks; on the last two, rows of every
    # function refine
    xs = cli._grid(*grid)
    batched = _as_tuples(eval_quadrature(name, xs, params, tol))
    one_row = _as_tuples(eval_quadrature(name, [x], params, tol)[0] for x in xs)
    reference = [_reference_row(name, x, params, tol) for x in xs]
    assert batched == one_row == reference
    assert hashlib.sha256(repr(reference).encode()).hexdigest() == _CAPTURED["grids"][f"{name} {grid!r}"]
    if refines:
        assert len({evals for _, _, evals in batched}) > 1
    if grid[2] == 0.05:
        edge = quadrature._BLOCK_ROWS
        assert len(xs) > edge
        seed = min(evals for _, _, evals in batched)
        assert max(evals for _, _, evals in batched[:edge]) > seed < max(evals for _, _, evals in batched[edge:])
    assert [stepfun.FAMILY[name](x, params, QUAD, tol) for x in xs] == [value for value, _, _ in batched]


_EDGES = quadrature._half_line_edges(CutoffParams().half_line_T)
_SEED_NODES = quadrature._gk_points(_EDGES[:-1], _EDGES[1:])[0]


def _probe_integrand(x):
    """A bump at t = 50 that every row refines.  Off the seed nodes, that is
    from a row's first refinement wave on, it overflows ``np.exp`` at x = 5
    (a warning; the values stay finite) and is NaN at x = 3 (no warning).
    At x = 4 it is -inf everywhere, seed wave too (log of 0: a warning).
    At x = 6 it jumps by 1000 at t = 50.3, which no tol below about 1e-10
    resolves before the panels there reach the rounding floor."""
    def g(t):
        off = ~np.isin(t, _SEED_NODES)
        spill = np.exp(np.where((x == 5.0) & off, 1e3, 0.0))
        bump = x * quadrature._density_np(x * (t - 50.0)) / (1.0 + spill)
        step = np.where((x == 6.0) & (t > 50.3), 1e3, 0.0)
        return np.where((x == 3.0) & off, np.nan, bump + step) + np.log(np.where(x == 4.0, 0.0, 1.0))
    return g


@pytest.fixture
def probe(monkeypatch):
    """Make the probe integrand a member of eval_quadrature's family."""
    monkeypatch.setitem(quadrature._QUADRATURE, "probe", (True, _probe_integrand, None))


def test_batched_column_raises_for_the_first_failing_row(probe):
    # u's integrand is NaN once x * x overflows; f's never is
    good, bad = 1e150, 1e200
    with pytest.raises(quadrature.NonFiniteIntegrand, match="NaN or inf"), _warns("invalid value"):
        eval_quadrature("u", [good, good, bad, good], CutoffParams(), 1e-9)
    assert len(eval_quadrature("f", [good, bad], CutoffParams(), 1e-9)) == 2
    # a row that runs out of budget before a non-finite row raises first,
    # with the best estimate of its own call
    with pytest.raises(quadrature.ToleranceNotReached) as batched:
        eval_quadrature("u", [0.5, bad], CutoffParams(), 1e-300)
    assert batched.value.best == _best_alone("u", 0.5, 1e-300)
    with pytest.raises(quadrature.NonFiniteIntegrand), _warns("invalid value"):
        eval_quadrature("u", [bad, 0.5], CutoffParams(), 1e-300)
    # the same where the failing row is mid-block and first fails in a
    # refinement wave, not in its seed wave
    assert min(r.evaluations for r in eval_quadrature("probe", [0.5, 1.0, 2.0], CutoffParams(), 1e-9)) > 690
    with pytest.raises(quadrature.NonFiniteIntegrand, match="NaN or inf"):
        eval_quadrature("probe", [1.0, 2.0, 3.0, 1.5, 2.5], CutoffParams(), 1e-9)
    with pytest.raises(quadrature.ToleranceNotReached) as batched:
        eval_quadrature("probe", [0.5, 3.0], CutoffParams(), 1e-300)
    assert batched.value.best == _best_alone("probe", 0.5, 1e-300)
    with pytest.raises(quadrature.NonFiniteIntegrand):
        eval_quadrature("probe", [3.0, 0.5], CutoffParams(), 1e-300)
    # a row whose panels reach the rounding floor in the block stops there,
    # as its own call would
    with pytest.raises(quadrature.ToleranceNotReached) as batched:
        eval_quadrature("probe", [1.0, 6.0, 2.0], CutoffParams(), 1e-12)
    assert batched.value.best == _best_alone("probe", 6.0, 1e-12)
    assert batched.value.best.evaluations < 30 * quadrature._SLICE_PANELS
    # a floating-point error in a refinement wave raises, under numpy's
    # error state, before a later row's non-finite seed wave; a lone row's
    # call raises it too
    for run in (lambda: eval_quadrature("probe", [1.0, 5.0, 4.0, 2.0], CutoffParams(), 1e-9),
                lambda: _reference_row("probe", 5.0, CutoffParams(), 1e-9)):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            run()


def _best_alone(name, x, tol):
    """The best estimate of a failing row's own call, as captured."""
    with pytest.raises(quadrature.ToleranceNotReached) as alone:
        _reference_row(name, x, CutoffParams(), tol)
    best = alone.value.best
    assert [best.value, best.abs_error_estimate, best.evaluations] == _CAPTURED["failing_rows"][f"{name} {x!r} {tol!r}"]
    return best


@pytest.mark.parametrize("name,xs", [
    ("u", [0.5, 1e150, -1e200, 1e200]),
    ("H1", [0.0, 1e300, -1e300]),
    ("delta", [1.0, 1e120, 1e200]),
    ("f", [-1e300, 0.0, 1e300]),
    # mid-block rows that first warn, and fail, in a refinement wave
    ("probe", [1.0, 5.0, 2.0, 3.0, 1.5]),
    ("probe", [0.5, 1.0, 2.0, 5.0, 5.0, 1.5] + [1.0] * 16 + [4.0]),  # x = 4: a later chunk
])
def test_batched_column_warns_as_its_rows_one_by_one(name, xs, probe):
    # a block's shared integrand calls report no floating-point error
    # themselves; every warning and the failure come from the rows, in row
    # order
    batched = _failure_and_warnings(lambda: eval_quadrature(name, xs, CutoffParams(), 1e-9))
    one_by_one = _failure_and_warnings(lambda: _rows_one_by_one(name, xs, CutoffParams()))
    assert batched == one_by_one
    assert (batched[0] is None) == (name == "f")
    failure, caught = one_by_one  # as captured, but for the warnings' line numbers
    captured = [failure and [failure[0].__name__, failure[1]], [[message, os.path.basename(path)] for message, path, _ in caught]]
    assert captured == _CAPTURED["one_by_one"][f"{name} {xs!r}"]


@pytest.mark.parametrize("T", [1e308, 1.5e308])
def test_batched_column_fails_as_its_rows_one_by_one_where_T_nears_the_largest_float(T):
    # the panels next to T have midpoints 0.5 * right + 0.5 * left, finite
    # where right + left would overflow: the rows fail, and nothing warns
    params = CutoffParams(half_line_T=T)
    xs = [-1.0, -0.5, 0.0, 0.5, 1.0]
    batched = _failure_and_warnings(lambda: eval_quadrature("delta", xs, params, 1e-9))
    assert batched == _failure_and_warnings(lambda: _rows_one_by_one("delta", xs, params))
    assert batched[0] is not None and batched[1] == []


def _failure_and_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            fn()
            failure = None
        except quadrature.QuadratureError as exc:
            failure = type(exc), str(exc)
    return failure, [(str(w.message), w.filename, w.lineno) for w in caught]


def _rows_one_by_one(name, xs, params):
    on_half_line, integrand_of, _ = quadrature._QUADRATURE[name]
    integrate = quadrature.integrate_half_line if on_half_line else quadrature.integrate_tan_interval
    for x in xs:
        integrate(integrand_of(x), params, 1e-9)


def test_delta_quadrature_at_huge_x_fails_cleanly():
    # t * x * x overflows, and 0 * (-inf) is NaN
    with pytest.raises(quadrature.NonFiniteIntegrand), _warns("invalid value"), _warns("overflow"):
        eval_delta(1e300, CutoffParams(), QUAD)


def _warns(match):
    """The row's own numpy warning, which tier-1 otherwise turns into an
    error (pyproject.toml): a column's block never warns itself."""
    return pytest.warns(RuntimeWarning, match=match)


def test_delta_quadrature_holds_until_t_x_squared_overflows():
    # finite until t * x * x overflows at the largest sampled t, just under
    # T: from |x| ~ 1.34e153 on at the default T = 100
    for x in (1e120, -1e120, 1.3e153):
        (result,) = eval_quadrature("delta", [x], CutoffParams(), 1e-9)
        assert abs(result.value - eval_delta(x)) <= 1e-9


def test_delta_integrand_matches_the_four_term_form():
    # f' - u' term by term, unsplit and with plain exponentials, on |t x| <= 50
    rng = np.random.default_rng(14)
    x = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-3.0, 3.0, 20_000)
    t = np.abs(rng.uniform(-50.0, 50.0, 20_000) / x)
    z, e = t * x, np.exp(t * x)
    terms = ((1.0 + z) * e / (1.0 + e) ** 2, -2.0 * x * np.exp(-t * x * x),
             2.0 * t * x**3 * np.exp(-t * x * x), -2.0 * z * e * e / (1.0 + e) ** 3)
    error = np.abs(quadrature._delta_integrand(x)(t) - sum(terms))
    assert (error <= 8 * 2.0**-52 * sum(np.abs(term) for term in terms)).all()


# ---------------------------------------------------------------------------
# properties of the documented promises

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    T=st.floats(1.0, 1000.0),
    U=st.floats(1.0, 1024.0, exclude_min=True),
    tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    start=st.floats(-8.0, -0.5),
    stop=st.floats(0.0, 8.0),
    rows=st.integers(17, 48),
)
def test_table_backends_agree(T, U, tol, start, stop, rows):
    # 17 or more rows cross a chunk boundary on both domains
    params = CutoffParams(half_line_T=T, indicator_scale_U=U)
    xs = cli._grid(start, stop, (stop - start) / (rows - 1))
    for name in FUNCTIONS:
        closed = cli._FUNCTIONS[name]
        for x, quad in zip(xs, eval_quadrature(name, xs, params, tol)):
            raw = closed(x, params)
            assert abs(quad.value - raw) <= tol + 256 * 2.0**-52 * max(1.0, abs(raw)), (name, x)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(T=st.floats(1.0, 1000.0), U=st.floats(1.0, 1024.0, exclude_min=True))
def test_tighter_tol_is_never_worse_beyond_rounding(T, U):
    # not exactly monotone: a finer panel set can land a few ulp further
    # from the closed form (5 ulp at most over 10,080 probed rows)
    params = CutoffParams(half_line_T=T, indicator_scale_U=U)
    xs = cli._grid(-8.0, 8.0, 0.8)
    for name in FUNCTIONS:
        closed = [cli._FUNCTIONS[name](x, params) for x in xs]
        errors = [[abs(quad.value - raw) for quad, raw in zip(eval_quadrature(name, xs, params, tol), closed)]
                  for tol in (1e-6, 1e-9, 1e-12)]
        for loose, tight in zip(errors, errors[1:]):
            for x, raw, e_loose, e_tight in zip(xs, closed, loose, tight):
                assert e_tight <= e_loose + 16 * 2.0**-52 * max(1.0, abs(raw)), (name, x)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    x=st.floats(allow_nan=False, allow_infinity=False),
    T=st.floats(0.0, exclude_min=True, allow_infinity=False),
    U=st.floats(1.0, exclude_min=True, allow_infinity=False),
)
@example(x=0.25, T=100.0, U=128.0)  # the default cutoffs
@example(x=17.0, T=50.0, U=50.0)
@example(x=1.0, T=sys.float_info.max, U=sys.float_info.max)
@example(x=-sys.float_info.max, T=sys.float_info.max, U=sys.float_info.max)
def test_exact_promises_of_the_closed_forms(x, T, U):
    params = CutoffParams(half_line_T=T, indicator_scale_U=U)
    for name, evaluate in stepfun.FAMILY.items():
        assert math.isfinite(evaluate(x, params)), name  # README: stays finite
    assert eval_f(-x, params) == -eval_f(x, params)
    assert eval_c(-x, params) == -eval_c(x, params)
    h1, h2 = eval_step(StepKind.H1, x, params), eval_step(StepKind.H2, x, params)
    assert h1 >= h2  # H1 may pass 1 just right of 0: H2 + rt/2 reaches about 1.36
    for value in (h2, eval_u(x, params), eval_q(x, params), eval_rt(x, params)):
        assert 0.0 <= value <= 1.0
    assert eval_step(StepKind.H1, 0.0, params) == 1.0
    assert eval_step(StepKind.H2, 0.0, params) == 0.5
    assert eval_rt(0.0, params) == 1.0
