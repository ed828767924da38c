import json
import math
import os

import numpy as np
import pytest

from heaviforge.quadrature import (
    DEFAULT_EVAL_BUDGET,
    CutoffParams,
    NonFiniteIntegrand,
    QuadratureError,
    QuadratureResult,
    ToleranceNotReached,
    _block_states,
    _gk_sums,
    _half_line_edges,
    _row_sums,
    integrate_half_line,
    integrate_interval,
    integrate_tan_interval,
)


def density(z):
    # e^z / (1+e^z)^2 without overflow
    a = np.exp(-np.abs(z))
    return a / (1.0 + a) ** 2


# ---------------------------------------------------------------------------
# cutoff parameter plumbing

def test_default_cutoffs():
    p = CutoffParams()
    assert p.half_line_T == 100.0
    assert p.indicator_scale_U == 128.0
    assert p.tan_margin_eps == pytest.approx(math.atan(1.0 / 128.0), rel=1e-15)


def test_scale_derived_from_margin_is_exact_tan():
    p = CutoffParams(tan_margin_eps=1e-3)
    assert p.indicator_scale_U == math.tan(math.pi / 2.0 - 1e-3)


def test_margin_derived_from_scale():
    p = CutoffParams(indicator_scale_U=50.0)
    assert p.tan_margin_eps == math.atan(1.0 / 50.0)
    assert 0.0 < p.tan_margin_eps < math.pi / 4.0


@pytest.mark.parametrize("kwargs", [
    {"half_line_T": 0.0},
    {"half_line_T": -3.0},
    {"half_line_T": math.inf},
    {"tan_margin_eps": 0.0},
    {"tan_margin_eps": math.pi / 4.0},
    {"tan_margin_eps": -1e-3},
    {"indicator_scale_U": 0.0},
    {"indicator_scale_U": -5.0},
    {"indicator_scale_U": 1.0},  # tan(pi/4): the margin would be pi/4
    {"indicator_scale_U": math.nan},
    {"tan_margin_eps": 0.1, "indicator_scale_U": 1000.0},  # two views of one cutoff
])
def test_invalid_cutoffs_rejected(kwargs):
    with pytest.raises(ValueError):
        CutoffParams(**kwargs)


# ---------------------------------------------------------------------------
# half-line examples

def test_half_line_logistic_density_is_one_half():
    # integrand of the odd ramp at x = 1; exact value over [0, inf) is 1/2
    # and the [T, inf) tail is ~2e-22 at T = 50
    res = integrate_half_line(lambda t: density(t), CutoffParams(half_line_T=50.0), 1e-10)
    assert res.value == pytest.approx(0.5, abs=1e-10)
    assert res.abs_error_estimate <= 1e-10
    assert res.evaluations >= 1


def test_half_line_zero_integrand():
    res = integrate_half_line(lambda t: 0.0, CutoffParams(half_line_T=7.0), 1e-12)
    assert res.value == 0.0
    assert res.abs_error_estimate == 0.0


def test_half_line_exponential_decay():
    # oracle: antiderivative -e^{-t}, so the truncated integral is 1 - e^{-40}
    truth = -math.expm1(-40.0)
    res = integrate_half_line(lambda t: np.exp(-t), CutoffParams(half_line_T=40.0), 1e-10)
    assert abs(res.value - truth) <= max(1e-10, res.abs_error_estimate)


# ---------------------------------------------------------------------------
# tangent-interval examples

def test_tan_interval_indicator_integrand():
    # integrand of the nonzero indicator at x = 1: sec^2(t) e^{-tan t};
    # antiderivative -e^{-tan t} gives 1 - e^{-U}
    params = CutoffParams(tan_margin_eps=1e-6)
    truth = -math.expm1(-params.indicator_scale_U)
    res = integrate_tan_interval(
        lambda t: (1.0 + np.tan(t) ** 2) * np.exp(-np.tan(t)), params, 1e-9
    )
    assert abs(res.value - truth) <= 1e-9


def test_tan_interval_zero_integrand():
    res = integrate_tan_interval(lambda t: np.zeros_like(t), CutoffParams(), 1e-12)
    assert res.value == 0.0


def test_tan_interval_ramp_integrand_vanishes_at_zero():
    # the ramp integrand carries a factor x, so it is identically 0 at x = 0
    x = 0.0
    res = integrate_tan_interval(
        lambda t: x * (1.0 + np.tan(t) ** 2) * density(x * np.tan(t)),
        CutoffParams(), 1e-12,
    )
    assert res.value == 0.0


# ---------------------------------------------------------------------------
# known-antiderivative battery (shared by the linearity/monotone properties)

HALF_T = 20.0
TAN_PARAMS = CutoffParams()

BATTERY = [
    ("exp_decay", "half", lambda t: np.exp(-t), lambda t: -math.exp(-t)),
    ("t_exp_decay", "half", lambda t: t * np.exp(-t), lambda t: -(t + 1.0) * math.exp(-t)),
    ("cos_exp", "half", lambda t: np.cos(t) * np.exp(-t),
     lambda t: math.exp(-t) * (math.sin(t) - math.cos(t)) / 2.0),
    ("inv_square", "half", lambda t: 1.0 / (1.0 + t) ** 2, lambda t: -1.0 / (1.0 + t)),
    ("scaled_density", "half", lambda t: 3.0 * density(3.0 * t),
     lambda t: -1.0 / (1.0 + math.exp(3.0 * t))),
    ("parabola", "half", lambda t: t * t, lambda t: t ** 3 / 3.0),
    ("gaussian_pair", "half", lambda t: 2.0 * t * np.exp(-t * t), lambda t: -math.exp(-t * t)),
    ("sine", "tan", lambda t: np.sin(t), lambda t: -math.cos(t)),
    ("sec_squared", "tan", lambda t: 1.0 + np.tan(t) ** 2, math.tan),
    ("indicator", "tan", lambda t: (1.0 + np.tan(t) ** 2) * np.exp(-np.tan(t)),
     lambda t: -math.exp(-math.tan(t))),
]


def run_battery_case(shape, integrand, tol):
    if shape == "half":
        params = CutoffParams(half_line_T=HALF_T)
        return integrate_half_line(integrand, params, tol), HALF_T
    return integrate_tan_interval(integrand, TAN_PARAMS, tol), TAN_PARAMS.tan_interval_upper


@pytest.mark.parametrize("name,shape,integrand,antiderivative", BATTERY, ids=[b[0] for b in BATTERY])
def test_battery_matches_antiderivative(name, shape, integrand, antiderivative):
    tol = 1e-9
    res, upper = run_battery_case(shape, integrand, tol)
    truth = antiderivative(upper) - antiderivative(0.0)
    assert abs(res.value - truth) <= max(tol, res.abs_error_estimate)


@pytest.mark.parametrize("name,shape,integrand,antiderivative", BATTERY, ids=[b[0] for b in BATTERY])
def test_monotone_refinement(name, shape, integrand, antiderivative):
    # halving the tolerance never worsens the true error
    _, upper = run_battery_case(shape, integrand, 1e-4)
    truth = antiderivative(upper) - antiderivative(0.0)
    errors = []
    tol = 1e-4
    for _ in range(13):
        res, _ = run_battery_case(shape, integrand, tol)
        errors.append(abs(res.value - truth))
        tol /= 2.0
    for coarse, fine in zip(errors, errors[1:]):
        assert fine <= coarse


def test_linearity_in_the_integrand():
    rng = np.random.default_rng(2024)
    tol = 1e-9
    g = lambda t: np.cos(t) * np.exp(-t)
    params = CutoffParams(half_line_T=HALF_T)
    base = integrate_half_line(g, params, tol).value
    for a in rng.uniform(-10.0, 10.0, size=12):
        scaled = integrate_half_line(lambda t: a * g(t), params, tol).value
        assert abs(scaled - a * base) <= 2.0 * tol


# ---------------------------------------------------------------------------
# failure modes and determinism

def test_non_finite_integrand_raises():
    with pytest.raises(NonFiniteIntegrand):
        integrate_half_line(
            lambda t: np.where(t < 1.0, 1.0, np.nan), CutoffParams(half_line_T=2.0), 1e-9
        )


def test_budget_exhaustion_flags_best_estimate():
    with pytest.raises(ToleranceNotReached) as info:
        integrate_half_line(
            lambda t: np.sin(3e5 * t * t), CutoffParams(half_line_T=20.0), 1e-12
        )
    best = info.value.best
    assert isinstance(best, QuadratureResult)
    assert best.abs_error_estimate > 1e-12
    assert best.evaluations <= 1_000_000


def test_roundoff_limited_panels_stop_before_the_budget():
    # the jump at 0.3 is bisected down to panels no wider than rounding, which
    # are not split further: the estimate stops short of a tol no sum can meet
    with pytest.raises(ToleranceNotReached) as info:
        integrate_interval(lambda t: (t > 0.3).astype(float), 0.0, 1.0, 1e-300)
    best = info.value.best
    assert best.evaluations < DEFAULT_EVAL_BUDGET
    assert abs(best.value - 0.7) <= 1e-12


def test_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        integrate_half_line(lambda t: np.exp(-t), CutoffParams(), 0.0)


def test_deterministic_for_fixed_inputs():
    params = CutoffParams(half_line_T=30.0)
    f = lambda t: 5.0 * density(5.0 * t)
    a = integrate_half_line(f, params, 1e-9)
    b = integrate_half_line(f, params, 1e-9)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


def test_handed_over_seed_wave_gives_the_same_result():
    # eval_quadrature's block hands each row's integrate_* call the row's
    # outcome where it has one: a result, returned as it is, or a failure,
    # raised; on None the call integrates alone
    params = CutoffParams(half_line_T=30.0)
    scales = [0.5, 5.0, 50.0, 500.0, 5000.0]
    integrand_of = lambda x: (lambda t: x * density(x * t))
    edges = _half_line_edges(params.half_line_T)
    for tol in (1e-6, 1e-12, 1e-14):
        for x, state in zip(scales, _block_states(integrand_of, scales, edges, tol)):
            f = integrand_of(x)
            assert isinstance(state, QuadratureResult)
            assert integrate_half_line(f, params, tol, seed_wave=state) is state
            assert integrate_half_line(f, params, tol, seed_wave=None) == state == integrate_half_line(f, params, tol)
    f = integrand_of(50.0)
    failure = ToleranceNotReached(QuadratureResult(0.5, 1e-3, 690))
    with pytest.raises(ToleranceNotReached) as info:
        integrate_tan_interval(f, seed_wave=failure)
    assert info.value is failure
    # the panels that a dropped row used to be handed, or any other value
    left, right = edges[:-1], edges[1:]
    for other in ((left, right, left, right, 690), 0.5, "result"):
        with pytest.raises(ValueError, match="seed_wave"):
            integrate_half_line(f, params, 1e-12, seed_wave=other)
    # a chunk whose call would warn hands over nothing: each row evaluates,
    # warns and fails by itself
    with np.errstate(invalid="warn"):
        assert _block_states(lambda x: (lambda t: np.sqrt(x - t)), [100.0, 1.0], edges, 1e-9) == [None, None]


def test_a_panels_gk_sums_do_not_depend_on_the_panels_beside_it():
    # a BLAS matrix-vector product gives some panels other sums in another
    # row of a larger matrix; the sums of a seed chunk (rows, panels, 15), of
    # a refinement wave's slice and of one panel alone must be the same bits
    rng = np.random.default_rng(18)
    vals = rng.standard_normal((1536, 15)) * 10.0 ** rng.uniform(-12.0, 12.0, (1536, 1))
    half = rng.uniform(1e-6, 50.0, 1536)
    stacked = _gk_sums(vals, half)
    alone = [_gk_sums(vals[i:i + 1], half[i:i + 1]) for i in range(len(half))]
    for sums, one in zip(stacked, zip(*alone)):
        assert np.array_equal(sums, np.concatenate(one))
    for sums, chunk in zip(stacked, _gk_sums(vals.reshape(32, 48, 15), half.reshape(32, 48))):
        assert np.array_equal(sums, chunk.ravel())


def test_row_sums_equal_each_rows_own_sum():
    # numpy's pairwise summation: sum(axis=1) over rows of one length runs
    # each row's own association, at every length across its block sizes
    rng = np.random.default_rng(4)
    for length in (1, 7, 8, 9, 15, 46, 51, 127, 128, 129, 300):
        rows = np.abs(rng.standard_normal((40, length))) * 10.0 ** rng.uniform(-15.0, 0.0, (40, length))
        assert rows.sum(axis=1).tolist() == [row.sum() for row in rows]
    # _row_sums groups the rows of a flat panel array by their length
    counts = rng.integers(46, 140, 200)
    starts = np.cumsum(counts) - counts
    values = rng.standard_normal(counts.sum()) * 10.0 ** rng.uniform(-15.0, 0.0, counts.sum())
    total, peak = _row_sums(values, starts, counts)
    rows = [values[start:start + count] for start, count in zip(starts, counts)]
    assert total.tolist() == [row.sum() for row in rows]
    assert peak.tolist() == [row.max() for row in rows]


def test_interval_helper():
    res = integrate_interval(lambda x: np.cos(x), -1.0, 1.0, 1e-10)
    assert res.value == pytest.approx(2.0 * math.sin(1.0), abs=1e-10)
    with pytest.raises(ValueError):
        integrate_interval(lambda x: x, 1.0, 1.0)


def test_interval_helper_needs_a_finite_span():
    # both bounds are finite, but upper - lower overflows to inf
    with pytest.raises(ValueError, match="finite span"):
        integrate_interval(lambda t: np.zeros_like(t), -1e308, 1e308)
    assert integrate_interval(lambda t: np.zeros_like(t), -8e307, 8e307).value == 0.0


# ---------------------------------------------------------------------------
# the calls above against a capture of the refinement loop that integrate_*
# ran on its own before eval_quadrature's block loop became the only one

REFERENCE_CALLS = {
    **{f"{name} {tol!r}": (lambda shape=shape, integrand=integrand, tol=tol: run_battery_case(shape, integrand, tol)[0])
       for name, shape, integrand, _ in BATTERY for tol in [1e-9] + [1e-4 / 2.0**k for k in range(13)]},
    "half-line logistic density": lambda: integrate_half_line(lambda t: density(t), CutoffParams(half_line_T=50.0), 1e-10),
    "half-line zero": lambda: integrate_half_line(lambda t: 0.0, CutoffParams(half_line_T=7.0), 1e-12),
    "half-line exponential decay": lambda: integrate_half_line(lambda t: np.exp(-t), CutoffParams(half_line_T=40.0), 1e-10),
    "half-line scaled density": lambda: integrate_half_line(lambda t: 5.0 * density(5.0 * t), CutoffParams(half_line_T=30.0), 1e-9),
    "tan indicator": lambda: integrate_tan_interval(
        lambda t: (1.0 + np.tan(t) ** 2) * np.exp(-np.tan(t)), CutoffParams(tan_margin_eps=1e-6), 1e-9),
    "tan zero": lambda: integrate_tan_interval(lambda t: np.zeros_like(t), CutoffParams(), 1e-12),
    "non-finite": lambda: integrate_half_line(
        lambda t: np.where(t < 1.0, 1.0, np.nan), CutoffParams(half_line_T=2.0), 1e-9),
    "budget": lambda: integrate_half_line(lambda t: np.sin(3e5 * t * t), CutoffParams(half_line_T=20.0), 1e-12),
    "interval rounding floor": lambda: integrate_interval(lambda t: (t > 0.3).astype(float), 0.0, 1.0, 1e-300),
    "interval cos": lambda: integrate_interval(lambda x: np.cos(x), -1.0, 1.0, 1e-10),
    "interval wide zero": lambda: integrate_interval(lambda t: np.zeros_like(t), -8e307, 8e307),
}


def outcome(call):
    """A call's [value, abs_error_estimate, evaluations], or its failure's
    [type, message, best estimate or None]: the capture's JSON form."""
    fields = lambda r: [r.value, r.abs_error_estimate, r.evaluations]
    try:
        return fields(call())
    except QuadratureError as exc:
        best = getattr(exc, "best", None)
        return [type(exc).__name__, str(exc), None if best is None else fields(best)]


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "quadrature_reference.json")) as f:
        return json.load(f)["calls"]


@pytest.mark.parametrize("case", REFERENCE_CALLS)
def test_calls_equal_the_captured_reference(case, reference):
    assert outcome(REFERENCE_CALLS[case]) == reference[case]
