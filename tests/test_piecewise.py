import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heaviforge.quadrature import CutoffParams
from heaviforge.piecewise import (
    InvalidInterval,
    InvalidSpec,
    PiecewiseSpec,
    compose,
    default_cutoffs,
    dispatch,
    impulse,
    partition_terms,
    transition_width,
)
from heaviforge.stepfun import StepKind, _h1, eval_rt, eval_step, snap

U50 = CutoffParams(indicator_scale_U=50.0)


# ---------------------------------------------------------------------------
# unit impulse

def test_impulse_inside_interval():
    assert snap(impulse(1.0, 0.0, 2.0), 1e-6) == 1.0


def test_impulse_right_endpoint_is_open():
    # H1(0) = 1 subtracts exactly at the right endpoint
    assert snap(impulse(2.0, 0.0, 2.0), 1e-6) == 0.0


def test_impulse_outside_interval():
    # closed-form logistic difference is astronomically small at U = 50
    assert abs(impulse(-1.0, 0.0, 2.0, U50)) < 1e-20


def test_impulse_rejects_bad_interval():
    with pytest.raises(InvalidInterval):
        impulse(0.5, 2.0, 2.0)
    with pytest.raises(InvalidInterval):
        impulse(0.5, 3.0, 2.0)


# ---------------------------------------------------------------------------
# spec validation

def test_spec_rejects_decreasing_breakpoints():
    with pytest.raises(InvalidSpec):
        PiecewiseSpec((1.0, 1.0), (abs, abs, abs))
    with pytest.raises(InvalidSpec):
        PiecewiseSpec((2.0, 1.0), (abs, abs, abs))


def test_spec_rejects_branch_count_mismatch():
    with pytest.raises(InvalidSpec):
        PiecewiseSpec((0.0,), (abs,))
    with pytest.raises(InvalidSpec):
        PiecewiseSpec((0.0,), (abs, abs, abs))


def test_spec_rejects_empty_breakpoints():
    with pytest.raises(InvalidSpec):
        PiecewiseSpec((), (abs,))


# ---------------------------------------------------------------------------
# composition examples

def test_compose_reproduces_unit_step():
    spec = PiecewiseSpec((0.0,), (lambda x: 0.0, lambda x: 1.0))
    fn = compose(spec)
    assert [snap(fn(x), 1e-6) for x in (-1.0, 0.0, 1.0)] == [0.0, 1.0, 1.0]
    # a single breakpoint needs no impulse terms at all: just the two gates
    assert len(partition_terms(spec, 0.3)) == 2


def test_compose_three_branch_example():
    spec = PiecewiseSpec((0.0, 1.0), (lambda x: x * x, lambda x: x + 3.0, math.sin))
    fn = compose(spec)
    assert dispatch(spec, 0.5) == 3.5  # oracle: middle branch
    assert fn(0.5) == pytest.approx(3.5, abs=1e-6 * 4.5)
    assert dispatch(spec, 1.0) == math.sin(1.0)  # boundary goes to the last branch
    assert fn(1.0) == pytest.approx(math.sin(1.0), abs=1e-6 * 2.0)


def test_default_scale_tracks_breakpoint_gaps():
    wide = PiecewiseSpec((0.0, 10.0), (abs, abs, abs))
    tight = PiecewiseSpec((0.0, 0.25), (abs, abs, abs))
    assert default_cutoffs(wide).indicator_scale_U == 50.0
    assert default_cutoffs(tight).indicator_scale_U == 200.0


@pytest.mark.parametrize("U", [1.5, 5.0, 21.0, 22.0, 50.0, 1e4])
def test_both_gate_components_settle_within_the_transition_width(U):
    # below U = log(2e9) the logistic, not the Gaussian, is the slower term
    params = CutoffParams(indicator_scale_U=U)
    d = transition_width(params)
    assert abs(_h1(d, params) - 1.0) <= 1e-9
    assert abs(_h1(-d, params)) <= 1e-9


# ---------------------------------------------------------------------------
# random-spec oracle equivalence

def random_branch(rng):
    kind = rng.choice(["poly", "trig", "affine"])
    if kind == "poly":
        c = [rng.uniform(-3.0, 3.0) for _ in range(4)]
        return lambda x: ((c[3] * x + c[2]) * x + c[1]) * x + c[0]
    if kind == "trig":
        a, b, ph = rng.uniform(-3.0, 3.0), rng.uniform(0.2, 2.0), rng.uniform(0.0, 6.28)
        return lambda x: a * math.sin(b * x + ph)
    a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    return lambda x: a * x + b


def random_spec(rng, max_breaks=6, min_gap=1.5, max_gap=4.0):
    n = rng.randint(1, max_breaks)
    bps, acc = [], rng.uniform(-8.0, -4.0)
    for _ in range(n):
        acc += rng.uniform(min_gap, max_gap)
        bps.append(acc)
    return PiecewiseSpec(tuple(bps), tuple(random_branch(rng) for _ in range(n + 1)))


def spec_test_points(rng, spec, width, count):
    bps = spec.breakpoints
    pts = list(bps)
    for bp in bps:
        nudge = width + 1e-9 * max(1.0, abs(bp))
        pts += [bp + nudge, bp - nudge]
    while len(pts) < count:
        x = rng.uniform(bps[0] - 5.0, bps[-1] + 5.0)
        if all(abs(x - bp) > width for bp in bps):
            pts.append(x)
    return pts


def test_compose_matches_dispatch_on_random_specs():
    rng = random.Random(20240817)
    for _ in range(60):
        spec = random_spec(rng)
        params = default_cutoffs(spec)
        width = transition_width(params)
        fn = compose(spec, params)
        for x in spec_test_points(rng, spec, width, 40):
            want = dispatch(spec, x)
            assert abs(fn(x) - want) <= 1e-6 * (1.0 + abs(want)), (spec.breakpoints, x)


# ---------------------------------------------------------------------------
# properties over random specs: breakpoint gaps from 1e-3 to 10, so the
# default scale U = max(50, 50 / min gap) ranges over [50, 5e4]; or an
# explicit U in (1, 1e6]

@st.composite
def specs(draw):
    n = draw(st.integers(1, 8))
    bps = [draw(st.floats(-10.0, 10.0))]
    for gap in draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1)):
        bps.append(bps[-1] + gap)
    coeffs = draw(st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 3), min_size=n + 1, max_size=n + 1))
    branches = tuple((lambda x, a=a, b=b, c=c: a + b * x + c * x * x) for a, b, c in coeffs)
    spec = PiecewiseSpec(tuple(bps), branches)
    U = draw(st.none() | st.floats(1.0, 1e6, exclude_min=True))
    return spec, default_cutoffs(spec) if U is None else CutoffParams(indicator_scale_U=U)


@st.composite
def spec_and_points(draw):
    """A spec, its cutoffs, and x: uniform around the breakpoints, each
    breakpoint and its neighbouring floats, +-0.0 and +-1e300."""
    spec, params = draw(specs())
    bps = spec.breakpoints
    reach = 2.0 * transition_width(params) + 1.0
    xs = draw(st.lists(st.floats(bps[0] - reach, bps[-1] + reach), min_size=1, max_size=40))
    for bp in bps:
        xs += [math.nextafter(bp, -math.inf), bp, math.nextafter(bp, math.inf)]
    return spec, params, xs + [0.0, -0.0, 1e300, -1e300]


def same_bits(a, b):
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def gate_terms(spec, params, x):
    """[1 - H1(x - x1), H1(x - x(i-1)) - H1(x - xi)..., H1(x - xn)] from eval_step."""
    h = [eval_step(StepKind.H1, x - bp, params) for bp in spec.breakpoints]
    return [1.0 - h[0]] + [h[i - 1] - h[i] for i in range(1, len(h))] + [h[-1]]


def gate_sum(spec, params, x):
    """The gated sum: each term times its branch, added left to right."""
    terms, branches = gate_terms(spec, params, x), spec.branches
    total = terms[0] * branches[0](x)
    for term, branch in zip(terms[1:], branches[1:]):
        total += term * branch(x)
    return total


@settings(max_examples=200)
@given(case=spec_and_points())
def test_compose_is_the_gate_sum_bit_for_bit(case):
    spec, params, xs = case
    U = params.indicator_scale_U
    fn = compose(spec) if params == default_cutoffs(spec) else compose(spec, params)
    for x in xs:
        assert same_bits(fn(x), gate_sum(spec, params, x)), (spec.breakpoints, U, x)
        h1 = eval_step(StepKind.H1, x, params)
        # H1 = H2 + rt/2, the formula written out, and the gate kernel
        assert same_bits(h1, eval_step(StepKind.H2, x, params) + 0.5 * eval_rt(x, params))
        assert same_bits(h1, _h1(x, params))
        a, b = spec.breakpoints[0], spec.breakpoints[0] + 1.0
        want = eval_step(StepKind.H1, x - a, params) - eval_step(StepKind.H1, x - b, params)
        assert same_bits(impulse(x, a, b, params), want)
        assert all(map(same_bits, partition_terms(spec, x, params), gate_terms(spec, params, x)))


@settings(max_examples=200)
@given(case=spec_and_points())
def test_partition_of_unity(case):
    spec, params, xs = case
    bps, width = spec.breakpoints, transition_width(params)
    xs += [bps[0] - width - 1.0, bps[-1] + width + 1.0]
    xs += [(b1 + b2) / 2.0 for b1, b2 in zip(bps, bps[1:])]
    for bp in bps:
        nudge = width + 1e-9 * max(1.0, abs(bp))
        xs += [bp + nudge, bp - nudge]
    for x in xs:
        terms = partition_terms(spec, x, params)
        assert len(terms) == len(spec.branches)
        assert abs(sum(terms) - 1.0) <= 1e-12, (bps, x)
        if all(abs(x - bp) > width for bp in bps):
            snapped = [snap(t, 1e-6) for t in terms]
            assert snapped.count(1.0) == 1, (bps, x)
            assert snapped.count(0.0) == len(terms) - 1, (bps, x)
