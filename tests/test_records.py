"""The eight value records behave as frozen values: exact reprs, equality
with the same class only, hashes over the compared fields, no assignment or
deletion, and copies and pickles that compare equal.  Their validation
errors keep their messages."""

import copy
import math
import pickle

import pytest

from heaviforge import (
    ChainResult,
    CutoffParams,
    MembershipReport,
    PiecewiseSpec,
    PrecisionPlan,
    QuadratureResult,
    SetExprChain,
    XiSet,
    eval_chain,
    membership,
    plan_precision,
)
from heaviforge.piecewise import InvalidSpec, default_cutoffs
from heaviforge.xisets import ChainStrategy, MembershipMode

# (record, its repr as printed)
RECORDS = [
    (CutoffParams(),
     "CutoffParams(half_line_T=100.0, tan_margin_eps=0.007812341060101111, indicator_scale_U=128.0)"),
    (CutoffParams(half_line_T=20, tan_margin_eps=0.05),
     "CutoffParams(half_line_T=20.0, tan_margin_eps=0.05, indicator_scale_U=19.98333055489397)"),
    (QuadratureResult(1.0, 2.0, 3), "QuadratureResult(value=1.0, abs_error_estimate=2.0, evaluations=3)"),
    (PiecewiseSpec((0, 1.5), (abs, math.floor, abs)), "PiecewiseSpec(breakpoints=(0.0, 1.5))"),
    (plan_precision(10), "PrecisionPlan(n_max=10, indicator_scale_U=64.0, round_margin=0.25)"),
    (XiSet.of({1, 2}, {3, "a"}, [2, 1]), "XiSet[{1,2} || {3,a}]"),
    (membership(1, XiSet.of({1, 2}, {3})),
     "MembershipReport(atom=1, index_set=frozenset({1}), mode=<MembershipMode.SOME: 'some'>)"),
    (SetExprChain({1, 2}, set(), 3, ChainStrategy.SHIFTED),
     "SetExprChain(base=frozenset({1, 2}), partner=frozenset(), length=3, "
     "strategy=<ChainStrategy.SHIFTED: 'shifted'>)"),
    (eval_chain(SetExprChain({1, 2}, set(), 3, ChainStrategy.SHIFTED)),
     "ChainResult(value=frozenset({1, 2}), strategy=<ChainStrategy.SHIFTED: 'shifted'>, groups=2, "
     "dangling=frozenset())"),
    (eval_chain(SetExprChain({1, 2}, {2}, 3, ChainStrategy.ALIGNED)),
     "ChainResult(value=frozenset({2}), strategy=<ChainStrategy.ALIGNED: 'aligned'>, groups=3, dangling=None)"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


def test_every_record_class_is_covered():
    assert {type(record) for record, _ in RECORDS} == {
        CutoffParams, QuadratureResult, PiecewiseSpec, PrecisionPlan,
        XiSet, MembershipReport, SetExprChain, ChainResult,
    }


@pytest.mark.parametrize("record, text", RECORDS, ids=IDS)
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_copy_and_pickle_give_an_equal_record(record):
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record and not twin != record
        assert hash(twin) == hash(record)
        assert repr(twin) == repr(record)
        assert twin.__dict__ == record.__dict__


@pytest.mark.parametrize("record", [record for record, _ in RECORDS], ids=IDS)
def test_no_assignment_or_deletion(record):
    before = dict(record.__dict__)
    for name in (*before, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record.__dict__ == before


def test_equality_needs_the_same_class():
    result = QuadratureResult(1.0, 2.0, 3)
    assert result != (1.0, 2.0, 3)
    assert result == QuadratureResult(1.0, 2.0, 3)
    assert result != QuadratureResult(1.0, 2.0, 4)

    class Sub(QuadratureResult):
        pass

    assert Sub(1.0, 2.0, 3) != result and result != Sub(1.0, 2.0, 3)
    assert CutoffParams() != CutoffParams(half_line_T=50.0)
    assert hash(CutoffParams()) == hash(CutoffParams(indicator_scale_U=128))


def test_hash_is_over_the_compared_fields():
    assert hash(QuadratureResult(1.0, 2.0, 3)) == hash((1.0, 2.0, 3))
    spec = PiecewiseSpec((0.0,), (abs, abs))
    assert spec == PiecewiseSpec([0], [abs, abs]) and hash(spec) == hash(((0.0,), (abs, abs)))
    assert spec != PiecewiseSpec((0.0,), (abs, math.floor))


def test_plan_equality_and_hash_ignore_cutoffs():
    plan = plan_precision(10)
    twin = PrecisionPlan(10, 64.0, 0.25)
    object.__setattr__(twin, "cutoffs", CutoffParams(half_line_T=5.0, indicator_scale_U=64.0))
    assert plan.cutoffs != twin.cutoffs
    assert plan == twin and hash(plan) == hash(twin) == hash((10, 64.0, 0.25))
    assert plan != PrecisionPlan(10, 64.0, 0.125)
    assert plan.cutoffs == CutoffParams(indicator_scale_U=64.0)


def test_xiset_equality_ignores_component_order():
    x, y = XiSet.of({1}, {2, 3}), XiSet.of({3, 2}, {1}, {1})
    assert x == y and hash(x) == hash(y)
    assert x.components == (frozenset({1}), frozenset({2, 3}))
    assert x != XiSet.of({1}) and x != frozenset({1})


def test_records_take_their_fields_by_position_and_by_name():
    assert QuadratureResult(value=1.0, abs_error_estimate=2.0, evaluations=3) == QuadratureResult(1.0, 2.0, 3)
    assert CutoffParams(100.0, None, 128.0) == CutoffParams()
    assert PrecisionPlan(n_max=10, indicator_scale_U=64.0, round_margin=0.25) == plan_precision(10)
    report = MembershipReport(atom=1, index_set=frozenset({1}), mode=MembershipMode.SOME)
    assert report == membership(1, XiSet.of({1, 2}, {3}))
    assert ChainResult(frozenset({2}), ChainStrategy.ALIGNED, 3, None) == RECORDS[-1][0]


@pytest.mark.parametrize("build, error, message", [
    (lambda: CutoffParams(half_line_T=0.0), ValueError, "half_line_T must be a positive real, got 0.0"),
    (lambda: CutoffParams(half_line_T=math.inf), ValueError, "half_line_T must be a positive real, got inf"),
    (lambda: CutoffParams(tan_margin_eps=0.1, indicator_scale_U=1000.0), ValueError,
     "tan_margin_eps and indicator_scale_U are one cutoff; give only one"),
    (lambda: CutoffParams(indicator_scale_U=1.0), ValueError, "indicator_scale_U must be a finite real > 1, got 1.0"),
    (lambda: CutoffParams(tan_margin_eps=1.0), ValueError, "tan_margin_eps must lie in (0, pi/4), got 1.0"),
    (lambda: PiecewiseSpec((), (abs,)), InvalidSpec, "need at least one breakpoint"),
    (lambda: PiecewiseSpec((1.0, 1.0), (abs,) * 3), InvalidSpec,
     "breakpoints must be strictly increasing: (1.0, 1.0)"),
    (lambda: PiecewiseSpec((0.0, math.nan), (abs,) * 3), InvalidSpec, "breakpoints must be finite: (0.0, nan)"),
    (lambda: PiecewiseSpec((math.nan,), (abs,) * 2), InvalidSpec, "breakpoints must be finite: (nan,)"),
    (lambda: PiecewiseSpec((0.0, math.inf), (abs,) * 3), InvalidSpec, "breakpoints must be finite: (0.0, inf)"),
    (lambda: PiecewiseSpec((-math.inf, 0.0), (abs,) * 3), InvalidSpec, "breakpoints must be finite: (-inf, 0.0)"),
    (lambda: default_cutoffs(PiecewiseSpec((0.0, 1e-308), (abs,) * 3)), InvalidSpec,
     "breakpoints 0.0 and 1e-308 are too close for a finite indicator scale"),
    (lambda: PiecewiseSpec((0,), (abs,)), InvalidSpec,
     "branch count must be breakpoint count + 1 (1 branches for 1 breakpoints)"),
    (lambda: PrecisionPlan(0, 2.0, 0.25), ValueError, "n_max must be >= 1, got 0"),
    (lambda: PrecisionPlan(5, 2.0, 0.5), ValueError, "round_margin must lie in (0, 0.5), got 0.5"),
    (lambda: PrecisionPlan(5, -1.0, 0.25), ValueError, "indicator_scale_U must be a finite real > 1, got -1.0"),
    (lambda: plan_precision(5, 0.0), ValueError, "round_margin must lie in (0, 0.5), got 0.0"),
    (lambda: XiSet(()), ValueError, "a xi-set needs at least one component"),
    (lambda: SetExprChain({1}, {2}, 0, ChainStrategy.ALIGNED), ValueError, "chain length must be >= 1, got 0"),
])
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
