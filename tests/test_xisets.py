import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heaviforge.setexpr import evaluate
from heaviforge.xisets import (
    ChainStrategy,
    EMPTY_SET,
    MAX_PAIRS,
    MembershipMode,
    SetExprChain,
    XiSet,
    atom_key,
    eval_chain,
    format_finite_set,
    grandi_demo,
    membership,
    membership_index,
    xi_cap,
    xi_cup,
    xi_difference,
    xi_intersection,
    xi_union,
)

f = frozenset


# ---------------------------------------------------------------------------
# construction and equality

def test_components_are_deduplicated_in_order():
    x = XiSet.of({1}, {2}, {1}, {2, 1})
    assert x.components == (f({1}), f({2}), f({1, 2}))
    assert x.xi_class == 3


def test_normalizing_twice_is_idempotent():
    x = XiSet.of({3}, {1, 2}, {3})
    assert XiSet(x.components) == x
    assert XiSet(x.components).components == x.components


def test_equality_ignores_component_order():
    assert XiSet.of({1}, {2}) == XiSet.of({2}, {1})
    assert hash(XiSet.of({1}, {2})) == hash(XiSet.of({2}, {1}))
    assert XiSet.of({1}) != XiSet.of({2})


def test_equality_with_other_types_is_not_implemented():
    assert XiSet.of({1}).__eq__(1) is NotImplemented
    assert (XiSet.of({1}) == 1) is False
    assert XiSet.of({1}) != frozenset({1})


def test_repr_lists_the_components():
    assert repr(XiSet.of({1}, {2})) == "XiSet[{1} || {2}]"


def test_empty_component_list_rejected():
    with pytest.raises(ValueError):
        XiSet(())


def test_ordinary_set_embeds_as_class_one():
    x = XiSet.of({1, 2}, {2, 1}, {1, 2})
    assert x.xi_class == 1


# ---------------------------------------------------------------------------
# forming functions

def test_cap_general_case():
    x = xi_cap({1, 2}, {2, 3})
    assert x.components == (f({1, 2}), f({2}))
    assert x.xi_class == 2


def test_cap_collapses_for_subset():
    x = xi_cap({1}, {1, 2})
    assert x.xi_class == 1
    assert x.components == (f({1}),)


def test_cap_with_empty_partner():
    x = xi_cap({1, 2}, ())
    assert x.components == (f({1, 2}), EMPTY_SET)
    assert x.xi_class == 2


def test_cup_general_case():
    x = xi_cup({1}, {2})
    assert x.components == (f({1, 2}), f({1}))


def test_cup_collapses_for_superset():
    assert xi_cup({1, 2}, {1}).xi_class == 1


def test_cup_with_empty_base():
    x = xi_cup((), {5})
    assert x.components == (f({5}), EMPTY_SET)


def test_forming_functions_give_nested_components():
    # the two values of a class-2 xi-set are always subset-related
    rng = random.Random(99)
    universe = list(range(6))
    for _ in range(200):
        a = f(rng.sample(universe, rng.randint(0, 6)))
        b = f(rng.sample(universe, rng.randint(0, 6)))
        for made in (xi_cap(a, b), xi_cup(a, b)):
            c1 = made.components[0]
            c2 = made.components[-1]
            assert c1 <= c2 or c2 <= c1


# ---------------------------------------------------------------------------
# pairwise operations

def test_union_four_component_case():
    x = XiSet.of({1}, {1, 2})
    y = XiSet.of({3}, ())
    u = xi_union(x, y)
    assert u.components == (f({1, 3}), f({1}), f({1, 2, 3}), f({1, 2}))
    assert u.xi_class == 4


def test_class_one_operands_reduce_to_ordinary_sets():
    a, b = XiSet.of({1, 2}), XiSet.of({2, 3})
    assert xi_union(a, b) == XiSet.of({1, 2, 3})
    assert xi_intersection(a, b) == XiSet.of({2})
    assert xi_difference(a, b) == XiSet.of({1})


def test_intersection_dedups_repeated_results():
    x = XiSet.of({1}, {2})
    i = xi_intersection(x, x)
    assert i.components == (f({1}), EMPTY_SET, f({2}))
    assert i.xi_class == 3  # < 4: the two empty intersections collapse


def test_operator_sugar():
    x, y = XiSet.of({1}), XiSet.of({2})
    assert (x | y) == xi_union(x, y)
    assert (x & y) == xi_intersection(x, y)
    assert (x - y) == xi_difference(x, y)


def test_class_bound_on_random_pairs():
    rng = random.Random(1234)
    universe = list(range(6))

    def random_xiset():
        comps = [f(rng.sample(universe, rng.randint(0, 6))) for _ in range(rng.randint(1, 4))]
        return XiSet(tuple(comps))

    for _ in range(300):
        x, y = random_xiset(), random_xiset()
        for op in (xi_union, xi_intersection, xi_difference):
            out = op(x, y)
            assert out.xi_class <= x.xi_class * y.xi_class


# ---------------------------------------------------------------------------
# membership

def test_operations_refuse_more_pairs_than_the_cap():
    side = int(MAX_PAIRS ** 0.5) + 1
    x = XiSet(tuple(f({i}) for i in range(side)))
    for op in (xi_union, xi_intersection, xi_difference):
        with pytest.raises(ValueError, match="component pairs exceeds the cap"):
            op(x, x)


def test_membership_in_every_component():
    rep = membership(1, XiSet.of({1}, {1, 2}))
    assert rep.mode is MembershipMode.ALL
    assert rep.index_set == f({1, 2})


def test_membership_in_some_components():
    rep = membership(2, XiSet.of({1}, {1, 2}))
    assert rep.mode is MembershipMode.SOME
    assert rep.index_set == f({2})


def test_membership_nowhere():
    rep = membership(9, XiSet.of({1}, {1, 2}))
    assert rep.mode is MembershipMode.NONE
    assert rep.index_set == EMPTY_SET


def test_membership_consistency_with_operations():
    rng = random.Random(77)
    universe = list(range(6))
    for _ in range(200):
        x = XiSet(tuple(f(rng.sample(universe, rng.randint(0, 6))) for _ in range(rng.randint(1, 3))))
        y = XiSet(tuple(f(rng.sample(universe, rng.randint(0, 6))) for _ in range(rng.randint(1, 3))))
        for atom in universe:
            rep = membership(atom, x)
            classical = [atom in c for c in x.components]
            assert (rep.mode is MembershipMode.ALL) == all(classical)
            assert (rep.mode is MembershipMode.NONE) == (not any(classical))
            if any(classical):
                after = membership(atom, xi_union(x, y))
                assert after.mode is not MembershipMode.NONE


# ---------------------------------------------------------------------------
# alternating chains

def test_chain_aligned_gives_empty_set():
    r = eval_chain(SetExprChain(f({1, 2}), EMPTY_SET, 6, ChainStrategy.ALIGNED))
    assert r.value == EMPTY_SET
    assert r.dangling is None
    assert r.groups == 6


def test_chain_shifted_gives_base_with_dangling_partner():
    r = eval_chain(SetExprChain(f({1, 2}), EMPTY_SET, 6, ChainStrategy.SHIFTED))
    assert r.value == f({1, 2})
    assert r.dangling == EMPTY_SET
    assert r.groups == 5  # one partner operand left unconsumed


def test_chain_on_empty_base():
    for strategy in ChainStrategy:
        r = eval_chain(SetExprChain(EMPTY_SET, EMPTY_SET, 4, strategy))
        assert r.value == EMPTY_SET


def test_chain_length_one():
    aligned = eval_chain(SetExprChain(f({1, 2}), f({2}), 1, ChainStrategy.ALIGNED))
    assert aligned.value == f({2})
    shifted = eval_chain(SetExprChain(f({1, 2}), f({2}), 1, ChainStrategy.SHIFTED))
    assert shifted.value == f({1, 2})


def test_chain_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        SetExprChain(f({1}), EMPTY_SET, 0, ChainStrategy.ALIGNED)


def test_chain_equals_its_literal_fold():
    # every group of the chain folded in, no early exit: idempotence and
    # absorption make the first group the value at every length
    universe = [1, 2, 3]
    subsets = [f(c) for r in range(4) for c in itertools.combinations(universe, r)]
    for g, p in itertools.product(subsets, repeat=2):
        for length in range(1, 6):
            aligned, shifted = g & p, g
            for _ in range(length - 1):
                aligned, shifted = aligned | (g & p), shifted & (p | g)
            assert eval_chain(SetExprChain(g, p, length, ChainStrategy.ALIGNED)).value == aligned
            assert eval_chain(SetExprChain(g, p, length, ChainStrategy.SHIFTED)).value == shifted


def test_bracketing_divergence_for_every_nonempty_base():
    universe = [1, 2, 3]
    subsets = [f(c) for r in range(1, 4) for c in itertools.combinations(universe, r)]
    for g in subsets:
        for length in range(2, 11):
            aligned = eval_chain(SetExprChain(g, EMPTY_SET, length, ChainStrategy.ALIGNED))
            shifted = eval_chain(SetExprChain(g, EMPTY_SET, length, ChainStrategy.SHIFTED))
            assert aligned.value == EMPTY_SET
            assert shifted.value == g
            assert aligned.value != shifted.value


# ---------------------------------------------------------------------------
# alternating series partial sums

def test_grandi_small():
    sums, mean = grandi_demo(4)
    assert sums == [1, 0, 1, 0]
    assert mean == Fraction(1, 2)


def test_grandi_single_term():
    sums, mean = grandi_demo(1)
    assert sums == [1]
    assert mean == Fraction(1)


def test_grandi_odd_count():
    sums, mean = grandi_demo(101)
    assert sums[:4] == [1, 0, 1, 0]
    assert mean == Fraction(51, 101)
    assert abs(mean - Fraction(1, 2)) == Fraction(1, 202)


def test_grandi_closed_form():
    for k in (2, 3, 10, 33, 1000):
        _, mean = grandi_demo(k)
        assert mean == Fraction(-(-k // 2), k)  # ceil(k/2) / k


def test_grandi_rejects_nonpositive():
    with pytest.raises(ValueError):
        grandi_demo(0)


# ---------------------------------------------------------------------------
# formatting

def test_format_finite_set():
    assert format_finite_set(EMPTY_SET) == "0"
    assert format_finite_set(f({2, 1, 3})) == "{1,2,3}"
    assert format_finite_set(f({"b", "a"})) == "{a,b}"


# ---------------------------------------------------------------------------
# one atom order per xi-set: the printed form and the membership index

# atoms as the expression language writes them: integers and names
atoms = st.one_of(st.integers(0, 10**6), st.from_regex(r"[A-Za-z_][A-Za-z_0-9]{0,3}", fullmatch=True))
xisets = st.lists(st.frozensets(atoms, max_size=8), min_size=1, max_size=12).map(lambda cs: XiSet(tuple(cs)))
MIXED = XiSet.of((), {10, 9, "b", "B", "_"}, {"b"}, {9, 100})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(xisets)
@example(MIXED)
@example(XiSet.of(()))
def test_str_formats_each_component_as_a_finite_set(x):
    assert str(x) == " || ".join(format_finite_set(c) for c in x.components)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(xisets)
@example(MIXED)
@example(XiSet.of(()))
def test_str_round_trips_through_the_parser_in_component_order(x):
    parsed = evaluate(str(x))
    assert parsed == x
    assert parsed.components == x.components


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(xisets)
@example(MIXED)
@example(XiSet.of({1, "a"}))
def test_membership_index_equals_membership_atom_by_atom(x):
    rows = membership_index(x)
    assert [atom for atom, _, _ in rows] == sorted(frozenset().union(*x.components), key=atom_key)
    for atom, t, mode in rows:
        report = membership(atom, x)
        assert t == sorted(report.index_set)
        assert mode is report.mode
    for outside in (10**7, "outside"):  # longer than any generated name
        assert membership(outside, x).mode is MembershipMode.NONE
        assert outside not in [atom for atom, _, _ in rows]


# atoms that compare equal across types (1, 1.0, True) are one atom of the
# union; every component prints it as the text of the first one seen
@pytest.mark.parametrize("x,text,index", [
    (XiSet.of({True, "a"}, {1, 2}, {1.0}), "{True,a} || {True,2} || {True}",
     [(True, [1, 2, 3], MembershipMode.ALL), (2, [2], MembershipMode.SOME), ("a", [1], MembershipMode.SOME)]),
    (XiSet.of({1.0, "b"}, {True}), "{1.0,b} || {1.0}",
     [(1.0, [1, 2], MembershipMode.ALL), ("b", [1], MembershipMode.SOME)]),
])
def test_equal_atoms_print_as_the_first_one_seen(x, text, index):
    assert str(x) == text
    rows = membership_index(x)
    assert rows == index
    assert [type(atom) for atom, _, _ in rows] == [type(atom) for atom, _, _ in index]
