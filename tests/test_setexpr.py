import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heaviforge.setexpr import MAX_DEPTH, SetExprError, evaluate
from heaviforge.xisets import MAX_PAIRS, ChainResult, ChainStrategy, XiSet

f = frozenset


def test_union_of_xiset_literals():
    result = evaluate("{1}||{1,2} | {3}||0")
    assert isinstance(result, XiSet)
    assert result.xi_class == 4
    assert result.components == (f({1, 3}), f({1}), f({1, 2, 3}), f({1, 2}))


def test_intersection_of_identical_singletons():
    result = evaluate("{1} & {1}")
    assert result == XiSet.of({1})
    assert result.xi_class == 1


def test_difference():
    assert evaluate("{1,2,3} \\ {2}") == XiSet.of({1, 3})


def test_zero_is_the_empty_set():
    assert evaluate("0 | {5}") == XiSet.of({5})
    assert evaluate("0") == XiSet.of(())
    assert evaluate("{}") == XiSet.of(())


def test_left_associative_chain_of_operators():
    # ({1,2} | {3}) & {1,3}
    assert evaluate("{1,2} | {3} & {1,3}") == XiSet.of({1, 3})


def test_parentheses_group():
    result = evaluate("({1}||{2}) & {1}")
    assert result.components == (f({1}), f())
    assert result.xi_class == 2


def test_nesting_is_capped_at_the_opening_paren():
    assert evaluate("(" * MAX_DEPTH + "{1}" + ")" * MAX_DEPTH) == XiSet.of({1})
    deeper = "(" * (MAX_DEPTH + 1) + "{1}" + ")" * (MAX_DEPTH + 1)
    with pytest.raises(SetExprError, match="nested deeper") as info:
        evaluate(deeper)
    assert info.value.position == MAX_DEPTH


def test_name_atoms():
    result = evaluate("{a,b} | {b,c}")
    assert result == XiSet.of({"a", "b", "c"})


def test_atoms_keep_integer_identity():
    assert evaluate("{0,1}").components == (f({0, 1}),)


def test_chain_form_shifted():
    result = evaluate("chain {1,2} 0 6 shifted")
    assert isinstance(result, ChainResult)
    assert result.value == f({1, 2})
    assert result.strategy is ChainStrategy.SHIFTED
    assert result.dangling == f()


def test_chain_form_aligned():
    result = evaluate("chain {1,2} 0 6 aligned")
    assert result.value == f()
    assert result.dangling is None


def test_chain_form_with_nonempty_partner():
    result = evaluate("chain {1,2} {2} 3 aligned")
    assert result.value == f({2})


@pytest.mark.parametrize("text", [
    "{1} &",
    "& {1}",
    "{1,",
    "{1 2}",
    "{1} ? {2}",
    "chain {1} 0 zero aligned",
    "chain {1} 0 3 sideways",
    "chain {1} 0 0 aligned",
    "({1}",
    "{1} {2}",
    "1 | {2}",
    "",
])
def test_parse_errors_carry_positions(text):
    with pytest.raises(SetExprError) as info:
        evaluate(text)
    assert isinstance(info.value.position, int)
    assert 0 <= info.value.position <= len(text)
    assert "position" in str(info.value)


LONG = "9" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("text,position", [
    ("{1," + LONG + "}", 3),
    ("chain {1} 0 " + LONG + " aligned", 12),
])
def test_over_long_integers_are_parse_errors(text, position):
    with pytest.raises(SetExprError, match="integer of 5000 digits is too long") as info:
        evaluate(text)
    assert info.value.position == position


@pytest.mark.parametrize("text,position", [
    ("{\u0663}", 1),  # ARABIC-INDIC DIGIT THREE is not an INTEGER
    ("{1}\u3000|{2}", 3),  # IDEOGRAPHIC SPACE separates no tokens
])
def test_the_grammar_is_ascii(text, position):
    with pytest.raises(SetExprError, match="unexpected character") as info:
        evaluate(text)
    assert info.value.position == position


# the grammar's tokens, a few whole literals, an over-long integer, and
# non-ASCII characters that \\s and \\d match without re.ASCII
TOKENS = ["{", "}", "(", ")", ",", "||", "|", "&", "\\", " ", "0", "7", "42", "a", "b_2",
          "chain", "aligned", "shifted", "{1,2}", "{a}||0", " | ", " & ", LONG, "\u3000", "\u0663"]


@st.composite
def texts(draw):
    tokens = draw(st.lists(st.sampled_from(TOKENS), max_size=40))
    if draw(st.booleans()):  # and one stray character anywhere
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.characters()))
    return "".join(tokens)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=texts())
@example(text="(" * (MAX_DEPTH + 1))
@example(text="chain {1} {2} " + LONG)
@example(text=" | ".join(["||".join(f"{{{i}}}" for i in range(400))] * 2))
def test_evaluate_is_total(text):
    try:
        result = evaluate(text)
    except SetExprError as exc:
        assert 0 <= exc.position <= len(text)
    except ValueError as exc:  # SetExprError's base: only the pair cap may raise it
        assert f"exceeds the cap of {MAX_PAIRS}" in str(exc)
    else:
        assert isinstance(result, (XiSet, ChainResult))
