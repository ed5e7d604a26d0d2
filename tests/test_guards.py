import pytest
from hypothesis import given
from hypothesis import strategies as st

from patchdesign.availability import _SERVER_TRANSITIONS
from patchdesign.guards import (AllOf, AnyOf, Comparison, GuardSyntaxError,
                                check_places, parse_guard)


class DictMarking(dict):
    pass


def test_conjunction_of_two_atoms():
    expr = parse_guard("#P_hwup==1 && #P_osup==1")
    assert isinstance(expr, AllOf)
    assert expr.terms == (Comparison("P_hwup", "==", 1),
                          Comparison("P_osup", "==", 1))


def test_three_way_disjunction():
    expr = parse_guard("#P_svcup==1 || #P_svcd==1 || #P_svcfd==1")
    assert isinstance(expr, AnyOf)
    assert len(expr.terms) == 3


def test_and_binds_tighter_than_or():
    expr = parse_guard("#a==1 || #b==1 && #c==1")
    assert isinstance(expr, AnyOf)
    assert isinstance(expr.terms[1], AllOf)
    assert expr.evaluate({"a": 0, "b": 1, "c": 1})
    assert not expr.evaluate({"a": 0, "b": 1, "c": 0})


def test_parentheses_override_precedence():
    expr = parse_guard("(#a==1 || #b==1) && #c==1")
    assert not expr.evaluate({"a": 1, "b": 0, "c": 0})
    assert expr.evaluate({"a": 1, "b": 0, "c": 1})


@pytest.mark.parametrize("op,count,value,expected", [
    ("==", 1, 1, True), ("!=", 1, 1, False), ("<", 0, 1, True),
    ("<=", 1, 1, True), (">", 2, 1, True), (">=", 0, 1, False),
])
def test_comparison_operators(op, count, value, expected):
    expr = parse_guard(f"#p {op} {value}")
    assert expr.evaluate({"p": count}) is expected


def test_whitespace_insensitive():
    a = parse_guard("#P_hwup==1&&#P_osup==1")
    b = parse_guard("  #P_hwup  ==  1   &&   #P_osup == 1 ")
    assert a == b


def test_malformed_truncated_atom_offset():
    with pytest.raises(GuardSyntaxError) as exc:
        parse_guard("#P_x ==")
    assert exc.value.offset == 6


def test_malformed_missing_comparison():
    with pytest.raises(GuardSyntaxError):
        parse_guard("#P_x 1")


def test_malformed_bad_character():
    # the last input also has a later parse error, which is not reported
    for text, offset in [("#P_x == 1 @", 10), ("#a == 1 &", 8), ("#a = 1", 3),
                         ("  @", 2), ("#a == 1 ! (#b", 8)]:
        with pytest.raises(GuardSyntaxError, match="^unexpected character") as exc:
            parse_guard(text)
        assert exc.value.offset == offset, text


@pytest.mark.parametrize("text, offset", [
    ("#a == \u0663", 6),    # ARABIC-INDIC DIGIT THREE
    ("\x1c#a == 1", 0),     # a separator str.isspace() accepts
    ("#a == 1\u2028", 7),   # LINE SEPARATOR
])
def test_non_ascii_digit_or_whitespace_is_unexpected(text, offset):
    with pytest.raises(GuardSyntaxError, match="^unexpected character") as exc:
        parse_guard(text)
    assert exc.value.offset == offset


def test_conjunction_and_disjunction_of_the_same_terms_differ():
    terms = (Comparison("a", "==", 1), Comparison("b", "==", 1))
    assert AllOf(terms) != AnyOf(terms)
    assert AllOf(terms) == AllOf(terms)


def test_unbalanced_paren():
    with pytest.raises(GuardSyntaxError):
        parse_guard("(#a==1 && #b==2")


def test_empty_input():
    with pytest.raises(GuardSyntaxError):
        parse_guard("")


def test_unknown_place_rejected_at_bind_time():
    expr = parse_guard("#P_missing == 1")
    with pytest.raises(ValueError, match="P_missing"):
        check_places(expr, {"P_other"})


def test_all_server_guards_round_trip():
    # every guard used by the server sub-models must survive
    # parse -> unparse -> parse
    guards = [guard for *_, guard in _SERVER_TRANSITIONS if guard]
    assert len(guards) == 20
    for text in guards:
        expr = parse_guard(text)
        assert parse_guard(expr.unparse()) == expr


_atoms = st.builds(
    Comparison,
    place=st.sampled_from(["p1", "p2", "p3"]),
    op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    value=st.integers(min_value=0, max_value=5),
)


def _exprs(children):
    return st.one_of(
        st.builds(lambda ts: AllOf(tuple(ts)), st.lists(children, min_size=2, max_size=3)),
        st.builds(lambda ts: AnyOf(tuple(ts)), st.lists(children, min_size=2, max_size=3)),
    )


@given(st.recursive(_atoms, _exprs, max_leaves=8))
def test_round_trip_random_expressions(expr):
    assert parse_guard(expr.unparse()) == expr


@given(st.recursive(_atoms, _exprs, max_leaves=8),
       st.fixed_dictionaries({p: st.integers(0, 5) for p in ["p1", "p2", "p3"]}))
def test_round_trip_preserves_semantics(expr, marking):
    assert parse_guard(expr.unparse()).evaluate(marking) == expr.evaluate(marking)
