"""Grade arithmetic, alphabets, and event strings."""

from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdes import (
    Alphabet,
    FdesError,
    SiteSpec,
    as_grade,
    build_language,
    parse_event_string,
    render_event_string,
)
from fdes.fdl import SitesDecl, parse_fdl
from fdes.grades import ONE, ZERO, join, meet, parse_grade, render_grade

grades = st.fractions(min_value=0, max_value=1, max_denominator=20)


def test_parse_decimal_exact():
    assert parse_grade("0.8") == F(4, 5)
    assert parse_grade("1") == ONE
    assert parse_grade("0.70") == parse_grade("0.7") == F(7, 10)


def test_parse_fraction():
    assert parse_grade("1/3") == F(1, 3)
    assert parse_grade("2/4") == F(1, 2)


@pytest.mark.parametrize("bad", ["", "a", "-0.5", "0.8.1", ".5", "1/", "0x1"])
def test_parse_malformed(bad):
    with pytest.raises(FdesError) as err:
        parse_grade(bad)
    assert err.value.code == "MALFORMED_GRADE"


@pytest.mark.parametrize("big", ["1.2", "3/2", "2"])
def test_parse_out_of_range(big):
    with pytest.raises(FdesError) as err:
        parse_grade(big)
    assert err.value.code == "OUT_OF_RANGE"


def test_parse_zero_denominator():
    with pytest.raises(FdesError) as err:
        parse_grade("1/0")
    assert err.value.code == "MALFORMED_GRADE"


@pytest.mark.parametrize("bad", ["abc", None, float("nan"), "1/0", float("inf")])
def test_malformed_grade_values_raise_fdes_errors(bad):
    alphabet = Alphabet({"a"})
    for check in (as_grade, lambda g: build_language(alphabet, {(): 1, ("a",): g})):
        with pytest.raises(FdesError) as err:
            check(bad)
        assert err.value.code == "MALFORMED_GRADE"


def test_meet_join_basics():
    assert meet(F(9, 10), F(4, 5)) == F(4, 5)
    assert join(F(7, 10), ZERO) == F(7, 10)
    assert meet(F(2, 5), F(2, 5)) == F(2, 5)


def test_render_shortest_decimal():
    assert render_grade(F(4, 5)) == "0.8"
    assert render_grade(F(1, 4)) == "0.25"
    assert render_grade(F(1, 3)) == "1/3"
    assert render_grade(ONE) == "1"
    assert render_grade(ZERO) == "0"
    assert render_grade(F(1, 100)) == "0.01"


@given(grades)
def test_render_parse_round_trip(g):
    assert parse_grade(render_grade(g)) == g


@given(grades, grades)
def test_meet_join_pick_an_input(a, b):
    assert meet(a, b) in (a, b)
    assert join(a, b) in (a, b)


@given(grades, grades)
def test_absorption(a, b):
    assert meet(a, join(a, b)) == a
    assert join(a, meet(a, b)) == a


@given(grades, grades, grades)
def test_distributivity(a, b, c):
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))


@given(grades, grades, grades)
def test_associativity(a, b, c):
    assert meet(meet(a, b), c) == meet(a, meet(b, c))
    assert join(join(a, b), c) == join(a, join(b, c))


def test_event_string_parsing():
    assert parse_event_string("eps") == ()
    assert parse_event_string("a.c.d") == ("a", "c", "d")
    assert render_event_string(()) == "eps"
    assert render_event_string(("a", "c")) == "a.c"


def test_event_string_rejects_reserved_and_bad_ids():
    for bad in ["a..b", "a,b", "", "eps.a", "a-b"]:
        with pytest.raises(FdesError):
            parse_event_string(bad)


def test_alphabet_subset_validation():
    with pytest.raises(FdesError) as err:
        Alphabet({"a"}, controllable={"b"})
    assert err.value.code == "UNKNOWN_EVENT"
    with pytest.raises(FdesError) as err:
        Alphabet({"a"}, observable={"b"})
    assert err.value.code == "UNKNOWN_EVENT"


def test_alphabet_derived_sets():
    alphabet = Alphabet({"a", "b", "c"}, controllable={"a"}, observable={"b"})
    assert alphabet.uncontrollable == {"b", "c"}
    assert alphabet.unobservable == {"a", "c"}


def test_site_cover_validation():
    head = "[alphabet E]\nevents a b\ncontrollable a b\nobservable a b\n\n[sites S]\nalphabet E\n"
    site1 = "site 1 controllable a\nsite 1 observable a\n"
    good = parse_fdl(head + site1 + "site 2 controllable b\nsite 2 observable a b\n")
    assert good.sites["S"] == SitesDecl("E", SiteSpec({"a"}, {"a"}), SiteSpec({"b"}, {"a", "b"}))
    with pytest.raises(FdesError) as err:
        parse_fdl(head + site1 + "site 2 controllable a\nsite 2 observable a b\n")
    assert err.value.code == "SITE_COVER_VIOLATION"


class _Uncomparable(F):
    """A grade that fails any order comparison."""

    def __le__(self, other):
        raise AssertionError("compared")

    __ge__ = __le__


def test_meet_and_join_return_a_shared_grade_without_comparing_it():
    g = _Uncomparable(1, 2)
    assert meet(g, g) is g and join(g, g) is g


def test_meet_and_join_return_the_first_of_two_equal_grades():
    a, b = F(1, 2), F(2, 4)
    assert a == b and a is not b
    assert meet(a, b) is a and join(a, b) is a
    assert meet(b, a) is b and join(b, a) is b
    assert meet(ZERO, ONE) is ZERO and join(ZERO, ONE) is ONE
