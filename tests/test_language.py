"""Fuzzy language validation and algebra."""

from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdes import (
    Alphabet,
    FdesError,
    FuzzyLanguage,
    build_language,
    concatenation,
    empty_language,
    intersection,
    is_sublanguage,
    prefix_close_repair,
    union,
)
from helpers import central_example, lang, union_example

AB = Alphabet({"a", "b"}, controllable={"a"}, observable={"b"})


@st.composite
def languages(draw, alphabet=AB, max_len=3, max_extensions=6):
    grades = {(): F(1)}
    events = sorted(alphabet.events)
    for _ in range(draw(st.integers(0, max_extensions))):
        parent = draw(st.sampled_from(sorted(grades)))
        if len(parent) >= max_len:
            continue
        child = parent + (draw(st.sampled_from(events)),)
        if child in grades:
            continue
        grade = draw(st.fractions(min_value=0, max_value=grades[parent], max_denominator=10))
        if grade > 0:
            grades[child] = grade
    if draw(st.booleans()) and len(grades) == 1:
        return empty_language(alphabet)
    return build_language(alphabet, grades)


def test_build_accepts_valid_plant():
    _, plant, spec = central_example()
    assert plant.grade(("a", "c")) == F(3, 5)
    assert spec.grade(("a", "b")) == 0
    assert plant.grade(()) == 1


def test_build_empty_is_zero_language():
    assert build_language(AB, {}).is_empty


def test_build_rejects_p2_violation():
    with pytest.raises(FdesError) as err:
        lang(AB, {"eps": "1", "a": "0.5", "a.b": "0.7"})
    assert err.value.code == "P2_VIOLATION"


def test_build_rejects_missing_prefix():
    with pytest.raises(FdesError) as err:
        build_language(AB, {(): F(1), ("a", "b"): F(1, 2)})
    assert err.value.code == "P2_VIOLATION"


def test_build_rejects_p1_violation():
    with pytest.raises(FdesError) as err:
        build_language(AB, {("a",): F(1, 2)})
    assert err.value.code == "P1_VIOLATION"
    with pytest.raises(FdesError):
        build_language(AB, {(): F(1, 2), ("a",): F(1, 2)})


def test_build_rejects_unknown_event():
    with pytest.raises(FdesError) as err:
        build_language(AB, {(): F(1), ("z",): F(1, 2)})
    assert err.value.code == "UNKNOWN_EVENT"


def test_build_rejects_duplicates():
    with pytest.raises(FdesError) as err:
        build_language(AB, [((), F(1)), (("a",), F(1, 2)), (("a",), F(1, 3))])
    assert err.value.code == "DUPLICATE_STRING"


def test_build_rejects_str_keys_in_mappings_and_pair_lists():
    for entries in ({(): 1, "a": F(1, 2)}, [((), 1), ("ab", F(1, 2))]):
        with pytest.raises(FdesError) as err:
            build_language(AB, entries)
        assert err.value.code == "MALFORMED_EVENT"


def test_constructor_and_build_refuse_str_keys_alike():
    # A str key next to a tuple key used to end in a raw TypeError from the
    # sort, or in a P2_VIOLATION naming the str as if it were a string of events.
    # prefix_close_repair split a str into one event per character, so over
    # events {a, b, ab} the key 'ab' was read as a.b.
    with_ab = Alphabet({"a", "b", "ab"})
    cases = [
        (AB, {(): 1, "": 1, "a": F(1, 2)}, "event string '' must be a tuple of event ids"),
        (AB, {(): 1, "a": 1}, "event string 'a' must be a tuple of event ids"),
        (with_ab, {"ab": F(1, 2)}, "event string 'ab' must be a tuple of event ids"),
        # A key that is no iterable used to end in a raw TypeError.
        (AB, {(): 1, 5: 1}, "event string 5 must be a tuple of event ids"),
        (AB, {None: 1}, "event string None must be a tuple of event ids"),
    ]
    for alphabet, entries, message in cases:
        for construct in (FuzzyLanguage, build_language, prefix_close_repair):
            with pytest.raises(FdesError) as err:
                construct(alphabet, entries)
            assert (err.value.code, err.value.message) == ("MALFORMED_EVENT", message)
    # Any iterable of events is a string to the builders; the constructor
    # itself takes tuples only.
    with pytest.raises(FdesError) as err:
        FuzzyLanguage(AB, {(): 1, frozenset({"a"}): 1})
    assert (err.value.code, err.value.message) == (
        "MALFORMED_EVENT", "event string frozenset({'a'}) must be a tuple of event ids")


class _Grade(F):
    """A Fraction subclass: kept as given, like any Fraction."""


@pytest.mark.parametrize(
    "grade, kept",
    [
        (F(1, 2), F(1, 2)),
        ("0.5", F(1, 2)),
        (0.5, F(1, 2)),
        (0.1, F(3602879701896397, 36028797018963968)),
        (True, F(1)),
        (1, F(1)),
        (_Grade(1, 2), _Grade(1, 2)),
        (F(0), None),
        (0, None),
        ("0", None),
        (0.0, None),
        (False, None),
        (_Grade(0), None),
    ],
)
def test_constructor_keeps_or_drops_each_kind_of_grade(grade, kept):
    language = FuzzyLanguage(AB, {(): F(1), ("a",): grade})
    if kept is None:
        assert language.support == ((),)
        return
    assert dict(language.items()) == {(): F(1), ("a",): kept}
    assert type(language.grade(("a",))) is type(kept)


@pytest.mark.parametrize(
    "grade, code, message",
    [
        ("x", "MALFORMED_GRADE", "not a grade: 'x'"),
        (None, "MALFORMED_GRADE", "not a grade: None"),
        (float("nan"), "MALFORMED_GRADE", "not a grade: nan"),
        (F(-1, 2), "OUT_OF_RANGE", "grade -1/2 outside [0, 1]"),
        (-1, "OUT_OF_RANGE", "grade -1 outside [0, 1]"),
        (F(3, 2), "OUT_OF_RANGE", "grade 3/2 outside [0, 1]"),
        (2, "OUT_OF_RANGE", "grade 2 outside [0, 1]"),
        (1.5, "OUT_OF_RANGE", "grade 3/2 outside [0, 1]"),
        (_Grade(3, 2), "OUT_OF_RANGE", "grade 3/2 outside [0, 1]"),
        (_Grade(-1, 3), "OUT_OF_RANGE", "grade -1/3 outside [0, 1]"),
    ],
)
def test_constructor_refuses_each_kind_of_bad_grade(grade, code, message):
    with pytest.raises(FdesError) as err:
        FuzzyLanguage(AB, {(): F(1), ("a",): grade})
    assert (err.value.code, err.value.message) == (code, message)


def test_build_reports_the_first_fault_in_input_order():
    cases = [
        ({(): 1, ("a",): F(3, 2), ("z",): F(1, 2)}, "OUT_OF_RANGE"),
        ({(): 1, ("z",): F(1, 2), ("a",): F(3, 2)}, "UNKNOWN_EVENT"),
        ({(): 1, ("z",): 2}, "UNKNOWN_EVENT"),
    ]
    for entries, code in cases:
        with pytest.raises(FdesError) as err:
            build_language(AB, entries)
        assert err.value.code == code
    with pytest.raises(FdesError) as err:
        build_language(
            AB,
            {(): 1, ("a",): F(1, 2), ("b",): F(1, 3), ("b", "a"): F(1, 2), ("a", "b"): F(3, 4)},
        )
    assert err.value.message == "grade of b.a exceeds its prefix b (1/2 > 1/3)"


def test_build_coerces_int_str_and_decimal_grades():
    language = build_language(
        AB, {(): 1, ("a",): "0.50", ("b",): Decimal("0.25"), ("a", "b"): "1/3", ("b", "b"): 0}
    )
    assert list(language.items()) == [
        ((), F(1)), (("a",), F(1, 2)), (("b",), F(1, 4)), (("a", "b"), F(1, 3))
    ]
    assert all(type(g) is F for _, g in language.items())


def test_zero_grades_are_dropped():
    language = build_language(AB, {(): F(1), ("a",): F(0)})
    assert language.support == ((),)


def test_union_of_disjoint_supports():
    _, _, k1, k2 = union_example()
    merged = union(k1, k2)
    assert merged.grade(("a",)) == F(4, 5)
    assert merged.grade(("b",)) == F(7, 10)
    assert merged.grade(()) == 1


def test_intersection_with_zero_annihilates():
    language = lang(AB, {"eps": "1", "a": "0.8"})
    assert intersection(language, empty_language(AB)).is_empty


def test_intersection_of_nested_is_smaller():
    _, plant, spec = central_example()
    assert intersection(plant, spec) == spec


def test_alphabet_mismatch():
    other = Alphabet({"a", "b"})
    with pytest.raises(FdesError) as err:
        union(lang(AB, {"eps": "1"}), lang(other, {"eps": "1"}))
    assert err.value.code == "ALPHABET_MISMATCH"


def test_concatenation_enumerates_splits():
    left = lang(AB, {"eps": "1", "a": "0.8"})
    right = lang(AB, {"eps": "1", "b": "0.6"})
    product = concatenation(left, right)
    assert product.grade(("a", "b")) == F(3, 5)
    assert product.grade(("a",)) == F(4, 5)


def test_concatenation_identity_and_zero():
    language = lang(AB, {"eps": "1", "a": "0.8", "a.b": "0.5"})
    unit = lang(AB, {"eps": "1"})
    assert concatenation(language, unit) == language
    assert concatenation(unit, language) == language
    assert concatenation(empty_language(AB), language).is_empty


def test_sublanguage_checks():
    _, plant, spec = central_example()
    assert is_sublanguage(spec, plant)
    assert is_sublanguage(empty_language(plant.alphabet), spec)
    assert not is_sublanguage(
        lang(AB, {"eps": "1", "a": "0.8"}), lang(AB, {"eps": "1", "a": "0.7"})
    )


def test_prefix_close_repair_completes_minimally():
    repaired = prefix_close_repair(AB, {("a", "b"): F(4, 5)})
    assert repaired == lang(AB, {"eps": "1", "a": "0.8", "a.b": "0.8"})


def test_prefix_close_repair_joins_extensions():
    repaired = prefix_close_repair(AB, {("a",): F(1, 2), ("a", "b"): F(7, 10)})
    assert repaired == lang(AB, {"eps": "1", "a": "0.7", "a.b": "0.7"})


@given(languages())
def test_prefix_close_repair_idempotent_on_valid(language):
    assert prefix_close_repair(language.alphabet, dict(language.items())) == language


@given(languages(), languages())
def test_union_intersection_laws(a, b):
    assert union(a, b) == union(b, a)
    assert intersection(a, b) == intersection(b, a)
    assert union(a, a) == a
    assert intersection(a, a) == a
    assert intersection(a, union(a, b)) == a
    assert is_sublanguage(a, union(a, b))
    assert is_sublanguage(intersection(a, b), a)


@given(languages(), languages(), languages())
def test_associativity_and_closure(a, b, c):
    assert union(union(a, b), c) == union(a, union(b, c))
    assert intersection(intersection(a, b), c) == intersection(a, intersection(b, c))


@given(languages(), languages(), languages())
def test_concatenation_associative_and_matches_triple_enumeration(a, b, c):
    left = concatenation(concatenation(a, b), c)
    right = concatenation(a, concatenation(b, c))
    assert left == right
    direct = {}
    for u, ga in a.items():
        for v, gb in b.items():
            for w, gc in c.items():
                key = u + v + w
                grade = min(ga, gb, gc)
                direct[key] = max(direct.get(key, F(0)), grade)
    for s, g in left.items():
        assert direct.get(s, F(0)) == g
    for s, g in direct.items():
        assert left.grade(s) == g
