"""Max-min automata: extended transitions, generated languages, round trips."""

import random
from fractions import Fraction as F

import pytest

from fdes import (
    Alphabet,
    FdesError,
    FuzzyAutomaton,
    FuzzyLanguage,
    automaton_from_language,
    build_language,
    generated_language,
    extended_transition,
)
from fdes.automaton import _advance, _step_map
from helpers import central_example, lang, random_alphabet, random_lattice, random_plant
from references import generated_language_per_string

AB = Alphabet({"a", "b"}, controllable={"a"}, observable={"a", "b"})


def two_step():
    return FuzzyAutomaton(
        frozenset({"q0", "q1", "q2"}),
        AB,
        "q0",
        {("q0", "a", "q1"): F(9, 10), ("q1", "b", "q2"): F(4, 5)},
    )


def test_epsilon_reaches_only_the_start_state():
    aut = two_step()
    assert extended_transition(aut, "q0", (), "q0") == 1
    assert extended_transition(aut, "q0", (), "q1") == 0


def test_single_path_grade_is_min_of_edges():
    assert extended_transition(two_step(), "q0", ("a", "b"), "q2") == F(4, 5)


def test_multiple_paths_take_the_max():
    aut = FuzzyAutomaton(
        frozenset({"q0", "q1", "q2"}),
        AB,
        "q0",
        {
            ("q0", "a", "q1"): F(9, 10),
            ("q1", "b", "q2"): F(4, 5),
            ("q0", "a", "q2"): F(1, 2),
            ("q2", "b", "q2"): F(9, 10),
        },
    )
    assert extended_transition(aut, "q0", ("a", "b"), "q2") == F(4, 5)


def test_unknown_state_and_event_errors():
    aut = two_step()
    with pytest.raises(FdesError) as err:
        extended_transition(aut, "nope", (), "q0")
    assert err.value.code == "UNKNOWN_STATE"
    with pytest.raises(FdesError) as err:
        extended_transition(aut, "q0", ("z",), "q0")
    assert err.value.code == "UNKNOWN_EVENT"
    with pytest.raises(FdesError) as err:
        FuzzyAutomaton(frozenset({"q0"}), AB, "q1", {})
    assert err.value.code == "UNKNOWN_STATE"


@pytest.mark.parametrize(
    "states, initial, transitions",
    [("pq", "p", {("p", "a", "q"): 1}), ("q0", "q0", {})],
    ids=["splits-into-states", "whole-name"],
)
def test_a_str_state_set_is_refused_by_name(states, initial, transitions):
    # A str would split into one-character states, as a str event set would
    # split into events.
    with pytest.raises(FdesError) as err:
        FuzzyAutomaton(states, AB, initial, transitions)
    assert (err.value.code, err.value.message) == (
        "UNKNOWN_STATE",
        f"state set {states!r} must be a collection of state names",
    )


def test_generated_language_horizon_zero():
    assert generated_language(two_step(), 0) == lang(AB, {"eps": "1"})


def test_generated_language_two_steps():
    expected = lang(AB, {"eps": "1", "a": "0.9", "a.b": "0.8"})
    assert generated_language(two_step(), 2) == expected
    assert generated_language(two_step(), 5) == expected


def test_generated_language_cycle_respects_horizon():
    aut = FuzzyAutomaton(
        frozenset({"q0"}), AB, "q0", {("q0", "a", "q0"): F(1, 2)}
    )
    language = generated_language(aut, 3)
    assert language.grade(("a",) * 3) == F(1, 2)
    assert language.max_length() == 3


def test_construction_from_language_matches_support():
    _, _, spec = central_example()
    aut = automaton_from_language(spec)
    assert len(aut.states) == 5
    assert aut.transitions[("eps", "a", "a")] == F(7, 10)
    assert aut.transitions[("a", "c", "a.c")] == F(2, 5)
    assert aut.transitions[("a", "d", "a.d")] == F(7, 10)
    assert aut.transitions[("a.c", "d", "a.c.d")] == F(2, 5)
    assert generated_language(aut, spec.max_length()) == spec


def test_construction_rejects_empty_language():
    with pytest.raises(FdesError) as err:
        automaton_from_language(build_language(AB, {}))
    assert err.value.code == "EMPTY_LANGUAGE"


def test_single_string_language_round_trip():
    unit = lang(AB, {"eps": "1"})
    aut = automaton_from_language(unit)
    assert aut.transitions == {}
    assert generated_language(aut, 4) == unit


def _random_automaton(rng):
    states = [f"q{i}" for i in range(rng.randint(1, 4))]
    lattice = [g for g in random_lattice(rng) if g > 0]
    transitions = {}
    for p in states:
        for e in sorted(AB.events):
            for q in states:
                if rng.random() < 0.3:
                    transitions[(p, e, q)] = rng.choice(lattice)
    return FuzzyAutomaton(frozenset(states), AB, states[0], transitions)


def test_generated_language_is_always_valid_and_horizon_monotone():
    rng = random.Random(1905)
    for _ in range(60):
        aut = _random_automaton(rng)
        shallow = generated_language(aut, 2)
        deep = generated_language(aut, 3)
        for s, g in shallow.items():
            assert deep.grade(s) == g
        for s, g in deep.items():
            if len(s) <= 2:
                assert shallow.grade(s) == g


def test_generated_languages_are_stored_as_the_constructor_builds_them():
    rng = random.Random(2024)
    for i in range(80):
        aut = _random_automaton(rng)
        language = generated_language(aut, i % 6)
        items = list(language.items())
        rebuilt = FuzzyLanguage(aut.alphabet, dict(items))
        rng.shuffle(items)
        resorted = FuzzyLanguage(aut.alphabet, dict(items))
        assert language == rebuilt == resorted
        assert language.support == rebuilt.support == resorted.support, i


def test_round_trip_on_random_languages():
    rng = random.Random(1906)
    for _ in range(60):
        lattice = random_lattice(rng)
        language = random_plant(rng, AB, lattice, max_support=8, max_len=3)
        aut = automaton_from_language(language)
        assert generated_language(aut, language.max_length()) == language


def _string_grade(aut, w):
    """A string's grade from its extended transitions: max over end states."""
    return max(extended_transition(aut, aut.initial, w, q) for q in aut.states)


def _shapes(aut, language):
    """Which of self-loop, longer cycle and dead end the automaton has, and
    whether two strings of one length reach one state vector after
    different prefix grades."""
    step = _step_map(aut)
    histories = {}
    for w in language.support:
        vec = {aut.initial: F(1)}
        for event in w:
            vec = _advance(vec, event, step)
        on_the_way = tuple(language.grade(w[:k]) for k in range(len(w)))
        histories.setdefault((len(w), frozenset(vec.items())), set()).add(on_the_way)
    succ = {p: {q for (p2, _, q) in aut.transitions if p2 == p} for p in aut.states}
    reach = {}
    for p in aut.states:
        seen, todo = set(), list(succ[p])
        while todo:
            q = todo.pop()
            if q not in seen:
                seen.add(q)
                todo.extend(succ[q])
        reach[p] = seen
    return {
        "self-loop": any(p in succ[p] for p in aut.states),
        "cycle": any(q != p and p in reach[q] for p in aut.states for q in reach[p]),
        "dead end": any(not succ[p] for p in reach[aut.initial] | {aut.initial}),
        "merge": any(len(h) > 1 for h in histories.values()),
    }


def test_unrolling_matches_the_per_string_reference_on_random_automata():
    rng = random.Random(2013)
    shapes = {"self-loop": 0, "cycle": 0, "dead end": 0, "merge": 0}
    for i in range(210):
        alphabet = random_alphabet(rng, max_events=3)
        states = [f"q{k}" for k in range(rng.randint(1, 5))]
        lattice = [g for g in random_lattice(rng) if g > 0]
        density = rng.uniform(0.1, 0.5)
        transitions = {
            (p, e, q): rng.choice(lattice)
            for p in states
            for e in sorted(alphabet.events)
            for q in states
            if rng.random() < density
        }
        aut = FuzzyAutomaton(frozenset(states), alphabet, states[0], transitions)
        horizon = i % 7
        language = generated_language(aut, horizon)
        reference = generated_language_per_string(aut, horizon)
        assert list(language.items()) == list(reference.items())
        for shape, present in _shapes(aut, language).items():
            shapes[shape] += present
        support = language.support
        for w in rng.sample(support, min(3, len(support))):
            assert language.grade(w) == _string_grade(aut, w)
        if horizon:
            w = tuple(rng.choice(sorted(alphabet.events)) for _ in range(rng.randint(1, horizon)))
            assert language.grade(w) == _string_grade(aut, w)
    assert min(shapes.values()) >= 20, shapes


def test_strings_reaching_one_vector_by_different_grades_extend_alike():
    # a.c and b.c both reach the vector {q3: 1/2}, after grades 9/10 and
    # 1/2 on the way; their extensions grade alike, and a's own differ.
    aut = FuzzyAutomaton(
        frozenset({"q0", "q1", "q2", "q3"}),
        Alphabet({"a", "b", "c", "d"}),
        "q0",
        {
            ("q0", "a", "q1"): F(9, 10), ("q0", "b", "q2"): F(1, 2),
            ("q1", "c", "q3"): F(1, 2), ("q2", "c", "q3"): F(1),
            ("q3", "d", "q3"): F(1, 5), ("q1", "d", "q1"): F(3, 10),
        },
    )
    language = generated_language(aut, 4)
    vector = {q: extended_transition(aut, "q0", ("a", "c"), q) for q in sorted(aut.states)}
    assert vector == {q: extended_transition(aut, "q0", ("b", "c"), q) for q in sorted(aut.states)}
    assert language.grade(("a",)) != language.grade(("b",))
    assert list(language.items()) == list(generated_language_per_string(aut, 4).items())
    assert language.grade(("a", "c", "d", "d")) == language.grade(("b", "c", "d", "d")) == F(1, 5)
    assert language.grade(("a", "d", "d")) == F(3, 10)
    assert language.grade(("b", "d")) == 0


def test_unrolling_refuses_a_negative_horizon():
    with pytest.raises(FdesError) as err:
        generated_language(two_step(), -1)
    assert (err.value.code, err.value.message) == ("OUT_OF_RANGE", "horizon must be >= 0")


@pytest.mark.parametrize("horizon", [2.5, "3", None])
def test_unrolling_refuses_a_horizon_that_is_no_int(horizon):
    with pytest.raises(FdesError) as err:
        generated_language(two_step(), horizon)
    assert (err.value.code, err.value.message) == ("OUT_OF_RANGE", f"horizon {horizon!r} must be an int")
