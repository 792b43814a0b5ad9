"""Infimal/supremal approximations and the two-bound control problem."""

import itertools
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from fdes import (
    Alphabet,
    FdesError,
    FuzzyAutomaton,
    FuzzyLanguage,
    closed_loop_central,
    empty_language,
    generated_language,
    infimal_co,
    is_controllable,
    is_normal,
    is_observable,
    is_sublanguage,
    natural_projection,
    parse_fdl,
    solve_scp,
    supremal_cn,
    synthesize_central,
    union,
)
from fdes.language import _codes
from helpers import (
    central_example,
    lang,
    random_alphabet,
    random_lattice,
    random_plant,
    random_projection,
    random_sublanguage,
    union_example,
)
from references import supremal_cn_sweeps
from theorems import make_instance


def test_grade_lattice_collects_instance_grades():
    _, plant, spec = central_example()
    values = _codes((spec, plant))[0]
    assert values[0] == 0 and values[-1] == 1
    assert F(2, 5) in values and F(9, 10) in values
    assert values == tuple(sorted(values))


def test_infimal_co_fixed_on_achievable_spec():
    alphabet, plant, spec = central_example()
    assert infimal_co(spec, plant, natural_projection(alphabet)) == spec


def test_infimal_co_union_golden():
    alphabet, plant, k1, k2 = union_example()
    merged = union(k1, k2)
    result = infimal_co(merged, plant, natural_projection(alphabet))
    assert result == lang(alphabet, {"eps": "1", "a": "0.8", "b": "0.7", "a.b": "0.7"})


def test_infimal_co_trivial_cases():
    alphabet = Alphabet({"a", "b"}, controllable={"a", "b"}, observable={"a", "b"})
    plant = lang(alphabet, {"eps": "1", "a": "0.9"})
    unit = lang(alphabet, {"eps": "1"})
    pr = natural_projection(alphabet)
    assert infimal_co(unit, plant, pr) == unit
    assert infimal_co(empty_language(alphabet), plant, pr).is_empty
    assert infimal_co(plant, plant, pr) == plant


def test_infimal_co_checks_its_inputs_before_returning_an_empty_spec():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    other = Alphabet({"a"}, controllable={"a"}, observable={"a"})
    empty = empty_language(alphabet)
    cases = [
        (empty_language(other), plant, "ALPHABET_MISMATCH"),
        (lang(other, {"eps": "1", "a": "1"}), plant, "ALPHABET_MISMATCH"),
        (spec, empty, "NOT_SUBLANGUAGE"),
        (plant, spec, "NOT_SUBLANGUAGE"),
    ]
    for k, g, code in cases:
        with pytest.raises(FdesError) as err:
            infimal_co(k, g, pr)
        assert err.value.code == code
    assert infimal_co(empty, plant, pr) is empty
    assert infimal_co(empty, empty, pr) is empty


def test_supremal_cn_golden():
    alphabet, plant, spec = central_example()
    result = supremal_cn(spec, plant, natural_projection(alphabet))
    expected = lang(
        alphabet, {"eps": "1", "a": "0.4", "a.c": "0.4", "a.d": "0.4", "a.c.d": "0.4"}
    )
    assert result == expected


def test_supremal_cn_trivial_cases():
    alphabet, plant, _ = central_example()
    pr = natural_projection(alphabet)
    assert supremal_cn(plant, plant, pr) == plant
    assert supremal_cn(empty_language(alphabet), plant, pr).is_empty


def test_supremal_cn_collapses_when_nothing_fits():
    # an uncontrollable event the plant allows but the spec forbids leaves
    # only the empty language
    alphabet = Alphabet({"a", "b"}, controllable={"a"}, observable={"a", "b"})
    plant = lang(alphabet, {"eps": "1", "b": "0.5"})
    spec = lang(alphabet, {"eps": "1"})
    assert supremal_cn(spec, plant, natural_projection(alphabet)).is_empty


def test_supremal_cn_collapse_via_partial_grades():
    # the uncontrollable continuation caps eps below 1, so no valid
    # non-empty sublanguage exists at all
    alphabet = Alphabet({"a", "b"}, controllable={"a"}, observable={"a", "b"})
    plant = lang(alphabet, {"eps": "1", "b": "0.5", "a": "0.3"})
    spec = lang(alphabet, {"eps": "1", "b": "0.2", "a": "0.3"})
    assert supremal_cn(spec, plant, natural_projection(alphabet)).is_empty


def test_extremal_results_satisfy_their_predicates():
    rng = random.Random(1908)
    for _ in range(60):
        alphabet = Alphabet(
            {"a", "b", "c"}, controllable={"a", "b"}, observable={"a", "c"}
        )
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice, max_support=9, max_len=3)
        spec = random_sublanguage(rng, plant, lattice)
        pr = random_projection(rng, alphabet)
        values = set(_codes((spec, plant))[0])
        lower = infimal_co(spec, plant, pr)
        assert is_sublanguage(spec, lower) and is_sublanguage(lower, plant)
        assert is_controllable(lower, plant).holds
        assert is_observable(lower, plant, pr).holds
        assert infimal_co(lower, plant, pr) == lower
        assert all(g in values for _, g in lower.items())
        upper = supremal_cn(spec, plant, pr)
        assert is_sublanguage(upper, spec)
        assert is_controllable(upper, plant).holds
        assert is_normal(upper, plant, pr).holds
        assert is_observable(upper, plant, pr).holds
        assert supremal_cn(upper, plant, pr) == upper
        assert all(g in values for _, g in upper.items())


def test_extremal_results_are_monotone_in_the_spec():
    rng = random.Random(1909)
    for _ in range(40):
        alphabet = Alphabet({"a", "b"}, controllable={"a"}, observable={"b"})
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice, max_support=8, max_len=3)
        big = random_sublanguage(rng, plant, lattice)
        small = random_sublanguage(rng, big, lattice)
        pr = random_projection(rng, alphabet)
        assert is_sublanguage(
            infimal_co(small, plant, pr), infimal_co(big, plant, pr)
        )
        assert is_sublanguage(
            supremal_cn(small, plant, pr), supremal_cn(big, plant, pr)
        )


def test_scp_solvable_golden():
    alphabet, plant, spec = central_example()
    result = solve_scp(spec, plant, plant, natural_projection(alphabet))
    assert result.solvable
    loop = closed_loop_central(plant, result.supervisor)
    assert loop == spec


def test_scp_supervisor_is_the_infimal_languages_own():
    # solve_scp builds the minimal behavior's formula supervisor once; the
    # infimal language has the same class joins, so that supervisor is the
    # one synthesis builds for it, and its closed loop is the infimal one.
    rng = random.Random(1616)
    for _ in range(300):
        _, _, plant, spec, pr = make_instance(rng)
        if not spec.is_empty:
            result = solve_scp(spec, plant, plant, pr)
            assert result.supervisor == synthesize_central(result.infimal, plant, pr)
            assert closed_loop_central(plant, result.supervisor) == result.infimal


def test_scp_trivial_full_band():
    alphabet, plant, _ = central_example()
    result = solve_scp(plant, plant, plant, natural_projection(alphabet))
    assert result.solvable
    assert closed_loop_central(plant, result.supervisor) == plant


def test_scp_no_solution_golden():
    alphabet, plant, k1, k2 = union_example()
    merged = union(k1, k2)
    result = solve_scp(merged, merged, plant, natural_projection(alphabet))
    assert not result.solvable
    assert result.supervisor is None
    assert result.infimal.grade(("a", "b")) == F(7, 10)


def test_scp_preconditions():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    with pytest.raises(FdesError) as err:
        solve_scp(empty_language(alphabet), plant, plant, pr)
    assert err.value.code == "EMPTY_MIN_SPEC"
    with pytest.raises(FdesError) as err:
        solve_scp(plant, spec, plant, pr)
    assert err.value.code == "PRECONDITION_CHAIN"


# ---------------------------------------------------------------------------
# Golden outputs of both fixed points on two seeded mid-size instances.  The
# expected languages in tests/data/golden_*.fdl come from the earlier
# implementations, which swept the whole support until nothing changed, so
# any faster schedule must reproduce them exactly.

DATA = Path(__file__).parent / "data"
TENTHS = [F(k, 10) for k in range(1, 11)]


def _spec_under(rng: random.Random, plant: FuzzyLanguage, noise: float) -> FuzzyLanguage:
    """A spec capped per projection class, with a few strings pushed lower.

    Strings in the class of eps keep their plant grade, so the supremal
    sublanguage has room to stay non-empty.
    """
    observable = plant.alphabet.observable
    caps = {(): F(1)}
    grades = {(): F(1)}
    for s, bound in plant.items():
        if not s:
            continue
        seen = tuple(e for e in s if e in observable)
        if seen not in caps:
            caps[seen] = rng.choice(TENTHS[3:])
        ceiling = min(grades.get(s[:-1], F(0)), bound, caps[seen])
        if seen and rng.random() < noise:
            ceiling = rng.choice([F(0)] + [g for g in TENTHS if g < ceiling])
        if ceiling > 0:
            grades[s] = ceiling
    return FuzzyLanguage(plant.alphabet, grades)


def blind_tree_instance():
    """Full ternary tree of depth 5 with only a observable: the class of
    the strings holding one a has 129 members."""
    rng = random.Random(1)
    alphabet = Alphabet({"a", "b", "c"}, controllable={"a", "b"}, observable={"a"})
    grades = {(): F(1)}
    for n in range(1, 6):
        for s in itertools.product("abc", repeat=n):
            grades[s] = min(grades[s[:-1]], rng.choice(TENTHS[4:]))
    plant = FuzzyLanguage(alphabet, grades)
    return alphabet, plant, _spec_under(rng, plant, 0.05)


def cyclic_instance():
    """A random four-state automaton unrolled to horizon 6 (521 strings)."""
    rng = random.Random(2)
    alphabet = Alphabet(
        {"a", "b", "c", "d"}, controllable={"a", "b", "c"}, observable={"a", "b", "d"}
    )
    states = ["q0", "q1", "q2", "q3"]
    transitions = {
        (p, e, q): rng.choice(TENTHS)
        for p in states
        for e in "abcd"
        for q in states
        if rng.random() < 0.3
    }
    plant = generated_language(FuzzyAutomaton(frozenset(states), alphabet, "q0", transitions), 6)
    return alphabet, plant, _spec_under(rng, plant, 0.05)


@pytest.mark.parametrize(
    "name, build", [("tree", blind_tree_instance), ("cyclic", cyclic_instance)]
)
def test_fixed_points_match_golden_outputs(name, build):
    alphabet, plant, spec = build()
    pr = natural_projection(alphabet)
    expected = parse_fdl((DATA / f"golden_{name}.fdl").read_text(encoding="utf-8")).languages
    assert infimal_co(spec, plant, pr) == expected["infimal"]
    assert supremal_cn(spec, plant, pr) == expected["supremal"]


# ---------------------------------------------------------------------------
# supremal_cn's worklist against the repeated sweeps it replaced
# (references.supremal_cn_sweeps), on instances beyond the brute oracle's
# reach, and the worklist's cost on the "ladder", the family on which the
# sweeps needed one pass per step a lowering travels back.


def _same_supremal(spec, plant, pr) -> FuzzyLanguage:
    result = supremal_cn(spec, plant, pr)
    expected = supremal_cn_sweeps(spec, plant, pr)
    assert result == expected and result.support == expected.support
    return result


def _support_size(transitions, initial, horizon: int) -> int:
    """How many strings of length <= horizon reach a state: the crisp
    subset walk, so an instance is sized before it is unrolled."""
    level, total = {frozenset([initial]): 1}, 1
    for _ in range(horizon):
        step: dict = {}
        for states, count in level.items():
            for event in {e for p, e, _ in transitions if p in states}:
                reached = frozenset(q for p, e, q in transitions if p in states and e == event)
                step[reached] = step.get(reached, 0) + count
        level = step
        total += sum(level.values())
    return total


def _deep_plant(rng: random.Random) -> tuple:
    """A random 2-4-state automaton over two or three events, each state
    with one or two of them, unrolled at the largest horizon between 10
    and a random draw up to 14 that keeps the plant within 3,000 strings."""
    while True:
        alphabet = random_alphabet(rng, max_events=3)
        if len(alphabet.events) < 2:
            continue
        lattice = random_lattice(rng)
        states = [f"q{i}" for i in range(rng.randint(2, 4))]
        transitions = {
            (p, e, rng.choice(states)): rng.choice(lattice[1:])
            for p in states
            for e in rng.sample(sorted(alphabet.events), 1 + (rng.random() < 0.5))
        }
        for horizon in range(rng.randint(10, 14), 9, -1):
            if _support_size(transitions, "q0", horizon) <= 3000:
                aut = FuzzyAutomaton(frozenset(states), alphabet, "q0", transitions)
                return alphabet, generated_language(aut, horizon)


def test_supremal_cn_equals_the_sweeps_on_random_plants_of_up_to_200_strings():
    rng = random.Random(2626)
    kept = lowered = largest = 0
    for _ in range(200):
        alphabet = random_alphabet(rng)
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice, max_support=200, max_len=8)
        if rng.random() < 0.5:
            spec = random_sublanguage(rng, plant, lattice)
        else:
            spec = _spec_under(rng, plant, 0.05)
        result = _same_supremal(spec, plant, random_projection(rng, alphabet))
        kept += not result.is_empty
        lowered += not result.is_empty and result != spec
        largest = max(largest, len(plant.support))
    assert largest >= 150 and kept >= 40 and lowered >= 10


def test_supremal_cn_equals_the_sweeps_on_deep_plants():
    rng = random.Random(2627)
    kept = lowered = deepest = 0
    for _ in range(100):
        alphabet, plant = _deep_plant(rng)
        spec = _spec_under(rng, plant, 0.02)
        result = _same_supremal(spec, plant, random_projection(rng, alphabet))
        kept += not result.is_empty
        lowered += not result.is_empty and result != spec
        deepest = max(deepest, plant.max_length())
    assert deepest == 14 and kept >= 30 and lowered >= 8


def _ladder(k: int) -> tuple:
    """The horizon-(2k+1) unrolling of the two-state cycle f e f e ..., e
    observable and uncontrollable, f unobservable and controllable, and
    the spec that drops the deepest string: the class rule and
    controllability pass the loss back one step each, down to eps."""
    alphabet = Alphabet({"e", "f"}, controllable={"f"}, observable={"e"})
    one = F(1)
    aut = FuzzyAutomaton(
        frozenset({"p", "q"}), alphabet, "p", {("p", "f", "q"): one, ("q", "e", "p"): one}
    )
    plant = generated_language(aut, 2 * k + 1)
    spec = FuzzyLanguage(alphabet, dict(list(plant.items())[:-1]))
    return spec, plant, natural_projection(alphabet)


def _line_events(function, *args) -> tuple:
    """Call ``function`` and count the line events in its own frame: a
    measure of the work its body does, independent of the host's speed."""
    lines = 0

    def in_frame(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return in_frame

    def on_call(frame, event, arg):
        return in_frame if frame.f_code is function.__code__ else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = function(*args)
    finally:
        sys.settrace(previous)
    return result, lines


def test_supremal_cn_work_per_string_is_flat_on_the_ladder():
    per_string = {}
    for k in (200, 400, 800):
        spec, plant, pr = _ladder(k)
        result, lines = _line_events(supremal_cn, spec, plant, pr)
        assert result.is_empty and len(plant.support) == 2 * k + 2
        per_string[k] = lines / len(plant.support)
    assert supremal_cn_sweeps(*_ladder(200)).is_empty
    assert per_string[800] <= 1.25 * per_string[200], per_string
