"""Infimal/supremal approximations and the two-bound control problem."""

import itertools
import random
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
    random_lattice,
    random_plant,
    random_projection,
    random_sublanguage,
    union_example,
)
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
