"""Brute-force references: enumeration, extremal search, crisp checkers."""

import random
from fractions import Fraction as F

import pytest

from fdes import (
    Alphabet,
    FdesError,
    build_language,
    infimal_co,
    is_controllable,
    is_normal,
    is_observable,
    natural_projection,
    supremal_cn,
    union,
)
from fdes.oracle import (
    brute_decentralized_exists,
    brute_infimal_co,
    brute_supervisor_exists,
    brute_supremal_cn,
)
from helpers import central_example, lang, random_lattice, random_plant, union_example
from references import EnumerationSpec, crisp_reference, enumerate_languages, observable_pairwise

AB = Alphabet({"a", "b"}, controllable={"a"}, observable={"b"})


def test_enumerate_tiny_universe():
    spec = EnumerationSpec(AB, ((),), (F(0), F(1)))
    out = list(enumerate_languages(spec))
    assert len(out) == 2
    assert any(l.is_empty for l in out)
    assert any(l.grade(()) == 1 for l in out)


def test_enumerate_counts_and_validity():
    spec = EnumerationSpec(AB, ((), ("a",)), (F(0), F(1, 2), F(1)))
    out = list(enumerate_languages(spec))
    assert len(out) == 4  # empty, {eps}, {eps, a:1/2}, {eps, a:1}
    seen = {tuple(sorted(l.items())) for l in out}
    assert len(seen) == 4


def test_enumerate_respects_budget():
    strings = [()] + [("a",) * i for i in range(1, 20)]
    spec = EnumerationSpec(AB, tuple(strings), (F(0), F(1, 2), F(1)), budget=100)
    with pytest.raises(FdesError) as err:
        list(enumerate_languages(spec))
    assert err.value.code == "BUDGET_EXCEEDED"


def test_enumeration_spec_validates_universe_and_lattice():
    with pytest.raises(FdesError):
        EnumerationSpec(AB, (("a",),), (F(0), F(1)))
    with pytest.raises(FdesError):
        EnumerationSpec(AB, ((),), (F(0), F(1, 2)))


def test_brute_infimal_matches_golden():
    alphabet, plant, k1, k2 = union_example()
    merged = union(k1, k2)
    pr = natural_projection(alphabet)
    expected = lang(alphabet, {"eps": "1", "a": "0.8", "b": "0.7", "a.b": "0.7"})
    assert brute_infimal_co(merged, plant, pr) == expected
    assert brute_infimal_co(plant, plant, pr) == plant


def test_brute_supremal_matches_golden():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    expected = lang(
        alphabet, {"eps": "1", "a": "0.4", "a.c": "0.4", "a.d": "0.4", "a.c.d": "0.4"}
    )
    assert brute_supremal_cn(spec, plant, pr) == expected


def test_oracle_outputs_satisfy_their_own_predicates():
    alphabet, plant, k1, k2 = union_example()
    merged = union(k1, k2)
    pr = natural_projection(alphabet)
    lower = brute_infimal_co(merged, plant, pr)
    assert is_controllable(lower, plant).holds
    assert is_observable(lower, plant, pr).holds
    upper = brute_supremal_cn(merged, plant, pr)
    assert is_controllable(upper, plant).holds
    assert is_normal(upper, plant, pr).holds


def test_supervisor_search_on_golden_instances():
    alphabet, plant, k1, k2 = union_example()
    pr = natural_projection(alphabet)
    merged = union(k1, k2)
    assert not brute_supervisor_exists(merged, plant, pr)
    assert brute_supervisor_exists(plant, plant, pr)


def test_supervisor_search_on_truncated_central_instance():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    short_plant = build_language(
        alphabet, {s: g for s, g in plant.items() if len(s) <= 2}
    )
    short_spec = build_language(
        alphabet, {s: g for s, g in spec.items() if len(s) <= 2}
    )
    assert is_controllable(short_spec, short_plant).holds
    assert is_observable(short_spec, short_plant, pr).holds
    assert brute_supervisor_exists(short_spec, short_plant, pr)


def test_supervisor_search_budget_guard():
    alphabet, plant, spec = central_example()
    with pytest.raises(FdesError) as err:
        brute_supervisor_exists(spec, plant, natural_projection(alphabet), budget=10)
    assert err.value.code == "BUDGET_EXCEEDED"


@pytest.mark.parametrize("budget", ["x", None, 2.5])
@pytest.mark.parametrize("search", [brute_infimal_co, brute_supremal_cn, brute_supervisor_exists])
def test_every_search_refuses_a_budget_that_is_no_int(search, budget):
    alphabet, plant, spec = central_example()
    with pytest.raises(FdesError) as err:
        search(spec, plant, natural_projection(alphabet), budget=budget)
    assert (err.value.code, err.value.message) == ("OUT_OF_RANGE", f"budget {budget!r} must be an int")


def test_supervisor_search_stable_under_extra_grades():
    # enlarging the enable-grade search set cannot change achievability
    alphabet, plant, k1, k2 = union_example()
    pr = natural_projection(alphabet)
    merged = union(k1, k2)
    midpoints = (F(3, 4), F(17, 20), F(9, 10))
    assert not brute_supervisor_exists(merged, plant, pr, extra_grades=midpoints)
    assert brute_supervisor_exists(k1, plant, pr, extra_grades=midpoints)


def test_decentralized_search_agrees_with_predicate_pair():
    from fdes import Projection, is_coobservable
    from fdes.predicates import is_controllable as ctrl

    rng = random.Random(1911)
    alphabet = Alphabet({"a", "b"}, controllable={"a", "b"}, observable={"a", "b"})
    site1 = (Projection(alphabet, frozenset({"a"})), frozenset({"a"}))
    site2 = (Projection(alphabet, frozenset({"b"})), frozenset({"b"}))
    agreed = 0
    while agreed < 8:
        lattice = random_lattice(rng, max_values=3)
        plant = random_plant(rng, alphabet, lattice, max_support=3, max_len=2)
        from helpers import random_sublanguage

        spec = random_sublanguage(rng, plant, lattice, allow_empty=False)
        predicted = (
            ctrl(spec, plant).holds and is_coobservable(spec, plant, site1, site2).holds
        )
        try:
            exists = brute_decentralized_exists(spec, plant, site1, site2, budget=50_000)
        except FdesError as err:
            assert err.code == "BUDGET_EXCEEDED"
            continue
        assert exists == predicted
        agreed += 1


def test_pairwise_observability_agrees_on_goldens():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    assert observable_pairwise(spec, plant, pr)
    merged_alpha, merged_plant, k1, k2 = union_example()
    pr2 = natural_projection(merged_alpha)
    assert not observable_pairwise(union(k1, k2), merged_plant, pr2)


def test_crisp_reference_controllability():
    alphabet = Alphabet({"a", "b"}, controllable={"a"}, observable={"a", "b"})
    plant = lang(alphabet, {"eps": "1", "a": "1", "a.b": "1"})
    spec = lang(alphabet, {"eps": "1", "a": "1"})
    assert not crisp_reference("controllability", spec, plant)
    assert crisp_reference("controllability", plant, plant)
    assert crisp_reference("observability", plant, plant)
    assert crisp_reference("normality", plant, plant)


def test_crisp_reference_rejects_graded_languages():
    alphabet, plant, spec = central_example()
    with pytest.raises(FdesError) as err:
        crisp_reference("controllability", spec, plant)
    assert err.value.code == "NOT_CRISP"


def test_crisp_degeneration_on_random_instances():
    rng = random.Random(1910)
    crisp = (F(0), F(1))
    for _ in range(120):
        alphabet = Alphabet(
            frozenset(rng.sample(["a", "b", "c"], rng.randint(1, 3))),
        )
        alphabet = Alphabet(
            alphabet.events,
            frozenset(e for e in sorted(alphabet.events) if rng.random() < 0.5),
            frozenset(e for e in sorted(alphabet.events) if rng.random() < 0.5),
        )
        plant = random_plant(rng, alphabet, crisp, max_support=8, max_len=3)
        from helpers import random_sublanguage

        spec = random_sublanguage(rng, plant, crisp, allow_empty=False)
        pr = natural_projection(alphabet)
        assert crisp_reference("controllability", spec, plant) == is_controllable(spec, plant).holds
        assert crisp_reference("observability", spec, plant, pr) == is_observable(spec, plant, pr).holds
        assert crisp_reference("normality", spec, plant, pr) == is_normal(spec, plant, pr).holds
