"""Natural projection, its fuzzy lifting, and the fused inverse projection."""

import random
from fractions import Fraction as F

import pytest

from fdes import (
    Alphabet,
    FdesError,
    Projection,
    empty_language,
    inverse_project_meet,
    is_sublanguage,
    natural_projection,
    project_language,
    project_string,
)
from fdes.events import string_key
from fdes.language import Index
from fdes.observation import class_joins, projection_classes, projection_ids
from helpers import (
    central_example,
    lang,
    random_alphabet,
    random_lattice,
    random_plant,
    random_projection,
    random_sublanguage,
)
from references import join_all


def test_project_string_erases_unobservable():
    alphabet, _, _ = central_example()
    pr = natural_projection(alphabet)
    assert project_string(pr, ("a", "c")) == ("a",)
    assert project_string(pr, ()) == ()
    assert project_string(pr, ("a", "c", "d")) == ("a", "d")


def test_project_string_rejects_unknown_event():
    alphabet, _, _ = central_example()
    with pytest.raises(FdesError) as err:
        project_string(natural_projection(alphabet), ("z",))
    assert err.value.code == "UNKNOWN_EVENT"


def test_projection_requires_known_events():
    alphabet, _, _ = central_example()
    with pytest.raises(FdesError):
        Projection(alphabet, frozenset({"z"}))


def test_project_language_joins_preimages():
    alphabet, _, spec = central_example()
    projected = project_language(natural_projection(alphabet), spec)
    assert projected.grade(("a", "d")) == F(7, 10)
    assert projected.grade(("a",)) == F(7, 10)
    assert sorted(projected.alphabet.events) == ["a", "b", "d"]


def test_identity_projection_is_identity():
    alphabet = Alphabet({"a", "b"}, observable={"a", "b"})
    language = lang(alphabet, {"eps": "1", "a.b": "0.5", "a": "0.5"})
    assert project_language(natural_projection(alphabet), language) == language


def test_project_empty_language():
    alphabet, _, _ = central_example()
    assert project_language(natural_projection(alphabet), empty_language(alphabet)).is_empty


def test_inverse_project_meet_recovers_more_than_spec():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    recovered = inverse_project_meet(pr, project_language(pr, spec), plant)
    assert recovered.grade(("a", "c", "d")) == F(3, 5)
    assert recovered.grade(("a", "c")) == F(3, 5)


def test_inverse_project_meet_zero_observation():
    alphabet, plant, _ = central_example()
    pr = natural_projection(alphabet)
    observed_empty = empty_language(project_language(pr, plant).alphabet)
    assert inverse_project_meet(pr, observed_empty, plant).is_empty


def test_full_observation_reduces_to_pointwise_meet():
    alphabet = Alphabet({"a", "b"}, observable={"a", "b"})
    pr = natural_projection(alphabet)
    left = lang(alphabet, {"eps": "1", "a": "0.4"})
    right = lang(alphabet, {"eps": "1", "a": "0.9", "b": "0.3"})
    fused = inverse_project_meet(pr, project_language(pr, left), right)
    assert fused.grade(("a",)) == F(2, 5)
    assert fused.grade(("b",)) == 0


def test_randomized_projection_properties():
    rng = random.Random(1907)
    alphabet = Alphabet({"a", "b", "c"}, observable={"a", "b"})
    pr = natural_projection(alphabet)
    for _ in range(80):
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice, max_support=10, max_len=3)
        spec = random_sublanguage(rng, plant, lattice)
        projected = project_language(pr, spec)  # validity checked on build
        if not spec.is_empty:
            assert projected.grade(()) == 1
        recovered = inverse_project_meet(pr, projected, plant)
        assert is_sublanguage(spec, recovered)
        for s, _ in spec.items():
            image = project_string(pr, s)
            assert project_string(pr, image) == image
            assert len(image) <= len(s)


def test_class_joins_match_brute_class_join():
    rng = random.Random(3313)
    for _ in range(200):
        alphabet = random_alphabet(rng)
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice)
        spec = random_sublanguage(rng, plant, lattice)
        pr = random_projection(rng, alphabet)
        events = sorted(alphabet.events)
        index = Index(plant)
        values, P, S = index.ranked(spec)
        proj, observed = projection_ids(index, pr)
        assert [observed[c] for c in proj] == [project_string(pr, s) for s in plant.support]
        assert sorted(observed, key=string_key) == list(projection_classes(pr, plant.support))
        for language, ranks in ((plant, P), (spec, S)):
            joins = class_joins(index, ranks, proj, events)
            assert set(joins) <= {(c, a) for c in range(len(observed)) for a in events}
            for c, t in enumerate(observed):
                members = [s for s in plant.support if project_string(pr, s) == t]
                for a in events:
                    brute = join_all(language.grade(s + (a,)) for s in members)
                    assert values[joins.get((c, a), 0)] == brute
