"""Worked instances and random-instance generation shared across the suite."""

from __future__ import annotations

import random
from fractions import Fraction as F

from fdes import (
    Alphabet,
    FuzzyLanguage,
    Projection,
    build_language,
    empty_language,
    make_supervisor,
    parse_event_string,
)

# ---------------------------------------------------------------------------
# Worked instances used across the golden tests.


def lang(alphabet: Alphabet, table: dict) -> FuzzyLanguage:
    return build_language(
        alphabet, {parse_event_string(k): F(v) for k, v in table.items()}
    )


def central_example():
    """Four-event plant with one unobservable and one uncontrollable event;
    the spec is controllable and observable, so central synthesis recovers
    it exactly."""
    alphabet = Alphabet(
        {"a", "b", "c", "d"}, controllable={"a", "b", "c"}, observable={"a", "b", "d"}
    )
    plant = lang(
        alphabet,
        {
            "eps": "1",
            "a": "0.9",
            "a.b": "0.8",
            "a.d": "0.8",
            "a.c": "0.6",
            "a.c.b": "0.4",
            "a.c.d": "0.6",
        },
    )
    spec = lang(
        alphabet,
        {"eps": "1", "a": "0.7", "a.c": "0.4", "a.d": "0.7", "a.c.d": "0.4"},
    )
    return alphabet, plant, spec


def observable_not_strong_example():
    """A plant that is observable as its own spec but not strongly so."""
    alphabet = Alphabet({"a", "b"}, controllable={"b"}, observable={"b"})
    plant = lang(alphabet, {"eps": "1", "a": "0.8", "b": "0.9", "a.b": "0.7"})
    return alphabet, plant


def union_example():
    """Two strongly observable specs whose union is not even observable."""
    alphabet = Alphabet({"a", "b"}, controllable={"a", "b"}, observable={"b"})
    plant = lang(alphabet, {"eps": "1", "a": "0.9", "b": "0.8", "a.b": "0.7"})
    spec1 = lang(alphabet, {"eps": "1", "a": "0.8"})
    spec2 = lang(alphabet, {"eps": "1", "b": "0.7"})
    return alphabet, plant, spec1, spec2


def medical_example():
    """Drug/symptom treatment plan controlled by two physicians, each
    blind to one symptom; co-observable as its own plant.  Returns the
    alphabet, the spec and the physicians' two sites, each a
    (projection, controllables) pair."""
    alphabet = Alphabet(
        {"a1", "a2", "b1", "b2", "b3"},
        controllable={"a1", "a2"},
        observable={"a1", "a2", "b1", "b2", "b3"},
    )
    sites = tuple(
        (Projection(alphabet, frozenset(observable)), frozenset({"a1", "a2"}))
        for observable in ({"a1", "b1", "a2", "b3"}, {"a1", "b2", "a2", "b3"})
    )
    spec = lang(
        alphabet,
        {
            "eps": "1",
            "a1": "0.9",
            "a1.a2": "0.8",
            "a1.b1": "0.2",
            "a1.b2": "0.3",
            "a1.a2.b1": "0.2",
            "a1.a2.b2": "0.3",
            "a1.a2.b3": "0.3",
            "a1.a2.b3.b1": "0.2",
            "a1.a2.b3.b2": "0.3",
            "a1.a2.b3.a1": "0.2",
            "a1.a2.b3.a1.b1": "0.2",
            "a1.a2.b3.a1.b2": "0.2",
            "a1.a2.b3.a1.b3": "0.2",
            "a1.a2.b3.a1.b3.b1": "0.2",
            "a1.a2.b3.a1.b3.b2": "0.2",
        },
    )
    return alphabet, spec, sites


# ---------------------------------------------------------------------------
# Random instance generation.  Everything is driven by an explicit
# random.Random so suites are reproducible; sets are iterated sorted,
# because their order follows the per-process string hash.

GRADE_POOL = [
    F(1, 6),
    F(1, 5),
    F(1, 4),
    F(1, 3),
    F(2, 5),
    F(1, 2),
    F(3, 5),
    F(2, 3),
    F(3, 4),
    F(4, 5),
    F(5, 6),
]

EVENT_POOL = ["a", "b", "c", "d"]


def random_lattice(rng: random.Random, max_values: int = 5) -> tuple[F, ...]:
    middle = rng.sample(GRADE_POOL, rng.randint(0, max_values - 2))
    return tuple(sorted({F(0), F(1), *middle}))


def random_alphabet(
    rng: random.Random, max_events: int = 4, controllable_within_observable: bool = False
) -> Alphabet:
    events = rng.sample(EVENT_POOL, rng.randint(1, max_events))
    observable = {e for e in events if rng.random() < 0.6}
    if controllable_within_observable:
        controllable = {e for e in sorted(observable) if rng.random() < 0.7}
    else:
        controllable = {e for e in events if rng.random() < 0.6}
    return Alphabet(frozenset(events), frozenset(controllable), frozenset(observable))


def random_plant(
    rng: random.Random,
    alphabet: Alphabet,
    lattice,
    max_support: int = 12,
    max_len: int = 4,
) -> FuzzyLanguage:
    grades = {(): F(1)}
    events = sorted(alphabet.events)
    target = rng.randint(1, max_support)
    for _ in range(3 * target):
        if len(grades) >= target:
            break
        parent = rng.choice(list(grades))
        if len(parent) >= max_len:
            continue
        child = parent + (rng.choice(events),)
        if child in grades:
            continue
        ceiling = grades[parent]
        options = [g for g in lattice if F(0) < g <= ceiling]
        if options:
            grades[child] = rng.choice(options)
    return FuzzyLanguage(alphabet, grades)


def random_sublanguage(
    rng: random.Random,
    plant: FuzzyLanguage,
    lattice,
    allow_empty: bool = True,
) -> FuzzyLanguage:
    if plant.is_empty or (allow_empty and rng.random() < 0.05):
        return empty_language(plant.alphabet)
    grades: dict = {(): F(1)}
    for s, bound in plant.items():
        if not s:
            continue
        ceiling = min(grades.get(s[:-1], F(0)), bound)
        options = [g for g in lattice if g <= ceiling]
        if not options:
            continue
        if rng.random() < 0.25:
            choice = F(0)
        elif rng.random() < 0.4:
            choice = ceiling
        else:
            choice = rng.choice(options)
        if choice > F(0):
            grades[s] = choice
    return FuzzyLanguage(plant.alphabet, grades)


def random_projection(rng: random.Random, alphabet: Alphabet) -> Projection:
    observable = {e for e in sorted(alphabet.events) if rng.random() < 0.6}
    return Projection(alphabet, frozenset(observable))


def random_supervisor(
    rng: random.Random,
    plant: FuzzyLanguage,
    pr: Projection,
    controllables,
    lattice,
):
    from fdes.observation import project_string

    observed = {project_string(pr, s) for s, _ in plant.items()}
    rows = {
        t: {e: rng.choice(lattice) for e in sorted(controllables)}
        for t in sorted(observed)
    }
    return make_supervisor(pr, controllables, rows)


def random_sites(rng: random.Random, alphabet: Alphabet):
    """Two (projection, controllables) pairs covering the controllable set."""
    ctrl1, ctrl2 = set(), set()
    for e in sorted(alphabet.controllable):
        bucket = rng.randint(0, 2)
        if bucket in (0, 2):
            ctrl1.add(e)
        if bucket in (1, 2):
            ctrl2.add(e)
    obs1 = {e for e in sorted(alphabet.events) if rng.random() < 0.6}
    obs2 = {e for e in sorted(alphabet.events) if rng.random() < 0.6}
    return (
        (Projection(alphabet, frozenset(obs1)), frozenset(ctrl1)),
        (Projection(alphabet, frozenset(obs2)), frozenset(ctrl2)),
    )
