"""The integer-rank grade kernel: the encoder, and results decoded from it."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from fdes import (
    Alphabet,
    FuzzyLanguage,
    closed_loop_central,
    empty_language,
)
from fdes.grades import ONE, ZERO, meet
from fdes.language import Index, _codes
from fdes.observation import project_string
from fdes.predicates import (
    COOBS_CASE1,
    COOBS_CASE2,
    COOBS_CASE3,
    CONTROLLABILITY,
    NORMALITY,
    OBSERVABILITY,
    STRONG_OBS_COND1,
    STRONG_OBS_COND2,
    is_controllable,
    is_coobservable,
    is_normal,
    is_observable,
    is_strongly_observable,
)
from helpers import (
    random_alphabet,
    random_lattice,
    random_plant,
    random_projection,
    random_sites,
    random_sublanguage,
    random_supervisor,
)
from references import join_all


def copied(language: FuzzyLanguage) -> FuzzyLanguage:
    """The same language with every grade held in a fresh ``Fraction``."""
    return FuzzyLanguage(
        language.alphabet, {s: F(g.numerator, g.denominator) for s, g in language.items()}
    )


def test_equal_grades_in_distinct_objects_share_one_rank():
    alphabet = Alphabet({"a", "b"})
    half, other_half = F(1, 2), F(2, 4)
    assert half == other_half and half is not other_half
    left = FuzzyLanguage(alphabet, {(): ONE, ("a",): half})
    right = FuzzyLanguage(alphabet, {(): F(1), ("a",): F(1, 3), ("b",): other_half})
    assert left.grade(("a",)) is half and right.grade(("b",)) is other_half
    index = Index(right)
    assert index.strings == ((), ("a",), ("b",))
    lattice, R, L = index.ranked(left)
    assert lattice == (0, F(1, 3), F(1, 2), 1)
    assert L == [3, 2, 0]
    assert R == [3, 1, 2]


def test_lattice_is_bounded_and_sorted_and_decoding_inverts_encoding():
    rng = random.Random(5101)
    for _ in range(200):
        alphabet = random_alphabet(rng)
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice)
        spec = copied(random_sublanguage(rng, plant, lattice))
        index = Index(plant)
        values, P, S = index.ranked(spec)
        assert values[0] == 0 and values[-1] == 1
        assert list(values) == sorted(set(values))
        assert values == _codes((plant, spec))[0]
        for language, codes in ((plant, P), (spec, S)):
            assert len(codes) == len(index.strings)
            assert all(type(r) is int for r in codes)
            assert {s: values[r] for s, r in zip(index.strings, codes) if r} == dict(language.items())
            assert index.decode(values, codes) == language
    empty = Index(empty_language(Alphabet({"a"})))
    assert empty.ranked() == ((0, 1), [])
    assert empty.ranked({"a": F(1, 2), "b": ONE}) == ((0, F(1, 2), 1), [], {"a": 1, "b": 2})


def class_join(spec, pr, s, event):
    observed = project_string(pr, s)
    return join_all(
        spec.grade(t + (event,)) for t in spec.support if project_string(pr, t) == observed
    )


def recomputed_sides(witness, spec, plant, pr, sites):
    """Both sides of the equation the witness names, on the Fraction languages."""
    s, event = witness.strings[0], witness.event
    if witness.kind == NORMALITY:
        observed = join_all(
            spec.grade(t) for t in spec.support if project_string(pr, t) == project_string(pr, s)
        )
        return spec.grade(s), meet(observed, plant.grade(s))

    def tight(x):
        return meet(spec.grade(x), plant.grade(x + (event,)))

    if witness.kind == CONTROLLABILITY:
        return spec.grade(s + (event,)), tight(s)
    if witness.kind == OBSERVABILITY:
        return spec.grade(s + (event,)), meet(tight(s), class_join(spec, pr, s, event))
    if witness.kind == STRONG_OBS_COND1:
        (strict,) = [x for x in witness.strings if spec.grade(x + (event,)) != tight(x)]
        return spec.grade(strict + (event,)), tight(strict)
    if witness.kind == STRONG_OBS_COND2:
        return spec.grade(s + (event,)), spec.grade(witness.strings[1] + (event,))
    rhs = tight(s)
    for site_pr, controllables in sites:
        if event in controllables:
            rhs = meet(rhs, class_join(spec, site_pr, s, event))
    return spec.grade(s + (event,)), rhs


def test_witnesses_carry_the_fraction_sides_of_the_violated_equation():
    rng = random.Random(5102)
    kinds = set()
    for _ in range(400):
        alphabet = random_alphabet(rng)
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice)
        spec = copied(random_sublanguage(rng, plant, lattice))
        pr = random_projection(rng, alphabet)
        sites = random_sites(rng, alphabet)
        reports = (
            is_controllable(spec, plant),
            is_observable(spec, plant, pr),
            is_strongly_observable(spec, plant, pr),
            is_normal(spec, plant, pr),
            is_coobservable(spec, plant, *sites),
        )
        for report in reports:
            for witness in report.witnesses:
                kinds.add(witness.kind)
                assert type(witness.lhs) is F and type(witness.rhs) is F
                assert 0 <= witness.lhs <= 1 and 0 <= witness.rhs <= 1
                assert witness.lhs != witness.rhs
                assert (witness.lhs, witness.rhs) == recomputed_sides(
                    witness, spec, plant, pr, sites
                )
    assert kinds == {
        CONTROLLABILITY, OBSERVABILITY, STRONG_OBS_COND1, STRONG_OBS_COND2,
        NORMALITY, COOBS_CASE1, COOBS_CASE2, COOBS_CASE3,
    }


def test_closed_loop_takes_enable_grades_absent_from_the_plant():
    rng = random.Random(5103)
    novel = 0
    for _ in range(200):
        alphabet = random_alphabet(rng)
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice)
        pr = random_projection(rng, alphabet)
        midpoints = [(low + high) / 2 for low, high in zip(lattice, lattice[1:])]
        supervisor = random_supervisor(
            rng, plant, pr, alphabet.controllable, [ZERO, *midpoints, ONE]
        )
        expected = {(): ONE}
        for s, bound in plant.items():
            if s:
                parent, event = s[:-1], s[-1]
                enable = supervisor.enable_grade(project_string(pr, parent), event)
                grade = meet(meet(bound, expected.get(parent, ZERO)), enable)
                if grade > ZERO:
                    expected[s] = grade
        loop = closed_loop_central(plant, supervisor)
        assert dict(loop.items()) == expected
        assert all(type(g) is F for _, g in loop.items())
        novel += any(g not in lattice for _, g in loop.items())
    assert novel > 20


_SUPERVISOR_ERROR = """
from fdes import Alphabet, FdesError, make_supervisor, natural_projection

alphabet = Alphabet({"a", "b", "c", "d"}, controllable={"a"}, observable={"a", "b", "c", "d"})
try:
    make_supervisor(natural_projection(alphabet), {"a"}, {(): {"b": "0.5", "c": "0.5", "d": "0.5"}})
except FdesError as error:
    print(error.code, error)
"""


def test_supervisor_errors_do_not_depend_on_the_string_hash():
    path = str(Path(__file__).parent.parent / "src")
    messages = {
        subprocess.run(
            [sys.executable, "-c", _SUPERVISOR_ERROR],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, encoding="utf-8", check=True, timeout=60,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert messages == {
        "INVALID_SUPERVISOR row eps restricts 'b', which this supervisor may not control\n"
    }


# Rows are checked in table order, and a row's entries in sorted event order.
_SUPERVISOR_FAULTS = """
from fdes import Alphabet, FdesError, FuzzySupervisor, make_supervisor, natural_projection

alphabet = Alphabet({"a", "b", "c", "d"}, controllable={"a"}, observable={"a", "b", "c", "d"})
restricting = {("d",): {"d": "0.5", "c": "0.5", "a": "0.5"}, ("b",): {"b": "0.5"}}
unknown = {("c",): {"zz": 1, "a": 1, "x": 0}, ("b", "q"): {}, **restricting}
for build in (FuzzySupervisor, make_supervisor):
    for table in (restricting, unknown):
        try:
            build(natural_projection(alphabet), {"a"}, table)
        except FdesError as error:
            print(error.code, error)
"""


def test_the_first_supervisor_fault_does_not_depend_on_the_string_hash():
    path = str(Path(__file__).parent.parent / "src")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _SUPERVISOR_FAULTS],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, encoding="utf-8", check=True, timeout=60,
        ).stdout
        for hash_seed in ("0", "1", "2", "3")
    }
    restricted = "INVALID_SUPERVISOR row d restricts 'c', which this supervisor may not control\n"
    unknown = "UNKNOWN_EVENT supervisor row grades events outside the alphabet: x, zz\n"
    assert outputs == {2 * (restricted + unknown)}
