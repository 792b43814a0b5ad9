"""The integer-rank grade kernel: the encoder, the index kept on each
plant, and results decoded from it."""

import gc
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

from fdes import (
    Alphabet,
    FdesError,
    FuzzyLanguage,
    Projection,
    closed_loop_central,
    closed_loop_decentralized,
    empty_language,
    infimal_co,
    solve_scp,
    supremal_cn,
    synthesize_central,
    synthesize_decentralized,
)
from fdes.grades import ONE, ZERO, meet
from fdes.language import Index, _codes
from fdes.observation import project_string, projection_ids
from fdes.oracle import brute_infimal_co, brute_supremal_cn
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
    _equation,
    _view,
)
from fdes.synthesis import _sweep
from helpers import (
    random_alphabet,
    random_lattice,
    random_plant,
    random_projection,
    random_sites,
    random_sublanguage,
    random_supervisor,
)
from references import equation_pairs, join_all
from theorems import make_instance


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


def outcome(call):
    """The call's result, or its error's code, message and report."""
    try:
        return call()
    except FdesError as error:
        return error.code, str(error), getattr(error, "report", None)


def brute_budget(spec, plant, universe) -> int:
    """k ** u for the lattice of the plant and the spec, so a brute search
    over that lattice runs and one over any wider lattice is refused;
    past ``BRUTE_LIMIT`` candidates, one less, so both sides are refused
    without a search."""
    count = len(_codes((plant, spec))[0]) ** len(universe.support)
    return count if count <= BRUTE_LIMIT else count - 1


BRUTE_LIMIT = 300


def test_every_call_on_an_indexed_plant_matches_a_fresh_plant():
    rng = random.Random(5104)
    remapped = searched = 0
    for _ in range(300):
        alphabet = random_alphabet(rng)
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice)
        pr = random_projection(rng, alphabet)
        sites = random_sites(rng, alphabet)
        # Midpoints give the fine spec and the supervisors grades the plant lacks.
        finer = sorted({*lattice, *((low + high) / 2 for low, high in zip(lattice, lattice[1:]))})
        spec = random_sublanguage(rng, plant, lattice)
        fine = random_sublanguage(rng, plant, finer)
        supervisor = random_supervisor(rng, plant, pr, alphabet.controllable, finer)
        pair = [random_supervisor(rng, plant, site_pr, ctrl, finer) for site_pr, ctrl in sites]
        inf_budget, sup_budget = brute_budget(spec, plant, plant), brute_budget(spec, plant, spec)
        searched += inf_budget <= BRUTE_LIMIT
        checks = [
            lambda p: is_controllable(spec, p),
            lambda p: is_observable(spec, p, pr),
            lambda p: is_strongly_observable(spec, p, pr),
            lambda p: is_normal(spec, p, pr),
            lambda p: is_coobservable(spec, p, *sites),
        ]
        calls = checks + [
            lambda p: infimal_co(fine, p, pr),
            lambda p: supremal_cn(fine, p, pr),
            lambda p: solve_scp(fine, p, p, pr),
            lambda p: synthesize_central(fine, p, pr),
            lambda p: synthesize_decentralized(spec, p, *sites, force=True),
            lambda p: closed_loop_central(p, supervisor),
            lambda p: closed_loop_decentralized(p, *pair),
            # The oracles' budgets count the lattice of this call alone.
            lambda p: brute_infimal_co(spec, p, pr, inf_budget),
            lambda p: brute_supremal_cn(spec, p, pr, sup_budget),
        ] + checks
        for call in calls:
            assert outcome(lambda: call(plant)) == outcome(lambda: call(copied(plant)))
        # A fine grade the plant lacks sent the calls on ``fine`` down the
        # remap path; the kept lattice, ranks and classes are the plant's own.
        own = {g for _, g in plant.items()}
        remapped += any(g not in own for _, g in fine.items())
        index = Index.of(plant)
        kept = _codes((plant,))[0]
        assert tuple(index.rank) == kept and list(index.rank.values()) == list(range(len(kept)))
        assert [kept[r] for r in index.ranks] == [g for _, g in plant.items()]
        assert index.classes[pr.observable] == projection_ids(Index(copied(plant)), pr)
        other = Alphabet(alphabet.events | {"zz"}, alphabet.controllable, alphabet.observable)
        foreign = Projection(other, pr.observable)
        assert outcome(lambda: is_observable(spec, plant, foreign))[:2] == (
            "ALPHABET_MISMATCH", "projection and plant use different alphabets"
        )
    assert remapped > 100 and searched > 30


def test_an_indexed_plant_is_freed_without_the_cycle_collector():
    rng = random.Random(5105)
    gc.collect()
    gc.disable()
    try:
        for _ in range(3):
            alphabet = random_alphabet(rng)
            lattice = random_lattice(rng)
            plant = random_plant(rng, alphabet, lattice)
            pr = random_projection(rng, alphabet)
            spec = random_sublanguage(rng, plant, lattice)
            assert is_normal(plant, plant, pr).holds
            assert infimal_co(plant, plant, pr) == plant
            is_controllable(spec, plant)
            assert Index.of(plant).classes and spec._ranked[0] is Index.of(plant)
            del plant, spec
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_a_language_ranked_alone_keeps_fresh_ranks_per_index():
    alphabet = Alphabet({"a", "b"})
    spec = FuzzyLanguage(alphabet, {(): ONE, ("a",): F(1, 2)})
    plant = FuzzyLanguage(alphabet, {(): ONE, ("a",): F(1, 2), ("b",): F(1, 3)})
    index = Index.of(plant)
    expected = ((0, F(1, 3), F(1, 2), 1), [3, 2, 1], [3, 2, 0])
    for _ in range(3):
        lattice, P, S = ranked = index.ranked(spec)
        assert ranked == expected and spec._ranked[0] is index
        # The next call's lists are fresh: these edits do not reach it.
        P[0], S[1] = 0, 3
        S.append(1)
    # A fresh index of an equal plant, then of a narrower one, gets its own ranks.
    other = Index.of(copied(plant))
    assert other.ranked(spec) == expected and spec._ranked[0] is other
    narrower = Index.of(spec)
    assert narrower.ranked(spec) == ((0, F(1, 2), 1), [2, 1], [2, 1])
    assert index.ranked(spec) == expected and spec._ranked[0] is index
    # A language outside supp(plant) keeps None, and each call refuses it.
    wide = FuzzyLanguage(alphabet, {(): ONE, ("b",): ONE})
    for _ in range(2):
        assert narrower.ranked(wide)[2] is None
        assert outcome(lambda: is_controllable(wide, spec))[0] == "NOT_SUBLANGUAGE"
    # A language over another alphabet is refused on every call.
    foreign = FuzzyLanguage(Alphabet({"a", "b", "c"}), {(): ONE, ("a",): F(1, 2)})
    for _ in range(2):
        assert outcome(lambda: index.ranked(foreign))[:2] == (
            "ALPHABET_MISMATCH", "operands use different alphabets"
        )
        assert outcome(lambda: is_controllable(foreign, plant))[0] == "ALPHABET_MISMATCH"
    assert foreign._ranked is None


def test_the_equation_loop_equals_the_generator_it_replaced():
    rng = random.Random(5106)
    moved = {"none": 0, "one view": 0, "two sites": 0}
    restricted = 0
    for _ in range(300):
        alphabet, _, plant, spec, pr = make_instance(rng)
        index = Index.of(plant)
        _, P, S = index.ranked(spec)
        sites = random_sites(rng, alphabet)
        for name, views in (
            ("none", []),
            ("one view", [_view(index, S, pr, alphabet.controllable)[0]]),
            ("two sites", [_view(index, S, site_pr, ctrl)[0] for site_pr, ctrl in sites]),
        ):
            expected = [0] * len(P)
            for i, rank in equation_pairs(index, P, S, views):
                expected[i] = rank
            out = [0] * len(P)
            assert _equation(index, P, S, views, out) is out and out == expected
            swept = P[:1] + [0] * (len(P) - 1)
            for i, rank in equation_pairs(index, P, swept, views):
                swept[i] = rank
            assert _sweep(index, P, views) == swept
            moved[name] += expected[1:] != P[1:]
            restricted += swept != P
    # Draws where the rhs falls below the plant, and closed loops that do;
    # with no view the closed loop is the plant itself.
    assert min(moved.values()) > 100 and restricted > 200, (moved, restricted)


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


# Every call hands the event-set gate several strays; the error names them sorted.
_STRAY_EVENTS = """
from fdes import (
    Alphabet, FdesError, FuzzyLanguage, FuzzySupervisor, Projection, natural_projection,
)
from fdes.fdl import parse_fdl

strays = {"zz", "m", "q", "x", "b2"}
alphabet = Alphabet({"a", "b"}, controllable={"a"}, observable={"a", "b"})
pr = natural_projection(alphabet)
plant = FuzzyLanguage(alphabet, {(): 1, ("a",): 1})
head = "[alphabet E]\\nevents a b\\ncontrollable a\\nobservable a b\\n\\n[sites S]\\nalphabet E\\n"
for call in (
    lambda: Alphabet({"a"}, controllable={"a"} | strays),
    lambda: Alphabet({"a"}, observable=strays),
    lambda: parse_fdl(head + "site 1 controllable a " + " ".join(strays) + "\\nsite 2 observable a b\\n"),
    lambda: parse_fdl(head + "site 1 controllable a\\nsite 1 observable a\\nsite 2 observable b "
                      + " ".join(strays) + "\\n"),
    lambda: Projection(alphabet, strays),
    lambda: FuzzySupervisor(pr, strays, {}),
    lambda: FuzzySupervisor(pr, {"a"}, {(): dict.fromkeys(strays | {"a"}, 1)}),
):
    try:
        call()
    except FdesError as error:
        print(error.code, error.message)
"""


def test_stray_events_are_named_alike_under_every_string_hash():
    path = str(Path(__file__).parent.parent / "src")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _STRAY_EVENTS],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, encoding="utf-8", check=True, timeout=60,
        ).stdout
        for hash_seed in ("0", "1", "2", "3")
    }
    names = "b2, m, q, x, zz"
    assert outputs == {"".join(line + f": {names}\n" for line in (
        "UNKNOWN_EVENT controllable events not in alphabet",
        "UNKNOWN_EVENT observable events not in alphabet",
        "SITE_COVER_VIOLATION site 1 controls events outside the controllable set",
        "SITE_COVER_VIOLATION site 2 observes events outside the observable set",
        "UNKNOWN_EVENT observable events not in alphabet",
        "UNKNOWN_EVENT supervisor controls events outside the alphabet",
        "UNKNOWN_EVENT supervisor row grades events outside the alphabet",
    ))}
