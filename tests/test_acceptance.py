"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every expected value is exact; tolerances are
never approximate because all arithmetic is rational.
"""

import functools
import random
import time
from fractions import Fraction as F
from pathlib import Path

import helpers
import theorems
from fdes import (
    FdesError,
    closed_loop_central,
    closed_loop_decentralized,
    infimal_co,
    is_controllable,
    is_coobservable,
    is_normal,
    is_observable,
    is_strongly_observable,
    is_sublanguage,
    natural_projection,
    solve_scp,
    supremal_cn,
    synthesize_central,
    synthesize_decentralized,
    union,
)
from fdes.fdl import parse_documents
from fdes.oracle import brute_infimal_co, brute_supervisor_exists, brute_supremal_cn
from helpers import central_example, lang, medical_example, observable_not_strong_example, union_example

DATA = Path(__file__).parent / "data"


def criterion(number, description, time_limit):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            start = time.monotonic()
            try:
                fn()
            except BaseException:
                print(f"criterion {number} [{description}]: FAIL", flush=True)
                raise
            elapsed = time.monotonic() - start
            if elapsed >= time_limit:
                print(
                    f"criterion {number} [{description}]: FAIL "
                    f"({elapsed:.2f}s over the {time_limit}s limit)",
                    flush=True,
                )
                raise AssertionError(f"criterion {number} exceeded {time_limit}s")
            print(f"criterion {number} [{description}]: PASS ({elapsed:.2f}s)", flush=True)

        return run

    return wrap


@criterion(1, "central synthesis golden values", 1.0)
def test_criterion_1_central_golden():
    doc = parse_documents(
        [
            ("central_plant.fdl", (DATA / "central_plant.fdl").read_text(encoding="utf-8")),
            ("central_spec.fdl", (DATA / "central_spec.fdl").read_text(encoding="utf-8")),
        ]
    )
    plant, spec = doc.languages["L"], doc.languages["K"]
    pr = natural_projection(plant.alphabet)
    assert is_controllable(spec, plant).holds
    assert is_observable(spec, plant, pr).holds
    supervisor = synthesize_central(spec, plant, pr)
    assert dict(supervisor.table) == {
        (): {"a": F(7, 10), "b": F(0), "c": F(0), "d": F(1)},
        ("a",): {"a": F(0), "b": F(0), "c": F(2, 5), "d": F(1)},
        ("a", "b"): {"a": F(0), "b": F(0), "c": F(0), "d": F(1)},
        ("a", "d"): {"a": F(0), "b": F(0), "c": F(0), "d": F(1)},
    }
    achieved = closed_loop_central(plant, supervisor)
    assert spec == achieved


@criterion(2, "observable but not strongly observable", 1.0)
def test_criterion_2_strong_observability_gap():
    _, plant = observable_not_strong_example()
    pr = natural_projection(plant.alphabet)
    assert is_observable(plant, plant, pr).holds
    report = is_strongly_observable(plant, plant, pr)
    assert not report.holds
    witness = report.witnesses[0]
    assert witness.strings == ((), ("a",))
    assert witness.event == "b"
    assert (witness.lhs, witness.rhs) == (F(9, 10), F(7, 10))


@criterion(3, "union breaks observability, component breaks normality", 1.0)
def test_criterion_3_union_instance():
    _, plant, k1, k2 = union_example()
    pr = natural_projection(plant.alphabet)
    assert is_strongly_observable(k1, plant, pr).holds
    assert is_strongly_observable(k2, plant, pr).holds
    assert not is_observable(union(k1, k2), plant, pr).holds
    assert not is_normal(k1, plant, pr).holds


@criterion(4, "decentralized synthesis golden values", 1.0)
def test_criterion_4_decentralized_golden():
    _, spec = medical_example()
    plant = spec
    assert is_controllable(spec, plant).holds
    assert is_coobservable(spec, plant).holds
    s1, s2 = synthesize_decentralized(spec, plant)
    key = ("a1", "a2", "b3")
    assert s1.table[()]["a1"] == F(9, 10)
    assert s1.table[("a1",)]["a2"] == F(4, 5)
    assert s1.table[key]["a1"] == F(1, 5)
    assert s2.table[key]["a1"] == F(1, 5)
    assert s1.table[key]["a2"] == F(0)
    assert s2.table[key]["a2"] == F(0)
    achieved = closed_loop_decentralized(plant, s1, s2)
    assert spec == achieved


@criterion(5, "theorem suites over 520 randomized instances", 60.0)
def test_criterion_5_theorem_suites():
    rng = random.Random(515151)
    for _ in range(520):
        alphabet, lattice, plant, spec, pr = theorems.make_instance(rng)
        other = helpers.random_sublanguage(rng, plant, lattice)
        theorems.check_central_theorem(rng, alphabet, lattice, plant, pr)
        theorems.check_central_round_trip(spec, plant, pr)
        theorems.check_infimal_co_is_formula_closed_loop(spec, plant, pr)
        theorems.check_decentralized_theorem(rng, alphabet, lattice, plant)
        theorems.check_identical_sites_reduce_to_central(spec, plant, pr)
        theorems.check_observability_implementations_agree(spec, plant, pr)
        theorems.check_intersection_closures(spec, other, plant, pr)
        theorems.check_normal_union_closure(spec, other, plant, pr)
        theorems.check_normal_implies_observable(spec, plant, pr)
        theorems.check_observable_controllable_implies_normal_when_ec_observable(
            spec, plant, pr
        )
        theorems.check_normal_support_is_crisp_normal(spec, plant, pr)
        theorems.check_lemma_consequences(spec, plant, pr)
        theorems.check_crisp_degeneration(rng)


@criterion(6, "fixed points match brute force; achievability matches the predicates", 120.0)
def test_criterion_6_oracle_equivalence():
    rng = random.Random(606060)
    checked = 0
    while checked < 100:
        alphabet = helpers.random_alphabet(rng, max_events=3)
        lattice = helpers.random_lattice(rng, max_values=4)
        plant = helpers.random_plant(rng, alphabet, lattice, max_support=6, max_len=3)
        spec = helpers.random_sublanguage(rng, plant, lattice)
        pr = helpers.random_projection(rng, alphabet)
        try:
            expected_lower = brute_infimal_co(spec, plant, pr)
            expected_upper = brute_supremal_cn(spec, plant, pr)
        except FdesError as err:
            assert err.code == "BUDGET_EXCEEDED"
            print(f"skipping one oracle instance: {err}")
            continue
        assert infimal_co(spec, plant, pr) == expected_lower
        assert supremal_cn(spec, plant, pr) == expected_upper
        checked += 1

    agreed = 0
    while agreed < 30:
        alphabet = helpers.random_alphabet(rng, max_events=2)
        lattice = helpers.random_lattice(rng, max_values=3)
        plant = helpers.random_plant(rng, alphabet, lattice, max_support=4, max_len=3)
        spec = helpers.random_sublanguage(rng, plant, lattice, allow_empty=False)
        pr = helpers.random_projection(rng, alphabet)
        predicted = (
            is_controllable(spec, plant).holds and is_observable(spec, plant, pr).holds
        )
        try:
            exists = brute_supervisor_exists(spec, plant, pr)
        except FdesError as err:
            assert err.code == "BUDGET_EXCEEDED"
            print(f"skipping one search instance: {err}")
            continue
        assert exists == predicted
        agreed += 1


@criterion(7, "two-bound control problem solvability", 60.0)
def test_criterion_7_scp():
    rng = random.Random(707070)
    checked = 0
    while checked < 100:
        alphabet = helpers.random_alphabet(rng, max_events=3)
        lattice = helpers.random_lattice(rng, max_values=4)
        plant = helpers.random_plant(rng, alphabet, lattice, max_support=8, max_len=3)
        legal = helpers.random_sublanguage(rng, plant, lattice, allow_empty=False)
        minimal = helpers.random_sublanguage(rng, legal, lattice, allow_empty=False)
        if minimal.is_empty:
            continue
        pr = helpers.random_projection(rng, alphabet)
        result = solve_scp(minimal, legal, plant, pr)
        assert result.solvable == is_sublanguage(infimal_co(minimal, plant, pr), legal)
        if result.solvable:
            loop = closed_loop_central(plant, result.supervisor)
            assert is_sublanguage(minimal, loop)
            assert is_sublanguage(loop, legal)
        checked += 1


@criterion(8, "derived extremal golden values confirmed by oracle", 5.0)
def test_criterion_8_derived_goldens():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    pinned_upper = lang(
        alphabet, {"eps": "1", "a": "0.4", "a.c": "0.4", "a.d": "0.4", "a.c.d": "0.4"}
    )
    assert brute_supremal_cn(spec, plant, pr) == pinned_upper
    assert supremal_cn(spec, plant, pr) == pinned_upper

    alphabet2, plant2, k1, k2 = union_example()
    pr2 = natural_projection(alphabet2)
    merged = union(k1, k2)
    pinned_lower = lang(alphabet2, {"eps": "1", "a": "0.8", "b": "0.7", "a.b": "0.7"})
    assert brute_infimal_co(merged, plant2, pr2) == pinned_lower
    assert infimal_co(merged, plant2, pr2) == pinned_lower
