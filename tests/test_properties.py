"""Randomized theorem and closure-law suites.

Every suite draws from a seeded generator, so failures replay exactly.
The acceptance module re-runs the same checks in one large sweep; here
they are split out so a failure names the broken law directly.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import theorems
from helpers import random_sites, random_sublanguage

INSTANCES = 80


def _instances(seed, **kwargs):
    rng = random.Random(seed)
    for _ in range(INSTANCES):
        yield rng, theorems.make_instance(rng, **kwargs)


def test_central_supervisor_theorem():
    for rng, (alphabet, lattice, plant, spec, pr) in _instances(101):
        theorems.check_central_theorem(rng, alphabet, lattice, plant, pr)
        theorems.check_central_round_trip(spec, plant, pr)


def test_synthesis_refuses_iff_a_check_fails():
    outcomes = set()
    for rng, (alphabet, _, plant, spec, pr) in _instances(118):
        sites = random_sites(rng, alphabet)
        outcomes.update(theorems.check_synthesis_refuses_iff_a_check_fails(spec, plant, pr, sites))
    assert outcomes == {
        None,
        "specification is not controllable",
        "specification is not observable",
        "specification is not co-observable",
    }


def test_infimal_co_is_formula_closed_loop():
    for rng, (_, _, plant, spec, pr) in _instances(112):
        theorems.check_infimal_co_is_formula_closed_loop(spec, plant, pr)


def test_decentralized_supervisor_theorem():
    for rng, (alphabet, lattice, plant, _, _) in _instances(102):
        theorems.check_decentralized_theorem(rng, alphabet, lattice, plant)


def test_identical_sites_reduce_to_central():
    for rng, (_, _, plant, spec, pr) in _instances(103):
        theorems.check_identical_sites_reduce_to_central(spec, plant, pr)


def test_observability_implementations_agree():
    for rng, (_, _, plant, spec, pr) in _instances(104):
        theorems.check_observability_implementations_agree(spec, plant, pr)


def test_intersection_closures():
    for rng, (_, lattice, plant, k1, pr) in _instances(105):
        k2 = random_sublanguage(rng, plant, lattice)
        theorems.check_intersection_closures(k1, k2, plant, pr)


def test_normal_union_closure():
    for rng, (_, lattice, plant, k1, pr) in _instances(106):
        k2 = random_sublanguage(rng, plant, lattice)
        theorems.check_normal_union_closure(k1, k2, plant, pr)


def test_normal_implies_observable():
    for rng, (_, _, plant, spec, pr) in _instances(107):
        theorems.check_normal_implies_observable(spec, plant, pr)


def test_controllable_observable_with_observable_controls_is_normal():
    hits = 0
    for rng, (_, _, plant, spec, pr) in _instances(108):
        theorems.check_observable_controllable_implies_normal_when_ec_observable(
            spec, plant, pr
        )
        # the certified closed loop always satisfies the hypothesis pair
        loop = theorems.check_central_theorem(
            rng, plant.alphabet, (theorems.F(0), theorems.F(1, 2), theorems.F(1)), plant, pr
        )
        if plant.alphabet.controllable <= pr.observable:
            theorems.check_observable_controllable_implies_normal_when_ec_observable(
                loop, plant, pr
            )
            hits += 1
    assert hits > 0


def test_normal_support_is_crisp_normal():
    for rng, (_, _, plant, spec, pr) in _instances(109):
        theorems.check_normal_support_is_crisp_normal(spec, plant, pr)


def test_lemma_consequences_on_observable_specs():
    for rng, (_, _, plant, spec, pr) in _instances(110):
        theorems.check_lemma_consequences(spec, plant, pr)


def test_crisp_degeneration_agreement():
    rng = random.Random(111)
    for _ in range(INSTANCES):
        theorems.check_crisp_degeneration(rng)


def test_alpha_cut_decomposition():
    for rng, (alphabet, lattice, plant, spec, pr) in _instances(117):
        sites = random_sites(rng, alphabet)
        theorems.check_alpha_cut_decomposition(lattice, plant, spec, pr, sites)


def test_trusted_results_revalidate():
    for rng, (alphabet, lattice, plant, spec, pr) in _instances(119):
        sites = random_sites(rng, alphabet)
        theorems.check_trusted_results_revalidate(rng, lattice, plant, spec, pr, sites)


_DRAW_DIGEST = """
import hashlib, random
import helpers

rng = random.Random(5)
digest = hashlib.sha256()
for i in range(50):
    alphabet = helpers.random_alphabet(rng, controllable_within_observable=i % 2 == 1)
    lattice = helpers.random_lattice(rng)
    plant = helpers.random_plant(rng, alphabet, lattice)
    pr = helpers.random_projection(rng, alphabet)
    sites = helpers.random_sites(rng, alphabet)
    supervisor = helpers.random_supervisor(rng, plant, pr, alphabet.controllable, lattice)
    digest.update(repr((
        sorted(alphabet.controllable), sorted(alphabet.observable), list(plant.items()),
        sorted(pr.observable), [(sorted(p.observable), sorted(c)) for p, c in sites],
        sorted((t, sorted(row.items())) for t, row in supervisor.table.items()),
    )).encode())
print(digest.hexdigest())
"""


def test_random_draws_do_not_depend_on_the_string_hash():
    tests = Path(__file__).parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    digests = {
        subprocess.run(
            [sys.executable, "-c", _DRAW_DIGEST],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, encoding="utf-8", check=True, timeout=60,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(digests) == 1
