"""Single-instance theorem checks.

Each function asserts one theorem, proposition, or closure law on one
randomly generated instance.  The property suite runs them individually;
the acceptance suite sweeps them together over hundreds of instances.
"""

from __future__ import annotations

from fractions import Fraction as F

from fdes import (
    ConditionViolated,
    FuzzyLanguage,
    closed_loop_central,
    closed_loop_decentralized,
    empty_language,
    infimal_co,
    intersection,
    inverse_project_meet,
    is_controllable,
    is_coobservable,
    is_normal,
    is_observable,
    is_strongly_observable,
    is_sublanguage,
    natural_projection,
    project_language,
    solve_scp,
    supremal_cn,
    synthesize_central,
    synthesize_decentralized,
    union,
)
from fdes.grades import ONE, ZERO, meet
from fdes.observation import projection_classes

import helpers
from references import crisp_normal, crisp_reference, observable_pairwise, strongly_observable_direct


def make_instance(rng, max_events=4, max_support=12, max_lattice=5):
    alphabet = helpers.random_alphabet(rng, max_events=max_events)
    lattice = helpers.random_lattice(rng, max_values=max_lattice)
    plant = helpers.random_plant(rng, alphabet, lattice, max_support=max_support)
    spec = helpers.random_sublanguage(rng, plant, lattice)
    pr = helpers.random_projection(rng, alphabet)
    return alphabet, lattice, plant, spec, pr


def check_central_theorem(rng, alphabet, lattice, plant, pr):
    """Closed loops of arbitrary supervisors are controllable and
    observable; synthesis reproduces any such closed loop exactly."""
    supervisor = helpers.random_supervisor(rng, plant, pr, alphabet.controllable, lattice)
    loop = closed_loop_central(plant, supervisor)
    assert is_sublanguage(loop, plant)
    assert is_controllable(loop, plant).holds
    assert is_observable(loop, plant, pr).holds
    if not loop.is_empty:
        rebuilt = closed_loop_central(plant, synthesize_central(loop, plant, pr))
        assert loop == rebuilt
    return loop


def check_central_round_trip(spec, plant, pr):
    """Any controllable and observable non-empty spec is achieved exactly."""
    if spec.is_empty:
        return
    if is_controllable(spec, plant).holds and is_observable(spec, plant, pr).holds:
        achieved = closed_loop_central(plant, synthesize_central(spec, plant, pr))
        assert achieved == spec


def check_synthesis_refuses_iff_a_check_fails(spec, plant, pr, sites):
    """Checked synthesis decides by the closed loop of the formula
    supervisors; by the existence theorems it refuses exactly when
    controllability or (co-)observability fails, and the refusal carries
    the message and report of the first failing check.  Returns the two
    outcomes: the refusal message, or None."""
    if spec.is_empty:
        return []
    controllable = is_controllable(spec, plant)
    outcomes = []
    for synthesize, name, condition in (
        (lambda: synthesize_central(spec, plant, pr), "observable", is_observable(spec, plant, pr)),
        (
            lambda: synthesize_decentralized(spec, plant, *sites),
            "co-observable",
            is_coobservable(spec, plant, *sites),
        ),
    ):
        expected = None
        if not controllable.holds:
            expected = ("specification is not controllable", controllable)
        elif not condition.holds:
            expected = (f"specification is not {name}", condition)
        try:
            synthesize()
            refused = None
        except ConditionViolated as error:
            refused = (str(error), error.report)
        assert refused == expected
        outcomes.append(refused and refused[0])
    return outcomes


def check_infimal_co_is_formula_closed_loop(spec, plant, pr):
    """The least controllable and observable superlanguage of a non-empty
    spec is the closed loop of the spec's formula supervisor."""
    if spec.is_empty:
        return
    supervisor = synthesize_central(spec, plant, pr, force=True)
    assert infimal_co(spec, plant, pr) == closed_loop_central(plant, supervisor)


def check_decentralized_theorem(rng, alphabet, lattice, plant):
    """Joint closed loops are controllable and co-observable; decentralized
    synthesis reproduces them exactly."""
    site1, site2 = helpers.random_sites(rng, alphabet)
    s1 = helpers.random_supervisor(rng, plant, site1[0], site1[1], lattice)
    s2 = helpers.random_supervisor(rng, plant, site2[0], site2[1], lattice)
    loop = closed_loop_decentralized(plant, s1, s2)
    assert is_sublanguage(loop, plant)
    assert is_controllable(loop, plant).holds
    assert is_coobservable(loop, plant, site1, site2).holds
    if not loop.is_empty:
        t1, t2 = synthesize_decentralized(loop, plant, site1, site2)
        assert closed_loop_decentralized(plant, t1, t2) == loop


def check_identical_sites_reduce_to_central(spec, plant, pr):
    site = (pr, spec.alphabet.controllable)
    coobs = is_coobservable(spec, plant, site, site).holds
    obs = is_observable(spec, plant, pr).holds
    assert coobs == obs


def check_observability_implementations_agree(spec, plant, pr):
    """The class-based checkers match the literal definitional readings."""
    assert is_observable(spec, plant, pr).holds == observable_pairwise(spec, plant, pr)
    assert (
        is_strongly_observable(spec, plant, pr).holds
        == strongly_observable_direct(spec, plant, pr)
    )
    if is_strongly_observable(spec, plant, pr).holds:
        assert is_observable(spec, plant, pr).holds


def check_intersection_closures(k1, k2, plant, pr):
    both = intersection(k1, k2)
    if is_observable(k1, plant, pr).holds and is_observable(k2, plant, pr).holds:
        assert is_observable(both, plant, pr).holds
    if (
        is_strongly_observable(k1, plant, pr).holds
        and is_strongly_observable(k2, plant, pr).holds
    ):
        assert is_strongly_observable(both, plant, pr).holds
    if is_controllable(k1, plant).holds and is_controllable(k2, plant).holds:
        assert is_controllable(both, plant).holds
        assert is_controllable(union(k1, k2), plant).holds


def check_normal_union_closure(k1, k2, plant, pr):
    """Normal languages are closed under union; exercised both on the
    observation-consistent hulls (always normal) and, when the raw specs
    happen to be normal, on those too."""
    hull1 = inverse_project_meet(pr, project_language(pr, k1), plant)
    hull2 = inverse_project_meet(pr, project_language(pr, k2), plant)
    assert is_normal(hull1, plant, pr).holds
    assert is_normal(hull2, plant, pr).holds
    assert is_normal(union(hull1, hull2), plant, pr).holds
    if is_normal(k1, plant, pr).holds and is_normal(k2, plant, pr).holds:
        assert is_normal(union(k1, k2), plant, pr).holds


def check_normal_implies_observable(spec, plant, pr):
    if is_normal(spec, plant, pr).holds:
        # normality is independent of the controllable set, so observability
        # must follow even when every event is controllable
        assert is_observable(spec, plant, pr, controllables=plant.alphabet.events).holds
        assert is_observable(spec, plant, pr).holds


def check_observable_controllable_implies_normal_when_ec_observable(spec, plant, pr):
    """With every controllable event observable, controllability plus
    observability force normality."""
    if not spec.alphabet.controllable <= pr.observable:
        return
    if is_controllable(spec, plant).holds and is_observable(spec, plant, pr).holds:
        assert is_normal(spec, plant, pr).holds


def check_normal_support_is_crisp_normal(spec, plant, pr):
    if is_normal(spec, plant, pr).holds:
        assert crisp_normal(set(spec.support), set(plant.support), pr.observable)


def check_lemma_consequences(spec, plant, pr):
    """On observable specs, same-class strict continuations share one grade,
    and a tight continuation never exceeds a strict one."""
    if not is_observable(spec, plant, pr).holds:
        return
    classes = projection_classes(pr, (s for s, _ in spec.items()))
    for members in classes.values():
        for event in sorted(spec.alphabet.controllable):
            strict, tight = [], []
            for s in members:
                extended = s + (event,)
                grade = spec.grade(extended)
                ceiling = meet(spec.grade(s), plant.grade(extended))
                if grade < ceiling:
                    strict.append(grade)
                else:
                    tight.append(grade)
            for i, a in enumerate(strict):
                for b in strict[i + 1 :]:
                    assert a == b
                for b in tight:
                    assert b <= a


def check_crisp_degeneration(rng):
    """On {0,1}-valued instances every graded checker agrees with the
    classical set-based one."""
    crisp = (ZERO, F(1))
    alphabet = helpers.random_alphabet(rng, max_events=3)
    plant = helpers.random_plant(rng, alphabet, crisp, max_support=8, max_len=3)
    spec = helpers.random_sublanguage(rng, plant, crisp, allow_empty=False)
    pr = natural_projection(alphabet)
    site1, site2 = helpers.random_sites(rng, alphabet)
    assert crisp_reference("controllability", spec, plant) == is_controllable(spec, plant).holds
    assert crisp_reference("observability", spec, plant, pr) == is_observable(spec, plant, pr).holds
    assert crisp_reference("normality", spec, plant, pr) == is_normal(spec, plant, pr).holds
    assert (
        crisp_reference("coobservability", spec, plant, site1=site1, site2=site2)
        == is_coobservable(spec, plant, site1, site2).holds
    )


def alpha_cut(language, alpha):
    """The crisp language of grade 1 on {s : grade(s) >= alpha}."""
    return FuzzyLanguage(language.alphabet, {s: ONE for s, g in language.items() if g >= alpha})


def check_alpha_cut_decomposition(lattice, plant, spec, pr, sites):
    """Grades combine only by min and max, so the predicates split by
    alpha-cut: controllability, observability, normality and
    co-observability each hold iff the crisp reference holds on every cut,
    and each cut of infimal_co is the infimal_co of that level's cuts.
    supremal_cn is only bounded: each of its cuts lies inside the
    supremal_cn of the cuts.  Strong observability does not split (its
    COND1 is an equivalence between two equalities, which cuts do not
    preserve), so nothing is asserted for it."""
    site1, site2 = sites
    fuzzy = {
        "controllability": is_controllable(spec, plant).holds,
        "observability": is_observable(spec, plant, pr).holds,
        "normality": is_normal(spec, plant, pr).holds,
        "coobservability": is_coobservable(spec, plant, site1, site2).holds,
    }
    lower, upper = infimal_co(spec, plant, pr), supremal_cn(spec, plant, pr)
    cuts = [(a, alpha_cut(spec, a), alpha_cut(plant, a)) for a in lattice if a > ZERO]
    for kind, holds in fuzzy.items():
        assert holds == all(crisp_reference(kind, k, g, pr, site1, site2) for _, k, g in cuts), kind
    for a, spec_cut, plant_cut in cuts:
        assert alpha_cut(lower, a) == infimal_co(spec_cut, plant_cut, pr)
        assert set(alpha_cut(upper, a).support) <= set(supremal_cn(spec_cut, plant_cut, pr).support)


def _revalidated(language):
    """Rebuild a result through the validating constructor: it must be
    accepted, equal, and keep the same support order and hash."""
    rebuilt = FuzzyLanguage(language.alphabet, dict(language.items()))
    assert rebuilt == language
    assert rebuilt.support == language.support == tuple(s for s, _ in language.items())
    assert hash(rebuilt) == hash(language)
    return language


def check_trusted_results_revalidate(rng, lattice, plant, spec, pr, sites):
    """Results built without the constructor's checks (decoded fixed points,
    closed loops and SCP, pointwise min and max) are valid languages in
    support order: the constructor accepts each as it stands."""
    _revalidated(infimal_co(spec, plant, pr))
    _revalidated(supremal_cn(spec, plant, pr))
    supervisor = helpers.random_supervisor(rng, plant, pr, plant.alphabet.controllable, lattice)
    _revalidated(closed_loop_central(plant, supervisor))
    local = [helpers.random_supervisor(rng, plant, p, ctrl, lattice) for p, ctrl in sites]
    _revalidated(closed_loop_decentralized(plant, *local))
    legal = helpers.random_sublanguage(rng, plant, lattice)
    minimal = helpers.random_sublanguage(rng, legal, lattice)
    if not minimal.is_empty:
        _revalidated(solve_scp(minimal, legal, plant, pr).infimal)
    # Nested (spec and plant, a language and itself), overlapping (two
    # sublanguages), far apart (another plant) and empty operands, both ways.
    other = helpers.random_plant(rng, plant.alphabet, lattice)
    empty = empty_language(plant.alphabet)
    for a, b in [(spec, plant), (spec, spec), (spec, legal), (plant, other), (spec, empty), (empty, empty)]:
        for x, y in ((a, b), (b, a)):
            strings = {*x.support, *y.support}
            joined = _revalidated(union(x, y))
            assert dict(joined.items()) == {s: max(x.grade(s), y.grade(s)) for s in strings}
            met = _revalidated(intersection(x, y))
            assert dict(met.items()) == {
                s: min(x.grade(s), y.grade(s)) for s in strings if min(x.grade(s), y.grade(s))
            }
