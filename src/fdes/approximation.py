"""Extremal approximation languages and the supervisory control problem.

The pointwise-least controllable-and-observable superlanguage is computed
by one raising pass in length order, and the pointwise-greatest
controllable-and-normal sublanguage by monotone lowering sweeps.  Every
assigned value is a meet or join of grades already present in the
inputs, so iteration lives in the finite grade lattice of the instance
and terminates.  Both procedures are validated against exhaustive search
in the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FdesError
from .events import EPSILON, EventId, EventString
from .grades import ONE, ZERO, Grade, join, join_all, meet
from .language import FuzzyLanguage, is_sublanguage
from .observation import Projection, project_string, projection_classes
from .predicates import _require_spec_inside_plant
from .synthesis import FuzzySupervisor, synthesize_central


def grade_lattice(*languages: FuzzyLanguage) -> tuple[Grade, ...]:
    """All grades appearing in the inputs plus the bounds 0 and 1, sorted.

    A finite totally ordered set is automatically closed under min/max.
    """
    values = {ZERO, ONE}
    for language in languages:
        values.update(g for _, g in language.items())
    return tuple(sorted(values))


def infimal_co(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection) -> FuzzyLanguage:
    """Least controllable and observable superlanguage of the spec.

    Two repairs raise grades, both forced in any controllable-and-observable
    superlanguage: an uncontrollable continuation sa gets at least
    min(grade(s), plant(sa)), and a controllable one at least
    min(grade(s), plant(sa), x), with x the join of grade(ta) over the
    members t of s's projection class.

    No repair lifts x, since a repaired grade of ta is at most x itself.
    So x is the spec's own join, read once per (class, controllable
    event).  Each term of the repair is at least spec(sa), so the least
    grade of sa is the repair's value, which depends only on the final
    grade of s.  One pass over supp(plant) in (length, lexicographic)
    order reaches every prefix before its extensions and sets each
    string once, to its value in the least fixed point.  Strings outside
    supp(plant) stay at 0, so classes are keyed by the projection of each
    plant string.  The cost is O(|supp(plant)| + |supp(spec)|) dictionary
    operations.
    """
    _require_spec_inside_plant(spec, plant)
    if spec.is_empty:
        return spec
    controllable = spec.alphabet.controllable
    seen = {s: project_string(pr, s) for s in plant.support}
    joins: dict[tuple[EventString, EventId], Grade] = {}
    for s, g in spec.items():
        if s and s[-1] in controllable:
            key = (seen[s[:-1]], s[-1])
            joins[key] = join(joins.get(key, ZERO), g)
    current: dict[EventString, Grade] = {EPSILON: ONE}
    for s, bound in plant.items():
        if not s:
            continue
        parent, event = s[:-1], s[-1]
        target = meet(current.get(parent, ZERO), bound)
        if event in controllable:
            target = meet(target, joins.get((seen[parent], event), ZERO))
        if target > ZERO:
            current[s] = target
    return FuzzyLanguage(spec.alphabet, current)


def supremal_cn(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection) -> FuzzyLanguage:
    """Greatest controllable and normal sublanguage of the spec.

    Lowering sweeps from the spec, three repairs per sweep:

    * controllability, longest string first, so that a lowering reaches
      the prefixes it forces within the sweep: when
      min(grade(s), plant(sa)) > grade(sa) for an uncontrollable a,
      grade(s) is lowered to grade(sa), the largest value whose meet with
      plant(sa) stays within grade(sa);
    * normality, with one running join per class of supp(plant): when the
      join met with plant(s) exceeds grade(s), every class member above
      grade(s) is lowered to grade(s), so the join becomes exactly
      grade(s).  The join only falls, so a class takes at most |lattice|
      repairs per sweep;
    * prefix monotonicity, shortest string first.

    Each lowering is forced in any controllable-and-normal sublanguage, so
    the iterate stays above them all, and a sweep that changes nothing
    ends at the greatest one.  If the empty string's grade ever drops
    below 1 no valid non-empty sublanguage fits, and the result is the
    empty language.

    Strings only ever leave the iterate, so the string order is the
    spec's, read once.  A sweep costs O(|supp(plant)| * (|E| + |lattice|));
    every sweep but the last lowers some grade, which bounds their number
    by |supp(spec)| * |lattice|, though a few sweeps are typical.
    """
    _require_spec_inside_plant(spec, plant)
    if spec.is_empty:
        return spec
    alphabet = spec.alphabet
    uncontrollable = sorted(alphabet.uncontrollable)
    plant_classes = projection_classes(pr, plant.support)
    order = spec.support
    current: dict[EventString, Grade] = dict(spec.items())

    def lower(s: EventString, value: Grade) -> None:
        if value > ZERO:
            current[s] = value
        else:
            current.pop(s, None)

    changed = True
    while changed and current:
        changed = False
        for s in reversed(order):
            if s not in current:
                continue
            for event in uncontrollable:
                extended = s + (event,)
                have = current.get(extended, ZERO)
                if meet(current.get(s, ZERO), plant.grade(extended)) > have:
                    lower(s, have)
                    changed = True
        for members in plant_classes.values():
            class_join = join_all(current.get(t, ZERO) for t in members)
            for s in members:
                have = current.get(s, ZERO)
                if meet(class_join, plant.grade(s)) > have:
                    for t in members:
                        if current.get(t, ZERO) > have:
                            lower(t, have)
                    class_join = have
                    changed = True
        for s in order:
            if not s or s not in current:
                continue
            parent_grade = current.get(s[:-1], ZERO)
            if current[s] > parent_grade:
                lower(s, parent_grade)
                changed = True
        if current and current.get(EPSILON, ZERO) != ONE:
            current.clear()
            changed = False
    return FuzzyLanguage(alphabet, current)


@dataclass(frozen=True)
class ScpResult:
    """Outcome of the supervisory control problem between two bounds.

    ``infimal`` is the least controllable and observable superlanguage of
    the minimal acceptable behavior; a supervisor exists exactly when it
    stays within the maximal legal behavior.
    """

    solvable: bool
    supervisor: FuzzySupervisor | None
    infimal: FuzzyLanguage


def solve_scp(
    minimal: FuzzyLanguage,
    legal: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
) -> ScpResult:
    """Find a supervisor whose closed loop lies between the two bounds."""
    if minimal.is_empty:
        raise FdesError("EMPTY_MIN_SPEC", "minimal acceptable behavior must be non-empty")
    if minimal.alphabet != legal.alphabet or legal.alphabet != plant.alphabet:
        raise FdesError("ALPHABET_MISMATCH", "all three languages must share an alphabet")
    if not is_sublanguage(minimal, legal) or not is_sublanguage(legal, plant):
        raise FdesError(
            "PRECONDITION_CHAIN",
            "need minimal <= legal <= plant containments",
        )
    approx = infimal_co(minimal, plant, pr)
    if not is_sublanguage(approx, legal):
        return ScpResult(False, None, approx)
    return ScpResult(True, synthesize_central(approx, plant, pr), approx)
