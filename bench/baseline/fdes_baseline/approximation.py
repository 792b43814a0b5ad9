"""Extremal approximation languages and the supervisory control problem.

The pointwise-least controllable-and-observable superlanguage and the
pointwise-greatest controllable-and-normal sublanguage are computed by
monotone fixed-point sweeps.  Every assigned value is a meet or join of
grades already present in the inputs, so iteration lives in the finite
grade lattice of the instance and terminates.  Both procedures are
validated against exhaustive search in the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FdesError
from .events import EPSILON, EventString
from .grades import ONE, ZERO, Grade, join_all, meet
from .language import FuzzyLanguage, is_sublanguage
from .observation import Projection, projection_classes
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

    Raising sweep from the spec: uncontrollable continuations are raised
    to min(grade(s), plant(sa)), then each projection class's members are
    raised to min(grade(s'), plant(s'a), x) with x the class join of the
    current grades of the a-continuations.  Both repairs are forced in any
    controllable-and-observable superlanguage, so the limit is a lower
    bound of them all; at the fixed point it is itself controllable and
    observable, hence the least one.
    """
    _require_spec_inside_plant(spec, plant)
    if spec.is_empty:
        return spec
    alphabet = spec.alphabet
    uncontrollable = sorted(alphabet.uncontrollable)
    controllable = sorted(alphabet.controllable)
    current: dict[EventString, Grade] = dict(spec.items())
    changed = True
    while changed:
        changed = False
        for s in sorted(current):
            base = current[s]
            for event in uncontrollable:
                extended = s + (event,)
                bound = plant.grade(extended)
                if bound == ZERO:
                    continue
                target = meet(base, bound)
                if current.get(extended, ZERO) < target:
                    current[extended] = target
                    changed = True
        classes = projection_classes(pr, list(current))
        for _, members in classes.items():
            for event in controllable:
                shared = join_all(current.get(t + (event,), ZERO) for t in members)
                if shared == ZERO:
                    continue
                for s in members:
                    extended = s + (event,)
                    target = meet(meet(current[s], plant.grade(extended)), shared)
                    if current.get(extended, ZERO) < target:
                        current[extended] = target
                        changed = True
    return FuzzyLanguage(alphabet, current)


def supremal_cn(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection) -> FuzzyLanguage:
    """Greatest controllable and normal sublanguage of the spec.

    Lowering sweep from the spec, three repairs per pass:

    * controllability: when min(grade(s), plant(sa)) > grade(sa) for an
      uncontrollable a, grade(s) is lowered to grade(sa), the largest
      value whose meet with plant(sa) stays within grade(sa);
    * normality: when the class join met with plant(s) exceeds grade(s),
      every class member above grade(s) is lowered to grade(s);
    * prefix monotonicity, re-imposed in length order.

    Each lowering is forced in any controllable-and-normal sublanguage, so
    the iterate stays above them all.  If the empty string's grade ever
    drops below 1 no valid non-empty sublanguage fits, and the result is
    the empty language.
    """
    _require_spec_inside_plant(spec, plant)
    if spec.is_empty:
        return spec
    alphabet = spec.alphabet
    uncontrollable = sorted(alphabet.uncontrollable)
    plant_classes = projection_classes(pr, (s for s, _ in plant.items()))
    current: dict[EventString, Grade] = dict(spec.items())

    def lower(s: EventString, value: Grade) -> None:
        if value > ZERO:
            current[s] = value
        else:
            current.pop(s, None)

    changed = True
    while changed and current:
        changed = False
        for s in sorted(current, key=lambda t: (len(t), t)):
            if s not in current:
                continue
            for event in uncontrollable:
                extended = s + (event,)
                have = current.get(extended, ZERO)
                if meet(current.get(s, ZERO), plant.grade(extended)) > have:
                    lower(s, have)
                    changed = True
        for _, members in plant_classes.items():
            for s in members:
                have = current.get(s, ZERO)
                class_join = join_all(current.get(t, ZERO) for t in members)
                if meet(class_join, plant.grade(s)) > have:
                    for t in members:
                        if current.get(t, ZERO) > have:
                            lower(t, have)
                            changed = True
        for s in sorted(current, key=lambda t: (len(t), t)):
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
