"""Property checkers with machine-readable failure witnesses.

Every checker returns a ``CheckReport``; a report that fails carries one
witness per violated equation, in deterministic (length, lexicographic)
order, so golden outputs are byte stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FdesError
from .events import Alphabet, EventId, EventString
from .grades import ZERO, Grade, join_all, meet
from .language import FuzzyLanguage, is_sublanguage
from .observation import (
    Projection,
    inverse_project_meet,
    project_language,
    project_string,
    projection_classes,
)

CONTROLLABILITY = "CONTROLLABILITY"
OBSERVABILITY = "OBSERVABILITY"
STRONG_OBS_COND1 = "STRONG_OBS_COND1"
STRONG_OBS_COND2 = "STRONG_OBS_COND2"
NORMALITY = "NORMALITY"
COOBS_CASE1 = "COOBS_CASE1"
COOBS_CASE2 = "COOBS_CASE2"
COOBS_CASE3 = "COOBS_CASE3"

Site = tuple[Projection, frozenset]


@dataclass(frozen=True)
class Witness:
    """One violated equation: the offending strings, event, and both sides."""

    kind: str
    strings: tuple[EventString, ...]
    event: EventId | None = None
    lhs: Grade | None = None
    rhs: Grade | None = None
    projection_class: tuple[EventString, ...] = ()


@dataclass(frozen=True)
class CheckReport:
    holds: bool
    witnesses: tuple[Witness, ...] = ()

    def __post_init__(self):
        if self.holds != (not self.witnesses):
            raise ValueError("holds must match witness emptiness")

    @classmethod
    def passed(cls) -> "CheckReport":
        return cls(True, ())

    @classmethod
    def failed(cls, witnesses) -> "CheckReport":
        return cls(False, tuple(witnesses))


def _require_spec_inside_plant(spec: FuzzyLanguage, plant: FuzzyLanguage) -> None:
    if spec.alphabet != plant.alphabet:
        raise FdesError("ALPHABET_MISMATCH", "specification and plant use different alphabets")
    if not is_sublanguage(spec, plant):
        raise FdesError("NOT_SUBLANGUAGE", "specification is not contained in the plant language")


def is_controllable(spec: FuzzyLanguage, plant: FuzzyLanguage) -> CheckReport:
    """Uncontrollable continuations cannot be trimmed below the plant.

    Requires spec(sa) = min(spec(s), plant(sa)) for every uncontrollable
    event a.  Strings outside supp(spec), and extensions the plant itself
    rules out, satisfy the equation automatically, so scanning the support
    against positive plant continuations is complete.
    """
    _require_spec_inside_plant(spec, plant)
    uncontrollable = sorted(spec.alphabet.uncontrollable)
    witnesses = []
    for s, g in spec.items():
        for event in uncontrollable:
            extended = s + (event,)
            bound = plant.grade(extended)
            if bound == ZERO:
                continue
            lhs = spec.grade(extended)
            rhs = meet(g, bound)
            if lhs != rhs:
                witnesses.append(
                    Witness(CONTROLLABILITY, strings=(s,), event=event, lhs=lhs, rhs=rhs)
                )
    return CheckReport.failed(witnesses) if witnesses else CheckReport.passed()


def is_observable(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
    controllables: frozenset | None = None,
) -> CheckReport:
    """One shared enable degree per projection class must explain each grade.

    For each class C of supp(spec) and controllable event a, the only
    candidate that can work is x = max over t in C of spec(ta): every
    member s' must then satisfy spec(s'a) = min(spec(s'), plant(s'a), x).
    The first violation per (class, event) is reported.
    """
    _require_spec_inside_plant(spec, plant)
    if controllables is None:
        controllables = spec.alphabet.controllable
    classes = projection_classes(pr, (s for s, _ in spec.items()))
    witnesses = []
    for _, members in classes.items():
        for event in sorted(controllables):
            shared = join_all(spec.grade(t + (event,)) for t in members)
            if shared == ZERO:
                continue
            for s in members:
                lhs = spec.grade(s + (event,))
                rhs = meet(meet(spec.grade(s), plant.grade(s + (event,))), shared)
                if lhs != rhs:
                    witnesses.append(
                        Witness(
                            OBSERVABILITY,
                            strings=(s,),
                            event=event,
                            lhs=lhs,
                            rhs=rhs,
                            projection_class=tuple(members),
                        )
                    )
                    break
    return CheckReport.failed(witnesses) if witnesses else CheckReport.passed()


def is_strongly_observable(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
    controllables: frozenset | None = None,
) -> CheckReport:
    """Every admissible enable degree must work, forcing equal grades.

    For same-class s, s' and a controllable event a with both sa and s'a
    possible in the plant: (1) spec(sa) = min(spec(s), plant(sa)) holds
    for s iff it holds for s', and (2) spec(sa) = spec(s'a).  A COND1
    witness carries the strict side's equation; a COND2 witness carries
    the two unequal grades.

    Both conditions are equalities, so a class violates them iff some
    eligible member differs from the first one.  The scan compares that
    first member with each later one, O(|class|) per event, and reports
    the first that differs, which is the first violating pair in member
    order.
    """
    _require_spec_inside_plant(spec, plant)
    if controllables is None:
        controllables = spec.alphabet.controllable
    classes = projection_classes(pr, (s for s, _ in spec.items()))
    witnesses = []
    for _, members in classes.items():
        for event in sorted(controllables):
            eligible = (t for t in members if plant.grade(t + (event,)) != ZERO)
            s = next(eligible, None)
            if s is None:
                continue
            sa = s + (event,)
            tight_s = spec.grade(sa) == meet(spec.grade(s), plant.grade(sa))
            for s2 in eligible:
                s2a = s2 + (event,)
                tight_s2 = spec.grade(s2a) == meet(spec.grade(s2), plant.grade(s2a))
                if tight_s != tight_s2:
                    strict = s2 if tight_s else s
                    strict_a = strict + (event,)
                    witnesses.append(
                        Witness(
                            STRONG_OBS_COND1,
                            strings=(s, s2),
                            event=event,
                            lhs=spec.grade(strict_a),
                            rhs=meet(spec.grade(strict), plant.grade(strict_a)),
                            projection_class=tuple(members),
                        )
                    )
                    break
                if spec.grade(sa) != spec.grade(s2a):
                    witnesses.append(
                        Witness(
                            STRONG_OBS_COND2,
                            strings=(s, s2),
                            event=event,
                            lhs=spec.grade(sa),
                            rhs=spec.grade(s2a),
                            projection_class=tuple(members),
                        )
                    )
                    break
    return CheckReport.failed(witnesses) if witnesses else CheckReport.passed()


def is_normal(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection) -> CheckReport:
    """The spec must be exactly recoverable from its projection and the plant.

    Compares spec against (inverse projection of its projection) meet plant,
    pointwise on supp(plant); the recovered language always dominates the
    spec, so each witness shows where recovery overshoots.
    """
    _require_spec_inside_plant(spec, plant)
    recovered = inverse_project_meet(pr, project_language(pr, spec), plant)
    witnesses = []
    for s, _ in plant.items():
        lhs = spec.grade(s)
        rhs = recovered.grade(s)
        if lhs != rhs:
            witnesses.append(
                Witness(
                    NORMALITY,
                    strings=(s,),
                    lhs=lhs,
                    rhs=rhs,
                    projection_class=(project_string(pr, s),),
                )
            )
    return CheckReport.failed(witnesses) if witnesses else CheckReport.passed()


def _resolve_sites(alphabet: Alphabet, site1: Site | None, site2: Site | None) -> tuple[Site, Site]:
    if site1 is None and site2 is None:
        if alphabet.sites is None:
            raise FdesError("SITE_COVER_VIOLATION", "no sites given and alphabet declares none")
        s1, s2 = alphabet.sites
        site1 = (Projection(alphabet, s1.observable), s1.controllable)
        site2 = (Projection(alphabet, s2.observable), s2.controllable)
    if site1 is None or site2 is None:
        raise FdesError("SITE_COVER_VIOLATION", "exactly two sites are required")
    for pr, _ in (site1, site2):
        if pr.alphabet != alphabet:
            raise FdesError("ALPHABET_MISMATCH", "site projection uses a different alphabet")
    if frozenset(site1[1]) | frozenset(site2[1]) != alphabet.controllable:
        raise FdesError("SITE_COVER_VIOLATION", "site controllable sets do not cover E_c")
    return site1, site2


def is_coobservable(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    site1: Site | None = None,
    site2: Site | None = None,
) -> CheckReport:
    """Two-site analog of observability with case split by controlling site.

    For each support string s and controllable event a, the grade of sa
    must equal min(spec(s), plant(sa)) met with the class join of every
    site controlling a, where a site's class join is max spec(ta) over
    support strings t that the site cannot distinguish from s.  Witnesses
    carry the first site's class for cases 1 and 2, the second site's for
    case 3, and report the first violation per (class pair, event).
    """
    _require_spec_inside_plant(spec, plant)
    alphabet = spec.alphabet
    (pr1, ctrl1), (pr2, ctrl2) = _resolve_sites(alphabet, site1, site2)
    support = [s for s, _ in spec.items()]
    classes1 = projection_classes(pr1, support)
    classes2 = projection_classes(pr2, support)
    joins1: dict[tuple[EventString, EventId], Grade] = {}
    joins2: dict[tuple[EventString, EventId], Grade] = {}
    witnesses = []
    seen: set[tuple[EventString, EventString, EventId]] = set()
    for s in support:
        t1 = project_string(pr1, s)
        t2 = project_string(pr2, s)
        for event in sorted(ctrl1 | ctrl2):
            if (t1, t2, event) in seen:
                continue
            in1 = event in ctrl1
            in2 = event in ctrl2
            rhs = meet(spec.grade(s), plant.grade(s + (event,)))
            if in1:
                key = (t1, event)
                if key not in joins1:
                    joins1[key] = join_all(spec.grade(t + (event,)) for t in classes1[t1])
                rhs = meet(rhs, joins1[key])
            if in2:
                key = (t2, event)
                if key not in joins2:
                    joins2[key] = join_all(spec.grade(t + (event,)) for t in classes2[t2])
                rhs = meet(rhs, joins2[key])
            lhs = spec.grade(s + (event,))
            if lhs != rhs:
                if in1 and in2:
                    kind, members = COOBS_CASE1, classes1[t1]
                elif in1:
                    kind, members = COOBS_CASE2, classes1[t1]
                else:
                    kind, members = COOBS_CASE3, classes2[t2]
                witnesses.append(
                    Witness(
                        kind,
                        strings=(s,),
                        event=event,
                        lhs=lhs,
                        rhs=rhs,
                        projection_class=tuple(members),
                    )
                )
                seen.add((t1, t2, event))
    return CheckReport.failed(witnesses) if witnesses else CheckReport.passed()
