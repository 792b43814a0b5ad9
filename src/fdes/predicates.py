"""Property checkers with machine-readable failure witnesses.

Every checker returns a ``CheckReport``; a report that fails carries one
witness per violated equation, in deterministic (length, lexicographic)
order, so golden outputs are byte stable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FdesError
from .events import Alphabet, EventId, EventString
from .grades import Grade
from .language import FuzzyLanguage, ranked
from .observation import Projection, class_joins, project_string, projection_classes

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


def _inverted(classes: dict[EventString, list[EventString]]) -> dict[EventString, EventString]:
    """String -> projection, from the projection -> members map of the classes."""
    return {s: observed for observed, members in classes.items() for s in members}


def _require_spec_inside_plant(spec: FuzzyLanguage, plant: FuzzyLanguage) -> tuple:
    """Check spec <= plant; return (lattice, spec, plant), both languages
    as string -> rank dicts (``language.ranked``) for the caller's loops."""
    if spec.alphabet != plant.alphabet:
        raise FdesError("ALPHABET_MISMATCH", "specification and plant use different alphabets")
    lattice, S, P = ranked(spec, plant)
    if any(r > P.get(s, 0) for s, r in S.items()):
        raise FdesError("NOT_SUBLANGUAGE", "specification is not contained in the plant language")
    return lattice, S, P


def _scan_setup(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection, controllables):
    """Checked inputs of a class scan: lattice, spec and plant ranks, the
    events to scan, sorted (E_c by default), and the classes of supp(spec)."""
    lattice, S, P = _require_spec_inside_plant(spec, plant)
    if controllables is None:
        controllables = spec.alphabet.controllable
    return lattice, S, P, sorted(controllables), projection_classes(pr, S)


def is_controllable(spec: FuzzyLanguage, plant: FuzzyLanguage) -> CheckReport:
    """Uncontrollable continuations cannot be trimmed below the plant.

    Requires spec(sa) = min(spec(s), plant(sa)) for every uncontrollable
    event a.  Strings outside supp(spec), and extensions the plant itself
    rules out, satisfy the equation automatically, so scanning the support
    against positive plant continuations is complete.
    """
    lattice, S, P = _require_spec_inside_plant(spec, plant)
    uncontrollable = sorted(spec.alphabet.uncontrollable)
    witnesses = []
    for s, g in S.items():
        for event in uncontrollable:
            extended = s + (event,)
            bound = P.get(extended, 0)
            if not bound:
                continue
            lhs = S.get(extended, 0)
            rhs = min(g, bound)
            if lhs != rhs:
                witnesses.append(
                    Witness(CONTROLLABILITY, (s,), event, lattice[lhs], lattice[rhs])
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
    lattice, S, P, events, classes = _scan_setup(spec, plant, pr, controllables)
    joins = class_joins(S, _inverted(classes), events)
    witnesses = []
    for observed, members in classes.items():
        for event in events:
            shared = joins.get((observed, event), 0)
            if not shared:
                continue
            for s in members:
                sa = s + (event,)
                lhs = S.get(sa, 0)
                rhs = min(S[s], P.get(sa, 0), shared)
                if lhs != rhs:
                    witnesses.append(
                        Witness(
                            OBSERVABILITY, (s,), event, lattice[lhs], lattice[rhs], tuple(members)
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
    lattice, S, P, events, classes = _scan_setup(spec, plant, pr, controllables)
    witnesses = []
    for _, members in classes.items():
        for event in events:
            eligible = (t for t in members if (t + (event,)) in P)
            s = next(eligible, None)
            if s is None:
                continue
            sa = s + (event,)
            tight_s = S.get(sa, 0) == min(S[s], P[sa])
            for s2 in eligible:
                s2a = s2 + (event,)
                tight_s2 = S.get(s2a, 0) == min(S[s2], P[s2a])
                if tight_s != tight_s2:
                    strict = s2 if tight_s else s
                    strict_a = strict + (event,)
                    lhs, rhs = S.get(strict_a, 0), min(S[strict], P[strict_a])
                    kind = STRONG_OBS_COND1
                elif S.get(sa, 0) != S.get(s2a, 0):
                    lhs, rhs, kind = S.get(sa, 0), S.get(s2a, 0), STRONG_OBS_COND2
                else:
                    continue
                witnesses.append(
                    Witness(kind, (s, s2), event, lattice[lhs], lattice[rhs], tuple(members))
                )
                break
    return CheckReport.failed(witnesses) if witnesses else CheckReport.passed()


def is_normal(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection) -> CheckReport:
    """The spec must be exactly recoverable from its projection and the plant.

    Compares spec against (inverse projection of its projection) meet plant,
    pointwise on supp(plant); the recovered language always dominates the
    spec, so each witness shows where recovery overshoots.
    """
    lattice, S, P = _require_spec_inside_plant(spec, plant)
    seen = {s: project_string(pr, s) for s in P}
    observed: dict[EventString, int] = {}
    for s, r in S.items():
        if r > observed.get(seen[s], 0):
            observed[seen[s]] = r
    witnesses = []
    for s, bound in P.items():
        lhs = S.get(s, 0)
        rhs = min(observed.get(seen[s], 0), bound)
        if lhs != rhs:
            witnesses.append(
                Witness(NORMALITY, (s,), None, lattice[lhs], lattice[rhs], (seen[s],))
            )
    return CheckReport.failed(witnesses) if witnesses else CheckReport.passed()


def _resolve_sites(alphabet: Alphabet, site1: Site | None, site2: Site | None) -> tuple[Site, Site]:
    if site1 is None and site2 is None:
        if alphabet.sites is None:
            raise FdesError("SITE_COVER_VIOLATION", "no sites given and alphabet declares none")
        site1, site2 = ((Projection(alphabet, s.observable), s.controllable) for s in alphabet.sites)
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
    lattice, S, P = _require_spec_inside_plant(spec, plant)
    (pr1, ctrl1), (pr2, ctrl2) = _resolve_sites(spec.alphabet, site1, site2)
    classes1 = projection_classes(pr1, S)
    classes2 = projection_classes(pr2, S)
    seen1, seen2 = _inverted(classes1), _inverted(classes2)
    joins1 = class_joins(S, seen1, ctrl1)
    joins2 = class_joins(S, seen2, ctrl2)
    events = sorted(ctrl1 | ctrl2)
    witnesses = []
    reported: set[tuple[EventString, EventString, EventId]] = set()
    for s, g in S.items():
        t1, t2 = seen1[s], seen2[s]
        for event in events:
            if (t1, t2, event) in reported:
                continue
            in1 = event in ctrl1
            in2 = event in ctrl2
            sa = s + (event,)
            rhs = min(g, P.get(sa, 0))
            if in1:
                rhs = min(rhs, joins1.get((t1, event), 0))
            if in2:
                rhs = min(rhs, joins2.get((t2, event), 0))
            lhs = S.get(sa, 0)
            if lhs != rhs:
                if in1 and in2:
                    kind, members = COOBS_CASE1, classes1[t1]
                elif in1:
                    kind, members = COOBS_CASE2, classes1[t1]
                else:
                    kind, members = COOBS_CASE3, classes2[t2]
                witnesses.append(
                    Witness(kind, (s,), event, lattice[lhs], lattice[rhs], tuple(members))
                )
                reported.add((t1, t2, event))
    return CheckReport.failed(witnesses) if witnesses else CheckReport.passed()
