"""Property checkers with machine-readable failure witnesses.

Every checker returns a ``CheckReport``; a report that fails carries one
witness per violated equation, in deterministic (length, lexicographic)
order, so golden outputs are byte stable.

Controllability, observability and co-observability test one equation,
the closed loop's (``_equation``, also run by ``synthesis._sweep``): sa
gets min(spec(s), plant(sa)) met with the enable grade after s of each
view controlling a, with no view for controllability (on E_uc) and the
spec's class joins, one view or two, for the others (on E_c).  Grades
combine only by min and max, so these checks and normality split into
crisp ones: each holds iff it holds on every alpha-cut, the crisp
language {s : grade(s) >= alpha}.  Strong observability does not split.
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


def _equation(P: dict, grades: dict, views):
    """The closed-loop equation's rhs as (string, rank), in the support order
    of ``P``: plant(eps) for eps, and for sa, min(plant(sa), grades(s)) met
    with the enable rank after s of each view that controls a.  A view is
    (projection map covering supp(grades), controllable events, (observed,
    event) -> enable rank, absent meaning 0).  ``grades`` is read as the
    walk goes, so the closed loop can fill it from this."""
    for s, rank in P.items():
        if s:
            parent, event = s[:-1], s[-1]
            rank = min(rank, grades.get(parent, 0))
            if rank:
                for seen, controllable, joins in views:
                    if event in controllable:
                        rank = min(rank, joins.get((seen[parent], event), 0))
        yield s, rank


def _mismatches(S: dict, P: dict, views, events):
    """(s, a, spec(sa), rhs) for each sa in supp(plant) with a in ``events``
    where the spec's grade differs from the equation's rhs, in support order."""
    for sa, rhs in _equation(P, S, views):
        if sa and sa[-1] in events and S.get(sa, 0) != rhs:
            yield sa[:-1], sa[-1], S.get(sa, 0), rhs


def is_controllable(spec: FuzzyLanguage, plant: FuzzyLanguage) -> CheckReport:
    """Uncontrollable continuations cannot be trimmed below the plant.

    Requires spec(sa) = min(spec(s), plant(sa)) for every uncontrollable
    event a: the closed-loop equation with no view.  Strings outside
    supp(spec), and extensions the plant itself rules out, satisfy it
    automatically, so scanning supp(plant) is complete.
    """
    lattice, S, P = _require_spec_inside_plant(spec, plant)
    witnesses = [
        Witness(CONTROLLABILITY, (s,), event, lattice[lhs], lattice[rhs])
        for s, event, lhs, rhs in _mismatches(S, P, (), spec.alphabet.uncontrollable)
    ]
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
    member s' must then satisfy spec(s'a) = min(spec(s'), plant(s'a), x),
    the closed-loop equation with the class-join view.  The first
    violation per (class, event) is reported, in (class, event) order.
    """
    lattice, S, P, events, classes = _scan_setup(spec, plant, pr, controllables)
    seen, ctrl = _inverted(classes), frozenset(events)
    first: dict[tuple[EventString, EventId], Witness] = {}
    for s, event, lhs, rhs in _mismatches(S, P, [(seen, ctrl, class_joins(S, seen, ctrl))], ctrl):
        if (seen[s], event) not in first:
            members = tuple(classes[seen[s]])
            first[seen[s], event] = Witness(OBSERVABILITY, (s,), event, lattice[lhs], lattice[rhs], members)
    witnesses = [first[key] for key in ((t, e) for t in classes for e in events) if key in first]
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
    classes1, classes2 = projection_classes(pr1, S), projection_classes(pr2, S)
    seen1, seen2 = _inverted(classes1), _inverted(classes2)
    views = [(seen1, ctrl1, class_joins(S, seen1, ctrl1)), (seen2, ctrl2, class_joins(S, seen2, ctrl2))]
    first: dict[tuple[EventString, EventString, EventId], Witness] = {}
    for s, event, lhs, rhs in _mismatches(S, P, views, ctrl1 | ctrl2):
        t1, t2 = seen1[s], seen2[s]
        if (t1, t2, event) not in first:
            in1 = event in ctrl1
            kind = (COOBS_CASE1 if event in ctrl2 else COOBS_CASE2) if in1 else COOBS_CASE3
            members = tuple(classes1[t1] if in1 else classes2[t2])
            first[t1, t2, event] = Witness(kind, (s,), event, lattice[lhs], lattice[rhs], members)
    witnesses = list(first.values())
    return CheckReport.failed(witnesses) if witnesses else CheckReport.passed()
