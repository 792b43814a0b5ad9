"""Property checkers with machine-readable failure witnesses.

Every checker returns a ``CheckReport``; a report that fails carries one
witness per violated equation, in deterministic (length, lexicographic)
order, so golden outputs are byte stable.

Controllability, observability and co-observability test one equation,
the closed loop's (``_equation``, also run by ``synthesis._sweep``): sa
gets min(spec(s), plant(sa)) met with the enable grade after s of each
view controlling a, with no view for controllability (on E_uc) and the
spec's class joins, one view or two (``_view``), for the others (on E_c).
Synthesis decides by the closed loop itself and runs these checks only
to explain a refusal.  Grades combine only by min and max, so these
checks and normality split into crisp ones: each holds iff it holds on
every alpha-cut, the crisp language {s : grade(s) >= alpha}.  Strong
observability does not split.

Each check reads the plant's index (``language.Index.of``), which
numbers supp(plant), ranks its grades and projects its classes
(``observation.projection_ids``) once per plant, and runs on rank lists
over its ids; strings are decoded only for witnesses.
A ``controllables`` argument must lie in the alphabet, like E_c itself.
"""

from __future__ import annotations

from operator import gt

from .errors import FdesError
from .events import Alphabet, EventId, EventString, Record, event_subset, site_cover, string_key
from .grades import Grade
from .language import FuzzyLanguage, Index
from .observation import Projection, class_joins, projection_ids

CONTROLLABILITY = "CONTROLLABILITY"
OBSERVABILITY = "OBSERVABILITY"
STRONG_OBS_COND1 = "STRONG_OBS_COND1"
STRONG_OBS_COND2 = "STRONG_OBS_COND2"
NORMALITY = "NORMALITY"
COOBS_CASE1 = "COOBS_CASE1"
COOBS_CASE2 = "COOBS_CASE2"
COOBS_CASE3 = "COOBS_CASE3"

Site = tuple[Projection, frozenset]


class Witness(Record):
    """One violated equation: the offending strings, event, and both sides."""

    __slots__ = ("kind", "strings", "event", "lhs", "rhs", "projection_class")

    def __init__(
        self,
        kind: str,
        strings: tuple[EventString, ...],
        event: EventId | None = None,
        lhs: Grade | None = None,
        rhs: Grade | None = None,
        projection_class: tuple[EventString, ...] = (),
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "strings", strings)
        object.__setattr__(self, "event", event)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "projection_class", projection_class)


class CheckReport(Record):
    __slots__ = ("holds", "witnesses")

    def __init__(self, holds: bool, witnesses: tuple[Witness, ...] = ()):
        if holds != (not witnesses):
            raise ValueError("holds must match witness emptiness")
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "witnesses", witnesses)

    @classmethod
    def of(cls, witnesses) -> "CheckReport":
        """The report of these witnesses: it holds iff there are none."""
        witnesses = tuple(witnesses)
        return cls(not witnesses, witnesses)


def _require_spec_inside_plant(spec: FuzzyLanguage, plant: FuzzyLanguage) -> tuple:
    """Check spec <= plant; return (lattice, index, S, P): the plant's
    ``language.Index``, and both languages as rank lists over its ids for
    the caller's loops.  ``Index.ranked`` refuses a spec over another
    alphabet."""
    index = Index.of(plant)
    lattice, P, S = index.ranked(spec)
    if S is None or any(map(gt, S, P)):
        raise FdesError("NOT_SUBLANGUAGE", "specification is not contained in the plant language")
    return lattice, index, S, P


def _controllables(alphabet: Alphabet, given) -> frozenset:
    given = alphabet.controllable if given is None else given
    return event_subset(given, alphabet.events, "controllable events not in alphabet")


def _view(index: Index, S: list, pr: Projection, controllables) -> tuple:
    """A site's formula-supervisor view for ``_equation``: (each id's class,
    the site's controllable events as a frozenset, E_c if None, the spec's
    class joins), and each class's observed string.  ``projection_ids``
    refuses a site projection over another alphabet than the plant's."""
    ctrl = _controllables(index.alphabet, controllables)
    proj, observed = projection_ids(index, pr)
    return (proj, ctrl, class_joins(index, S, proj, ctrl)), observed


def _members(index: Index, S: list, proj: tuple, classes) -> dict:
    """The supp(spec) members of each of the given classes, in support order."""
    members: dict[int, list] = {c: [] for c in classes}
    if members:
        for s, r, c in zip(index.strings, S, proj):
            if r and c in members:
                members[c].append(s)
    return {c: tuple(strings) for c, strings in members.items()}


def _equation(index: Index, P: list, grades: list, views):
    """The closed-loop equation's rhs as (id, rank), in support order, for
    each sa in supp(plant) but eps: min(plant(sa), grades(s)) met with the
    enable rank after s of each view that controls a.  A view is (each
    id's class, controllable events, (class, event) -> enable rank, absent
    meaning 0).  ``grades`` is a rank list over the ids, read as the walk
    goes, so the closed loop can fill it from this."""
    parent, event = index.parent, index.event
    for i in range(1, len(P)):
        p = parent[i]
        rank = min(P[i], grades[p])
        if rank:
            e = event[i]
            for proj, controllable, joins in views:
                if e in controllable:
                    rank = min(rank, joins.get((proj[p], e), 0))
        yield i, rank


def _mismatches(index: Index, S: list, P: list, views, events):
    """(id of sa, spec(sa), rhs) for each sa in supp(plant) with a in
    ``events`` where the spec's grade differs from the equation's rhs, in
    support order."""
    event = index.event
    for i, rhs in _equation(index, P, S, views):
        if S[i] != rhs and event[i] in events:
            yield i, S[i], rhs


def is_controllable(spec: FuzzyLanguage, plant: FuzzyLanguage) -> CheckReport:
    """Uncontrollable continuations cannot be trimmed below the plant.

    Requires spec(sa) = min(spec(s), plant(sa)) for every uncontrollable
    event a: the closed-loop equation with no view.  Strings outside
    supp(spec), and extensions the plant itself rules out, satisfy it
    automatically, so scanning supp(plant) is complete.
    """
    lattice, index, S, P = _require_spec_inside_plant(spec, plant)
    strings, parent, event = index.strings, index.parent, index.event
    witnesses = [
        Witness(CONTROLLABILITY, (strings[parent[i]],), event[i], lattice[lhs], lattice[rhs])
        for i, lhs, rhs in _mismatches(index, S, P, (), spec.alphabet.uncontrollable)
    ]
    return CheckReport.of(witnesses)


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
    violation per (class, event) is reported, in (class, event) order,
    classes ordered by their observed strings.
    """
    lattice, index, S, P = _require_spec_inside_plant(spec, plant)
    (proj, ctrl, joins), observed = _view(index, S, pr, controllables)
    parent, event = index.parent, index.event
    first: dict[tuple[int, EventId], tuple] = {}
    for i, lhs, rhs in _mismatches(index, S, P, [(proj, ctrl, joins)], ctrl):
        first.setdefault((proj[parent[i]], event[i]), (i, lhs, rhs))
    members = _members(index, S, proj, {c for c, _ in first})
    witnesses = [
        Witness(OBSERVABILITY, (index.strings[parent[i]],), e, lattice[lhs], lattice[rhs], members[c])
        for (c, e), (i, lhs, rhs) in sorted(
            first.items(), key=lambda w: (string_key(observed[w[0][0]]), w[0][1])
        )
    ]
    return CheckReport.of(witnesses)


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
    order.  The plant children s.a of one class and event ascend with s.
    """
    lattice, index, S, P = _require_spec_inside_plant(spec, plant)
    proj, observed = projection_ids(index, pr)
    ctrl = _controllables(spec.alphabet, controllables)
    strings, parent, event = index.strings, index.parent, index.event
    eligible: dict[tuple[int, EventId], list[int]] = {}
    for i in range(1, len(P)):
        if S[parent[i]] and event[i] in ctrl:
            eligible.setdefault((proj[parent[i]], event[i]), []).append(i)
    found = []
    for c, e in sorted(eligible, key=lambda key: (string_key(observed[key[0]]), key[1])):
        sa, *later = eligible[c, e]
        s = parent[sa]
        tight_s = S[sa] == min(S[s], P[sa])
        for s2a in later:
            s2 = parent[s2a]
            tight_s2 = S[s2a] == min(S[s2], P[s2a])
            if tight_s != tight_s2:
                strict, strict_a = (s2, s2a) if tight_s else (s, sa)
                lhs, rhs, kind = S[strict_a], min(S[strict], P[strict_a]), STRONG_OBS_COND1
            elif S[sa] != S[s2a]:
                lhs, rhs, kind = S[sa], S[s2a], STRONG_OBS_COND2
            else:
                continue
            found.append((c, (kind, (strings[s], strings[s2]), e, lattice[lhs], lattice[rhs])))
            break
    members = _members(index, S, proj, {c for c, _ in found})
    witnesses = [Witness(*fields, members[c]) for c, fields in found]
    return CheckReport.of(witnesses)


def is_normal(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection) -> CheckReport:
    """The spec must be exactly recoverable from its projection and the plant.

    Compares spec against (inverse projection of its projection) meet plant,
    pointwise on supp(plant); the recovered language always dominates the
    spec, so each witness shows where recovery overshoots.
    """
    lattice, index, S, P = _require_spec_inside_plant(spec, plant)
    proj, observed = projection_ids(index, pr)
    top = [0] * len(observed)
    for c, r in zip(proj, S):
        if r > top[c]:
            top[c] = r
    witnesses = []
    for s, c, lhs, bound in zip(index.strings, proj, S, P):
        rhs = min(top[c], bound)
        if lhs != rhs:
            witnesses.append(
                Witness(NORMALITY, (s,), None, lattice[lhs], lattice[rhs], (observed[c],))
            )
    return CheckReport.of(witnesses)


def _resolve_sites(alphabet: Alphabet, site1: Site | None, site2: Site | None) -> tuple[Site, Site]:
    if site1 is None and site2 is None:
        if alphabet.sites is None:
            raise FdesError("SITE_COVER_VIOLATION", "no sites given and alphabet declares none")
        site1, site2 = ((Projection(alphabet, s.observable), s.controllable) for s in alphabet.sites)
    if site1 is None or site2 is None:
        raise FdesError("SITE_COVER_VIOLATION", "exactly two sites are required")
    sites = []
    for i, (pr, ctrl) in enumerate((site1, site2), start=1):
        outside = f"site {i} controls events outside the controllable set"
        sites.append((pr, event_subset(ctrl, alphabet.controllable, outside, "SITE_COVER_VIOLATION")))
    site_cover(alphabet.controllable, [ctrl for _, ctrl in sites], "controllable", "E_c")
    return tuple(sites)


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
    lattice, index, S, P = _require_spec_inside_plant(spec, plant)
    views = [_view(index, S, pr, ctrl)[0] for pr, ctrl in _resolve_sites(spec.alphabet, site1, site2)]
    (proj1, ctrl1, _), (proj2, ctrl2, _) = views
    parent, event = index.parent, index.event
    first: dict[tuple[int, int, EventId], tuple] = {}
    for i, lhs, rhs in _mismatches(index, S, P, views, ctrl1 | ctrl2):
        first.setdefault((proj1[parent[i]], proj2[parent[i]], event[i]), (i, lhs, rhs))
    members1 = _members(index, S, proj1, {t1 for t1, _, e in first if e in ctrl1})
    members2 = _members(index, S, proj2, {t2 for _, t2, e in first if e not in ctrl1})
    witnesses = []
    for (t1, t2, e), (i, lhs, rhs) in first.items():
        in1 = e in ctrl1
        kind = (COOBS_CASE1 if e in ctrl2 else COOBS_CASE2) if in1 else COOBS_CASE3
        members = members1[t1] if in1 else members2[t2]
        witnesses.append(Witness(kind, (index.strings[parent[i]],), e, lattice[lhs], lattice[rhs], members))
    return CheckReport.of(witnesses)
