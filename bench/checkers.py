"""Independent linear-time checkers over plain grade tables.

A grade table is a dict from event tuples to ``Fraction`` grades holding
only positive grades.  Nothing here imports ``fdes``: each property is
re-derived from its defining equation so that the benchmark can check the
library's outputs without trusting the library.  Each checker returns the
list of violations it found; an empty list means the property holds.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def project(s: tuple, observable) -> tuple:
    return tuple(e for e in s if e in observable)


def valid(lang: dict) -> list:
    """Empty, or eps at 1 and no grade above its prefix's."""
    if not lang:
        return []
    bad = [((), "eps")] if lang.get(()) != ONE else []
    bad += [(s, "prefix") for s, g in lang.items() if s and g > lang.get(s[:-1], ZERO)]
    return bad


def below(a: dict, b: dict) -> list:
    """Strings where a exceeds b."""
    return [s for s, g in a.items() if g > b.get(s, ZERO)]


def _class_joins(lang: dict, observable, events) -> dict:
    """(observed string, event) -> max grade of the event continuations."""
    joins: dict = {}
    for s in lang:
        seen = project(s, observable)
        for event in events:
            g = lang.get(s + (event,), ZERO)
            if g > joins.get((seen, event), ZERO):
                joins[(seen, event)] = g
    return joins


def controllable(spec: dict, plant: dict, uncontrollable) -> list:
    """Violations of spec(su) = min(spec(s), plant(su)) for uncontrollable u."""
    bad = []
    for s, g in spec.items():
        for event in uncontrollable:
            bound = plant.get(s + (event,), ZERO)
            if bound and spec.get(s + (event,), ZERO) != min(g, bound):
                bad.append((s, event))
    return bad


def observable(spec: dict, plant: dict, seen_events, controllable_events) -> list:
    """Violations of spec(sa) = min(spec(s), plant(sa), class join of a)."""
    joins = _class_joins(spec, seen_events, controllable_events)
    bad = []
    for s, g in spec.items():
        seen = project(s, seen_events)
        for event in controllable_events:
            x = joins.get((seen, event), ZERO)
            if x and spec.get(s + (event,), ZERO) != min(g, plant.get(s + (event,), ZERO), x):
                bad.append((s, event))
    return bad


def strongly_observable(spec: dict, plant: dict, seen_events, controllable_events) -> list:
    """Classes and events where plant-possible continuations disagree.

    Pairwise, strong observability asks every two same-class strings with
    plant-possible a-continuations to agree on whether the continuation is
    tight and on its grade; that holds iff the pair (tight, grade) takes a
    single value over the class, which a single pass can check.
    """
    values: dict = {}
    for s, g in spec.items():
        seen = project(s, seen_events)
        for event in controllable_events:
            bound = plant.get(s + (event,), ZERO)
            if bound:
                grade = spec.get(s + (event,), ZERO)
                values.setdefault((seen, event), set()).add((grade == min(g, bound), grade))
    return sorted(key for key, found in values.items() if len(found) > 1)


def normal(spec: dict, plant: dict, seen_events) -> list:
    """Violations of spec(s) = min(plant(s), join of spec over P(s))."""
    joins: dict = {}
    for s, g in spec.items():
        seen = project(s, seen_events)
        if g > joins.get(seen, ZERO):
            joins[seen] = g
    return [
        s for s, g in plant.items()
        if spec.get(s, ZERO) != min(g, joins.get(project(s, seen_events), ZERO))
    ]


def coobservable(spec: dict, plant: dict, sites) -> list:
    """Two-site violations: each controlling site's class join is met in.

    ``sites`` is a sequence of (observable events, controllable events).
    """
    joins = [_class_joins(spec, seen, ctrl) for seen, ctrl in sites]
    events = sorted(set().union(*(ctrl for _, ctrl in sites)))
    bad = []
    for s, g in spec.items():
        for event in events:
            rhs = min(g, plant.get(s + (event,), ZERO))
            for (seen, ctrl), join in zip(sites, joins):
                if event in ctrl:
                    rhs = min(rhs, join.get((project(s, seen), event), ZERO))
            if spec.get(s + (event,), ZERO) != rhs:
                bad.append((s, event))
    return bad


def closed_loop(plant: dict, supervisors) -> dict:
    """Supervised plant: grade(sa) = min(grade(s), plant(sa), every enable).

    ``supervisors`` is a sequence of (observable events, controllable events,
    rows) where rows map an observed string to {event: enable grade}; events
    a supervisor may not control are enabled at 1.
    """
    result = {(): ONE} if plant else {}
    for s in sorted(plant, key=lambda t: (len(t), t)):
        if not s or s[:-1] not in result:
            continue
        parent, event = s[:-1], s[-1]
        grade = min(result[parent], plant[s])
        for seen, ctrl, rows in supervisors:
            if event in ctrl:
                grade = min(grade, rows[project(parent, seen)].get(event, ZERO))
        if grade > ZERO:
            result[s] = grade
    return result


def path_grade(transitions: dict, initial: str, s: tuple) -> Fraction:
    """Max over state paths along s of the min edge grade."""
    reach = {initial: ONE}
    for event in s:
        nxt: dict = {}
        for (p, a, q), g in transitions.items():
            if a == event and p in reach:
                nxt[q] = max(nxt.get(q, ZERO), min(reach[p], g))
        reach = nxt
        if not reach:
            return ZERO
    return max(reach.values())


def union(a: dict, b: dict) -> dict:
    out = dict(a)
    for s, g in b.items():
        out[s] = max(out.get(s, ZERO), g)
    return out


def intersection(a: dict, b: dict) -> dict:
    out = {s: min(g, b.get(s, ZERO)) for s, g in a.items()}
    return {s: g for s, g in out.items() if g}


def concatenation(a: dict, b: dict) -> dict:
    out: dict = {}
    for u, ga in a.items():
        for v, gb in b.items():
            out[u + v] = max(out.get(u + v, ZERO), min(ga, gb))
    return out


def projection(lang: dict, seen_events) -> dict:
    out: dict = {}
    for s, g in lang.items():
        t = project(s, seen_events)
        out[t] = max(out.get(t, ZERO), g)
    return out
