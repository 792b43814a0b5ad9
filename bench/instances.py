"""Seeded instance generators for the four benchmark families.

Everything here is plain data (dicts of event tuples to ``Fraction``
grades, transition tables, site sets) drawn from ``random.Random(seed)``
so that the same seed rebuilds the same instances in any process.  The
generators never iterate a set without sorting it first, because string
hashing differs between interpreter runs.

The work of a pass is the same for every seed.  Each model family is
drawn once, from a fixed draw (``BASE_DRAW``), and the seed only relabels
its grades by an order-preserving map (``relabel``).  fdes compares grades
by order alone, so every seed takes the same steps on different grade
values, and the timing of one seed is comparable with that of another.
Drawing specs from the seed made the work of a pass vary between
seeds.  ``small-batch`` draws its desk instances from the seed:
they are too small for the draw to change the work of a pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

TENTHS = tuple(Fraction(k, 10) for k in range(1, 11))
ONE = Fraction(1)

# Family A: cyclic 6-state max-min automaton over a-e.
CYCLIC_EVENTS = ("a", "b", "c", "d", "e")
CYCLIC_CONTROLLABLE = ("a", "b", "c")
CYCLIC_OBSERVABLE = ("a", "b", "d")
CYCLIC_STATES = 6
CYCLIC_DENSITY = 0.45

# Family B: full ternary tree with one observable event.
TREE_EVENTS = ("a", "b", "c")
TREE_CONTROLLABLE = ("a", "b")
TREE_OBSERVABLE = ("a",)
TREE_DEPTH = 7

# Family C: two-site decomposition of a cyclic plant.
SITE_EVENTS = CYCLIC_EVENTS
SITE_CONTROLLABLE = ("a", "b", "c")
SITE_OBSERVABLE = ("a", "b", "d")
SITES = (
    {"controllable": ("a", "b"), "observable": ("a", "d")},
    {"controllable": ("b", "c"), "observable": ("b", "d")},
)

# (index, horizon) of each automaton family's transition structure, drawn
# from random.Random(f"{family}/structure/{index}").  Each is the first
# structure of its stream whose support size and sum of squared projection-
# class sizes fall in a band: cyclic-plant 10,430 strings and 503,324
# (band 350k-550k), two-site 3,322 strings and 37,262 (band 35k-55k).  The
# class squares were bounded because the quadratic class-join work varies
# tenfold between automata of the same support size.
STRUCTURE = {"cyclic-plant": (16, 8), "two-site": (650, 9)}

# The draw every model family is built from; the seed relabels its grades.
BASE_DRAW = 1
# What the seed may map 1/10..9/10 to: hundredths that do not reduce, so
# every relabelled grade renders as text of the same length.
HUNDREDTHS = tuple(Fraction(k, 100) for k in range(11, 100) if k % 2 and k % 5)

# Family D: desk-scale instances the brute-force oracles can certify.
DESK_INSTANCES = 30
DESK_MAX_SUPPORT = 6
DESK_GRADES = (Fraction(1, 2), Fraction(4, 5))


@dataclass(frozen=True)
class Automaton:
    """Plain transition table: (state, event, state) -> grade."""

    states: tuple[str, ...]
    initial: str
    transitions: dict
    horizon: int


@dataclass(frozen=True)
class Instance:
    """One seeded control problem as plain data."""

    name: str
    events: tuple[str, ...]
    controllable: tuple[str, ...]
    observable: tuple[str, ...]
    plant: dict
    spec: dict
    automaton: Automaton | None = None
    sites: tuple | None = None
    supervisors: tuple = ()


def project(s: tuple, observable) -> tuple:
    return tuple(e for e in s if e in observable)


def _random_structure(rng: random.Random, events, states: int, density: float) -> list:
    """Transitions (p, event, q) without grades."""
    names = [f"q{i}" for i in range(states)]
    out = set()
    for p in names:
        for event in events:
            if rng.random() < density:
                out.add((p, event, rng.choice(names)))
                if rng.random() < 0.2:
                    out.add((p, event, rng.choice(names)))
    return sorted(out)


def _graded(rng: random.Random, structure) -> dict:
    return {t: rng.choice(TENTHS[2:]) for t in structure}


def grade_map(seed: int) -> dict:
    """A strictly increasing map of 1/10..9/10 into ``HUNDREDTHS``, drawn
    from the seed; 1 stays 1."""
    rng = random.Random(f"grades/{seed}")
    mapping = dict(zip(TENTHS[:-1], sorted(rng.sample(HUNDREDTHS, len(TENTHS) - 1))))
    mapping[ONE] = ONE
    return mapping


def relabel(inst: "Instance", seed: int) -> "Instance":
    """The instance with every grade sent through ``grade_map(seed)``.

    The map keeps the order of grades and commutes with min and max, so the
    relabelled plant is still the automaton's generated language, and every
    fixed point, verdict and witness is the relabelled one.
    """
    mapping = grade_map(seed)

    def graded(table: dict) -> dict:
        return {key: mapping[g] for key, g in table.items()}

    aut = inst.automaton and replace(inst.automaton, transitions=graded(inst.automaton.transitions))
    supervisors = tuple({seen: graded(row) for seen, row in rows.items()} for rows in inst.supervisors)
    return replace(inst, plant=graded(inst.plant), spec=graded(inst.spec), automaton=aut,
                   supervisors=supervisors)


def _seeded_plant(rng: random.Random, family: str, events):
    structure = _random_structure(random.Random(f"{family}/structure/{STRUCTURE[family][0]}"),
                                  events, CYCLIC_STATES, CYCLIC_DENSITY)
    states = tuple(f"q{i}" for i in range(CYCLIC_STATES))
    aut = Automaton(states, "q0", _graded(rng, structure), STRUCTURE[family][1])
    return aut, maxmin_language(aut, events)


def maxmin_language(aut: Automaton, events) -> dict:
    """Generated language by direct max-min evaluation, breadth first."""
    step: dict = {}
    for (p, a, q), g in aut.transitions.items():
        step.setdefault((p, a), []).append((q, g))
    grades = {(): ONE}
    frontier = {(): {aut.initial: ONE}}
    for _ in range(aut.horizon):
        nxt = {}
        for w, vec in frontier.items():
            for event in events:
                reach: dict = {}
                for p, g0 in vec.items():
                    for q, g in step.get((p, event), ()):
                        v = min(g0, g)
                        if v > reach.get(q, 0):
                            reach[q] = v
                if reach:
                    grades[w + (event,)] = max(reach.values())
                    nxt[w + (event,)] = reach
        frontier = nxt
    return grades


def capped_spec(
    rng: random.Random,
    plant: dict,
    controllable,
    observable,
    trim_hidden: float,
    trim_seen: float,
    cap_drop: float,
) -> dict:
    """A spec with non-trivial approximations on both sides.

    Each observed string gets a cap that may drop only after an observable
    controllable event, so the capped plant stays controllable, observable
    and normal.  Trims then lower whole subtrees below a controllable
    event: often below an unobservable one (breaking observability and
    normality inside a projection class), sparsely below an observable one.
    Trims start only after an observable controllable event has occurred
    and keep a positive grade.  The supremal sublanguage's lowering then
    never reaches the empty string's projection class, so it does not
    collapse to the empty language as it does for uniformly random specs.
    """
    controllable = frozenset(controllable)
    observable = frozenset(observable)
    anchors = controllable & observable
    cap = {(): ONE}
    ceiling = {(): ONE}
    spec = {}
    for s in sorted(plant, key=lambda t: (len(t), t)):
        if not s:
            spec[s] = ONE
            continue
        event = s[-1]
        parent_seen = project(s[:-1], observable)
        seen = project(s, observable)
        if seen not in cap:
            cap[seen] = cap[parent_seen]
            if event in controllable and len(seen) == 1:
                # Always drop below the first string of each one-event
                # observation, so the capped plant (a controllable and
                # observable language above the spec) lies strictly below
                # the plant, and so does the infimal superlanguage.
                cap[seen] = min(cap[seen], rng.choice(TENTHS[3:9]), plant[s] - TENTHS[0])
            elif event in controllable and rng.random() < cap_drop:
                cap[seen] = min(cap[seen], rng.choice(TENTHS[3:9]))
        limit = ceiling[s[:-1]]
        if event in controllable and any(e in anchors for e in seen):
            rate = trim_seen if event in observable else trim_hidden
            if rng.random() < rate:
                limit = min(limit, rng.choice(TENTHS[1:6]))
        ceiling[s] = limit
        spec[s] = min(plant[s], cap[seen], limit)
    return spec


def cyclic_plant(seed: int) -> Instance:
    return relabel(cyclic_plant_draw(BASE_DRAW), seed)


def cyclic_plant_draw(draw: int) -> Instance:
    rng = random.Random(f"cyclic-plant/{draw}")
    aut, plant = _seeded_plant(rng, "cyclic-plant", CYCLIC_EVENTS)
    spec = capped_spec(
        rng, plant, CYCLIC_CONTROLLABLE, CYCLIC_OBSERVABLE,
        trim_hidden=0.05, trim_seen=0.01, cap_drop=0.2,
    )
    supervisor = random_rows(rng, plant, CYCLIC_OBSERVABLE, CYCLIC_CONTROLLABLE, keep=0.85)
    return Instance(
        "cyclic-plant", CYCLIC_EVENTS, CYCLIC_CONTROLLABLE, CYCLIC_OBSERVABLE,
        plant, spec, automaton=aut, supervisors=(supervisor,),
    )


def blind_tree(seed: int) -> Instance:
    return relabel(blind_tree_draw(BASE_DRAW), seed)


def blind_tree_draw(draw: int) -> Instance:
    rng = random.Random(f"blind-tree/{draw}")
    plant = {(): ONE}
    layer = [()]
    for _ in range(TREE_DEPTH):
        nxt = []
        for s in layer:
            for event in TREE_EVENTS:
                g = plant[s] if rng.random() < 0.7 else min(plant[s], rng.choice(TENTHS[4:]))
                plant[s + (event,)] = g
                nxt.append(s + (event,))
        layer = nxt
    spec = capped_spec(
        rng, plant, TREE_CONTROLLABLE, TREE_OBSERVABLE,
        trim_hidden=0.01, trim_seen=0.01, cap_drop=0.3,
    )
    supervisor = random_rows(random.Random(f"blind-tree/rows/{draw}"), plant,
                             TREE_OBSERVABLE, TREE_CONTROLLABLE, keep=0.85)
    return Instance(
        "blind-tree", TREE_EVENTS, TREE_CONTROLLABLE, TREE_OBSERVABLE, plant, spec,
        supervisors=(supervisor,),
    )


def random_rows(rng: random.Random, plant: dict, observable, controllable, keep: float) -> dict:
    """Sparse supervisor rows over every observation of the plant.

    Each controllable event is enabled at 1 with probability ``keep`` and
    otherwise at a random grade in 0.2..0.6, below most plant grades.
    """
    observable = frozenset(observable)
    rows = {}
    for observed in sorted({project(s, observable) for s in plant}, key=lambda t: (len(t), t)):
        rows[observed] = {
            event: ONE if rng.random() < keep else rng.choice(TENTHS[1:6])
            for event in controllable
        }
    return rows


def two_site(seed: int) -> Instance:
    return relabel(two_site_draw(BASE_DRAW), seed)


def two_site_draw(draw: int) -> Instance:
    rng = random.Random(f"two-site/{draw}")
    aut, plant = _seeded_plant(rng, "two-site", SITE_EVENTS)
    spec = capped_spec(
        rng, plant, SITE_CONTROLLABLE, SITE_OBSERVABLE,
        trim_hidden=0.02, trim_seen=0.005, cap_drop=0.2,
    )
    supervisors = tuple(
        random_rows(rng, plant, site["observable"], site["controllable"], keep=0.8)
        for site in SITES
    )
    return Instance(
        "two-site", SITE_EVENTS, SITE_CONTROLLABLE, SITE_OBSERVABLE, plant, spec,
        automaton=aut, sites=SITES, supervisors=supervisors,
    )


def _desk_instance(rng: random.Random, index: int) -> Instance:
    events = ("a", "b", "c")
    controllable = tuple(e for e in events if rng.random() < 0.6) or ("a",)
    observable = tuple(e for e in events if rng.random() < 0.6) or ("b",)
    grades = (ONE,) + DESK_GRADES
    plant = {(): ONE}
    frontier = [()]
    while frontier and len(plant) < DESK_MAX_SUPPORT:
        s = frontier.pop(0)
        for event in events:
            if len(plant) < DESK_MAX_SUPPORT and rng.random() < 0.5:
                plant[s + (event,)] = min(plant[s], rng.choice(grades))
                frontier.append(s + (event,))
    spec = {(): ONE}
    for s in sorted(plant, key=lambda t: (len(t), t))[1:]:
        if s[:-1] in spec and rng.random() < 0.8:
            spec[s] = min(spec[s[:-1]], plant[s], rng.choice(grades))
    split = [e for e in controllable]
    sites = (
        {"controllable": tuple(split[: len(split) // 2 + 1]), "observable": observable[:1]},
        {"controllable": tuple(split[len(split) // 2:]), "observable": observable[1:] or observable},
    )
    transitions = _graded(rng, _random_structure(rng, events, 2, 0.5)) or {("q0", "a", "q0"): ONE}
    aut = Automaton(("q0", "q1"), "q0", transitions, 3)
    return Instance(
        f"desk{index:02d}", events, controllable, observable, plant, spec,
        automaton=aut, sites=sites,
    )


def desk_batch(seed: int) -> list[Instance]:
    rng = random.Random(f"small-batch/{seed}")
    return [_desk_instance(rng, i) for i in range(DESK_INSTANCES)]
