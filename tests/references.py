"""Literal and set-based references for the property checks.

A pairwise reading of observability and strong observability, the
classical checkers on crisp (set) languages, a per-string unrolling
of a max-min automaton, a fold of grades by max, and an enumeration of
every language over a small universe and lattice.  They share no loop with ``fdes.predicates`` or
``fdes.automaton.generated_language``, so the tests can hold the graded
checks and the unrolling against them on desk-scale instances.

It also keeps the closed-loop equation as the generator it was before
``fdes.predicates._equation`` became one loop, ``supremal_cn`` as the
repeated sweeps it ran before its worklist, a line-by-line FDL
splitter: each section's body as its lines' numbers and comment-stripped
text, read from one split of the whole file, against which the parser's
span splitter is held, and the CLI's ``run_command`` as it ran before it
dispatched on its first argument: every argv through the top-level parser.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

from fdes.automaton import FuzzyAutomaton, _advance, _step_map
from fdes.cli import _build_parser, _witness_text
from fdes.errors import ConditionViolated, FdesError
from fdes.events import EPSILON, Alphabet, EventId, EventString, string_key
from fdes.fdl import _KINDS, _fail
from fdes.grades import ONE, ZERO, Grade, meet
from fdes.language import FuzzyLanguage, Index
from fdes.oracle import DEFAULT_BUDGET, _assignments, _check_budget
from fdes.observation import Projection, projection_classes, projection_ids
from fdes.predicates import Site, _require_spec_inside_plant, _resolve_sites


def _solution_interval(
    spec: FuzzyLanguage, plant: FuzzyLanguage, s: EventString, event: EventId
) -> tuple[Grade, bool]:
    """Solutions x of spec(sa) = min(spec(s), plant(sa), x), as an interval.

    Returns (low, open_top): the solution set is [low, 1] when the grade is
    tight against min(spec(s), plant(sa)), else exactly {low}.
    """
    extended = s + (event,)
    low = spec.grade(extended)
    tight = low == meet(spec.grade(s), plant.grade(extended))
    return low, tight


def observable_pairwise(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
    controllables: frozenset | None = None,
) -> bool:
    """Literal pairwise reading of observability.

    For each ordered same-class pair (s, s') and controllable event with
    spec(sa) positive, some enable degree solving s's equation must also
    solve s''s; with solution sets being points or up-closed intervals the
    existential reduces to an interval intersection test.
    """
    _require_spec_inside_plant(spec, plant)
    events = sorted(spec.alphabet.controllable if controllables is None else controllables)
    for members in projection_classes(pr, spec.support).values():
        for event in events:
            for s in members:
                if spec.grade(s + (event,)) == ZERO:
                    continue
                s_low, s_tight = _solution_interval(spec, plant, s, event)
                for s2 in members:
                    low2, tight2 = _solution_interval(spec, plant, s2, event)
                    if s_tight and tight2:
                        continue
                    if s_tight and not tight2 and low2 >= s_low:
                        continue
                    if tight2 and not s_tight and s_low >= low2:
                        continue
                    if not s_tight and not tight2 and s_low == low2:
                        continue
                    return False
    return True


def strongly_observable_direct(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
    controllables: frozenset | None = None,
) -> bool:
    """Literal reading of strong observability: every admissible x works.

    The solution set for s is {low} or [low, 1]; since the partner's
    equation is monotone in x it suffices to test the endpoint values.
    """
    _require_spec_inside_plant(spec, plant)
    events = sorted(spec.alphabet.controllable if controllables is None else controllables)
    for members in projection_classes(pr, spec.support).values():
        for event in events:
            for s in members:
                if spec.grade(s + (event,)) == ZERO:
                    continue
                s_low, s_tight = _solution_interval(spec, plant, s, event)
                candidates = (s_low, ONE) if s_tight else (s_low,)
                for s2 in members:
                    s2a = s2 + (event,)
                    for x in candidates:
                        rhs = meet(meet(spec.grade(s2), plant.grade(s2a)), x)
                        if spec.grade(s2a) != rhs:
                            return False
    return True


def _erase(s: EventString, observable: frozenset) -> EventString:
    return tuple(e for e in s if e in observable)


def crisp_controllable(spec_supp: set, plant_supp: set, uncontrollable: frozenset) -> bool:
    """Classical controllability on plain string sets."""
    return all(
        s + (e,) not in plant_supp or s + (e,) in spec_supp
        for s in spec_supp
        for e in uncontrollable
    )


def crisp_observable(
    spec_supp: set, plant_supp: set, observable: frozenset, controllable: frozenset
) -> bool:
    """Classical observability on plain string sets."""
    by_projection: dict[EventString, list[EventString]] = {}
    for s in spec_supp:
        by_projection.setdefault(_erase(s, observable), []).append(s)
    for members in by_projection.values():
        for e in controllable:
            if any(s + (e,) in spec_supp for s in members):
                for s2 in members:
                    if s2 + (e,) in plant_supp and s2 + (e,) not in spec_supp:
                        return False
    return True


def crisp_coobservable(
    spec_supp: set,
    plant_supp: set,
    obs1: frozenset,
    ctrl1: frozenset,
    obs2: frozenset,
    ctrl2: frozenset,
) -> bool:
    """Classical two-site co-observability on plain string sets."""
    class1: dict[EventString, list[EventString]] = {}
    class2: dict[EventString, list[EventString]] = {}
    for s in spec_supp:
        class1.setdefault(_erase(s, obs1), []).append(s)
        class2.setdefault(_erase(s, obs2), []).append(s)
    for s in spec_supp:
        for e in ctrl1 | ctrl2:
            extended = s + (e,)
            if extended not in plant_supp or extended in spec_supp:
                continue
            seen1 = any(t + (e,) in spec_supp for t in class1[_erase(s, obs1)])
            seen2 = any(t + (e,) in spec_supp for t in class2[_erase(s, obs2)])
            if e in ctrl1 and e in ctrl2:
                if seen1 and seen2:
                    return False
            elif e in ctrl1:
                if seen1:
                    return False
            else:
                if seen2:
                    return False
    return True


def crisp_normal(spec_supp: set, plant_supp: set, observable: frozenset) -> bool:
    """Classical normality: the spec equals the observation-consistent part
    of the plant."""
    projected = {_erase(s, observable) for s in spec_supp}
    recovered = {s for s in plant_supp if _erase(s, observable) in projected}
    return recovered == spec_supp


def crisp_reference(
    kind: str,
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection | None = None,
    site1: Site | None = None,
    site2: Site | None = None,
) -> bool:
    """Set-based verdict for {0,1}-valued languages, kept independent of the
    graded code paths."""
    for language in (spec, plant):
        if any(g != ONE for _, g in language.items()):
            raise FdesError("NOT_CRISP", "crisp reference needs {0,1}-valued languages")
    spec_supp = set(spec.support)
    plant_supp = set(plant.support)
    alphabet = spec.alphabet
    if kind == "controllability":
        return crisp_controllable(spec_supp, plant_supp, alphabet.uncontrollable)
    if kind == "observability":
        observable = pr.observable if pr is not None else alphabet.observable
        return crisp_observable(spec_supp, plant_supp, observable, alphabet.controllable)
    if kind == "normality":
        observable = pr.observable if pr is not None else alphabet.observable
        return crisp_normal(spec_supp, plant_supp, observable)
    if kind == "coobservability":
        (pr1, ctrl1), (pr2, ctrl2) = _resolve_sites(alphabet, site1, site2)
        return crisp_coobservable(
            spec_supp, plant_supp, pr1.observable, ctrl1, pr2.observable, ctrl2
        )
    raise FdesError("MALFORMED_GRADE", f"unknown crisp reference kind: {kind!r}")


def generated_language_per_string(aut: FuzzyAutomaton, horizon: int) -> FuzzyLanguage:
    """Grades of all strings up to the horizon length.

    Walks breadth first, carrying one state-possibility vector per live
    string; strings whose vector empties are pruned, which is sound because
    max-min grades never increase along extensions.
    """
    if horizon < 0:
        raise FdesError("OUT_OF_RANGE", "horizon must be >= 0")
    step = _step_map(aut)
    events = sorted(aut.alphabet.events)
    grades: dict[EventString, Grade] = {EPSILON: ONE}
    frontier: dict[EventString, dict[str, Grade]] = {EPSILON: {aut.initial: ONE}}
    for _ in range(horizon):
        nxt_frontier: dict[EventString, dict[str, Grade]] = {}
        for w, vec in frontier.items():
            for event in events:
                nxt = _advance(vec, event, step)
                if nxt:
                    extended = w + (event,)
                    grades[extended] = max(nxt.values())
                    nxt_frontier[extended] = nxt
        if not nxt_frontier:
            break
        frontier = nxt_frontier
    return FuzzyLanguage(aut.alphabet, grades)


def join_all(values: Iterable[Grade], default: Grade = ZERO) -> Grade:
    out = default
    for v in values:
        if v > out:
            out = v
    return out


@dataclass(frozen=True)
class EnumerationSpec:
    """Search space: a prefix-closed string universe and a grade lattice."""

    alphabet: Alphabet
    universe: tuple[EventString, ...]
    lattice: tuple[Grade, ...]
    budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        universe = tuple(sorted(set(self.universe), key=string_key))
        object.__setattr__(self, "universe", universe)
        members = set(universe)
        for s in universe:
            self.alphabet.check_string(s)
            if s and s[:-1] not in members:
                raise FdesError("INVALID_ENUMERATION", "universe is not prefix closed")
        lattice = tuple(sorted(set(self.lattice)))
        object.__setattr__(self, "lattice", lattice)
        if ZERO not in lattice or ONE not in lattice:
            raise FdesError("INVALID_ENUMERATION", "lattice must contain 0 and 1")

    def candidate_bound(self) -> int:
        return len(self.lattice) ** len(self.universe)


def enumerate_languages(spec: EnumerationSpec) -> Iterator[FuzzyLanguage]:
    """Every valid language with support in the universe and lattice grades."""
    _check_budget(spec.candidate_bound(), spec.budget)
    for grades in _assignments(spec.universe, spec.lattice, lambda s: ZERO, lambda s: ONE):
        yield FuzzyLanguage(spec.alphabet, grades)


# The FDL splitter that numbers and strips every line of a file up front;
# its sections have the attributes ``fdes.fdl.parse_documents`` reads, so
# the parser can run on it in place of ``fdes.fdl._split_sections`` and
# ``fdes.fdl._words``.


class _RawSection:
    __slots__ = ("kind", "name", "source", "line", "at", "linenos", "lines")

    def __init__(self, kind: str, name: str, source: str, line: int):
        self.kind, self.name, self.source, self.line = kind, name, source, line
        # Where an error is located: the body line being read, else the header.
        self.at = line
        # The body: each line's number and comment-stripped text (see above).
        self.linenos: list[int] = []
        self.lines: list[str] = []


def _words(section: _RawSection):
    """The words of each body line, each line split once; ``section.at``
    is that line's number while it is read, and the header's after."""
    for section.at, line in zip(section.linenos, section.lines):
        yield line.split()
    section.at = section.line


def _split_sections(source: str, text: str) -> list[_RawSection]:
    sections: list[_RawSection] = []
    current: _RawSection | None = None
    # Lines end at "\n" only, as editors and grep -n count them;
    # str.splitlines would also break at \x0c, \x85, \u2028 and others.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if not line:
            continue
        if line[0] == "[":
            if not line.endswith("]"):
                _fail(source, lineno, "unterminated section header")
            header = line[1:-1].split()
            if len(header) != 2:
                _fail(source, lineno, "section header must be [kind name]")
            kind, name = header
            if kind not in _KINDS:
                _fail(source, lineno, f"unknown section kind {kind!r}")
            current = _RawSection(kind, name, source, lineno)
            sections.append(current)
            continue
        if current is None:
            _fail(source, lineno, "content before any section header")
        current.linenos.append(lineno)
        current.lines.append(line)
    return sections


# The lowering fixed point as repeated ordered sweeps, one sweep per step a
# lowering travels back, against which ``fdes.approximation.supremal_cn``'s
# worklist is held.


def supremal_cn_sweeps(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection) -> FuzzyLanguage:
    """Greatest controllable and normal sublanguage of the spec, by sweeps
    until one changes nothing: controllability longest string first, one
    running join per class, prefix monotonicity shortest string first."""
    lattice, index, S, P = _require_spec_inside_plant(spec, plant)
    proj, observed = projection_ids(index, pr)
    if spec.is_empty:
        return spec
    parent, event, uncontrollable = index.parent, index.event, spec.alphabet.uncontrollable
    # Each id's plant children by uncontrollable events, in event order,
    # and each class's members in support order.
    children: list[list[int]] = [[] for _ in P]
    classes: list[list[int]] = [[] for _ in observed]
    for i, c in enumerate(proj):
        classes[c].append(i)
        if event[i] in uncontrollable:
            children[parent[i]].append(i)
    order = [i for i, r in enumerate(S) if r]
    current = S[:]
    changed = True
    while changed:
        changed = False
        for s in reversed(order):
            for sa in children[s]:
                have = current[sa]
                if min(current[s], P[sa]) > have:
                    current[s] = have
                    changed = True
        for members in classes:
            class_join = max([current[t] for t in members])
            for s in members:
                have = current[s]
                if min(class_join, P[s]) > have:
                    for t in members:
                        if current[t] > have:
                            current[t] = have
                    class_join = have
                    changed = True
        for s in order[1:]:
            if current[s] > current[parent[s]]:
                current[s] = current[parent[s]]
                changed = True
        if current[0] != len(lattice) - 1:
            current = [0] * len(P)
            changed = False
    return index.decode(lattice, current)


# The closed-loop equation as a generator of (id, rank) pairs, against which
# ``fdes.predicates._equation``'s loop and ``fdes.synthesis._sweep`` are held.


def equation_pairs(index: Index, P: list, grades: list, views):
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


# The CLI's command runner with every argv parsed by the top-level parser,
# against which ``fdes.cli.run_command``'s dispatch on argv[0] is held.


def run_command_top_level(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code else 0
    try:
        return args.func(args)
    except ConditionViolated as err:
        print(f"refused: {err.message}", file=sys.stderr)
        for w in err.report.witnesses:
            print(_witness_text(w), file=sys.stderr)
        return 1
    except FdesError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 2
