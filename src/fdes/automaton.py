"""Max-min fuzzy automata: extended transitions and generated languages.

The grade of a path is the min of its edge grades; the extended transition
grade between two states is the max over all paths.  Generated languages
are extracted up to an explicit horizon because cyclic automata generate
infinite-support languages.
"""

from __future__ import annotations

from typing import Mapping

from .errors import FdesError
from .events import EPSILON, Alphabet, EventId, EventString, Record, render_event_string
from .grades import ONE, ZERO, Grade, as_grade, meet
from .language import FuzzyLanguage

Transition = tuple[str, EventId, str]


class FuzzyAutomaton(Record):
    """States, initial state, and a graded transition relation.  A ``str``
    is refused as the state set, as ``events.event_set`` refuses it as a
    set of events: it would split into one-character states."""

    __slots__ = ("states", "alphabet", "initial", "transitions")

    def __init__(
        self, states: frozenset[str], alphabet: Alphabet, initial: str, transitions: Mapping[Transition, Grade]
    ):
        if isinstance(states, str):
            raise FdesError("UNKNOWN_STATE", f"state set {states!r} must be a collection of state names")
        states = frozenset(states)
        if initial not in states:
            raise FdesError("UNKNOWN_STATE", f"initial state {initial!r} not in state set")
        cleaned: dict[Transition, Grade] = {}
        for (p, a, q), g in transitions.items():
            if p not in states or q not in states:
                raise FdesError("UNKNOWN_STATE", f"transition endpoint outside state set: {p!r} -{a}-> {q!r}")
            alphabet.check_string((a,))
            g = as_grade(g)
            if g > ZERO:
                cleaned[(p, a, q)] = g
        self._set(states, alphabet, initial, cleaned)

    def _check_state(self, state: str) -> str:
        if state not in self.states:
            raise FdesError("UNKNOWN_STATE", f"unknown state {state!r}")
        return state


def _step_map(aut: FuzzyAutomaton) -> dict[tuple[str, EventId], list[tuple[str, Grade]]]:
    out: dict[tuple[str, EventId], list[tuple[str, Grade]]] = {}
    for (p, a, q), g in sorted(aut.transitions.items()):
        out.setdefault((p, a), []).append((q, g))
    return out


def _advance(
    vec: dict[str, Grade], event: EventId, step: dict[tuple[str, EventId], list[tuple[str, Grade]]]
) -> dict[str, Grade]:
    nxt: dict[str, Grade] = {}
    for state, g in vec.items():
        for target, tg in step.get((state, event), ()):
            reached = meet(g, tg)
            if reached > nxt.get(target, ZERO):
                nxt[target] = reached
    return nxt


def extended_transition(aut: FuzzyAutomaton, p: str, w: EventString, q: str) -> Grade:
    """Max over paths from p to q along w of the min of edge grades.

    The empty string reaches exactly the start state, at grade 1.
    """
    aut._check_state(p)
    aut._check_state(q)
    aut.alphabet.check_string(w)
    step = _step_map(aut)
    vec: dict[str, Grade] = {p: ONE}
    for event in w:
        vec = _advance(vec, event, step)
        if not vec:
            return ZERO
    return vec.get(q, ZERO)


def generated_language(aut: FuzzyAutomaton, horizon: int) -> FuzzyLanguage:
    """Grades of all strings up to the horizon length.

    The state-possibility vector a string reaches (each state's grade
    after it) is a state of the deterministic max-min automaton of
    ``aut``, and the string's grade is that vector's max.  Few vectors
    are reached by many strings, so each vector is numbered once and
    stepped once per event, on first reaching the frontier; the breadth
    first walk then carries (string, vector number) pairs.  A string whose
    vector empties is pruned, which is sound because max-min grades never
    increase along extensions.  The walk yields strings in support order,
    eps at 1 and positive grades no higher than their parents', so the
    result is stored unchecked (``FuzzyLanguage._valid``).
    """
    if horizon < 0:
        raise FdesError("OUT_OF_RANGE", "horizon must be >= 0")
    step = _step_map(aut)
    events = sorted(aut.alphabet.events)
    start = {aut.initial: ONE}
    vectors: list[dict[str, Grade]] = [start]
    numbers: dict[frozenset, int] = {frozenset(start.items()): 0}
    # Vector number -> its live one-event steps: (event, next number, grade).
    moves: dict[int, list[tuple[EventString, int, Grade]]] = {}

    def steps_of(v: int) -> list[tuple[EventString, int, Grade]]:
        out = []
        for event in events:
            nxt = _advance(vectors[v], event, step)
            if nxt:
                n = numbers.setdefault(frozenset(nxt.items()), len(vectors))
                if n == len(vectors):
                    vectors.append(nxt)
                out.append(((event,), n, max(nxt.values())))
        return out

    grades: dict[EventString, Grade] = {EPSILON: ONE}
    frontier: list[tuple[EventString, int]] = [(EPSILON, 0)]
    for _ in range(horizon):
        nxt_frontier: list[tuple[EventString, int]] = []
        for w, v in frontier:
            row = moves.get(v)
            if row is None:
                row = moves[v] = steps_of(v)
            for event, n, g in row:
                extended = w + event
                grades[extended] = g
                nxt_frontier.append((extended, n))
        if not nxt_frontier:
            break
        frontier = nxt_frontier
    return FuzzyLanguage._valid(aut.alphabet, grades)


def automaton_from_language(language: FuzzyLanguage) -> FuzzyAutomaton:
    """Automaton over the support whose generated language is the input.

    States are the support strings themselves; each string steps to its
    one-event extensions at the extension's grade.  Reading the result back
    at horizon ``language.max_length()`` reproduces the input exactly.
    """
    if language.is_empty:
        raise FdesError("EMPTY_LANGUAGE", "cannot build an automaton for the empty language")
    states = {render_event_string(s) for s, _ in language.items()}
    transitions: dict[Transition, Grade] = {}
    for s, g in language.items():
        if not s:
            continue
        parent = s[:-1]
        transitions[(render_event_string(parent), s[-1], render_event_string(s))] = g
    return FuzzyAutomaton(
        states=frozenset(states),
        alphabet=language.alphabet,
        initial=render_event_string(EPSILON),
        transitions=transitions,
    )
