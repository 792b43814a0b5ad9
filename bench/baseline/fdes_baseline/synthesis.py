"""Supervisor synthesis and closed-loop language computation.

A supervisor maps each observed string to per-event enable grades; events
it may not restrict are pinned to grade 1.  Synthesis follows the
constructive recipe: a controllable event's enable grade after observation
t is the join of the specification's grades over the continuations of all
support strings the supervisor cannot distinguish from t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import ConditionViolated, FdesError
from .events import EventId, EventString, render_event_string, string_key
from .grades import ONE, ZERO, Grade, as_grade, join_all, meet
from .language import FuzzyLanguage, empty_language, is_sublanguage
from .observation import Projection, project_string, projection_classes
from .predicates import (
    Site,
    _require_spec_inside_plant,
    _resolve_sites,
    is_controllable,
    is_coobservable,
    is_observable,
)

Row = dict[EventId, Grade]


@dataclass(frozen=True)
class FuzzySupervisor:
    """Observed string -> per-event enable grades, with dense rows.

    ``controllables`` is the set of events this supervisor may restrict;
    every other event is enabled at grade 1 in every row.
    """

    projection: Projection
    controllables: frozenset[EventId]
    table: Mapping[EventString, Row]

    def __post_init__(self):
        object.__setattr__(self, "controllables", frozenset(self.controllables))
        alphabet = self.projection.alphabet
        if not self.controllables <= alphabet.events:
            raise FdesError("UNKNOWN_EVENT", "supervisor controls events outside the alphabet")
        for observed, row in self.table.items():
            for event in observed:
                if event not in self.projection.observable:
                    raise FdesError(
                        "INVALID_SUPERVISOR",
                        f"observed string {render_event_string(observed)} uses an unobservable event",
                    )
            if set(row) != set(alphabet.events):
                raise FdesError(
                    "INVALID_SUPERVISOR",
                    f"row {render_event_string(observed)} must grade every alphabet event",
                )
            for event, grade in row.items():
                as_grade(grade)
                if event not in self.controllables and grade != ONE:
                    raise FdesError(
                        "INVALID_SUPERVISOR",
                        f"row {render_event_string(observed)} restricts {event!r}, "
                        "which this supervisor may not control",
                    )

    def enable_grade(self, observed: EventString, event: EventId) -> Grade:
        try:
            return self.table[observed][event]
        except KeyError:
            raise FdesError(
                "SUPERVISOR_DOMAIN_GAP",
                f"no row for observed string {render_event_string(observed)}",
            ) from None


def make_supervisor(
    projection: Projection,
    controllables,
    rows: Mapping[EventString, Mapping[EventId, Grade]],
) -> FuzzySupervisor:
    """Densify sparse rows: absent controllables get 0, everything else 1."""
    controllables = frozenset(controllables)
    events = projection.alphabet.events
    table: dict[EventString, Row] = {}
    for observed, sparse in rows.items():
        unknown = set(sparse) - events
        if unknown:
            raise FdesError(
                "UNKNOWN_EVENT",
                f"supervisor row grades events outside the alphabet: {', '.join(sorted(unknown))}",
            )
        row: Row = {}
        for event in events:
            if event in sparse:
                row[event] = as_grade(sparse[event])
            else:
                row[event] = ZERO if event in controllables else ONE
        table[tuple(observed)] = row
    return FuzzySupervisor(projection, controllables, table)


def _observed_domain(plant: FuzzyLanguage, pr: Projection) -> list[EventString]:
    observed = {project_string(pr, s) for s, _ in plant.items()}
    return sorted(observed, key=string_key)


def synthesize_central(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
    force: bool = False,
) -> FuzzySupervisor:
    """Partial-observation supervisor achieving a controllable, observable spec.

    Rows cover every projection of the plant's support.  Unless ``force``
    is set, controllability and observability are checked first and a
    failing report is raised; with ``force`` the formula supervisor is
    returned regardless (its closed loop then need not equal the spec).
    """
    if spec.is_empty:
        raise FdesError("EMPTY_SPEC", "cannot synthesize for the empty specification")
    _require_spec_inside_plant(spec, plant)
    if not force:
        for name, report in (
            ("controllable", is_controllable(spec, plant)),
            ("observable", is_observable(spec, plant, pr)),
        ):
            if not report.holds:
                raise ConditionViolated(f"specification is not {name}", report)
    alphabet = spec.alphabet
    classes = projection_classes(pr, (s for s, _ in spec.items()))
    rows: dict[EventString, Row] = {}
    for observed in _observed_domain(plant, pr):
        members = classes.get(observed, [])
        row: Row = {}
        for event in alphabet.events:
            if event in alphabet.controllable:
                row[event] = join_all(spec.grade(t + (event,)) for t in members)
            else:
                row[event] = ONE
        rows[observed] = row
    return FuzzySupervisor(pr, alphabet.controllable, rows)


def closed_loop_central(plant: FuzzyLanguage, supervisor: FuzzySupervisor) -> FuzzyLanguage:
    """Supervised behavior: grade(sa) = plant(sa) min enable min grade(s).

    Evaluated over the plant support in length order; strings the plant
    excludes never enter the result, so the support stays finite.
    """
    if supervisor.projection.alphabet != plant.alphabet:
        raise FdesError("ALPHABET_MISMATCH", "supervisor and plant use different alphabets")
    if plant.is_empty:
        return empty_language(plant.alphabet)
    pr = supervisor.projection
    for observed in _observed_domain(plant, pr):
        if observed not in supervisor.table:
            raise FdesError(
                "SUPERVISOR_DOMAIN_GAP",
                f"supervisor lacks a row for {render_event_string(observed)}",
            )
    result: dict[EventString, Grade] = {}
    for s, plant_grade in plant.items():
        if not s:
            result[s] = ONE
            continue
        parent, event = s[:-1], s[-1]
        upstream = result.get(parent, ZERO)
        if upstream == ZERO:
            continue
        enable = supervisor.enable_grade(project_string(pr, parent), event)
        grade = meet(meet(plant_grade, enable), upstream)
        if grade > ZERO:
            result[s] = grade
    return FuzzyLanguage(plant.alphabet, result)


def synthesize_decentralized(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    site1: Site | None = None,
    site2: Site | None = None,
    force: bool = False,
) -> tuple[FuzzySupervisor, FuzzySupervisor]:
    """Local supervisor pair achieving a controllable, co-observable spec.

    Site specifications default to the alphabet's own.  Each local
    supervisor restricts only its site's controllable events and observes
    through its site's projection.
    """
    if spec.is_empty:
        raise FdesError("EMPTY_SPEC", "cannot synthesize for the empty specification")
    _require_spec_inside_plant(spec, plant)
    resolved1, resolved2 = _resolve_sites(spec.alphabet, site1, site2)
    if not force:
        for name, report in (
            ("controllable", is_controllable(spec, plant)),
            ("co-observable", is_coobservable(spec, plant, resolved1, resolved2)),
        ):
            if not report.holds:
                raise ConditionViolated(f"specification is not {name}", report)
    supervisors = []
    for pr, ctrl in (resolved1, resolved2):
        classes = projection_classes(pr, (s for s, _ in spec.items()))
        rows: dict[EventString, Row] = {}
        for observed in _observed_domain(plant, pr):
            members = classes.get(observed, [])
            row: Row = {}
            for event in spec.alphabet.events:
                if event in ctrl:
                    row[event] = join_all(spec.grade(t + (event,)) for t in members)
                else:
                    row[event] = ONE
            rows[observed] = row
        supervisors.append(FuzzySupervisor(pr, ctrl, rows))
    return supervisors[0], supervisors[1]


def closed_loop_decentralized(
    plant: FuzzyLanguage, s1: FuzzySupervisor, s2: FuzzySupervisor
) -> FuzzyLanguage:
    """Joint supervision: both supervisors' enable grades are met together."""
    for sup in (s1, s2):
        if sup.projection.alphabet != plant.alphabet:
            raise FdesError("ALPHABET_MISMATCH", "supervisor and plant use different alphabets")
    if plant.is_empty:
        return empty_language(plant.alphabet)
    for sup in (s1, s2):
        for observed in _observed_domain(plant, sup.projection):
            if observed not in sup.table:
                raise FdesError(
                    "SUPERVISOR_DOMAIN_GAP",
                    f"supervisor lacks a row for {render_event_string(observed)}",
                )
    result: dict[EventString, Grade] = {}
    for s, plant_grade in plant.items():
        if not s:
            result[s] = ONE
            continue
        parent, event = s[:-1], s[-1]
        upstream = result.get(parent, ZERO)
        if upstream == ZERO:
            continue
        enable1 = s1.enable_grade(project_string(s1.projection, parent), event)
        enable2 = s2.enable_grade(project_string(s2.projection, parent), event)
        grade = meet(meet(meet(plant_grade, enable1), enable2), upstream)
        if grade > ZERO:
            result[s] = grade
    return FuzzyLanguage(plant.alphabet, result)


def verify_achieves(spec: FuzzyLanguage, achieved: FuzzyLanguage) -> bool:
    """Exact pointwise equality of the two languages."""
    if spec.alphabet != achieved.alphabet:
        return False
    return is_sublanguage(spec, achieved) and is_sublanguage(achieved, spec)
