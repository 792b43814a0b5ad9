"""Supervisor synthesis and closed-loop language computation.

A supervisor maps each observed string to per-event enable grades; events
it may not restrict are pinned to grade 1.  ``FuzzySupervisor`` alone
densifies and checks a row, so every caller passes only the entries it
has.  Control is split into sites, each a (projection, controllable
events) pair with one local supervisor.  One row builder serves every
site by the constructive recipe: a controllable event's enable grade
after observation t is the join of the specification's grades over the
continuations of all support strings the site cannot distinguish from t
(``observation.class_joins``); other events are left out.  The closed
loop is ``predicates._equation`` swept once, meeting every supervisor's
enable grade, so the supervisors act conjunctively.  That loop decides
synthesis: a non-empty spec is achievable iff it is the closed loop of
its formula supervisors, which by the existence theorems holds iff it is
controllable and observable (one site) or co-observable (two sites).
The checks run only to explain a refusal.  For one site the loop is
``approximation.infimal_co``.  Central control is the one-site case.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from .errors import ConditionViolated, FdesError
from .events import EventId, EventString, Record, event_subset, render_event_string, string_key
from .grades import ONE, ZERO, Grade, as_grade
from .language import FuzzyLanguage, Index, _str_key_error
from .observation import Projection, projection_ids
from .predicates import (
    Site,
    _equation,
    _require_spec_inside_plant,
    _resolve_sites,
    _view,
    is_controllable,
    is_coobservable,
    is_observable,
)

Row = dict[EventId, Grade]


class FuzzySupervisor(Record):
    """Observed string -> per-event enable grades, stored dense.

    ``controllables`` are the events this supervisor may restrict; a grade
    below 1 for any other event is refused.  A given row may be sparse: an
    absent controllable event gets 0, and any other absent event gets 1.
    """

    __slots__ = ("projection", "controllables", "table")

    def __init__(
        self, projection: Projection, controllables: frozenset[EventId], table: Mapping[EventString, Row]
    ):
        alphabet = projection.alphabet
        events, observable = alphabet.events, projection.observable
        ctrl = event_subset(controllables, events, "supervisor controls events outside the alphabet")
        order = sorted(events)
        dense_table: dict[EventString, Row] = {}
        for observed, row in table.items():
            if isinstance(observed, str):
                raise _str_key_error(observed)
            observed = tuple(observed)
            if not observable.issuperset(observed):
                alphabet.check_string(observed)
                raise FdesError(
                    "INVALID_SUPERVISOR",
                    f"observed string {render_event_string(observed)} uses an unobservable event",
                )
            if not events.issuperset(row):
                event_subset(row, events, "supervisor row grades events outside the alphabet")
            dense_table[observed] = dense = {}
            for event in order:
                if event not in row:
                    dense[event] = ZERO if event in ctrl else ONE
                    continue
                grade = dense[event] = as_grade(row[event])
                if event not in ctrl and grade != ONE:
                    raise FdesError(
                        "INVALID_SUPERVISOR",
                        f"row {render_event_string(observed)} restricts {event!r}, "
                        "which this supervisor may not control",
                    )
        object.__setattr__(self, "projection", projection)
        object.__setattr__(self, "controllables", ctrl)
        object.__setattr__(self, "table", dense_table)

    def enable_grade(self, observed: EventString, event: EventId) -> Grade:
        try:
            return self.table[observed][event]
        except KeyError:
            raise FdesError(
                "SUPERVISOR_DOMAIN_GAP",
                f"no row for observed string {render_event_string(observed)}",
            ) from None


def make_supervisor(
    projection: Projection, controllables, rows: Mapping[EventString, Mapping[EventId, Grade]]
) -> FuzzySupervisor:
    """The supervisor with these rows, which may be sparse (``FuzzySupervisor``)."""
    return FuzzySupervisor(projection, controllables, rows)


def _synthesize(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    resolve_sites: Callable[[], Sequence[Site]],
    force: bool,
) -> list[FuzzySupervisor]:
    """One formula supervisor per (projection, controllables) site.

    ``resolve_sites()`` runs after the spec's own checks, which keeps each
    wrapper's error order.  Unless ``force`` is set, the spec must be the
    closed loop of these supervisors, which holds iff it is controllable
    and observable (one site) or co-observable (two); a refusal carries
    the report of the first of those checks that fails.  Rows cover every
    projection of supp(plant).
    """
    if spec.is_empty:
        raise FdesError("EMPTY_SPEC", "cannot synthesize for the empty specification")
    lattice, index, S, P = _require_spec_inside_plant(spec, plant)
    sites = resolve_sites()
    views = [_view(index, S, pr, ctrl) for pr, ctrl in sites]
    if not force and _sweep(index, P, [view for view, _ in views]) != S:
        name, report = "controllable", is_controllable(spec, plant)
        if report.holds and len(sites) == 1:
            name, report = "observable", is_observable(spec, plant, *sites[0])
        elif report.holds:
            name, report = "co-observable", is_coobservable(spec, plant, *sites)
        raise ConditionViolated(f"specification is not {name}", report)
    return [_formula_supervisor(lattice, pr, *view) for (pr, _), view in zip(sites, views)]


def _formula_supervisor(lattice: list, pr: Projection, view: tuple, observed: tuple) -> FuzzySupervisor:
    """A site's formula supervisor from its ``predicates._view``: after
    observation t, each controllable event is enabled at its class join."""
    _, ctrl, joins = view
    rows = {t: {e: lattice[joins.get((c, e), 0)] for e in ctrl} for c, t in enumerate(observed)}
    return FuzzySupervisor(pr, ctrl, rows)


def _sweep(index: Index, P: list[int], views) -> list[int]:
    """The closed loop on ranks: fills a rank list over the ids of ``index``
    with the rhs of ``predicates._equation`` over the grades filled so far."""
    result = P[:1] + [0] * (len(P) - 1)
    for i, rank in _equation(index, P, result, views):
        result[i] = rank
    return result


def _closed_loop(plant: FuzzyLanguage, supervisors: Sequence[FuzzySupervisor]) -> FuzzyLanguage:
    """The closed loop under all the supervisors at once: every enable grade
    is met in.  ``projection_ids`` refuses a supervisor observing through
    another alphabet than the plant's, each just before its rows are read."""
    index = Index.of(plant)
    projs, tables = [], []
    for sup in supervisors:
        proj, observed = projection_ids(index, sup.projection)
        missing = [t for t in observed if t not in sup.table]
        if missing:
            raise FdesError(
                "SUPERVISOR_DOMAIN_GAP",
                f"supervisor lacks a row for {render_event_string(min(missing, key=string_key))}",
            )
        projs.append(proj)
        # Every other entry is 1.  Ranked with the plant, so the lattice holds them.
        tables.append({(c, e): sup.table[t][e] for c, t in enumerate(observed) for e in sup.controllables})
    lattice, P, *tables = index.ranked(*tables)
    views = [(proj, sup.controllables, table) for proj, sup, table in zip(projs, supervisors, tables)]
    return index.decode(lattice, _sweep(index, P, views))


def synthesize_central(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
    force: bool = False,
) -> FuzzySupervisor:
    """Partial-observation supervisor achieving a controllable, observable spec.

    Rows cover every projection of the plant's support.  Unless ``force``
    is set, a spec its closed loop does not give back is refused with the
    failing controllability or observability report; with ``force`` the
    formula supervisor is returned regardless (its closed loop then need
    not equal the spec).  The projection, like the spec, must use the
    plant's alphabet (``observation.projection_ids``).
    """
    return _synthesize(spec, plant, lambda: [(pr, spec.alphabet.controllable)], force)[0]


def closed_loop_central(plant: FuzzyLanguage, supervisor: FuzzySupervisor) -> FuzzyLanguage:
    """Supervised behavior: grade(sa) = plant(sa) min enable min grade(s).

    Evaluated over the plant support in length order; strings the plant
    excludes never enter the result, so the support stays finite.
    """
    return _closed_loop(plant, [supervisor])


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
    return tuple(_synthesize(spec, plant, lambda: _resolve_sites(spec.alphabet, site1, site2), force))


def closed_loop_decentralized(
    plant: FuzzyLanguage, s1: FuzzySupervisor, s2: FuzzySupervisor
) -> FuzzyLanguage:
    """Joint supervision: both supervisors' enable grades are met together."""
    return _closed_loop(plant, [s1, s2])
