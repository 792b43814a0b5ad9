"""Independent brute-force references for certifying the main algorithms.

Everything here trades scale for trust: exhaustive enumeration over a
finite grade lattice.  The oracles certify the production code paths at
desk scale only; the literal and set-based references for the property
checks live with the tests (``tests/references.py``).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Sequence

from .errors import FdesError
from .events import EPSILON, EventId, EventString, string_key
from .grades import ONE, ZERO, Grade, meet
from .language import FuzzyLanguage, Index, empty_language, intersection, union
from .observation import Projection, project_string, projection_ids
from .predicates import (
    Site,
    _require_spec_inside_plant,
    _resolve_sites,
    is_controllable,
    is_normal,
    is_observable,
)
from .synthesis import FuzzySupervisor, _closed_loop

DEFAULT_BUDGET = 20_000


def _check_budget(count: int, budget: int) -> None:
    if not isinstance(budget, int):
        raise FdesError("OUT_OF_RANGE", f"budget {budget!r} must be an int")
    if count > budget:
        raise FdesError("BUDGET_EXCEEDED", f"enumeration of {count} candidates exceeds budget {budget}")


def _assignments(
    universe: tuple[EventString, ...],
    lattice: tuple[Grade, ...],
    lower: Callable[[EventString], Grade],
    upper: Callable[[EventString], Grade],
) -> Iterator[dict[EventString, Grade]]:
    """All P1/P2-valid grade maps with lower <= g <= upper pointwise.

    The universe is ordered parents-first, so each string's grade is capped
    by its parent's; the all-zero map is emitted only when the lower bound
    allows it.
    """
    if all(lower(s) == ZERO for s in universe):
        yield {}
    if not universe:
        return
    if lower(EPSILON) > ONE or upper(EPSILON) < ONE:
        return
    rest = [s for s in universe if s != EPSILON]

    def extend(index: int, acc: dict[EventString, Grade]) -> Iterator[dict[EventString, Grade]]:
        if index == len(rest):
            yield dict(acc)
            return
        s = rest[index]
        cap = meet(acc.get(s[:-1], ZERO), upper(s))
        floor = lower(s)
        for value in lattice:
            if value > cap:
                break
            if value < floor:
                continue
            if value > ZERO:
                acc[s] = value
            yield from extend(index + 1, acc)
            acc.pop(s, None)

    yield from extend(0, {EPSILON: ONE})


def brute_infimal_co(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
    budget: int = DEFAULT_BUDGET,
) -> FuzzyLanguage:
    """Pointwise meet of every controllable-and-observable language between
    the spec and the plant, found by exhaustive search."""
    lattice = _require_spec_inside_plant(spec, plant)[0]
    universe = tuple(s for s, _ in plant.items())
    _check_budget(len(lattice) ** len(universe), budget)
    result: FuzzyLanguage | None = None
    for grades in _assignments(universe, lattice, spec.grade, plant.grade):
        candidate = FuzzyLanguage(spec.alphabet, grades)
        if not is_controllable(candidate, plant).holds:
            continue
        if not is_observable(candidate, plant, pr).holds:
            continue
        result = candidate if result is None else intersection(result, candidate)
    assert result is not None  # the plant itself always qualifies
    return result


def brute_supremal_cn(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
    budget: int = DEFAULT_BUDGET,
) -> FuzzyLanguage:
    """Pointwise join of every controllable-and-normal sublanguage of the
    spec, found by exhaustive search."""
    lattice = _require_spec_inside_plant(spec, plant)[0]
    universe = tuple(s for s, _ in spec.items())
    _check_budget(len(lattice) ** len(universe), budget)
    result = empty_language(spec.alphabet)
    for grades in _assignments(universe, lattice, lambda s: ZERO, spec.grade):
        candidate = FuzzyLanguage(spec.alphabet, grades)
        if not is_controllable(candidate, plant).holds:
            continue
        if not is_normal(candidate, plant, pr).holds:
            continue
        result = union(result, candidate)
    return result


def _cell_candidates(
    spec: FuzzyLanguage, pr: Projection, observed: EventString, event: EventId
) -> tuple[Grade, ...]:
    """The enable grades tried for one (observed string, event) cell: 0, 1
    and the positive grades spec(sa) over the support strings s of the
    cell's class, sorted; no search tries any other.

    Sound by a rounding argument: the closed loop combines an enable grade
    only through meets against plant and prefix grades, and must reproduce
    the spec's grades, so any achieving grade can be rounded down to the
    largest value of {0, 1} and the spec's grades over the cell's class
    without changing a single closed-loop grade.
    """
    values = {ZERO, ONE}
    for s, _ in spec.items():
        if project_string(pr, s) == observed:
            grade = spec.grade(s + (event,))
            if grade > ZERO:
                values.add(grade)
    return tuple(sorted(values))


def _brute_sites_exist(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    sites: Sequence[Site],
    budget: int,
) -> bool:
    """Exhaustively search one supervisor per site for a joint closed loop
    equal to the spec; every (site, observed string, event) cell ranges
    over its ``_cell_candidates``.  The observed strings are the classes
    of the plant's index (``projection_ids``, which refuses a projection
    over another alphabet)."""
    index = Index.of(plant)
    site_observed = []
    cells = []
    options = []
    for n, (pr, ctrl) in enumerate(sites):
        observed = sorted(projection_ids(index, pr)[1], key=string_key)
        site_observed.append(observed)
        for t in observed:
            for e in sorted(ctrl):
                cells.append((n, t, e))
                options.append(_cell_candidates(spec, pr, t, e))
    _check_budget(math.prod(map(len, options)), budget)
    for choice in itertools.product(*options):
        rows = [{t: {} for t in observed} for observed in site_observed]
        for (n, t, e), grade in zip(cells, choice):
            rows[n][t][e] = grade
        supervisors = [FuzzySupervisor(pr, ctrl, r) for (pr, ctrl), r in zip(sites, rows)]
        if _closed_loop(plant, supervisors) == spec:
            return True
    return False


def brute_supervisor_exists(
    spec: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
    budget: int = DEFAULT_BUDGET,
) -> bool:
    """Exhaustively search supervisors whose closed loop equals the spec.

    Each cell tries exactly its ``_cell_candidates``; by the rounding
    argument there, a wider set could never change the verdict, which the
    test suite spot checks with lattice midpoints.
    """
    _require_spec_inside_plant(spec, plant)
    return _brute_sites_exist(spec, plant, [(pr, spec.alphabet.controllable)], budget)


def brute_decentralized_exists(
    spec: FuzzyLanguage, plant: FuzzyLanguage, *sites: Site, budget: int = DEFAULT_BUDGET
) -> bool:
    """Two-supervisor analog of the exhaustive achievability search; the
    two sites are checked by ``predicates._resolve_sites``, and ``budget``
    is keyword-only."""
    _require_spec_inside_plant(spec, plant)
    return _brute_sites_exist(spec, plant, _resolve_sites(spec.alphabet, sites), budget)
