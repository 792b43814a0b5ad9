"""Extremal approximation languages and the supervisory control problem.

The pointwise-least controllable-and-observable superlanguage is the
closed loop of the spec's formula supervisor, and the pointwise-greatest
controllable-and-normal sublanguage comes from one worklist of lowerings
by three rules: prefix, controllability and a bound per projection class.
Every assigned value is a meet or join of grades already present in the
inputs, so each string's grade falls at most |lattice| times and the
worklist ends within O(|supp(plant)| * |lattice|) steps.  Both procedures
are validated against exhaustive search in the oracle module.
"""

from __future__ import annotations

from operator import gt

from .errors import FdesError
from .events import Record
from .language import FuzzyLanguage, Index
from .observation import Projection, projection_ids
from .predicates import _require_spec_inside_plant, _view
from .synthesis import FuzzySupervisor, _formula_supervisor, _sweep


def infimal_co(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection) -> FuzzyLanguage:
    """Least controllable and observable superlanguage of the spec.

    It is the closed loop, under the plant, of the spec's formula
    supervisor: after observation t, a controllable event a is enabled at
    x, the join of spec(sa) over the support strings s with projection t,
    and every other event at 1.  So sa gets min(grade(s), plant(sa)), met
    with x when a is controllable.

    Both bounds are forced in any controllable-and-observable
    superlanguage, whose class join is at least x, so by induction on
    length it lies above the closed loop.  The closed loop is itself
    controllable and observable, as under any supervisor, and contains
    the spec, since each term of the meet is at least spec(sa).  The cost
    is O(|supp(plant)| + |supp(spec)|) dictionary operations.
    """
    lattice, index, S, P = _require_spec_inside_plant(spec, plant)
    view = _view(index, S, pr, None)[0]
    return spec if spec.is_empty else index.decode(lattice, _sweep(index, P, [view]))


def supremal_cn(spec: FuzzyLanguage, plant: FuzzyLanguage, pr: Projection) -> FuzzyLanguage:
    """Greatest controllable and normal sublanguage of the spec.

    Grades only fall, from the spec's, by a worklist over the ids of
    supp(plant) (``language.Index``), seeded with every id.  When id s
    of rank r is popped, three rules lower other ids to r:

    * prefix monotonicity: each plant child of s;
    * controllability: when s ends in an uncontrollable event and
      min(grade(parent), plant(s)) > r, the parent, as r is the largest
      grade whose meet with plant(s) stays within grade(s);
    * normality: when r < plant(s), the join of s's class must not exceed
      r, so the class bound (the least rank of a member below its plant
      grade) falls to r and every member above it is lowered.

    Each lowered id is queued again.  Every lowering is forced in any
    controllable-and-normal sublanguage, so the iterate stays above them
    all, and an empty worklist ends at the greatest one.  If the empty
    string's grade is then below 1 no valid non-empty sublanguage fits,
    and the result is the empty language.

    An id is queued at most once per rank it falls to, the child lists
    sum to the support, and a class is scanned only when its bound falls,
    at most |lattice| times.  So the cost is O(|supp(plant)| * |lattice|),
    with no factor for string depth.
    """
    lattice, index, S, P = _require_spec_inside_plant(spec, plant)
    proj, observed = projection_ids(index, pr)
    if spec.is_empty:
        return spec
    parent, event, uncontrollable = index.parent, index.event, spec.alphabet.uncontrollable
    children: list[list[int]] = [[] for _ in P]
    classes: list[list[int]] = [[] for _ in observed]
    for i, c in enumerate(proj):
        classes[c].append(i)
        children[parent[i]].append(i)
    children[0].remove(0)  # eps is its own parent
    bound = [len(lattice)] * len(observed)
    current = S[:]
    work = list(range(len(P)))
    while work:
        s = work.pop()
        r = current[s]
        targets = children[s]  # the ids the three rules hold at or below r
        if r < P[s]:
            if event[s] in uncontrollable:
                targets = [*targets, parent[s]]
            c = proj[s]
            if r < bound[c]:
                bound[c] = r
                targets = [*targets, *classes[c]]
        for t in targets:
            if current[t] > r:
                current[t] = r
                work.append(t)
    if current[0] != len(lattice) - 1:
        current = [0] * len(P)
    return index.decode(lattice, current)


class ScpResult(Record):
    """Outcome of the supervisory control problem between two bounds.

    ``infimal`` is the least controllable and observable superlanguage of
    the minimal acceptable behavior; a supervisor exists exactly when it
    stays within the maximal legal behavior.
    """

    __slots__ = ("solvable", "supervisor", "infimal")

    def __init__(self, solvable: bool, supervisor: FuzzySupervisor | None, infimal: FuzzyLanguage):
        self._set(solvable, supervisor, infimal)


def solve_scp(
    minimal: FuzzyLanguage,
    legal: FuzzyLanguage,
    plant: FuzzyLanguage,
    pr: Projection,
) -> ScpResult:
    """Find a supervisor whose closed loop lies between the two bounds; the
    containments and ``infimal_co`` run on the plant's index
    (``language.Index.of``), shared with every other call on it.  The
    supervisor is the minimal behavior's formula supervisor, which is the
    infimal one's too: their class joins agree.  The bounds and the
    projection must use the plant's alphabet, whatever the answer
    (``Index.ranked``, ``observation.projection_ids``)."""
    if minimal.is_empty:
        raise FdesError("EMPTY_MIN_SPEC", "minimal acceptable behavior must be non-empty")
    index = Index.of(plant)
    lattice, P, M, L = index.ranked(minimal, legal)
    if M is None or L is None or any(map(gt, M, L)) or any(map(gt, L, P)):
        raise FdesError("PRECONDITION_CHAIN", "need minimal <= legal <= plant containments")
    view, observed = _view(index, M, pr, None)
    A = _sweep(index, P, [view])
    approx = index.decode(lattice, A)
    if any(map(gt, A, L)):
        return ScpResult(False, None, approx)
    return ScpResult(True, _formula_supervisor(lattice, pr, view, observed), approx)
