"""Extremal approximation languages and the supervisory control problem.

The pointwise-least controllable-and-observable superlanguage is the
closed loop of the spec's formula supervisor, and the pointwise-greatest
controllable-and-normal sublanguage comes from monotone lowering sweeps.
Every assigned value is a meet or join of grades already present in the
inputs, so iteration lives in the finite grade lattice of the instance
and terminates.  Both procedures are validated against exhaustive search
in the oracle module.
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

    Lowering sweeps from the spec, three repairs per sweep:

    * controllability, longest string first, so that a lowering reaches
      the prefixes it forces within the sweep: when
      min(grade(s), plant(sa)) > grade(sa) for an uncontrollable a,
      grade(s) is lowered to grade(sa), the largest value whose meet with
      plant(sa) stays within grade(sa);
    * normality, with one running join per class of supp(plant): when the
      join met with plant(s) exceeds grade(s), every class member above
      grade(s) is lowered to grade(s), so the join becomes exactly
      grade(s).  The join only falls, so a class takes at most |lattice|
      repairs per sweep;
    * prefix monotonicity, shortest string first.

    Each lowering is forced in any controllable-and-normal sublanguage, so
    the iterate stays above them all, and a sweep that changes nothing
    ends at the greatest one.  If the empty string's grade ever drops
    below 1 no valid non-empty sublanguage fits, and the result is the
    empty language.

    The sweeps run on the ids of supp(plant) (``language.Index``): the
    uncontrollable children of each string, the members of each class and
    the spec's strings, the only ones that can stay, are id lists built
    once.  A sweep costs O(|supp(plant)| * (|E| + |lattice|));
    every sweep but the last lowers some grade, which bounds their number
    by |supp(spec)| * |lattice|, though a few sweeps are typical.
    """
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


class ScpResult(Record):
    """Outcome of the supervisory control problem between two bounds.

    ``infimal`` is the least controllable and observable superlanguage of
    the minimal acceptable behavior; a supervisor exists exactly when it
    stays within the maximal legal behavior.
    """

    __slots__ = ("solvable", "supervisor", "infimal")

    def __init__(self, solvable: bool, supervisor: FuzzySupervisor | None, infimal: FuzzyLanguage):
        object.__setattr__(self, "solvable", solvable)
        object.__setattr__(self, "supervisor", supervisor)
        object.__setattr__(self, "infimal", infimal)


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
