"""Natural projection on strings and its lifting to fuzzy languages.

The lifted inverse projection has infinite support on its own, so it is
never materialized alone: every use fuses it with a meet against a
finite-support language (see ``inverse_project_meet``).

The checks, fixed points and synthesis project no string: over the ids
of an indexed support (``language.Index``), ``projection_ids`` derives
each string's class from its parent's, once per plant and observable set,
and ``class_joins`` keys the class joins by (class id, event).  As in the
theory, one alphabet carries a whole call: ``projection_ids`` refuses a
projection over any alphabet but the plant's, as ``Index.ranked`` refuses
such a language.
"""

from __future__ import annotations

from typing import Iterable

from .errors import FdesError
from .events import EPSILON, Alphabet, EventId, EventString, Record, event_subset, string_key
from .grades import join, meet
from .language import FuzzyLanguage, Index


class Projection(Record):
    """Observable-event mask defining the erasing string homomorphism."""

    __slots__ = ("alphabet", "observable")

    def __init__(self, alphabet: Alphabet, observable: frozenset[EventId]):
        observable = event_subset(observable, alphabet.events, "observable events not in alphabet")
        self._set(alphabet, observable)


def natural_projection(alphabet: Alphabet) -> Projection:
    """Projection onto the alphabet's own observable set."""
    return Projection(alphabet, alphabet.observable)


def project_string(pr: Projection, s: EventString) -> EventString:
    """Erase unobservable events; ``s`` is checked by ``Alphabet.check_string``."""
    try:
        if s.__class__ is not tuple or not pr.alphabet.events.issuperset(s):
            s = pr.alphabet.check_string(s)
    except TypeError:  # a tuple holding an unhashable event, which the gate names
        s = pr.alphabet.check_string(s)
    return tuple(filter(pr.observable.__contains__, s))


def projection_classes(
    pr: Projection, strings: Iterable[EventString]
) -> dict[EventString, list[EventString]]:
    """Bucket strings by their projection; buckets and keys are sorted."""
    buckets: dict[EventString, list[EventString]] = {}
    for s in strings:
        buckets.setdefault(project_string(pr, s), []).append(s)
    return {
        t: sorted(members, key=string_key)
        for t, members in sorted(buckets.items(), key=lambda kv: string_key(kv[0]))
    }


def projection_ids(index: Index, pr: Projection) -> tuple[tuple[int, ...], tuple[EventString, ...]]:
    """Each id's projection class and each class's observed string, derived
    once per plant and observable set and kept on the index (read-only).

    Classes are numbered as they first appear in support order: an id
    keeps its parent's class when its event is unobservable and otherwise
    steps from it by one event, so no string is projected.  A projection
    over another alphabet than the plant's is refused, even for an empty
    plant or one whose classes for the same observable set are kept: P
    erases the unobservable events of the plant's own alphabet.
    """
    if pr.alphabet != index.alphabet:
        raise FdesError("ALPHABET_MISMATCH", "site projection uses a different alphabet")
    if not index.strings:
        return (), ()
    observable = pr.observable
    classes = index.classes.get(observable)
    if classes is None:
        proj, observed, step = [0], [EPSILON], {}
        for p, e in zip(index.parent[1:], index.event[1:]):
            c = proj[p]
            if e in observable:
                key = (c, e)
                c = step.get(key)
                if c is None:
                    c = step[key] = len(observed)
                    observed.append(observed[key[0]] + (e,))
            proj.append(c)
        classes = index.classes[observable] = tuple(proj), tuple(observed)
    return classes


def class_joins(index: Index, ranks: list[int], proj: tuple[int, ...], events) -> dict:
    """The class join (class, a) -> max ranks[i] over the ids i of s.a, s in
    the class; ``proj`` gives each id's class (``projection_ids``).  Absent
    keys mean 0.  One pass over the ids."""
    events, parent, event = frozenset(events), index.parent, index.event
    joins: dict[tuple[int, EventId], int] = {}
    for i, r in enumerate(ranks):
        if r and event[i] in events:
            key = (proj[parent[i]], event[i])
            if r > joins.get(key, 0):
                joins[key] = r
    return joins


def project_language(pr: Projection, language: FuzzyLanguage) -> FuzzyLanguage:
    """Lifted projection: each image string gets the join over its preimage.

    The preimage join is computed by iterating the finite support and
    bucketing by projected string; strings outside the support contribute 0.
    The image lives over the observable events, which keep their control.
    """
    grades: dict[EventString, object] = {}
    for s, g in language.items():
        t = project_string(pr, s)
        grades[t] = join(grades.get(t, g), g)
    observed = Alphabet(pr.observable, pr.alphabet.controllable & pr.observable, pr.observable)
    return FuzzyLanguage(observed, grades)


def inverse_project_meet(
    pr: Projection, observed: FuzzyLanguage, bound: FuzzyLanguage
) -> FuzzyLanguage:
    """The language s -> observed(P(s)) meet bound(s), evaluated on supp(bound).

    Outside supp(bound) the meet is 0, so the finite evaluation is complete.
    """
    grades = {s: meet(observed.grade(project_string(pr, s)), g) for s, g in bound.items()}
    return FuzzyLanguage(bound.alphabet, grades)
