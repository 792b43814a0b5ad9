"""Natural projection on strings and its lifting to fuzzy languages.

The lifted inverse projection has infinite support on its own, so it is
never materialized alone: every use fuses it with a meet against a
finite-support language (see ``inverse_project_meet``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import FdesError
from .events import Alphabet, EventId, EventString, string_key
from .grades import Grade, join, meet
from .language import FuzzyLanguage


@dataclass(frozen=True)
class Projection:
    """Observable-event mask defining the erasing string homomorphism."""

    alphabet: Alphabet
    observable: frozenset[EventId]

    def __post_init__(self):
        object.__setattr__(self, "observable", frozenset(self.observable))
        if not self.observable <= self.alphabet.events:
            extra = ", ".join(sorted(self.observable - self.alphabet.events))
            raise FdesError("UNKNOWN_EVENT", f"observable events not in alphabet: {extra}")


def natural_projection(alphabet: Alphabet) -> Projection:
    """Projection onto the alphabet's own observable set."""
    return Projection(alphabet, alphabet.observable)


def project_string(pr: Projection, s: EventString) -> EventString:
    """Erase unobservable events."""
    if not pr.alphabet.events.issuperset(s):
        pr.alphabet.check_string(s)
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


def class_joins(
    language,
    seen: Mapping[EventString, EventString],
    events: Iterable[EventId],
) -> dict[tuple[EventString, EventId], Grade]:
    """The class join (P(s), a) -> max language(sa) over the strings s in ``seen``.

    ``language`` is a ``FuzzyLanguage`` or any ``.items()`` mapping from
    strings to positive grades or ranks.  ``seen`` maps each class member
    to its projection, as the caller holds it, so nothing is projected
    here.  Absent keys mean 0.  One pass over supp(language).
    """
    events = frozenset(events)
    joins: dict[tuple[EventString, EventId], Grade] = {}
    for s, g in language.items():
        if s and s[-1] in events:
            observed = seen.get(s[:-1])
            if observed is not None:
                key = (observed, s[-1])
                if g > joins.get(key, 0):
                    joins[key] = g
    return joins


def observed_alphabet(pr: Projection) -> Alphabet:
    """Sub-alphabet the projected strings live over."""
    return Alphabet(
        events=pr.observable,
        controllable=pr.alphabet.controllable & pr.observable,
        observable=pr.observable,
    )


def project_language(pr: Projection, language: FuzzyLanguage) -> FuzzyLanguage:
    """Lifted projection: each image string gets the join over its preimage.

    The preimage join is computed by iterating the finite support and
    bucketing by projected string; strings outside the support contribute 0.
    """
    grades: dict[EventString, object] = {}
    for s, g in language.items():
        t = project_string(pr, s)
        grades[t] = join(grades.get(t, g), g)
    return FuzzyLanguage(observed_alphabet(pr), grades)


def inverse_project_meet(
    pr: Projection, observed: FuzzyLanguage, bound: FuzzyLanguage
) -> FuzzyLanguage:
    """The language s -> observed(P(s)) meet bound(s), evaluated on supp(bound).

    Outside supp(bound) the meet is 0, so the finite evaluation is complete.
    """
    grades = {s: meet(observed.grade(project_string(pr, s)), g) for s, g in bound.items()}
    return FuzzyLanguage(bound.alphabet, grades)
