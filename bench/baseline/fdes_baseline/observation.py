"""Natural projection on strings and its lifting to fuzzy languages.

The lifted inverse projection has infinite support on its own, so it is
never materialized alone: every use fuses it with a meet against a
finite-support language (see ``inverse_project_meet``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import FdesError
from .events import Alphabet, EventId, EventString, string_key
from .grades import join, meet
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
    pr.alphabet.check_string(s)
    return tuple(e for e in s if e in pr.observable)


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
