"""Finite-support fuzzy languages and their algebra.

A fuzzy language maps event strings to membership grades.  Only strictly
positive grades are stored.  A non-empty language grades the empty string
at exactly 1 (P1) and grades never increase along extensions (P2), which
makes the support prefix closed.  The empty language is the algebra's zero.
"""

from __future__ import annotations

from fractions import Fraction
from operator import gt
from typing import Iterable, Iterator, Mapping

from .errors import FdesError
from .events import EPSILON, Alphabet, EventString, event_string, render_event_string, string_error, string_key
from .grades import ONE, ZERO, Grade, as_grade, join, meet


class FuzzyLanguage:
    """Immutable association from event strings to positive grades.

    Every language from a user or a file is validated once, where it
    enters: by the constructor, which checks events, grades, P1 and P2
    and sorts an out-of-order support, or by the FDL parser's same checks
    line by line.  Results built only from valid languages or automata
    (pointwise min and max, ``Index.decode``, ``generated_language``) keep
    P1, P2 and support order by construction, so ``_valid`` stores them
    unchecked.  ``_index`` holds the language's ``Index`` once a call has
    built it (``Index.of``), and ``_ranked`` the language's ranks from the
    last ``Index.ranked`` call that ranked it alone (index, lattice, P, S).
    """

    __slots__ = ("alphabet", "_grades", "_support", "_index", "_ranked")

    def __init__(self, alphabet: Alphabet, grades: Mapping[EventString, Grade]):
        events = alphabet.events
        positive: dict[EventString, Grade] = {}
        # One pass checks keys, events, grades, and P2 while the strings come in
        # support order after their parents; other input is checked again and sorted.
        in_order, before, size = True, None, 0
        for s, g in grades.items():
            if not isinstance(s, tuple):
                raise string_error(s)
            if not events.issuperset(s):
                alphabet.check_string(s)
            # A positive Fraction within 1 is checked inline; as_grade coerces
            # any other value, or raises with the one message per fault.
            if g.__class__ is not Fraction or not 0 < g.numerator <= g.denominator:
                g = as_grade(g)
                if not g.numerator:
                    continue
            if in_order:
                n = len(s)
                if n:
                    pg = positive.get(s[:-1])
                    # meet and join return an input, so grades often share objects.
                    in_order = (pg is not None and (g is pg or g <= pg)
                                and (size < n or size == n and before < s))
                before, size = s, n
            positive[s] = g
        if positive and positive.get(EPSILON) != ONE:
            raise FdesError("P1_VIOLATION", "a non-empty language must grade eps at 1")
        if not in_order:
            for s, g in positive.items():
                if s and g is not (pg := positive.get(s[:-1], ZERO)) and g > pg:
                    raise FdesError("P2_VIOLATION", f"grade of {render_event_string(s)} exceeds its "
                                    f"prefix {render_event_string(s[:-1])} ({g} > {pg})")
            # Sorting by length keeps the lexicographic order within a length.
            positive = {s: positive[s] for s in sorted(sorted(positive), key=len)}
        self._store(alphabet, positive)

    @classmethod
    def _valid(cls, alphabet: Alphabet, grades: dict[EventString, Grade]) -> FuzzyLanguage:
        """Trusted: ``grades`` holds positive grades of a valid language,
        keyed in support order; it is stored as is, unchecked."""
        language = object.__new__(cls)
        language._store(alphabet, grades)
        return language

    def _store(self, alphabet: Alphabet, grades: dict[EventString, Grade]) -> None:
        """The one store of a language's fields; ``grades`` is keyed in support order."""
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "_grades", grades)
        object.__setattr__(self, "_support", tuple(grades))
        object.__setattr__(self, "_index", None)
        object.__setattr__(self, "_ranked", None)

    def __setattr__(self, name, value):
        raise AttributeError("FuzzyLanguage is immutable")

    @property
    def support(self) -> tuple[EventString, ...]:
        """Strings with positive grade, sorted by (length, lexicographic)."""
        return self._support

    @property
    def is_empty(self) -> bool:
        return not self._grades

    def grade(self, s: EventString) -> Grade:
        """Stored grade, or 0 outside the support, even over unknown events;
        ``s`` is read by ``event_string``, which refuses a ``str``."""
        try:
            return self._grades.get(s if s.__class__ is tuple else event_string(s), ZERO)
        except TypeError:  # a tuple holding an unhashable event, which the gate names
            return self._grades.get(event_string(s), ZERO)

    def items(self) -> Iterator[tuple[EventString, Grade]]:
        return iter(self._grades.items())

    def max_length(self) -> int:
        return max((len(s) for s in self._support), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FuzzyLanguage):
            return NotImplemented
        return self.alphabet == other.alphabet and self._grades == other._grades

    def __hash__(self):
        return hash((self.alphabet, tuple(self._grades.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{render_event_string(s)}:{g}" for s, g in self._grades.items())
        return f"FuzzyLanguage({{{body}}})"


def empty_language(alphabet: Alphabet) -> FuzzyLanguage:
    return FuzzyLanguage(alphabet, {})


def build_language(
    alphabet: Alphabet,
    entries: Mapping[EventString, Grade] | Iterable[tuple[EventString, Grade]],
) -> FuzzyLanguage:
    """The validating constructor over a mapping or a pair list, which
    must not repeat a string.  Any iterable of events is a string; a ``str``
    is refused, not split into events, as is a non-iterable (``event_string``)."""
    pairs = entries.items() if isinstance(entries, Mapping) else entries
    grades: dict[EventString, Grade] = {}
    for s, g in pairs:
        if s.__class__ is not tuple:
            s = event_string(s)
        try:
            seen = s in grades
        except TypeError:  # as in FuzzyLanguage.grade
            seen = event_string(s) in grades
        if seen:
            raise FdesError("DUPLICATE_STRING", f"duplicate string {render_event_string(s)}")
        grades[s] = g
    return FuzzyLanguage(alphabet, grades)


def _require_same_alphabet(a: FuzzyLanguage, b: FuzzyLanguage | Index) -> None:
    if a.alphabet != b.alphabet:
        raise FdesError("ALPHABET_MISMATCH", "operands use different alphabets")


def union(a: FuzzyLanguage, b: FuzzyLanguage) -> FuzzyLanguage:
    """Pointwise join.  When one support holds the other, the result takes
    the larger's order; otherwise the strings are sorted, which merges the
    two sorted runs in linear time."""
    _require_same_alphabet(a, b)
    if len(a.support) < len(b.support):
        a, b = b, a
    big, small = a._grades, b._grades
    if all(s in big for s in b.support):
        grades = dict(big)
        for s, g in b.items():
            grades[s] = join(grades[s], g)
    else:
        strings = sorted({**big, **small}, key=string_key)
        grades = {s: join(big.get(s, ZERO), small.get(s, ZERO)) for s in strings}
    return FuzzyLanguage._valid(a.alphabet, grades)


def intersection(a: FuzzyLanguage, b: FuzzyLanguage) -> FuzzyLanguage:
    """Pointwise meet, in a's support order."""
    _require_same_alphabet(a, b)
    other = b._grades
    grades = {s: m for s, g in a.items() if (m := meet(g, other.get(s, ZERO)))}
    return FuzzyLanguage._valid(a.alphabet, grades)


def concatenation(a: FuzzyLanguage, b: FuzzyLanguage) -> FuzzyLanguage:
    """(AB)(w) = max over splits w = uv of min(A(u), B(v)).

    Every string with a positive concatenation grade splits into a support
    string of A followed by one of B, so iterating the two supports covers
    all candidates; the running join over generating pairs equals the join
    over all splits.
    """
    _require_same_alphabet(a, b)
    grades: dict[EventString, Grade] = {}
    for u, ga in a.items():
        for v, gb in b.items():
            w = u + v
            grades[w] = join(grades.get(w, ZERO), meet(ga, gb))
    return FuzzyLanguage(a.alphabet, grades)


_BOUNDS = {ZERO: 0, ONE: 1}


def _codes(gradings, rank: dict = _BOUNDS) -> tuple:
    """The grade lattice: the sorted grades of ``rank`` (grade -> rank over
    a sorted lattice holding 0 and 1) and of the gradings; its grade -> rank
    map, ``rank`` itself when the gradings bring no new grade; and
    id(grade) -> rank for the gradings' grade objects.  ``lattice[r]``
    decodes, ranks keep min and max, and equal grades in distinct objects
    share a rank.  No map is ever changed in place."""
    by_id = {id(g): g for grading in gradings for _, g in grading.items()}
    new = set(by_id.values()).difference(rank)
    if new:
        rank = {g: r for r, g in enumerate(sorted([*rank, *new]))}
    return tuple(rank), rank, {key: rank[g] for key, g in by_id.items()}


class Index:
    """Everything derived from the plant alone, built once per plant
    (``Index.of``) and shared by every call on it: no call changes it but
    to add ``classes`` entries, and its sequences are tuples.  supp(plant)
    is numbered in support order: string i is ``strings[i]``,
    ``parent[i]`` its parent's id (eps, id 0, is its own) and ``event[i]``
    its last event (None for eps).  A parent's id is below its children's,
    and the children of one parent ascend by event.  ``rank`` maps the
    plant's grades, with 0 and 1, to their ranks (``_codes``) and
    ``ranks`` is the plant's rank per id.  ``classes`` maps an observable
    set to its ``observation.projection_ids``.  The index keeps the
    plant's alphabet, not the plant, so a plant and its index form no
    reference cycle."""

    __slots__ = ("alphabet", "strings", "ids", "parent", "event", "rank", "ranks", "classes")

    def __init__(self, plant: FuzzyLanguage):
        self.alphabet, self.strings = plant.alphabet, plant.support
        self.ids = ids = dict(zip(self.strings, range(len(self.strings))))
        self.parent = tuple([ids[s[:-1]] for s in self.strings])
        self.event = tuple([s[-1] if s else None for s in self.strings])
        _, self.rank, code = _codes((plant,))
        self.ranks = tuple([code[id(g)] for _, g in plant.items()])
        self.classes: dict[frozenset, tuple] = {}

    @classmethod
    def of(cls, plant: FuzzyLanguage) -> Index:
        """The plant's index, built on first use and kept on the plant."""
        index = plant._index
        if index is None:
            index = cls(plant)
            object.__setattr__(plant, "_index", index)
        return index

    def ranked(self, *gradings) -> tuple:
        """The grade lattice of the plant and the gradings (``_codes``), then
        the plant and each language as rank lists over the ids, 0 where a
        string is absent (None if one lies outside supp(plant)); other
        mappings become key -> rank dicts.  Only the gradings are encoded,
        each read twice; the plant's kept ranks are remapped only when a
        grading brings a grade the plant lacks.  A language ranked alone
        keeps the result on itself (``FuzzyLanguage._ranked``), and a later
        call on the same index returns fresh copies of it.  The entry holds
        the index, not the plant, so it forms no reference cycle; readers
        that race each write an equal entry in one store.  A language over
        another alphabet is refused before any grade is read: every
        language of one call lives over the plant's alphabet."""
        for grading in gradings:
            if isinstance(grading, FuzzyLanguage):
                _require_same_alphabet(grading, self)
        alone = len(gradings) == 1 and isinstance(gradings[0], FuzzyLanguage)
        if alone and (kept := gradings[0]._ranked) is not None and kept[0] is self:
            _, lattice, P, S = kept
            return lattice, P[:], None if S is None else S[:]
        lattice, rank, code = _codes(gradings, self.rank)
        if rank is self.rank:
            P = list(self.ranks)
        else:
            remap = [rank[g] for g in self.rank]
            P = [remap[r] for r in self.ranks]
        encoded = [P]
        for grading in gradings:
            if not isinstance(grading, FuzzyLanguage):
                encoded.append({k: code[id(g)] for k, g in grading.items()})
                continue
            ranks = [0] * len(self.strings)
            try:
                for s, g in grading.items():
                    ranks[self.ids[s]] = code[id(g)]
            except KeyError:
                ranks = None
            encoded.append(ranks)
        if alone:
            kept = (self, lattice, P[:], None if encoded[1] is None else encoded[1][:])
            object.__setattr__(gradings[0], "_ranked", kept)
        return lattice, *encoded

    def decode(self, lattice: tuple, ranks: list) -> FuzzyLanguage:
        """Decode the ranks of a valid language over the ids, unchecked
        (``FuzzyLanguage._valid``): the closed loop meets each grade with
        its parent's and keeps the plant's eps, and ``supremal_cn`` ends
        with no child above its parent, or on all zeros.  Ids run in
        support order."""
        grades = {s: lattice[r] for s, r in zip(self.strings, ranks) if r}
        return FuzzyLanguage._valid(self.alphabet, grades)


def is_sublanguage(a: FuzzyLanguage, b: FuzzyLanguage) -> bool:
    """True iff a(s) <= b(s) pointwise (on ranks over supp(b)'s ids)."""
    _, B, A = Index.of(b).ranked(a)
    return A is not None and not any(map(gt, A, B))


def prefix_close_repair(
    alphabet: Alphabet,
    entries: Mapping[EventString, Grade] | Iterable[tuple[EventString, Grade]],
) -> FuzzyLanguage:
    """Smallest valid language dominating the given entries.

    Each prefix is raised to the join of the grades of all listed
    extensions (including itself); eps is forced to 1 when anything
    remains.  Valid inputs pass through unchanged.  As in
    ``build_language``, a ``str`` or a non-iterable is refused.
    """
    pairs = entries.items() if isinstance(entries, Mapping) else entries
    listed: dict[EventString, Grade] = {}
    for s, g in pairs:
        s = alphabet.check_string(s)
        g = as_grade(g)
        if g > ZERO:
            listed[s] = join(listed.get(s, ZERO), g)
    repaired: dict[EventString, Grade] = {}
    for s, g in listed.items():
        for i in range(len(s) + 1):
            prefix = s[:i]
            repaired[prefix] = join(repaired.get(prefix, ZERO), g)
    if repaired:
        repaired[EPSILON] = ONE
    return FuzzyLanguage(alphabet, repaired)
