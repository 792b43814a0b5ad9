"""FDL, the line-oriented text format for alphabets, languages, automata,
site specifications, and supervisors.

One document may be assembled from several files; named sections of the
same kind may repeat only when structurally identical, so emitted artifacts
can carry their alphabet along and still merge with the source files.
Emission is canonical: fixed section order, names sorted, strings sorted by
(length, lexicographic), grades rendered as shortest exact decimals.  It
refuses, with the parser's code, what would not parse back to an equal
document.

Lines are numbered at "\\n" only.  Splitting a file finds its section
headers and keeps each section's body as one span of the file's text;
a builder splits its span into lines and words only when it reads it,
so a parse holds one section's lines at a time.  One table per
``parse_documents`` call maps each string's text to its event-string
tuple, so equal strings in any section or file of the call are one
object; the table dies with the call.  A text already in the table is
looked up, not parsed again: a spec's strings after its plant's, and
the later sections of an emitted document.  The same table maps each
alphabet body (its events, controllable and observable sets) to its
``Alphabet``, so equal alphabet sections in one call, such as the plant
file's and the spec file's, are one object, built and checked once.
Emission, likewise, joins each section's lines as it emits them, and
renders each grade object once per language or supervisor section.

A language section is validated in the pass that reads it (the fast
check): the alphabet line, then eps at 1, then each string after the one
before it in support order, its parent read, its last event in the
alphabet and its grade positive and no higher than its parent's.  Order
is checked on (event count, text): among strings of one count, text
order is support order, because "." sorts below every character of an
event id ([A-Za-z0-9_]); a.b comes before ab.a as text and as tuples.
Text that passes is stored as read; any other goes to the constructor,
which gives every fault its code and message.

Builders raise plain errors; ``parse_documents`` alone gives them a
location.  A fault found while a body line is read is reported at that
line, and every other fault of a section (P1/P2, unknown events, a
missing line) at its header.
"""

from __future__ import annotations

from collections import namedtuple
from operator import attrgetter

from .automaton import FuzzyAutomaton
from .errors import FdesError
from .events import (
    Alphabet,
    EventString,
    Record,
    SiteSpec,
    check_event_id,
    parse_event_string,
    render_event_string,
    string_key,
)
from .grades import ONE, Grade, parse_grade, render_grade
from .language import FuzzyLanguage
from .observation import Projection
from .synthesis import FuzzySupervisor

class SitesDecl(Record):
    """A named pair of site specifications bound to an alphabet."""

    __slots__ = ("alphabet_name", "site1", "site2")

    def __init__(self, alphabet_name: str, site1: SiteSpec, site2: SiteSpec):
        self._set(alphabet_name, site1, site2)


class _RawSection:
    __slots__ = ("kind", "name", "source", "line", "at", "text", "begin", "end")

    def __init__(self, kind: str, name: str, source: str, line: int, text: str, begin: int):
        self.kind, self.name, self.source, self.line = kind, name, source, line
        # Where an error is located: the body line being read, else the header.
        self.at = line
        # The body: text[begin:end], the lines after the header's up to the next header's.
        self.text, self.begin, self.end = text, begin, len(text)


def _words(section: _RawSection):
    """The words of each body line that has any, each line split once;
    ``section.at`` is that line's number while it is read, and the
    header's after."""
    lines = section.text[section.begin:section.end].split("\n")
    if section.text.find("#", section.begin, section.end) >= 0:
        lines = [line.partition("#")[0] for line in lines]
    for section.at, line in enumerate(lines, section.line + 1):
        words = line.split()
        if words:
            yield words
    section.at = section.line


def _fail(source: str, line: int, message: str, code: str = "SYNTAX_ERROR"):
    raise FdesError(code, message, location=f"{source}:{line}") from None


def _once(value, key: str) -> None:
    """Refuse a second line of a kind that a section takes once."""
    if value is not None:
        raise FdesError("SYNTAX_ERROR", f"duplicate {key!r} line")


def _alphabet_line(alphabet, words: list[str], alphabets: dict[str, Alphabet]) -> Alphabet:
    """The alphabet an ``alphabet <name>`` line names, read once per section."""
    _once(alphabet, "alphabet")
    if len(words) != 2:
        raise FdesError("SYNTAX_ERROR", "alphabet line takes one name")
    if words[1] not in alphabets:
        raise FdesError("SYNTAX_ERROR", f"unknown alphabet {words[1]!r}")
    return alphabets[words[1]]


def _split_sections(source: str, text: str) -> list[_RawSection]:
    """Each section, found by its header: a line whose first character
    that is no whitespace is "[".  Lines end at "\\n" only, as editors and
    grep -n count them; str.splitlines would also break at \\x0c, \\x85,
    \\u2028 and others."""
    sections: list[_RawSection] = []
    lineno, at = 1, 0  # the number of the line that starts at offset at
    start = text.find("[")
    while start >= 0:
        begin = text.rfind("\n", 0, start) + 1  # where the line of this "[" starts
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        if begin == start or text[begin:start].isspace():
            lineno += text.count("\n", at, begin)
            at = begin
            if sections:
                sections[-1].end = begin - 1
            elif begin:
                _no_content(source, text, begin)
            line = text[start:end].partition("#")[0].rstrip()
            if not line.endswith("]"):
                _fail(source, lineno, "unterminated section header")
            header = line[1:-1].split()
            if len(header) != 2:
                _fail(source, lineno, "section header must be [kind name]")
            kind, name = header
            if kind not in _KINDS:
                _fail(source, lineno, f"unknown section kind {kind!r}")
            sections.append(_RawSection(kind, name, source, lineno, text, end + 1))
        start = text.find("[", end)
    if not sections:
        _no_content(source, text, len(text))
    return sections


def _no_content(source: str, text: str, end: int) -> None:
    """Refuse a line with content in text[:end], which no header precedes."""
    for lineno, line in enumerate(text[:end].split("\n"), 1):
        if line.partition("#")[0].strip():
            _fail(source, lineno, "content before any section header")


def _build_alphabet(section: _RawSection, alphabets: dict[str, Alphabet], strings: dict) -> Alphabet:
    kinds = ("events", "controllable", "observable")
    payloads: dict[str, list[str]] = {}
    for words in _words(section):
        if words[0] not in kinds:
            raise FdesError("SYNTAX_ERROR", f"unknown alphabet line {words[0]!r}")
        _once(payloads.get(words[0]), words[0])
        payloads[words[0]] = words[1:]
        if words[0] == "events":  # as Alphabet checks them, but located at this line
            for name in sorted(words[1:]):
                check_event_id(name)
    # The call's table also maps each body, as its three sets, to its
    # Alphabet: equal bodies are one object, which the merge finds equal at once.
    key = tuple(frozenset(payloads.get(kind, ())) for kind in kinds)
    alphabet = strings.get(key)
    if alphabet is None:
        alphabet = strings[key] = Alphabet(*key)
    return alphabet


def _build_sites(section: _RawSection, alphabets: dict[str, Alphabet], strings: dict) -> SitesDecl:
    alphabet: Alphabet | None = None
    parts: dict[tuple[str, str], list[str]] = {}
    for words in _words(section):
        if words[0] == "alphabet":
            alphabet = _alphabet_line(alphabet, words, alphabets)
            alphabet_name = words[1]
            continue
        if words[0] != "site" or len(words) < 3 or words[1] not in ("1", "2") or words[2] not in (
            "controllable", "observable"
        ):
            raise FdesError("SYNTAX_ERROR", "expected: site 1|2 controllable|observable <events>")
        key = (words[1], words[2])
        if key in parts:
            raise FdesError("SYNTAX_ERROR", f"duplicate site {words[1]} {words[2]} line")
        parts[key] = words[3:]
    if alphabet is None:
        raise FdesError("SYNTAX_ERROR", "sites section needs an alphabet line")
    site1, site2 = (
        SiteSpec(
            frozenset(parts.get((i, "controllable"), [])), frozenset(parts.get((i, "observable"), []))
        )
        for i in ("1", "2")
    )
    alphabet.with_sites(site1, site2)
    return SitesDecl(alphabet_name, site1, site2)


def _build_language(section: _RawSection, alphabets: dict[str, Alphabet], strings: dict) -> FuzzyLanguage:
    alphabet: Alphabet | None = None
    events = None  # the alphabet's events, read once
    entries: dict[EventString, Grade] = {}  # in line order
    valid, before, size = True, None, 0  # the fast check; the last text, its length
    for words in _words(section):
        if words[0] == "alphabet":
            alphabet = _alphabet_line(alphabet, words, alphabets)
            events = alphabet.events
            continue
        if len(words) != 2:
            raise FdesError("SYNTAX_ERROR", "expected: <string> <grade>")
        text = words[0]
        s = strings.get(text)
        if s is None:
            # x.y.z is a read x.y, no eps, plus one event; anything else parses whole.
            head, _, last = text.rpartition(".")
            parent = strings.get(head)
            s = parent + (check_event_id(last),) if parent and last else parse_event_string(text)
            strings[text] = s
        g = parse_grade(words[1])
        if s in entries:
            raise FdesError("DUPLICATE_STRING", f"duplicate string {text}")
        if valid:
            n = len(s)
            if events is None:
                valid = False
            elif n:
                pg = entries.get(s[:-1])  # the parent's grade, if this section read it
                valid = (pg is not None and (g is pg or g <= pg and g.numerator)
                         and s[-1] in events and (size < n or size == n and before < text))
            else:
                valid = not entries and g == ONE
            before, size = text, n
        entries[s] = g
    if alphabet is None:
        raise FdesError("SYNTAX_ERROR", "language section needs an alphabet line")
    return FuzzyLanguage._valid(alphabet, entries) if valid else FuzzyLanguage(alphabet, entries)


def _build_automaton(section: _RawSection, alphabets: dict[str, Alphabet], strings: dict) -> FuzzyAutomaton:
    alphabet: Alphabet | None = None
    states: list[str] = []
    initial: str | None = None
    transitions: dict[tuple[str, str, str], Grade] = {}
    for words in _words(section):
        key, payload = words[0], words[1:]
        if key == "alphabet":
            alphabet = _alphabet_line(alphabet, words, alphabets)
        elif key == "states":
            states.extend(payload)
        elif key == "initial":
            _once(initial, key)
            if len(payload) != 1:
                raise FdesError("SYNTAX_ERROR", "initial line takes one state")
            initial = payload[0]
        elif key == "trans":
            if len(payload) != 4:
                raise FdesError("SYNTAX_ERROR", "expected: trans <from> <event> <to> <grade>")
            edge = (payload[0], payload[1], payload[2])
            if edge in transitions:
                raise FdesError("SYNTAX_ERROR", "duplicate transition " + " ".join(edge))
            transitions[edge] = parse_grade(payload[3])
        else:
            raise FdesError("SYNTAX_ERROR", f"unknown automaton line {key!r}")
    if alphabet is None or initial is None:
        raise FdesError("SYNTAX_ERROR", "automaton section needs alphabet and initial lines")
    return FuzzyAutomaton(frozenset(states), alphabet, initial, transitions)


def _build_supervisor(section: _RawSection, alphabets: dict[str, Alphabet], strings: dict) -> FuzzySupervisor:
    alphabet: Alphabet | None = None
    observable: list[str] | None = None
    controllable: list[str] | None = None
    rows: dict[EventString, dict[str, Grade]] = {}
    current_row: dict[str, Grade] | None = None
    for words in _words(section):
        key = words[0]
        if key == "enable":  # most lines: one per event of each row
            if current_row is None:
                raise FdesError("SYNTAX_ERROR", "enable line before any obs line")
            if len(words) != 3:
                raise FdesError("SYNTAX_ERROR", "expected: enable <event> <grade>")
            if words[1] in current_row:
                raise FdesError("SYNTAX_ERROR", f"duplicate enable {words[1]!r} line")
            current_row[words[1]] = parse_grade(words[2])
            continue
        payload = words[1:]
        if current_row is not None and key in ("alphabet", "observable", "controllable"):
            raise FdesError("SYNTAX_ERROR", f"{key} line after the first obs line")
        if key == "alphabet":
            alphabet = _alphabet_line(alphabet, words, alphabets)
        elif key == "observable":
            _once(observable, key)
            observable = payload
        elif key == "controllable":
            _once(controllable, key)
            controllable = payload
        elif key == "obs":
            if len(payload) != 1:
                raise FdesError("SYNTAX_ERROR", "obs line takes one observed string")
            observed = strings.get(payload[0])
            if observed is None:
                observed = strings[payload[0]] = parse_event_string(payload[0])
            if observed in rows:
                raise FdesError("DUPLICATE_STRING", f"duplicate row {payload[0]}")
            current_row = {}
            rows[observed] = current_row
        else:
            raise FdesError("SYNTAX_ERROR", f"unknown supervisor line {key!r}")
    if alphabet is None or observable is None or controllable is None:
        raise FdesError(
            "SYNTAX_ERROR", "supervisor section needs alphabet, observable, and controllable lines"
        )
    return FuzzySupervisor(Projection(alphabet, observable), controllable, rows)


def _check_name(name: str) -> None:
    """The one rule for section and state names, which the parser's line
    split implies: a name is a non-empty str and holds no '#' and no
    character for which ``str.isspace`` is true."""
    if not isinstance(name, str) or "#" in name or name.split() != [name]:
        raise FdesError("SYNTAX_ERROR", f"bad name {name!r}: a name is non-empty, "
                        "with no whitespace and no '#'")


def _word_line(*parts: str) -> str:
    return " ".join(p for p in parts if p)


def _emit_alphabet(alphabet: Alphabet, doc: FdlDocument) -> list[str]:
    if alphabet.sites is not None:
        raise FdesError("SYNTAX_ERROR", "FDL writes sites as a sites section, not on an alphabet")
    lines = [_word_line("events", " ".join(sorted(alphabet.events)))]
    if alphabet.controllable:
        lines.append("controllable " + " ".join(sorted(alphabet.controllable)))
    if alphabet.observable:
        lines.append("observable " + " ".join(sorted(alphabet.observable)))
    return lines


def _emit_sites(decl: SitesDecl, doc: FdlDocument) -> list[str]:
    if decl.alphabet_name not in doc.alphabets:
        raise FdesError("SYNTAX_ERROR", f"unknown alphabet {decl.alphabet_name!r}")
    doc.alphabets[decl.alphabet_name].with_sites(decl.site1, decl.site2)  # as _build_sites checks them
    lines = [f"alphabet {decl.alphabet_name}"]
    for i, site in ((1, decl.site1), (2, decl.site2)):
        lines.append(_word_line(f"site {i} controllable", " ".join(sorted(site.controllable))))
        lines.append(_word_line(f"site {i} observable", " ".join(sorted(site.observable))))
    return lines


def _emit_language(language: FuzzyLanguage, doc: FdlDocument) -> list[str]:
    lines = [f"alphabet {doc.alphabet_name_of(language.alphabet)}"]
    # Grades are shared objects, so each is rendered once; a Fraction
    # costs more to hash than to render, hence id(g) as the key.
    rendered: dict[int, str] = {}
    for s, g in language.items():
        text = rendered.get(id(g))
        if text is None:
            text = rendered[id(g)] = render_grade(g)
        lines.append(f"{render_event_string(s)} {text}")
    return lines


def _emit_automaton(automaton: FuzzyAutomaton, doc: FdlDocument) -> list[str]:
    # Transitions and the initial state only name states of this set.
    states = sorted(automaton.states, key=str)  # by str, so a state that is no str reaches its check
    for state in states:
        _check_name(state)
    lines = [
        f"alphabet {doc.alphabet_name_of(automaton.alphabet)}",
        "states " + " ".join(states),
        f"initial {automaton.initial}",
    ]
    for (p, a, q), g in sorted(automaton.transitions.items()):
        lines.append(f"trans {p} {a} {q} {render_grade(g)}")
    return lines


def _emit_supervisor(supervisor: FuzzySupervisor, doc: FdlDocument) -> list[str]:
    lines = [
        f"alphabet {doc.alphabet_name_of(supervisor.projection.alphabet)}",
        _word_line("observable", " ".join(sorted(supervisor.projection.observable))),
        _word_line("controllable", " ".join(sorted(supervisor.controllables))),
    ]
    rendered: dict[int, str] = {}  # as in _emit_language
    for observed in sorted(supervisor.table, key=string_key):
        lines.append(f"obs {render_event_string(observed)}")
        row = supervisor.table[observed]
        for event in sorted(row):
            g = row[event]
            text = rendered.get(id(g))
            if text is None:
                text = rendered[id(g)] = render_grade(g)
            lines.append(f"enable {event} {text}")
    return lines


# The one table of section kinds, in build and emission order: each kind's
# FdlDocument table, its builder, which takes (section, alphabets built so
# far, the call's string and alphabet table), and its emitter, which takes
# (value, document), returns the lines ``emit_fdl`` writes under the header
# and refuses what the builder would.
_Kind = namedtuple("_Kind", "table build emit")
_KINDS = {
    "alphabet": _Kind("alphabets", _build_alphabet, _emit_alphabet),
    "sites": _Kind("sites", _build_sites, _emit_sites),
    "language": _Kind("languages", _build_language, _emit_language),
    "automaton": _Kind("automata", _build_automaton, _emit_automaton),
    "supervisor": _Kind("supervisors", _build_supervisor, _emit_supervisor),
}
_ORDER = {kind: rank for rank, kind in enumerate(_KINDS)}
_TABLE_NAMES = [kind.table for kind in _KINDS.values()]
# A document's tables, which its equality and repr read; not file_sections.
_tables = attrgetter(*_TABLE_NAMES)


class FdlDocument:
    __slots__ = (*_TABLE_NAMES, "file_sections")

    def __init__(self, **tables: dict):
        for table in _TABLE_NAMES:
            value = tables.pop(table, None)
            setattr(self, table, {} if value is None else value)
        if tables:
            raise TypeError(f"FdlDocument got unexpected tables: {', '.join(sorted(tables))}")
        # Source name -> (kind, name) of each of its sections, in file order.
        self.file_sections: dict[str, list] = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _tables(self) == _tables(other)

    def __repr__(self) -> str:
        tables = ", ".join(f"{name}={table!r}" for name, table in zip(_TABLE_NAMES, _tables(self)))
        return f"FdlDocument({tables})"

    def single(self, kind: str, source: str | None = None):
        """The unique section of a kind, as (name, value): among the
        sections of the file ``source``, else of the whole document."""
        table = getattr(self, _KINDS[kind].table)
        found = sorted(table) if source is None else self.names(kind, source)
        if len(found) != 1:
            where = "" if source is None else f"{source}: "
            names = ", ".join(found) or "none"
            raise FdesError("SYNTAX_ERROR", f"{where}expected exactly one {kind} section, found: {names}")
        return found[0], table[found[0]]

    def names(self, kind: str, source: str) -> list[str]:
        """The names of one file's sections of a kind, in file order; none for another file."""
        return [name for k, name in self.file_sections.get(source, ()) if k == kind]

    def alphabet_name_of(self, alphabet: Alphabet) -> str:
        for name, value in sorted(self.alphabets.items()):
            if value == alphabet:
                return name
        raise FdesError("SYNTAX_ERROR", "its alphabet is no alphabet section of the document")


def parse_documents(named_texts: list[tuple[str, str]]) -> FdlDocument:
    """Parse and merge one document from (source name, text) pairs."""
    doc = FdlDocument()
    # Text -> event string, and alphabet body -> Alphabet, for this call alone.
    strings: dict = {}
    sections: list[_RawSection] = []
    for source, text in named_texts:
        split = _split_sections(source, text)
        doc.file_sections[source] = [(s.kind, s.name) for s in split]
        sections.extend(split)
    for section in sorted(sections, key=lambda s: _ORDER[s.kind]):
        kind = _KINDS[section.kind]
        try:
            value = kind.build(section, doc.alphabets, strings)
        except FdesError as err:
            _fail(section.source, section.at, err.message, err.code)
        table = getattr(doc, kind.table)
        if section.name in table:
            if table[section.name] != value:
                _fail(
                    section.source,
                    section.line,
                    f"conflicting redefinition of {section.kind} {section.name!r}",
                )
            continue
        table[section.name] = value
    return doc


def parse_fdl(text: str, source: str = "<fdl>") -> FdlDocument:
    return parse_documents([(source, text)])


def section_names(source: str, text: str, kind: str) -> list[str]:
    """Names of all sections of one kind, in file order, without building."""
    return [s.name for s in _split_sections(source, text) if s.kind == kind]


def emit_fdl(doc: FdlDocument) -> str:
    """Canonical text for a document; reparsing yields an equal document.
    A section the parser would refuse is refused here, with its code."""
    # Each section's text with its closing "\n", joined as it is emitted, so
    # one join copies the blocks into the output; with no section it is "\n".
    blocks: list[str] = []
    for kind, (table_name, _, emit) in _KINDS.items():
        table = getattr(doc, table_name)
        for name in sorted(table, key=str):  # as the states are
            try:
                _check_name(name)
                blocks.append("\n".join([f"[{kind} {name}]", *emit(table[name], doc), ""]))
            except FdesError as err:
                raise FdesError(err.code, f"{kind} {name!r}: {err.message}") from None
    return "\n".join(blocks) or "\n"
