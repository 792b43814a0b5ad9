"""Event identifiers, event strings, and control/observation alphabets; one
gate checks every set of events a caller hands in (``event_subset``), one
every string of events (``event_string``), and ``site_cover`` checks that
two sites' sets cover E_c or E_o.  ``Record``, the immutable base of the
package's records, lives here, the lowest module that defines one."""

from __future__ import annotations

import re
from functools import lru_cache
from operator import attrgetter

from .errors import FdesError

EventId = str
EventString = tuple[EventId, ...]

EPSILON: EventString = ()
EPSILON_TEXT = "eps"

_IDENT = re.compile(r"[A-Za-z0-9_]+")


@lru_cache(maxsize=4096)
def check_event_id(name: str) -> EventId:
    """Validate an event identifier: a str of letters, digits, underscores."""
    if not isinstance(name, str) or not _IDENT.fullmatch(name):
        raise FdesError("MALFORMED_EVENT", f"bad event identifier: {name!r}")
    if name == EPSILON_TEXT:
        raise FdesError("MALFORMED_EVENT", f"{EPSILON_TEXT!r} is reserved for the empty string")
    return name


def event_set(value) -> frozenset[EventId]:
    """A caller's set of events: a collection, where a ``str`` would split into characters."""
    try:
        events = None if isinstance(value, str) else frozenset(value)
    except TypeError:
        events = None
    if events is None:
        raise FdesError("MALFORMED_EVENT", f"event set {value!r} must be a collection of event ids")
    return events


def event_subset(value, within: frozenset, message: str, code: str = "UNKNOWN_EVENT") -> frozenset[EventId]:
    """``event_set(value)``, refused unless within ``within`` (of str), naming the strays
    sorted; a stray that is no str is refused first, as ``check_event_id`` refuses it."""
    events = event_set(value)
    if not events <= within:
        strays = events - within
        _refuse_non_str(strays)
        raise FdesError(code, f"{message}: {', '.join(sorted(strays))}")
    return events


def event_string(value) -> EventString:
    """A caller's string of events: a tuple as is, any other iterable read as
    one; a ``str``, which would split into characters, or a non-iterable is refused."""
    if isinstance(value, tuple):
        return value
    try:
        if not isinstance(value, str):
            return tuple(value)
    except TypeError:
        pass
    raise string_error(value)


def string_error(value) -> FdesError:
    return FdesError("MALFORMED_EVENT", f"event string {value!r} must be a tuple of event ids")


def _refuse_non_str(events: frozenset) -> None:
    """Refuse a member that is no str, the first by repr, as ``check_event_id`` does."""
    for event in sorted((e for e in events if not isinstance(e, str)), key=repr):
        check_event_id(event)


def site_cover(whole: frozenset, parts, kind: str, name: str) -> None:
    """Refuse site sets whose union misses events of ``whole``, naming them sorted."""
    missing = ", ".join(sorted(whole.difference(*parts)))
    if missing:
        raise FdesError("SITE_COVER_VIOLATION", f"site {kind} sets do not cover {name}: missing {missing}")


def parse_event_string(text: str) -> EventString:
    """Parse ``eps`` or dot-joined event ids like ``a.c.d``."""
    if text == EPSILON_TEXT:
        return EPSILON
    parts = text.split(".")
    if any(not p for p in parts):
        raise FdesError("MALFORMED_EVENT", f"bad event string: {text!r}")
    return tuple(check_event_id(p) for p in parts)


def render_event_string(s: EventString) -> str:
    return ".".join(s) if s else EPSILON_TEXT


def string_key(s: EventString) -> tuple[int, EventString]:
    """Canonical (length, lexicographic) ordering key for event strings."""
    return (len(s), s)


class Record:
    """An immutable record whose fields are its ``__slots__``, in order.

    Each subclass's ``__init__`` ends with one ``_set`` call, which stores
    all its fields, given in ``__slots__`` order.  Records compare, hash
    and print as frozen dataclasses do: by the tuple of their fields, only
    with an instance of the same class.  The same record equals itself at
    once: every check compares its alphabet with the plant's, which is
    most often the same object.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = attrgetter(*cls.__slots__)
        # The slots' own setters, which bypass the refusing __setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def _set(self, *values) -> None:
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields(self)))
        return f"{type(self).__qualname__}({fields})"


class SiteSpec(Record):
    """Per-site controllable and observable event sets for decentralized control."""

    __slots__ = ("controllable", "observable")

    def __init__(self, controllable: frozenset[EventId], observable: frozenset[EventId]):
        sets = event_set(controllable), event_set(observable)
        _refuse_non_str(sets[0] | sets[1])
        self._set(*sets)


class Alphabet(Record):
    """Finite event set with controllable/observable subsets.

    ``sites``, when present, holds exactly two local site specifications
    whose controllable (resp. observable) sets cover the global ones.
    The uncontrollable and unobservable sets are derived, never stored.
    """

    __slots__ = ("events", "controllable", "observable", "sites")

    def __init__(
        self,
        events: frozenset[EventId],
        controllable: frozenset[EventId] = frozenset(),
        observable: frozenset[EventId] = frozenset(),
        sites: tuple[SiteSpec, SiteSpec] | None = None,
    ):
        events, controllable, observable = event_set(events), event_set(controllable), event_set(observable)
        # Sorted, so the bad id reported is not the hash's pick; by str, lest a non-str compare.
        for name in sorted(events, key=str):
            check_event_id(name)
        event_subset(controllable, events, "controllable events not in alphabet")
        event_subset(observable, events, "observable events not in alphabet")
        if sites is not None:
            sites = tuple(sites)
            if len(sites) != 2:
                raise FdesError("SITE_COVER_VIOLATION", "exactly two sites are supported")
            kinds = (("controllable", "controls", "E_c", controllable),
                     ("observable", "observes", "E_o", observable))
            for i, site in enumerate(sites, start=1):
                for kind, verb, _, own in kinds:
                    outside = f"site {i} {verb} events outside the {kind} set"
                    event_subset(getattr(site, kind), own, outside, "SITE_COVER_VIOLATION")
            for kind, _, name, own in kinds:
                site_cover(own, [getattr(site, kind) for site in sites], kind, name)
        self._set(events, controllable, observable, sites)

    @property
    def uncontrollable(self) -> frozenset[EventId]:
        return self.events - self.controllable

    @property
    def unobservable(self) -> frozenset[EventId]:
        return self.events - self.observable

    def with_sites(self, site1: SiteSpec, site2: SiteSpec) -> "Alphabet":
        return Alphabet(self.events, self.controllable, self.observable, (site1, site2))

    def check_string(self, s) -> EventString:
        """``event_string(s)``, refused at its first event outside the alphabet."""
        s = event_string(s)
        for event in s:
            if event not in self.events:
                raise FdesError("UNKNOWN_EVENT", f"event {event!r} not in alphabet")
        return s
