"""Event identifiers, event strings, and control/observation alphabets; one
gate, ``event_subset``, checks every set of events a caller hands in, and
``site_cover`` checks that two sites' sets cover E_c or E_o."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import FdesError

EventId = str
EventString = tuple[EventId, ...]

EPSILON: EventString = ()
EPSILON_TEXT = "eps"

_IDENT = re.compile(r"[A-Za-z0-9_]+")


@lru_cache(maxsize=4096)
def check_event_id(name: str) -> EventId:
    """Validate an event identifier (letters, digits, underscore)."""
    if not _IDENT.fullmatch(name):
        raise FdesError("MALFORMED_EVENT", f"bad event identifier: {name!r}")
    if name == EPSILON_TEXT:
        raise FdesError("MALFORMED_EVENT", f"{EPSILON_TEXT!r} is reserved for the empty string")
    return name


def event_set(value) -> frozenset[EventId]:
    """A caller's set of events; a ``str`` would split into characters."""
    if isinstance(value, str):
        raise FdesError("MALFORMED_EVENT", f"event set {value!r} must be a collection of event ids")
    return frozenset(value)


def event_subset(value, within: frozenset, message: str, code: str = "UNKNOWN_EVENT") -> frozenset[EventId]:
    """``event_set(value)``, refused unless within ``within``, naming the strays sorted."""
    events = event_set(value)
    if not events <= within:
        raise FdesError(code, f"{message}: {', '.join(sorted(events - within))}")
    return events


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


@dataclass(frozen=True)
class SiteSpec:
    """Per-site controllable and observable event sets for decentralized control."""

    controllable: frozenset[EventId]
    observable: frozenset[EventId]

    def __post_init__(self):
        object.__setattr__(self, "controllable", event_set(self.controllable))
        object.__setattr__(self, "observable", event_set(self.observable))


@dataclass(frozen=True)
class Alphabet:
    """Finite event set with controllable/observable subsets.

    ``sites``, when present, holds exactly two local site specifications
    whose controllable (resp. observable) sets cover the global ones.
    The uncontrollable and unobservable sets are derived, never stored.
    """

    events: frozenset[EventId]
    controllable: frozenset[EventId] = frozenset()
    observable: frozenset[EventId] = frozenset()
    sites: tuple[SiteSpec, SiteSpec] | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", event_set(self.events))
        object.__setattr__(self, "controllable", event_set(self.controllable))
        object.__setattr__(self, "observable", event_set(self.observable))
        # Sorted, so that the bad identifier reported is not the hash's pick.
        for name in sorted(self.events):
            check_event_id(name)
        event_subset(self.controllable, self.events, "controllable events not in alphabet")
        event_subset(self.observable, self.events, "observable events not in alphabet")
        if self.sites is not None:
            sites = tuple(self.sites)
            if len(sites) != 2:
                raise FdesError("SITE_COVER_VIOLATION", "exactly two sites are supported")
            object.__setattr__(self, "sites", sites)
            for i, site in enumerate(sites, start=1):
                for kind, verb in (("controllable", "controls"), ("observable", "observes")):
                    outside = f"site {i} {verb} events outside the {kind} set"
                    event_subset(getattr(site, kind), getattr(self, kind), outside, "SITE_COVER_VIOLATION")
            for kind, name in (("controllable", "E_c"), ("observable", "E_o")):
                site_cover(getattr(self, kind), [getattr(site, kind) for site in sites], kind, name)

    @property
    def uncontrollable(self) -> frozenset[EventId]:
        return self.events - self.controllable

    @property
    def unobservable(self) -> frozenset[EventId]:
        return self.events - self.observable

    def with_sites(self, site1: SiteSpec, site2: SiteSpec) -> "Alphabet":
        return Alphabet(self.events, self.controllable, self.observable, (site1, site2))

    def check_string(self, s: EventString) -> EventString:
        for event in s:
            if event not in self.events:
                raise FdesError("UNKNOWN_EVENT", f"event {event!r} not in alphabet")
        return s
