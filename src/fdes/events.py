"""Event identifiers, event strings, and control/observation alphabets."""

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
        object.__setattr__(self, "controllable", frozenset(self.controllable))
        object.__setattr__(self, "observable", frozenset(self.observable))


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
        object.__setattr__(self, "events", frozenset(self.events))
        object.__setattr__(self, "controllable", frozenset(self.controllable))
        object.__setattr__(self, "observable", frozenset(self.observable))
        # Sorted, so that the bad identifier reported is not the hash's pick.
        for name in sorted(self.events):
            check_event_id(name)
        if not self.controllable <= self.events:
            extra = ", ".join(sorted(self.controllable - self.events))
            raise FdesError("UNKNOWN_EVENT", f"controllable events not in alphabet: {extra}")
        if not self.observable <= self.events:
            extra = ", ".join(sorted(self.observable - self.events))
            raise FdesError("UNKNOWN_EVENT", f"observable events not in alphabet: {extra}")
        if self.sites is not None:
            sites = tuple(self.sites)
            if len(sites) != 2:
                raise FdesError("SITE_COVER_VIOLATION", "exactly two sites are supported")
            object.__setattr__(self, "sites", sites)
            for i, site in enumerate(sites, start=1):
                if not site.controllable <= self.controllable:
                    raise FdesError(
                        "SITE_COVER_VIOLATION",
                        f"site {i} controls events outside the controllable set",
                    )
                if not site.observable <= self.observable:
                    raise FdesError(
                        "SITE_COVER_VIOLATION",
                        f"site {i} observes events outside the observable set",
                    )
            if sites[0].controllable | sites[1].controllable != self.controllable:
                raise FdesError("SITE_COVER_VIOLATION", "site controllable sets do not cover E_c")
            if sites[0].observable | sites[1].observable != self.observable:
                raise FdesError("SITE_COVER_VIOLATION", "site observable sets do not cover E_o")

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
