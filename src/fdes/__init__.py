"""Supervisory control of fuzzy discrete-event systems with partial observation.

Behaviors are fuzzy languages: finite-support maps from event strings to
exact rational membership grades combined only by min and max.  The package
checks controllability, observability, strong observability, normality, and
co-observability with machine-readable witnesses, synthesizes centralized
and decentralized partial-observation supervisors, computes closed-loop
behaviors, and computes infimal/supremal approximation languages certified
by brute-force oracles.
"""

from .approximation import ScpResult, infimal_co, solve_scp, supremal_cn
from .automaton import FuzzyAutomaton, automaton_from_language, extended_transition, generated_language
from .errors import ConditionViolated, FdesError
from .events import EPSILON, Alphabet, EventString, SiteSpec, parse_event_string, render_event_string
from .fdl import FdlDocument, emit_fdl, parse_fdl
from .grades import Grade, as_grade, join, meet, parse_grade, render_grade
from .language import (
    FuzzyLanguage,
    build_language,
    concatenation,
    empty_language,
    intersection,
    is_sublanguage,
    prefix_close_repair,
    union,
)
from .observation import Projection, inverse_project_meet, natural_projection, project_language, project_string
from .predicates import (
    CheckReport,
    Witness,
    is_controllable,
    is_coobservable,
    is_normal,
    is_observable,
    is_strongly_observable,
)
from .synthesis import (
    FuzzySupervisor,
    closed_loop_central,
    closed_loop_decentralized,
    make_supervisor,
    synthesize_central,
    synthesize_decentralized,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "CheckReport",
    "ConditionViolated",
    "EPSILON",
    "EventString",
    "FdesError",
    "FdlDocument",
    "FuzzyAutomaton",
    "FuzzyLanguage",
    "FuzzySupervisor",
    "Grade",
    "Projection",
    "ScpResult",
    "SiteSpec",
    "Witness",
    "as_grade",
    "automaton_from_language",
    "build_language",
    "closed_loop_central",
    "closed_loop_decentralized",
    "concatenation",
    "emit_fdl",
    "empty_language",
    "extended_transition",
    "generated_language",
    "infimal_co",
    "intersection",
    "inverse_project_meet",
    "is_controllable",
    "is_coobservable",
    "is_normal",
    "is_observable",
    "is_strongly_observable",
    "is_sublanguage",
    "join",
    "make_supervisor",
    "meet",
    "natural_projection",
    "parse_event_string",
    "parse_fdl",
    "parse_grade",
    "prefix_close_repair",
    "project_language",
    "project_string",
    "render_event_string",
    "render_grade",
    "solve_scp",
    "supremal_cn",
    "synthesize_central",
    "synthesize_decentralized",
    "union",
]
