"""Spans around calls into the layers of ``fdes``, recorded from outside.

The tracer replaces each timed public function, in every ``fdes`` module
namespace that binds it, with a wrapper that records a span (name, start,
end, parent) while tracing is switched on.  Nested calls between layers
(``solve_scp`` calling ``infimal_co``, ``run_command`` calling a fixed
point) become child spans, so each layer's self time is its spans' total
minus the time their children cover.  Nothing inside ``src/fdes`` changes.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

# Layer metric -> (module, public functions whose spans it collects).
LAYERS = {
    "language.build_s": ("language", ("build_language",)),
    "language.algebra_s": ("language", ("union", "intersection", "is_sublanguage")),
    "observation.classes_s": ("observation", ("projection_classes",)),
    "observation.project_s": ("observation", ("project_language", "inverse_project_meet")),
    "automaton.generate_s": ("automaton", ("generated_language",)),
    "predicates.controllable_s": ("predicates", ("is_controllable",)),
    "predicates.observable_s": ("predicates", ("is_observable",)),
    "predicates.strongly_observable_s": ("predicates", ("is_strongly_observable",)),
    "predicates.normal_s": ("predicates", ("is_normal",)),
    "predicates.coobservable_s": ("predicates", ("is_coobservable",)),
    "approximation.infimal_co_s": ("approximation", ("infimal_co",)),
    "approximation.supremal_cn_s": ("approximation", ("supremal_cn",)),
    "approximation.scp_s": ("approximation", ("solve_scp",)),
    "synthesis.central_s": ("synthesis", ("synthesize_central",)),
    "synthesis.decentralized_s": ("synthesis", ("synthesize_decentralized",)),
    "synthesis.closed_loop_s": ("synthesis", ("closed_loop_central", "closed_loop_decentralized")),
    "fdl.parse_s": ("fdl", ("parse_fdl", "parse_documents")),
    "fdl.emit_s": ("fdl", ("emit_fdl",)),
    "cli.command_s": ("cli", ("run_command",)),
}


def _changed(before, after) -> int:
    strings = {s for s, _ in before.items()} | {s for s, _ in after.items()}
    return sum(1 for s in strings if before.grade(s) != after.grade(s))


def _lattice(spec, plant) -> int:
    return len({g for lang in (spec, plant) for _, g in lang.items()} | {0, 1})


# Function -> how its call adds to the per-layer counts, given (args, result).
COUNTS = {
    "infimal_co": lambda a, r: {"approximation.raised": _changed(a[0], r),
                                "approximation.lattice": _lattice(a[0], a[1])},
    "supremal_cn": lambda a, r: {"approximation.lowered": _changed(a[0], r),
                                 "approximation.lattice": _lattice(a[0], a[1])},
    "is_controllable": lambda a, r: {"predicates.witnesses": len(r.witnesses)},
    "is_observable": lambda a, r: {"predicates.witnesses": len(r.witnesses)},
    "is_strongly_observable": lambda a, r: {"predicates.witnesses": len(r.witnesses)},
    "is_normal": lambda a, r: {"predicates.witnesses": len(r.witnesses)},
    "is_coobservable": lambda a, r: {"predicates.witnesses": len(r.witnesses)},
    "synthesize_central": lambda a, r: {"synthesis.rows": len(r.table)},
    "synthesize_decentralized": lambda a, r: {"synthesis.rows": sum(len(s.table) for s in r)},
    "projection_classes": lambda a, r: {"observation.classes": len(r),
                                        "observation.max_class": max(map(len, r.values()), default=0)},
    "generated_language": lambda a, r: {"automaton.plant_strings": len(r.support)},
    "parse_documents": lambda a, r: {"fdl.bytes": sum(len(text) for _, text in a[0])},
    "emit_fdl": lambda a, r: {"fdl.bytes": len(r)},
    "run_command": lambda a, r: {"cli.commands": 1},
}
# Counts that keep the largest value seen instead of a sum.
MAXIMA = {"approximation.lattice", "observation.max_class"}
COUNT_NAMES = (
    "approximation.raised", "approximation.lowered", "approximation.lattice",
    "predicates.witnesses", "synthesis.rows", "observation.classes",
    "observation.max_class", "automaton.plant_strings", "fdl.bytes", "cli.commands",
)


class Tracer:
    """Records spans while ``active``; does nothing otherwise."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: list[tuple] = []  # (function name, args, result) for counting
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if name in COUNTS:
                tracer.calls.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded ``fdes`` module."""
        originals = {}
        for module_name, names in LAYERS.values():
            module = sys.modules[f"fdes.{module_name}"]
            for name in names:
                originals[getattr(module, name)] = name
        wrappers = {fn: self._wrap(name, fn) for fn, name in originals.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "fdes" and not module_name.startswith("fdes."):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])

    def take(self) -> tuple[list, list]:
        """Hand over the spans and calls recorded so far and start afresh."""
        spans, calls = self.spans, self.calls
        self.spans, self.calls = [], []
        return spans, calls


def self_times(spans: list) -> dict:
    """Layer metric -> summed self time of its spans."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    metric_of = {fn: metric for metric, (_, names) in LAYERS.items() for fn in names}
    out = dict.fromkeys(LAYERS, 0.0)
    for (name, start, end, _), inner in zip(spans, child_time):
        out[metric_of[name]] += end - start - inner
    return out


def counts(calls: list) -> dict:
    out = dict.fromkeys(COUNT_NAMES, 0)
    for name, args, result in calls:
        for key, value in COUNTS[name](args, result).items():
            out[key] = max(out[key], value) if key in MAXIMA else out[key] + value
    return out


def run_command_times(spans: list) -> list:
    return [end - start for name, start, end, _ in spans if name == "run_command"]


def write_spans(path, spans: list) -> None:
    """One JSON object per span: name, start, end, parent (index or -1)."""
    with open(path, "w", encoding="utf-8") as out:
        for name, start, end, parent in spans:
            out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def median(values) -> float:
    return statistics.median(values) if values else 0.0
