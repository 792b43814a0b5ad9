"""Command-line surface: batch checks, synthesis, and language operations.

Exit codes partition outcomes exactly: 0 when the command succeeds or the
checked property holds, 1 when a property fails or no solution exists,
2 for usage and input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import approximation, oracle, predicates, synthesis
from .automaton import generated_language
from .errors import ConditionViolated, FdesError
from .events import parse_event_string, render_event_string
from .fdl import _KINDS, FdlDocument, emit_fdl, parse_documents
from .grades import render_grade
from .language import concatenation, intersection, is_sublanguage, union
from .observation import Projection, natural_projection, project_language
from .predicates import CheckReport

def _read(path: str) -> tuple[str, str]:
    # Bytes decoded once, cheaper than a text read: no newline is translated,
    # so lines are numbered at "\n" only, as parse_fdl numbers them, and a
    # "\r" stays in its line as whitespace; a bad byte reads as in text mode.
    try:
        with open(path, "rb") as file:
            return path, file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise FdesError("IO_ERROR", f"cannot read {path}: {err}") from None


def _load(paths: list[str]) -> FdlDocument:
    """One document from the files named, each read and parsed once
    however many options name it, in the order first named."""
    return parse_documents([_read(p) for p in dict.fromkeys(paths)])


def _load_plant_spec(args, sites: str | None = None):
    """Load --plant, --spec and the sites file if given; pick the two languages."""
    doc = _load([args.plant, args.spec] + ([sites] if sites else []))
    plant = doc.single("language", args.plant)[1]
    spec = doc.single("language", args.spec)[1]
    return doc, plant, spec


def _sites_pair(doc: FdlDocument, path: str | None):
    """The sites section of the --sites file, else the one among the inputs."""
    decl = doc.single("sites", path)[1]
    alphabet = doc.alphabets[decl.alphabet_name]
    return [(Projection(alphabet, s.observable), s.controllable) for s in (decl.site1, decl.site2)]


def _witness_json(w: predicates.Witness) -> dict:
    return {
        "kind": w.kind,
        "strings": [render_event_string(s) for s in w.strings],
        "event": w.event,
        "lhs": None if w.lhs is None else render_grade(w.lhs),
        "rhs": None if w.rhs is None else render_grade(w.rhs),
        "projection_class": [render_event_string(s) for s in w.projection_class],
    }


def _report_json(prop: str, report: CheckReport) -> str:
    payload = {
        "property": prop,
        "holds": report.holds,
        "witnesses": [_witness_json(w) for w in report.witnesses],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _witness_text(w: predicates.Witness) -> str:
    fields = _witness_json(w)
    parts = [f"witness {w.kind}:", "strings=(" + ", ".join(fields["strings"]) + ")"]
    parts += [f"{key}={fields[key]}" for key in ("event", "lhs", "rhs") if fields[key] is not None]
    if fields["projection_class"]:
        parts.append("class={" + ", ".join(fields["projection_class"]) + "}")
    return " ".join(parts)


def _print_report(prop: str, report: CheckReport, as_json: bool) -> int:
    if as_json:
        print(_report_json(prop, report))
    else:
        print(f"check {prop}: {'holds' if report.holds else 'fails'}")
        for w in report.witnesses:
            print(_witness_text(w))
    return 0 if report.holds else 1


def _emit_result(named: FdlDocument, table: str, sections: dict, alphabet) -> str:
    """The text of one result document: ``sections`` in one table, and the
    alphabet they all read, under the name of its section in ``named``."""
    alphabets = {named.alphabet_name_of(alphabet): alphabet}
    return emit_fdl(FdlDocument(alphabets=alphabets, **{table: sections}))


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        print(text, end="")
    else:
        try:
            with open(out, "w", encoding="utf-8") as file:
                file.write(text)
        except OSError as err:
            raise FdesError("IO_ERROR", f"cannot write {out}: {err}") from None


def _cmd_validate(args) -> int:
    doc = _load(args.files)
    for kind, (table, _, _) in _KINDS.items():
        names = sorted(getattr(doc, table))
        if names:
            print(f"{kind}: {' '.join(names)}")
    print("ok")
    return 0


def _cmd_check(args) -> int:
    doc, plant, spec = _load_plant_spec(args, args.sites)
    alphabet = plant.alphabet
    if args.property == "controllable":
        report = predicates.is_controllable(spec, plant)
    elif args.property == "observable":
        report = predicates.is_observable(spec, plant, natural_projection(alphabet))
    elif args.property == "strongly-observable":
        report = predicates.is_strongly_observable(spec, plant, natural_projection(alphabet))
    elif args.property == "normal":
        report = predicates.is_normal(spec, plant, natural_projection(alphabet))
    else:
        report = predicates.is_coobservable(spec, plant, *_sites_pair(doc, args.sites))
    return _print_report(args.property, report, args.json)


def _cmd_synthesize(args) -> int:
    doc, plant, spec = _load_plant_spec(args, args.sites)
    if args.mode == "central":
        supervisors = {"S": synthesis.synthesize_central(
            spec, plant, natural_projection(plant.alphabet), force=args.force
        )}
    else:
        site1, site2 = _sites_pair(doc, args.sites)
        s1, s2 = synthesis.synthesize_decentralized(spec, plant, site1, site2, force=args.force)
        supervisors = {"S1": s1, "S2": s2}
    # Synthesis refuses a site observing through any other alphabet than the plant's.
    _write_out(_emit_result(doc, "supervisors", supervisors, plant.alphabet), args.out)
    return 0


def _cmd_closed_loop(args) -> int:
    doc = _load([args.plant] + args.supervisor)
    plant = doc.single("language", args.plant)[1]
    names = {name for path in args.supervisor for name in doc.names("supervisor", path)}
    supervisors = [doc.supervisors[name] for name in sorted(names)]
    if len(supervisors) == 1:
        result = synthesis.closed_loop_central(plant, supervisors[0])
    elif len(supervisors) == 2:
        result = synthesis.closed_loop_decentralized(plant, supervisors[0], supervisors[1])
    else:
        raise FdesError("SYNTAX_ERROR", "closed-loop needs one or two supervisor sections")
    _write_out(_emit_result(doc, "languages", {"closed_loop": result}, result.alphabet), args.out)
    return 0


def _cmd_extremal(args) -> int:
    doc, plant, spec = _load_plant_spec(args)
    name = args.command.replace("-", "_")  # the function, and the section it writes
    result = getattr(approximation, name)(spec, plant, natural_projection(plant.alphabet))
    _write_out(_emit_result(doc, "languages", {name: result}, result.alphabet), args.out)
    return 0


def _cmd_scp(args) -> int:
    doc = _load([args.plant, args.min, args.max])
    plant = doc.single("language", args.plant)[1]
    minimal = doc.single("language", args.min)[1]
    legal = doc.single("language", args.max)[1]
    result = approximation.solve_scp(minimal, legal, plant, natural_projection(plant.alphabet))
    # A supervisor is emitted only where it is written: to --out, before
    # anything is printed, as synthesize writes it; else to stdout after the
    # verdict unless --json took it.
    supervisor = None
    if result.solvable and (args.out or not args.json):
        supervisor = _emit_result(doc, "supervisors", {"S": result.supervisor}, plant.alphabet)
        if args.out:
            _write_out(supervisor, args.out)
    if args.json:
        payload = {
            "solvable": result.solvable,
            "infimal_co": {
                render_event_string(s): render_grade(g) for s, g in result.infimal.items()
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif result.solvable:
        print("scp: solvable")
    else:
        print("scp: no solution; the infimal controllable and observable "
              "superlanguage of the minimal behavior exceeds the legal bound")
        infimal = result.infimal
        print(_emit_result(doc, "languages", {"infimal_co": infimal}, infimal.alphabet), end="")
    if supervisor and not args.out:
        print(supervisor, end="")
    return 0 if result.solvable else 1


def _cmd_lang(args) -> int:
    doc = _load(args.files)
    # A file without a language section only lends definitions, such as an alphabet.
    files = [p for p in args.files if doc.names("language", p)]
    languages = [doc.single("language", path)[1] for path in files]

    def operands(count: int):
        if len(languages) != count:
            need = "needs two language files" if count == 2 else "takes one language file"
            raise FdesError("SYNTAX_ERROR", f"--op {args.op} {need}")
        return languages

    if args.op in ("union", "intersect", "concat"):
        a, b = operands(2)
        ops = {"union": union, "intersect": intersection, "concat": concatenation}
        result = ops[args.op](a, b)
        _write_out(_emit_result(doc, "languages", {"result": result}, result.alphabet), args.out)
        return 0
    if args.op == "sublanguage":
        a, b = operands(2)
        verdict = is_sublanguage(a, b)
        print("true" if verdict else "false")
        return 0 if verdict else 1
    if args.op == "project":
        (language,) = operands(1)
        if args.observable is not None:
            observable = frozenset(e for e in args.observable.split(",") if e)
        else:
            observable = language.alphabet.observable
        pr = Projection(language.alphabet, observable)
        result = project_language(pr, language)
        # The image lives over E_o, which no input names.
        named = FdlDocument(alphabets={"E_o": result.alphabet})
        _write_out(_emit_result(named, "languages", {"result": result}, result.alphabet), args.out)
        return 0
    # Only grade is left: the argparse choices allow no other op.
    if args.string is None:
        raise FdesError("SYNTAX_ERROR", "--op grade needs --string")
    (language,) = operands(1)
    s = language.alphabet.check_string(parse_event_string(args.string))
    print(render_grade(language.grade(s)))
    return 0


def _cmd_gen(args) -> int:
    doc = _load([args.plant])
    automaton = doc.single("automaton", args.plant)[1]
    result = generated_language(automaton, args.horizon)
    _write_out(_emit_result(doc, "languages", {"generated": result}, result.alphabet), args.out)
    return 0


def _cmd_oracle(args) -> int:
    doc, plant, spec = _load_plant_spec(args)
    op = args.op.replace("-", "_")  # brute_<op>, and the section oracle_<op> it writes
    pr = natural_projection(plant.alphabet)
    result = getattr(oracle, f"brute_{op}")(spec, plant, pr, budget=args.budget)
    if op == "supervisor_exists":
        print("true" if result else "false")
        return 0 if result else 1
    _write_out(_emit_result(doc, "languages", {f"oracle_{op}": result}, result.alphabet), args.out)
    return 0


# Each subcommand's parser by name, as _build_parser made them.
_SUBCOMMANDS: dict[str, argparse.ArgumentParser] = {}


# Built on the first command and reused by every later one in the process:
# building the tree costs several times what parsing one command does.
# parse_args leaves the parser as it found it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdes",
        description="Supervisory control of fuzzy discrete-event systems "
        "under partial observation, in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func, *files: str, out: bool = True, **choose: list[str]):
        """A subcommand: its handler, a required option per keyword (listing its
        choices) and per flag of ``files``, then --out unless ``out`` is false."""
        p = _SUBCOMMANDS[name] = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for option, choices in choose.items():
            p.add_argument(f"--{option}", required=True, choices=choices)
        for flag in files:
            p.add_argument(flag, required=True)
        if out:
            p.add_argument("--out")
        return p

    p = command("validate", "parse and validate FDL files", _cmd_validate, out=False)
    p.add_argument("files", nargs="+")

    p = command("check", "check a property of a specification against a plant", _cmd_check,
                "--plant", "--spec", out=False,
                property=["controllable", "observable", "strongly-observable", "normal", "coobservable"])
    p.add_argument("--sites")
    p.add_argument("--json", action="store_true")

    p = command("synthesize", "synthesize a supervisor for a specification", _cmd_synthesize,
                "--plant", "--spec", mode=["central", "decentralized"])
    p.add_argument("--sites")
    p.add_argument("--force", action="store_true",
                   help="emit the formula supervisor even when the preconditions fail")

    p = command("closed-loop", "compute the supervised behavior", _cmd_closed_loop, "--plant")
    p.add_argument("--supervisor", required=True, action="append")

    command("infimal-co", "least controllable and observable superlanguage", _cmd_extremal,
            "--plant", "--spec")
    command("supremal-cn", "greatest controllable and normal sublanguage", _cmd_extremal,
            "--plant", "--spec")

    p = command("scp", "supervisor between minimal and legal bounds", _cmd_scp, "--plant", "--min", "--max")
    p.add_argument("--json", action="store_true")

    p = command("lang", "language algebra on FDL files", _cmd_lang,
                op=["union", "intersect", "concat", "sublanguage", "project", "grade"])
    p.add_argument("files", nargs="+")
    p.add_argument("--string", help="event string for --op grade")
    p.add_argument("--observable", help="comma-separated events overriding --op project")

    p = command("gen", "extract the generated language of an automaton", _cmd_gen, "--plant")
    p.add_argument("--horizon", type=int, default=8)

    p = command("oracle", "brute-force reference computations", _cmd_oracle, "--plant", "--spec",
                op=["infimal-co", "supremal-cn", "supervisor-exists"])
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)

    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, but a command named first goes
    straight to its subcommand's parser.  Any other argv, or one that leaves
    an argument unread, goes through the top-level parser for its help and errors."""
    parser = _build_parser()
    sub = _SUBCOMMANDS.get(argv[0]) if argv else None
    if sub is not None:
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return parser.parse_args(argv)


def run_command(argv: list[str]) -> int:
    """Run one command; its exit code.  Usage errors exit 2 and help 0,
    each printed by argparse."""
    try:
        args = _parse_args(argv)
    except SystemExit as err:
        return 2 if err.code else 0
    try:
        return args.func(args)
    except ConditionViolated as err:
        print(f"refused: {err.message}", file=sys.stderr)
        for w in err.report.witnesses:
            print(_witness_text(w), file=sys.stderr)
        return 1
    except FdesError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
