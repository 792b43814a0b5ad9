"""Command-line surface: batch checks, synthesis, and language operations.

Exit codes partition outcomes exactly: 0 when the command succeeds or the
checked property holds, 1 when a property fails or no solution exists,
2 for usage and input errors.

The grammar is one table, ``_COMMANDS``.  A well-formed command is read
straight from it; argparse is loaded only for help, usage and errors, from
a parser built on the same table.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace

from . import approximation, oracle, predicates, synthesis
from .automaton import generated_language
from .errors import ConditionViolated, FdesError
from .events import parse_event_string, render_event_string
from .fdl import _KINDS, FdlDocument, emit_fdl, parse_documents
from .grades import render_grade
from .language import concatenation, intersection, is_sublanguage, union
from .observation import Projection, natural_projection, project_language

def _read(path: str) -> tuple[str, str]:
    # Bytes decoded once, cheaper than a text read: no newline is translated,
    # so lines are numbered at "\n" only, as parse_fdl numbers them, and a
    # "\r" stays in its line as whitespace; a bad byte reads as in text mode.
    # A leading byte-order mark is dropped, cheaper here than by "utf-8-sig".
    try:
        with open(path, "rb") as file:
            return path, file.read().decode("utf-8").removeprefix("\ufeff")
    except (OSError, UnicodeDecodeError) as err:
        raise FdesError("IO_ERROR", f"cannot read {path}: {err}") from None


def _language(doc: FdlDocument, path: str):
    """The one language section of the file ``path``; every command picks its languages here."""
    return doc.single("language", path)[1]


def _load(paths: list[str | None], *picks: str) -> tuple:
    """One document from the files named, each read and parsed once however
    many options name it, in the order first named (None names no file);
    then the language of each file in ``picks``."""
    doc = parse_documents([_read(p) for p in dict.fromkeys(paths) if p is not None])
    return (doc, *[_language(doc, p) for p in picks])


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


def _witness_text(w: predicates.Witness) -> str:
    fields = _witness_json(w)
    parts = [f"witness {w.kind}:", "strings=(" + ", ".join(fields["strings"]) + ")"]
    parts += [f"{key}={fields[key]}" for key in ("event", "lhs", "rhs") if fields[key] is not None]
    if fields["projection_class"]:
        parts.append("class={" + ", ".join(fields["projection_class"]) + "}")
    return " ".join(parts)


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


def _write_language(named: FdlDocument, name: str, language, out: str | None) -> None:
    """Write ``language`` as the one section ``name`` of a result document."""
    _write_out(_emit_result(named, "languages", {name: language}, language.alphabet), out)


def _verdict(holds: bool, out: str | None) -> int:
    _write_out("true\n" if holds else "false\n", out)
    return 0 if holds else 1


def _cmd_validate(args) -> int:
    (doc,) = _load(args.files)
    for kind, (table, _, _) in _KINDS.items():
        names = sorted(getattr(doc, table))
        if names:
            print(f"{kind}: {' '.join(names)}")
    print("ok")
    return 0


def _cmd_check(args) -> int:
    doc, plant, spec = _load([args.plant, args.spec, args.sites], args.plant, args.spec)
    if args.property == "controllable":
        report = predicates.is_controllable(spec, plant)
    elif args.property == "coobservable":
        report = predicates.is_coobservable(spec, plant, *_sites_pair(doc, args.sites))
    else:  # is_observable, is_strongly_observable or is_normal
        check = getattr(predicates, "is_" + args.property.replace("-", "_"))
        report = check(spec, plant, natural_projection(plant.alphabet))
    if args.json:
        import json  # loaded only for --json

        payload = {"property": args.property, "holds": report.holds,
                   "witnesses": [_witness_json(w) for w in report.witnesses]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"check {args.property}: {'holds' if report.holds else 'fails'}")
        for w in report.witnesses:
            print(_witness_text(w))
    return 0 if report.holds else 1


def _cmd_synthesize(args) -> int:
    doc, plant, spec = _load([args.plant, args.spec, args.sites], args.plant, args.spec)
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
    doc, plant = _load([args.plant, *args.supervisor], args.plant)
    names = {name for path in args.supervisor for name in doc.names("supervisor", path)}
    supervisors = [doc.supervisors[name] for name in sorted(names)]
    if len(supervisors) == 1:
        result = synthesis.closed_loop_central(plant, supervisors[0])
    elif len(supervisors) == 2:
        result = synthesis.closed_loop_decentralized(plant, supervisors[0], supervisors[1])
    else:
        raise FdesError("SYNTAX_ERROR", "closed-loop needs one or two supervisor sections")
    _write_language(doc, "closed_loop", result, args.out)
    return 0


def _cmd_extremal(args) -> int:
    doc, plant, spec = _load([args.plant, args.spec], args.plant, args.spec)
    name = args.command.replace("-", "_")  # the function, and the section it writes
    result = getattr(approximation, name)(spec, plant, natural_projection(plant.alphabet))
    _write_language(doc, name, result, args.out)
    return 0


def _cmd_scp(args) -> int:
    doc, plant, minimal, legal = _load([args.plant, args.min, args.max], args.plant, args.min, args.max)
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
        import json  # loaded only for --json

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
        _write_language(doc, "infimal_co", result.infimal, None)
    if supervisor and not args.out:
        print(supervisor, end="")
    return 0 if result.solvable else 1


def _cmd_lang(args) -> int:
    (doc,) = _load(args.files)
    # A file without a language section only lends definitions, such as an alphabet.
    languages = [_language(doc, p) for p in args.files if doc.names("language", p)]
    if args.op == "grade" and args.string is None:
        raise FdesError("SYNTAX_ERROR", "--op grade needs --string")
    unary = args.op in ("project", "grade")
    if len(languages) != (1 if unary else 2):
        need = "takes one language file" if unary else "needs two language files"
        raise FdesError("SYNTAX_ERROR", f"--op {args.op} {need}")
    if args.op in ("union", "intersect", "concat"):
        ops = {"union": union, "intersect": intersection, "concat": concatenation}
        _write_language(doc, "result", ops[args.op](*languages), args.out)
        return 0
    if args.op == "sublanguage":
        return _verdict(is_sublanguage(*languages), args.out)
    (language,) = languages
    if args.op == "project":
        if args.observable is not None:
            observable = frozenset(e for e in args.observable.split(",") if e)
        else:
            observable = language.alphabet.observable
        result = project_language(Projection(language.alphabet, observable), language)
        # The image lives over E_o, which no input names.
        _write_language(FdlDocument(alphabets={"E_o": result.alphabet}), "result", result, args.out)
        return 0
    # Only grade is left: the command table's choices allow no other op.
    s = language.alphabet.check_string(parse_event_string(args.string))
    _write_out(render_grade(language.grade(s)) + "\n", args.out)
    return 0


def _cmd_gen(args) -> int:
    (doc,) = _load([args.plant])
    automaton = doc.single("automaton", args.plant)[1]
    _write_language(doc, "generated", generated_language(automaton, args.horizon), args.out)
    return 0


def _cmd_oracle(args) -> int:
    doc, plant, spec = _load([args.plant, args.spec], args.plant, args.spec)
    op = args.op.replace("-", "_")  # brute_<op>, and the section oracle_<op> it writes
    pr = natural_projection(plant.alphabet)
    result = getattr(oracle, f"brute_{op}")(spec, plant, pr, budget=args.budget)
    if op == "supervisor_exists":
        return _verdict(result, args.out)
    _write_language(doc, f"oracle_{op}", result, args.out)
    return 0


_NEEDED = {"required": True}
_FLAG = {"action": "store_true"}
_OUT = {"--out": {}}
_PLANT_SPEC = {"--plant": _NEEDED, "--spec": _NEEDED}

# The command grammar, one entry per subcommand: its help, its handler,
# whether it takes files, and each option's add_argument keywords in the
# order its help lists them.  _parse_args reads a well-formed command from
# it; _build_parser builds the argparse tree from it for help and errors.
_COMMANDS = {
    "validate": ("parse and validate FDL files", _cmd_validate, True, {}),
    "check": ("check a property of a specification against a plant", _cmd_check, False, {
        "--property": {"required": True, "choices": [
            "controllable", "observable", "strongly-observable", "normal", "coobservable"]},
        **_PLANT_SPEC, "--sites": {}, "--json": _FLAG}),
    "synthesize": ("synthesize a supervisor for a specification", _cmd_synthesize, False, {
        "--mode": {"required": True, "choices": ["central", "decentralized"]},
        **_PLANT_SPEC, **_OUT, "--sites": {},
        "--force": {**_FLAG, "help": "emit the formula supervisor even when the preconditions fail"}}),
    "closed-loop": ("compute the supervised behavior", _cmd_closed_loop, False, {
        "--plant": _NEEDED, **_OUT, "--supervisor": {"required": True, "action": "append"}}),
    "infimal-co": ("least controllable and observable superlanguage", _cmd_extremal, False,
                   {**_PLANT_SPEC, **_OUT}),
    "supremal-cn": ("greatest controllable and normal sublanguage", _cmd_extremal, False,
                    {**_PLANT_SPEC, **_OUT}),
    "scp": ("supervisor between minimal and legal bounds", _cmd_scp, False, {
        "--plant": _NEEDED, "--min": _NEEDED, "--max": _NEEDED, **_OUT, "--json": _FLAG}),
    "lang": ("language algebra on FDL files", _cmd_lang, True, {
        "--op": {"required": True, "choices": [
            "union", "intersect", "concat", "sublanguage", "project", "grade"]},
        **_OUT, "--string": {"help": "event string for --op grade"},
        "--observable": {"help": "comma-separated events overriding --op project"}}),
    "gen": ("extract the generated language of an automaton", _cmd_gen, False, {
        "--plant": _NEEDED, **_OUT, "--horizon": {"type": int, "default": 8}}),
    "oracle": ("brute-force reference computations", _cmd_oracle, False, {
        "--op": {"required": True, "choices": ["infimal-co", "supremal-cn", "supervisor-exists"]},
        **_PLANT_SPEC, **_OUT, "--budget": {"type": int, "default": oracle.DEFAULT_BUDGET}}),
}


# Built on the first command that needs help or an error, and reused by
# every later one in the process.  parse_args leaves the parser as it found it.
@functools.cache
def _build_parser():
    import argparse  # loaded only here: a well-formed command never needs it

    parser = argparse.ArgumentParser(
        prog="fdes",
        description="Supervisory control of fuzzy discrete-event systems "
        "under partial observation, in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, func, files, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        if files:  # usage and help list positionals after the options wherever they are added
            p.add_argument("files", nargs="+")
    return parser


def _read_command(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse gives a well-formed command, read from
    _COMMANDS: a known command first, each option by its exact flag (an
    append option as often as wanted, any other once) with a value that
    does not start with "-", flags alone, one run of files where the
    command takes them, every choice and int read and every required
    option given.  None for any other argv."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, func, takes_files, options = entry
    given, files, files_end, i = {}, [], None, 1
    while i < len(argv):
        token = argv[i]
        if not token.startswith("-"):
            if not takes_files or files and files_end != i:
                return None
            files.append(token)
            i = files_end = i + 1
            continue
        keywords = options.get(token)
        if keywords is None:
            return None
        action = keywords.get("action")
        if token in given and action != "append":
            return None
        if action == "store_true":
            given[token] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        value = argv[i + 1]
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[token] = [*given.get(token, ()), value] if action == "append" else value
        i += 2
    if takes_files and not files or any(k.get("required") and f not in given for f, k in options.items()):
        return None
    args = SimpleNamespace(command=argv[0], func=func, **({"files": files} if takes_files else {}))
    for flag, keywords in options.items():
        default = keywords.get("default", False if keywords.get("action") == "store_true" else None)
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    return args


def _parse_args(argv: list[str]):
    """``_build_parser().parse_args(argv)``: a well-formed command is read
    straight from _COMMANDS, and only any other argv loads argparse, for
    its help, usage and errors."""
    return _read_command(argv) or _build_parser().parse_args(argv)


def run_command(argv: list[str]) -> int:
    """Run one command; its exit code.  A well-formed command is read from
    the command table; any other loads argparse, which prints help (exit 0)
    or usage and the error (exit 2)."""
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
