"""Command-line behavior: exit codes, reports, emitted artifacts."""

import argparse
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import references
from fdes import cli
from fdes.cli import run_command
from fdes.fdl import parse_fdl

DATA = Path(__file__).parent / "data"

CENTRAL_PLANT = str(DATA / "central_plant.fdl")
CENTRAL_SPEC = str(DATA / "central_spec.fdl")
UNION_PLANT = str(DATA / "union_plant.fdl")
UNION_SPEC = str(DATA / "union_spec.fdl")
MEDICAL = str(DATA / "medical.fdl")


def test_validate_ok(capsys):
    assert run_command(["validate", CENTRAL_PLANT, CENTRAL_SPEC]) == 0
    out = capsys.readouterr().out
    assert "language: K L" in out
    assert "ok" in out


def test_validate_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.fdl"
    bad.write_text("[language L]\nalphabet E\neps 1\n", encoding="utf-8")
    assert run_command(["validate", str(bad)]) == 2
    assert "error[SYNTAX_ERROR]" in capsys.readouterr().err


def test_check_observable_holds(capsys):
    code = run_command(
        ["check", "--property", "observable", "--plant", CENTRAL_PLANT, "--spec", CENTRAL_SPEC]
    )
    assert code == 0
    assert "check observable: holds" in capsys.readouterr().out


def test_check_observable_fails_with_witness(capsys):
    code = run_command(
        ["check", "--property", "observable", "--plant", UNION_PLANT, "--spec", UNION_SPEC]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "check observable: fails" in out
    assert "class={eps, a}" in out
    assert "event=b" in out


def test_check_json_report(capsys):
    code = run_command(
        [
            "check",
            "--property",
            "observable",
            "--plant",
            UNION_PLANT,
            "--spec",
            UNION_SPEC,
            "--json",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["property"] == "observable"
    assert payload["holds"] is False
    witness = payload["witnesses"][0]
    assert witness["kind"] == "OBSERVABILITY"
    assert witness["event"] == "b"
    assert witness["lhs"] == "0"
    assert witness["rhs"] == "0.7"
    assert witness["projection_class"] == ["eps", "a"]


def test_check_normal_and_strongly_observable(capsys):
    assert (
        run_command(
            ["check", "--property", "normal", "--plant", CENTRAL_PLANT, "--spec", CENTRAL_SPEC]
        )
        == 1
    )
    assert (
        run_command(
            [
                "check",
                "--property",
                "strongly-observable",
                "--plant",
                CENTRAL_PLANT,
                "--spec",
                CENTRAL_SPEC,
            ]
        )
        == 0
    )


def test_check_coobservable_medical(capsys):
    code = run_command(
        ["check", "--property", "coobservable", "--plant", MEDICAL, "--spec", MEDICAL]
    )
    assert code == 0
    assert "check coobservable: holds" in capsys.readouterr().out


# The medical sites with the two observers swapped: S1 then observes b2.
OTHER_SITES = """[sites OTHER]
alphabet MED
site 1 controllable a1 a2
site 1 observable a1 a2 b2 b3
site 2 controllable a1 a2
site 2 observable a1 a2 b1 b3
"""


def _other_sites_inputs(tmp_path) -> list[str]:
    sites = tmp_path / "other.fdl"
    sites.write_text(OTHER_SITES, encoding="utf-8")
    return ["--plant", MEDICAL, "--spec", MEDICAL, "--sites", str(sites)]


def test_check_reads_sites_from_the_sites_file(tmp_path, capsys):
    assert run_command(["check", "--property", "coobservable", *_other_sites_inputs(tmp_path)]) == 0
    assert "check coobservable: holds" in capsys.readouterr().out


def test_synthesize_decentralized_reads_sites_from_the_sites_file(tmp_path):
    out = tmp_path / "S12.fdl"
    inputs = _other_sites_inputs(tmp_path)
    assert run_command(["synthesize", "--mode", "decentralized", *inputs, "--out", str(out)]) == 0
    doc = parse_fdl(out.read_text(encoding="utf-8"))
    assert doc.supervisors["S1"].projection.observable == {"a1", "a2", "b2", "b3"}
    assert doc.supervisors["S2"].projection.observable == {"a1", "a2", "b1", "b3"}


def test_check_usage_error_exit_2(capsys):
    assert run_command(["check", "--property", "bogus", "--plant", "x", "--spec", "y"]) == 2
    assert run_command(["check", "--property", "observable", "--plant", "missing.fdl", "--spec", "missing.fdl"]) == 2


def test_synthesize_closed_loop_pipeline(tmp_path, capsys):
    out_path = str(tmp_path / "S.fdl")
    assert (
        run_command(
            [
                "synthesize",
                "--mode",
                "central",
                "--plant",
                CENTRAL_PLANT,
                "--spec",
                CENTRAL_SPEC,
                "--out",
                out_path,
            ]
        )
        == 0
    )
    supervisor_text = Path(out_path).read_text(encoding="utf-8")
    assert "obs a" in supervisor_text
    assert "enable c 0.4" in supervisor_text
    loop_path = str(tmp_path / "loop.fdl")
    assert (
        run_command(
            ["closed-loop", "--plant", CENTRAL_PLANT, "--supervisor", out_path, "--out", loop_path]
        )
        == 0
    )
    loop_text = Path(loop_path).read_text(encoding="utf-8")
    spec_body = (
        "[language closed_loop]\n"
        "alphabet E\n"
        "eps 1\n"
        "a 0.7\n"
        "a.c 0.4\n"
        "a.d 0.7\n"
        "a.c.d 0.4\n"
    )
    assert spec_body in loop_text


def test_synthesize_refuses_union_spec(capsys):
    code = run_command(
        ["synthesize", "--mode", "central", "--plant", UNION_PLANT, "--spec", UNION_SPEC]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "refused" in err
    assert "witness OBSERVABILITY" in err


def test_a_sites_section_is_used_over_its_own_alphabet(tmp_path, capsys):
    # F has E's events and controllable set but fewer observable events, so
    # projecting through F's sites would quietly observe the plant through F.
    plant = tmp_path / "plant.fdl"
    plant.write_text(
        "[alphabet E]\nevents a b c\ncontrollable a b\nobservable a b c\n\n"
        "[language L]\nalphabet E\neps 1\na 0.5\nc 0.5\nc.b 0.5\n",
        encoding="utf-8",
    )
    sites = tmp_path / "sites.fdl"
    sites.write_text(
        "[alphabet F]\nevents a b c\ncontrollable a b\nobservable a b\n\n"
        "[sites S]\nalphabet F\nsite 1 controllable a\nsite 1 observable a b\n"
        "site 2 controllable b\nsite 2 observable a b\n",
        encoding="utf-8",
    )
    paths = ["--plant", str(plant), "--spec", str(plant), "--sites", str(sites)]
    for command in (
        ["check", "--property", "coobservable", *paths],
        ["synthesize", "--mode", "decentralized", *paths],
    ):
        assert run_command(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error[ALPHABET_MISMATCH]: projection and plant use different alphabets" in captured.err


def test_synthesize_decentralized_and_joint_loop(tmp_path):
    out_path = str(tmp_path / "S12.fdl")
    assert (
        run_command(
            [
                "synthesize",
                "--mode",
                "decentralized",
                "--plant",
                MEDICAL,
                "--spec",
                MEDICAL,
                "--out",
                out_path,
            ]
        )
        == 0
    )
    text = Path(out_path).read_text(encoding="utf-8")
    assert "[supervisor S1]" in text and "[supervisor S2]" in text
    loop_path = str(tmp_path / "loop.fdl")
    assert (
        run_command(
            ["closed-loop", "--plant", MEDICAL, "--supervisor", out_path, "--out", loop_path]
        )
        == 0
    )
    loop = Path(loop_path).read_text(encoding="utf-8")
    assert "a1.a2.b3.a1.b3.b2 0.2" in loop


def test_infimal_and_supremal_commands(capsys):
    assert (
        run_command(["infimal-co", "--plant", UNION_PLANT, "--spec", UNION_SPEC]) == 0
    )
    out = capsys.readouterr().out
    assert "a.b 0.7" in out
    assert (
        run_command(["supremal-cn", "--plant", CENTRAL_PLANT, "--spec", CENTRAL_SPEC]) == 0
    )
    out = capsys.readouterr().out
    assert "a 0.4" in out and "a.c.d 0.4" in out


def test_scp_solvable_and_not(tmp_path, capsys):
    assert (
        run_command(
            [
                "scp",
                "--plant",
                CENTRAL_PLANT,
                "--min",
                CENTRAL_SPEC,
                "--max",
                CENTRAL_PLANT,
                "--out",
                str(tmp_path / "S.fdl"),
            ]
        )
        == 0
    )
    assert "scp: solvable" in capsys.readouterr().out
    code = run_command(
        ["scp", "--plant", UNION_PLANT, "--min", UNION_SPEC, "--max", UNION_SPEC]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "no solution" in out
    assert "a.b 0.7" in out  # the infimal evidence


def test_scp_json(capsys):
    code = run_command(
        [
            "scp",
            "--plant",
            UNION_PLANT,
            "--min",
            UNION_SPEC,
            "--max",
            UNION_SPEC,
            "--json",
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["solvable"] is False
    assert payload["infimal_co"]["a.b"] == "0.7"


def with_alphabet(tmp_path, path, alphabet_section):
    """A copy of a language file that declares its own alphabet."""
    copy = tmp_path / Path(path).name
    copy.write_text(
        alphabet_section + "\n" + Path(path).read_text(encoding="utf-8"), encoding="utf-8"
    )
    return str(copy)


def test_lang_operations(tmp_path, capsys):
    union_spec = with_alphabet(tmp_path, UNION_SPEC, "[alphabet E2]\nevents a b\n")
    assert run_command(["lang", "--op", "grade", union_spec, "--string", "a"]) == 0
    assert capsys.readouterr().out.strip() == "0.8"
    assert run_command(["lang", "--op", "sublanguage", UNION_SPEC, UNION_PLANT]) == 0
    assert run_command(["lang", "--op", "sublanguage", UNION_PLANT, UNION_SPEC]) == 1
    central_spec = with_alphabet(
        tmp_path, CENTRAL_SPEC, "[alphabet E]\nevents a b c d\ncontrollable a b c\nobservable a b d\n"
    )
    assert run_command(["lang", "--op", "project", central_spec]) == 0
    out = capsys.readouterr().out
    assert "a.d 0.7" in out
    assert run_command(["lang", "--op", "project", central_spec, "--observable", "a,b"]) == 0
    out = capsys.readouterr().out
    assert "a 0.7" in out and "a.d" not in out
    assert run_command(["lang", "--op", "union", UNION_SPEC, UNION_PLANT]) == 0


def test_lang_unary_operations_take_one_file(capsys):
    for op, extra in (("project", []), ("grade", ["--string", "a"])):
        assert run_command(["lang", "--op", op, UNION_SPEC, UNION_PLANT, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error[SYNTAX_ERROR]: --op {op} takes one language file" in captured.err



def test_lang_reads_the_alphabet_from_a_file_without_a_language(tmp_path, capsys):
    alphabet = tmp_path / "E2.fdl"
    alphabet.write_text(
        "[alphabet E2]\nevents a b\ncontrollable a b\nobservable b\n", encoding="utf-8"
    )
    assert run_command(["lang", "--op", "grade", "--string", "a", str(alphabet), UNION_SPEC]) == 0
    assert capsys.readouterr().out == "0.8\n"
    assert run_command(["lang", "--op", "project", UNION_SPEC, str(alphabet)]) == 0
    assert capsys.readouterr().out == (
        "[alphabet E_o]\nevents b\ncontrollable b\nobservable b\n\n"
        "[language result]\nalphabet E_o\neps 1\nb 0.7\n"
    )


def test_lang_grade_rejects_events_outside_the_alphabet(capsys):
    assert run_command(["lang", "--op", "grade", "--string", "zz", CENTRAL_PLANT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error[UNKNOWN_EVENT]: event 'zz' not in alphabet" in captured.err
    assert run_command(["lang", "--op", "grade", "--string", "a.b", CENTRAL_PLANT]) == 0
    assert capsys.readouterr().out == "0.8\n"


def test_lang_grade_needs_a_string(capsys):
    assert run_command(["lang", "--op", "grade", CENTRAL_PLANT]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error[SYNTAX_ERROR]: --op grade needs --string\n"


def test_lang_project_with_no_observable_events(capsys):
    for observable in ("", ","):
        argv = ["lang", "--op", "project", CENTRAL_PLANT, "--observable", observable]
        assert run_command(argv) == 0
        assert capsys.readouterr().out == (
            "[alphabet E_o]\nevents\n\n[language result]\nalphabet E_o\neps 1\n"
        )
    assert run_command(["lang", "--op", "project", CENTRAL_PLANT, "--observable", "a,,b"]) == 0
    out = capsys.readouterr().out
    assert "events a b\n" in out and "a.b 0.8\n" in out

def test_gen_command(tmp_path, capsys):
    aut = tmp_path / "machine.fdl"
    aut.write_text(
        "[alphabet E]\nevents a b\n\n[automaton G]\nalphabet E\nstates q0 q1\ninitial q0\n"
        "trans q0 a q1 0.9\ntrans q1 b q1 0.5\n",
        encoding="utf-8",
    )
    assert run_command(["gen", "--plant", str(aut), "--horizon", "3"]) == 0
    out = capsys.readouterr().out
    assert "a.b.b 0.5" in out
    assert "a.b.b.b" not in out


def test_gen_refuses_a_repeated_transition(tmp_path, capsys):
    dup = tmp_path / "dup.fdl"
    dup.write_text(
        "[alphabet E]\nevents a\n\n[automaton G]\nalphabet E\nstates s0 s1\ninitial s0\n"
        "trans s0 a s1 0.5\ntrans s0 a s1 0.9\ninitial s1\n",
        encoding="utf-8",
    )
    assert run_command(["gen", "--plant", str(dup), "--horizon", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error[SYNTAX_ERROR]: {dup}:9: duplicate transition s0 a s1\n"


def test_oracle_command(capsys):
    assert (
        run_command(["oracle", "--op", "supervisor-exists", "--plant", UNION_PLANT, "--spec", UNION_SPEC])
        == 1
    )
    assert capsys.readouterr().out.strip() == "false"
    assert (
        run_command(["oracle", "--op", "infimal-co", "--plant", UNION_PLANT, "--spec", UNION_SPEC])
        == 0
    )
    assert "a.b 0.7" in capsys.readouterr().out
    assert (
        run_command(
            [
                "oracle",
                "--op",
                "supervisor-exists",
                "--plant",
                UNION_PLANT,
                "--spec",
                UNION_SPEC,
                "--budget",
                "1",
            ]
        )
        == 2
    )


@pytest.mark.parametrize("op", ["infimal-co", "supremal-cn"])
def test_each_oracle_writes_its_own_language_section(op, capsys):
    plant_spec = ["--plant", UNION_PLANT, "--spec", UNION_SPEC]
    assert run_command(["oracle", "--op", op, *plant_spec]) == 0
    written = parse_fdl(capsys.readouterr().out).languages
    name = op.replace("-", "_")
    assert list(written) == [f"oracle_{name}"]
    assert run_command([op, *plant_spec]) == 0
    assert written[f"oracle_{name}"] == parse_fdl(capsys.readouterr().out).languages[name]


def test_outputs_are_byte_identical_across_runs(tmp_path):
    first = tmp_path / "one.fdl"
    second = tmp_path / "two.fdl"
    for target in (first, second):
        assert (
            run_command(
                [
                    "synthesize",
                    "--mode",
                    "central",
                    "--plant",
                    CENTRAL_PLANT,
                    "--spec",
                    CENTRAL_SPEC,
                    "--out",
                    str(target),
                ]
            )
            == 0
        )
    assert first.read_bytes() == second.read_bytes()


def test_closed_loop_rejects_three_supervisors(tmp_path, capsys):
    first = tmp_path / "S.fdl"
    assert (
        run_command(
            ["synthesize", "--mode", "central", "--plant", CENTRAL_PLANT, "--spec", CENTRAL_SPEC,
             "--out", str(first)]
        )
        == 0
    )
    text = first.read_text(encoding="utf-8")
    more = tmp_path / "S23.fdl"
    more.write_text(
        text.replace("[supervisor S]", "[supervisor S2]")
        + "\n"
        + text.replace("[supervisor S]", "[supervisor S3]"),
        encoding="utf-8",
    )
    code = run_command(
        ["closed-loop", "--plant", CENTRAL_PLANT, "--supervisor", str(first), "--supervisor", str(more)]
    )
    assert code == 2
    assert "error[SYNTAX_ERROR]: closed-loop needs one or two supervisor sections" in capsys.readouterr().err


def test_closed_loop_takes_supervisors_from_its_supervisor_files_only(tmp_path, capsys):
    sup = tmp_path / "S.fdl"
    assert run_command(
        ["synthesize", "--mode", "central", "--plant", CENTRAL_PLANT, "--spec", CENTRAL_SPEC, "--out", str(sup)]
    ) == 0
    # A supervisor X in the plant file that disables every controllable event.
    blocking = re.sub(r"enable ([abc]) \S+", r"enable \1 0", sup.read_text(encoding="utf-8"))
    plant = tmp_path / "plant.fdl"
    plant.write_text(
        Path(CENTRAL_PLANT).read_text(encoding="utf-8") + "\n" + blocking.replace("[supervisor S]", "[supervisor X]"),
        encoding="utf-8",
    )
    loops = []
    for plant_file in (CENTRAL_PLANT, str(plant)):
        out = tmp_path / f"loop{len(loops)}.fdl"
        assert run_command(["closed-loop", "--plant", plant_file, "--supervisor", str(sup), "--out", str(out)]) == 0
        loops.append(out.read_text(encoding="utf-8"))
    assert loops[1] == loops[0] and "\na 0.7\n" in loops[0]


def test_unwritable_out_is_an_io_error(tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.fdl", tmp_path):
        code = run_command(
            ["infimal-co", "--plant", UNION_PLANT, "--spec", UNION_SPEC, "--out", str(out)]
        )
        assert code == 2
        assert f"error[IO_ERROR]: cannot write {out}" in capsys.readouterr().err


def test_non_utf8_input_is_an_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.fdl"
    bad.write_bytes(b"[language L]\nalphabet E\neps 1\n\xff\n")
    assert run_command(["validate", str(bad)]) == 2
    assert f"error[IO_ERROR]: cannot read {bad}" in capsys.readouterr().err


LONE_CR = b"[alphabet E]\nevents a\rb\n\n[language K]\nalphabet E\neps 1\nb 0.5\n"


def test_a_lone_carriage_return_is_whitespace_as_parse_fdl_reads_it(tmp_path, capsys):
    cr = tmp_path / "cr.fdl"
    cr.write_bytes(LONE_CR)
    assert run_command(["validate", str(cr)]) == 0
    assert capsys.readouterr().out == "alphabet: E\nlanguage: K\nok\n"
    assert parse_fdl(LONE_CR.decode()).alphabets["E"].events == {"a", "b"}
    # Lines are counted at "\n" only, as grep -n and parse_fdl count them.
    cr.write_bytes(LONE_CR.replace(b"b 0.5", b"b 0.5x"))
    assert run_command(["validate", str(cr)]) == 2
    assert capsys.readouterr().err.startswith(f"error[MALFORMED_GRADE]: {cr}:7: ")


def test_crlf_files_read_as_lf_files(tmp_path, capsys):
    crlf = tmp_path / "medical.fdl"
    crlf.write_bytes(Path(MEDICAL).read_bytes().replace(b"\n", b"\r\n"))
    outputs = []
    for path in (MEDICAL, str(crlf)):
        assert run_command(["synthesize", "--mode", "decentralized", "--plant", path, "--spec", path,
                            "--sites", path]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[1] == outputs[0] and "\r" not in outputs[0]


def test_each_file_must_hold_exactly_one_picked_section(tmp_path, capsys):
    both = tmp_path / "both.fdl"
    plant_text, spec_text = (Path(p).read_text(encoding="utf-8") for p in (CENTRAL_PLANT, CENTRAL_SPEC))
    both.write_text(plant_text + spec_text, encoding="utf-8")
    twice = tmp_path / "twice.fdl"
    twice.write_text(spec_text * 2, encoding="utf-8")
    cases = [
        (["infimal-co", "--plant", CENTRAL_PLANT, "--spec", str(both)],
         f"{both}: expected exactly one language section, found: L, K"),
        (["infimal-co", "--plant", CENTRAL_PLANT, "--spec", str(twice)],
         f"{twice}: expected exactly one language section, found: K, K"),
        (["gen", "--plant", CENTRAL_PLANT],
         f"{CENTRAL_PLANT}: expected exactly one automaton section, found: none"),
    ]
    for argv, message in cases:
        assert run_command(argv) == 2
        assert f"error[SYNTAX_ERROR]: {message}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, reads",
    [
        (["check", "--property", "coobservable", "--plant", MEDICAL, "--spec", MEDICAL, "--sites", MEDICAL],
         [MEDICAL]),
        (["scp", "--plant", CENTRAL_PLANT, "--min", CENTRAL_SPEC, "--max", CENTRAL_SPEC, "--json"],
         [CENTRAL_PLANT, CENTRAL_SPEC]),
    ],
    ids=["check-coobservable", "scp"],
)
def test_each_file_is_read_once_however_many_options_name_it(monkeypatch, capsys, argv, reads):
    read, seen = cli._read, []
    monkeypatch.setattr(cli, "_read", lambda path: seen.append(path) or read(path))
    assert run_command(argv) == 0, capsys.readouterr().err
    assert seen == reads


# Each subcommand's help and options: flag, or a positional's name ->
# (action, required, default, choices, type, nargs, help).
def _option(action="_StoreAction", required=False, default=None, choices=None, type=None, nargs=None,
            help=None):
    return action, required, default, choices, type, nargs, help


_FILE, _FILES, _OPTIONAL = _option(required=True), _option(required=True, nargs="+"), _option()
_SWITCH = _option("_StoreTrueAction", default=False, nargs=0)

SUBCOMMANDS = {
    "validate": ("parse and validate FDL files", {"files": _FILES}),
    "check": ("check a property of a specification against a plant", {
        "--property": _option(required=True, choices=[
            "controllable", "observable", "strongly-observable", "normal", "coobservable"]),
        "--plant": _FILE, "--spec": _FILE, "--sites": _OPTIONAL, "--json": _SWITCH,
    }),
    "synthesize": ("synthesize a supervisor for a specification", {
        "--mode": _option(required=True, choices=["central", "decentralized"]),
        "--plant": _FILE, "--spec": _FILE, "--sites": _OPTIONAL, "--out": _OPTIONAL,
        "--force": _option("_StoreTrueAction", default=False, nargs=0,
                           help="emit the formula supervisor even when the preconditions fail"),
    }),
    "closed-loop": ("compute the supervised behavior", {
        "--plant": _FILE, "--supervisor": _option("_AppendAction", required=True), "--out": _OPTIONAL,
    }),
    "infimal-co": ("least controllable and observable superlanguage", {
        "--plant": _FILE, "--spec": _FILE, "--out": _OPTIONAL,
    }),
    "supremal-cn": ("greatest controllable and normal sublanguage", {
        "--plant": _FILE, "--spec": _FILE, "--out": _OPTIONAL,
    }),
    "scp": ("supervisor between minimal and legal bounds", {
        "--plant": _FILE, "--min": _FILE, "--max": _FILE, "--out": _OPTIONAL, "--json": _SWITCH,
    }),
    "lang": ("language algebra on FDL files", {
        "--op": _option(required=True, choices=[
            "union", "intersect", "concat", "sublanguage", "project", "grade"]),
        "files": _FILES, "--out": _OPTIONAL,
        "--string": _option(help="event string for --op grade"),
        "--observable": _option(help="comma-separated events overriding --op project"),
    }),
    "gen": ("extract the generated language of an automaton", {
        "--plant": _FILE, "--horizon": _option(default=8, type=int), "--out": _OPTIONAL,
    }),
    "oracle": ("brute-force reference computations", {
        "--op": _option(required=True, choices=["infimal-co", "supremal-cn", "supervisor-exists"]),
        "--plant": _FILE, "--spec": _FILE, "--budget": _option(default=20000, type=int), "--out": _OPTIONAL,
    }),
}


def test_every_subcommand_keeps_its_options():
    # Compared as tables, so a dropped or altered option fails and a
    # reordered one does not.
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    got = {
        name: (helps[name], {
            " ".join(a.option_strings) or a.dest: (
                type(a).__name__, a.required, a.default, a.choices, a.type, a.nargs, a.help
            )
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        })
        for name, parser in sub.choices.items()
    }
    assert got == SUBCOMMANDS


def _captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


def test_parser_reuse_leaks_nothing(tmp_path):
    # One parser serves every command of a process: a second round of the
    # same commands must print and exit exactly as the first, which starts
    # from a freshly built parser.
    supervisor = tmp_path / "S.fdl"
    assert run_command(["synthesize", "--mode", "central", "--plant", CENTRAL_PLANT,
                        "--spec", CENTRAL_SPEC, "--out", str(supervisor)]) == 0
    renamed = []
    for name in ("S2", "S3"):
        copy = tmp_path / f"{name}.fdl"
        text = supervisor.read_text(encoding="utf-8")
        copy.write_text(text.replace("[supervisor S]", f"[supervisor {name}]"), encoding="utf-8")
        renamed.append(str(copy))
    machine = tmp_path / "machine.fdl"
    machine.write_text(
        "[alphabet E]\nevents a b\n\n[automaton G]\nalphabet E\nstates q0 q1\ninitial q0\n"
        "trans q0 a q1 0.9\ntrans q1 b q1 0.5\n",
        encoding="utf-8",
    )
    plant_spec = ["--plant", CENTRAL_PLANT, "--spec", CENTRAL_SPEC]
    union = ["--plant", UNION_PLANT, "--spec", UNION_SPEC]
    commands = [
        (0, ["validate", CENTRAL_PLANT, CENTRAL_SPEC]),
        (0, ["check", "--property", "controllable", *plant_spec]),
        (1, ["check", "--property", "observable", *union, "--json"]),
        (0, ["check", "--property", "coobservable", "--plant", MEDICAL, "--spec", MEDICAL]),
        (0, ["synthesize", "--mode", "central", *plant_spec]),
        (1, ["synthesize", "--mode", "central", *union]),
        (0, ["synthesize", "--mode", "decentralized", "--plant", MEDICAL, "--spec", MEDICAL]),
        # Were the --supervisor list kept between commands, the second would
        # read three supervisors and exit 2.
        (0, ["closed-loop", "--plant", CENTRAL_PLANT,
             "--supervisor", str(supervisor), "--supervisor", renamed[0]]),
        (0, ["closed-loop", "--plant", CENTRAL_PLANT, "--supervisor", renamed[1]]),
        (0, ["infimal-co", *union]),
        (0, ["supremal-cn", *plant_spec]),
        (0, ["scp", "--plant", CENTRAL_PLANT, "--min", CENTRAL_SPEC, "--max", CENTRAL_PLANT]),
        (1, ["scp", "--plant", UNION_PLANT, "--min", UNION_SPEC, "--max", UNION_SPEC, "--json"]),
        (0, ["lang", "--op", "union", UNION_SPEC, UNION_PLANT]),
        (1, ["lang", "--op", "sublanguage", UNION_PLANT, UNION_SPEC]),
        (0, ["lang", "--op", "grade", "--string", "a.b", CENTRAL_PLANT]),
        (0, ["gen", "--plant", str(machine), "--horizon", "3"]),
        (2, ["gen", "--plant", CENTRAL_PLANT]),
        (1, ["oracle", "--op", "supervisor-exists", *union]),
        (0, ["oracle", "--op", "infimal-co", *union]),
        (2, ["check", "--property", "bogus", *plant_spec]),
        (2, ["bogus"]),
        (2, ["gen", "--plant", str(machine), "--horizon", "-1"]),
        (0, ["--help"]),
        (0, ["check", "--help"]),
    ]
    cli._build_parser.cache_clear()
    first = [_captured(argv) for _, argv in commands]
    assert cli._build_parser() is cli._build_parser()
    second = [_captured(argv) for _, argv in commands]
    for (expected, argv), before, after in zip(commands, first, second):
        assert before[0] == expected, argv
        assert after == before, argv
    assert second[-2][1].startswith("usage: fdes [-h]")
    assert second[-1][1].startswith("usage: fdes check [-h]")


def test_python_m_entry_matches_run_command():
    env = dict(os.environ)
    src = str(Path(cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["check", "--property", "controllable", "--plant", CENTRAL_PLANT, "--spec", CENTRAL_SPEC]

    def entry(args):
        done = subprocess.run([sys.executable, "-m", "fdes.cli", *args], env=env,
                              capture_output=True, text=True, encoding="utf-8", timeout=60)
        return done.returncode, done.stdout, done.stderr

    assert entry(argv) == _captured(argv)
    code, out, err = entry(["bogus"])
    assert (code, out) == (2, "")
    assert "invalid choice: 'bogus'" in err


def _run_captured(run, argv, out: Path):
    """What one command does: exit code, stdout, stderr, and the text it
    left at ``out``, which is removed first."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run(argv)
    written = out.read_text(encoding="utf-8") if out.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), written


def _parse_captured(parse, argv):
    """The attributes a parse gives (``vars``, which ``Namespace.__eq__``
    compares), else the code it exits with; and what it printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            parsed = vars(parse(argv))
        except SystemExit as err:
            parsed = ("exit", err.code)
    return parsed, stdout.getvalue(), stderr.getvalue()


def _units(argv: list[str]) -> list[list[str]]:
    """The arguments after the command: each option with its value, each
    flag alone and each file alone, in order."""
    options = cli._COMMANDS[argv[0]][3]
    units, i = [], 1
    while i < len(argv):
        width = 2 if argv[i] in options and options[argv[i]].get("action") != "store_true" else 1
        units.append(argv[i:i + width])
        i += width
    return units


def mutated_argvs(canonical: list[list[str]], seed: int) -> list[list[str]]:
    """Seeded mutations of each subcommand's well-formed ``canonical`` argv:
    every form the command table leaves to argparse (help at every position,
    an unknown command, an abbreviation, --opt=value, "--", a repeated
    option or flag, a missing or dash-led value, a bad choice or int, a
    missing required option, a second run of files), and forms it reads
    itself (options before and after the files, empty values)."""
    rng = random.Random(seed)
    wrong = {"choices": ["bogus"], "type": ["x", "1.5", " 3 ", "-3"]}  # values by add_argument keyword
    corpus = []
    for argv in canonical:
        name, units = argv[0], _units(argv)
        options = cli._COMMANDS[name][3]

        def join(parts):
            return [name, *(token for unit in parts for token in unit)]

        corpus += [[*argv[:i], rng.choice(["-h", "--help"]), *argv[i:]] for i in range(len(argv) + 1)]
        corpus += [["bogus", *argv[1:]], [name[:-1], *argv[1:]], argv[1:]]
        at = rng.randrange(1, len(argv) + 1)
        corpus += [[*argv[:at], "--", *argv[at:]], [*argv, "--"], [*argv, "-"], [*argv, "extra"],
                   [name, "extra", *argv[1:]], [*argv, "--bogus"]]
        for _ in range(4):  # options before, between and after the files
            corpus.append(join(rng.sample(units, len(units))))
        for k, unit in enumerate(units):
            rest = units[:k] + units[k + 1:]
            corpus += [join(rest), join([*units, unit]), join([*rest, unit[:1]])]
            if not unit[0].startswith("-"):
                continue
            corpus += [join([*rest, [unit[0][:-1], *unit[1:]]]), join([[unit[0][:4], *unit[1:]], *rest])]
            if len(unit) == 1:
                corpus.append(join([*rest, [unit[0] + "=yes"]]))
                continue
            flag, value = unit
            corpus += [join([*rest, [f"{flag}={value}"]]), join([*rest, [flag, ""]]),
                       join([[flag], *rest])]
            bad = [b for key in options[flag] for b in wrong.get(key, ())]
            if flag != "--out":  # a dash-led --out argparse takes would be written in the working folder
                bad += ["-", "-x"]
            corpus += [join([*rest, [flag, b]]) for b in bad]
    return corpus


def dispatch_corpus(tmp_path: Path) -> list[list[str]]:
    """Valid and faulty argvs for every subcommand and for the top level,
    then the seeded mutations of one well-formed argv per subcommand;
    the supervisor files the closed-loop forms read are written here."""
    out = str(tmp_path / "out.fdl")
    central, decentralized = str(tmp_path / "S.fdl"), str(tmp_path / "S12.fdl")
    assert run_command(["synthesize", "--mode", "central", "--plant", CENTRAL_PLANT,
                        "--spec", CENTRAL_SPEC, "--out", central]) == 0
    assert run_command(["synthesize", "--mode", "decentralized", "--plant", MEDICAL,
                        "--spec", MEDICAL, "--out", decentralized]) == 0
    machine = tmp_path / "machine.fdl"
    machine.write_text("[alphabet E]\nevents a b\n\n[automaton G]\nalphabet E\nstates q0 q1\n"
                       "initial q0\ntrans q0 a q1 0.9\ntrans q1 b q1 0.5\n", encoding="utf-8")
    plant_spec = ["--plant", CENTRAL_PLANT, "--spec", CENTRAL_SPEC]
    union = ["--plant", UNION_PLANT, "--spec", UNION_SPEC]
    check = ["check", "--property", "controllable", *plant_spec]
    canonical = [
        ["validate", CENTRAL_PLANT, CENTRAL_SPEC],
        [*check, "--sites", MEDICAL, "--json"],
        ["synthesize", "--mode", "central", *union, "--force", "--out", out],
        ["closed-loop", "--plant", CENTRAL_PLANT, "--supervisor", central, "--out", out],
        ["infimal-co", *union, "--out", out],
        ["supremal-cn", *plant_spec],
        ["scp", "--plant", CENTRAL_PLANT, "--min", CENTRAL_SPEC, "--max", CENTRAL_PLANT, "--json", "--out", out],
        ["lang", "--op", "union", UNION_SPEC, UNION_PLANT, "--out", out],
        ["gen", "--plant", str(machine), "--horizon", "3", "--out", out],
        ["oracle", "--op", "infimal-co", *union, "--budget", "50000"],
    ]
    return [
        # Every subcommand's valid forms.
        ["validate", CENTRAL_PLANT, CENTRAL_SPEC],
        *(["check", "--property", p, *union, "--json"]
          for p in ("controllable", "observable", "strongly-observable", "normal")),
        ["check", "--property", "coobservable", "--plant", MEDICAL, "--spec", MEDICAL, "--sites", MEDICAL],
        check,
        ["check", "--property=observable", *plant_spec],
        ["synthesize", "--mode", "central", *plant_spec, "--out", out],
        ["synthesize", "--mode", "central", *union],
        ["synthesize", "--mode", "central", *union, "--force"],
        ["synthesize", "--mode", "decentralized", "--plant", MEDICAL, "--spec", MEDICAL, "--sites", MEDICAL],
        ["closed-loop", "--plant", CENTRAL_PLANT, "--supervisor", central, "--out", out],
        ["closed-loop", "--plant", MEDICAL, "--supervisor", decentralized],
        ["infimal-co", *union, "--out", out],
        ["supremal-cn", *plant_spec],
        ["scp", "--plant", CENTRAL_PLANT, "--min", CENTRAL_SPEC, "--max", CENTRAL_PLANT],
        ["scp", "--plant", CENTRAL_PLANT, "--min", CENTRAL_SPEC, "--max", CENTRAL_PLANT, "--json", "--out", out],
        ["scp", "--plant", UNION_PLANT, "--min", UNION_SPEC, "--max", UNION_SPEC],
        *(["lang", "--op", op, UNION_SPEC, UNION_PLANT] for op in ("union", "intersect", "concat", "sublanguage")),
        ["lang", "--op", "project", "--observable", "a", UNION_PLANT],
        ["lang", "--op", "grade", "--string", "a.b", CENTRAL_PLANT],
        ["gen", "--plant", str(machine), "--horizon", "3", "--out", out],
        ["gen", "--plant", str(machine)],
        ["oracle", "--op", "infimal-co", *union, "--budget", "50000"],
        ["oracle", "--op", "supervisor-exists", *union],
        # Help at both levels.
        ["-h"], ["--help"], ["check", "-h"], ["scp", "--help"], [*check, "--help"], ["--help", "check"],
        # No command, or an unknown one.
        [], ["bogus"], ["bogus", *plant_spec], ["--plant", CENTRAL_PLANT], ["chec", *check[1:]],
        # Unknown, extra, missing and bad arguments.
        ["check", "--bogus", "x", *check[1:]],
        [*check, "extra"],
        [*check, "--bogus"],
        ["validate", CENTRAL_PLANT, "--out", out],
        ["check", "--property", "controllable", "--plant", CENTRAL_PLANT],
        ["check"],
        ["check", "--property", "bogus", *plant_spec],
        ["check", "--json=yes", *check[1:]],
        ["gen", "--plant", str(machine), "--horizon", "x"],
        ["lang", "--op", "union"],
        # An abbreviated option, whole and with a value attached.
        ["check", "--prop", "controllable", *plant_spec],
        ["check", "--prop=controllable", *plant_spec],
        ["scp", "--pl", CENTRAL_PLANT, "--mi", CENTRAL_SPEC, "--max", CENTRAL_PLANT, "--js"],
        # "--" before, inside and after a command's arguments.
        ["validate", "--", CENTRAL_PLANT, CENTRAL_SPEC],
        ["lang", "--op", "union", "--", UNION_SPEC, UNION_PLANT],
        [*check, "--"],
        [*check, "--", "extra"],
        ["check", "--", *check[1:]],
        ["--", "validate", CENTRAL_PLANT],
        ["--"],
        *canonical,
        *mutated_argvs(canonical, seed=1),
    ]


def test_dispatch_on_the_first_argument_runs_as_the_top_level_parser_does(tmp_path):
    # Each argv parses to the same Namespace, or exits with the same code,
    # printing the same help, usage and message; then runs to the same
    # exit code, output and written file.
    parser, out = cli._build_parser(), tmp_path / "out.fdl"
    corpus = dispatch_corpus(tmp_path)
    # Every subcommand has forms the command table reads and forms it leaves to argparse.
    read = {argv[0] for argv in corpus if cli._read_command(argv) is not None}
    left = {argv[0] for argv in corpus if argv and cli._read_command(argv) is None}
    assert read == set(cli._COMMANDS) <= left
    for argv in corpus:
        assert _parse_captured(cli._parse_args, argv) == _parse_captured(parser.parse_args, argv), argv
        expected = _run_captured(references.run_command_top_level, argv, out)
        assert _run_captured(run_command, argv, out) == expected, argv


def test_scp_writes_out_before_it_prints_anything(tmp_path, capsys):
    # An --out that cannot be written leaves stdout empty, as synthesize does.
    scp = ["scp", "--plant", CENTRAL_PLANT, "--min", CENTRAL_SPEC, "--max", CENTRAL_PLANT]
    for extra in ([], ["--json"]):
        assert run_command([*scp, *extra, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error[IO_ERROR]: cannot write {tmp_path}: ")
    # Written, the supervisor goes to --out alone, after the verdict went to stdout.
    out = tmp_path / "S.fdl"
    assert run_command([*scp, "--out", str(out)]) == 0
    assert capsys.readouterr().out == "scp: solvable\n"
    assert run_command(scp) == 0
    assert capsys.readouterr().out == "scp: solvable\n" + out.read_text(encoding="utf-8")


def test_an_undecodable_byte_past_the_first_read_reads_as_a_text_read_reports_it(tmp_path, capsys):
    # The byte lies past 8 KiB, the size of a text-mode read's first chunk.
    bad = tmp_path / "bad.fdl"
    bad.write_bytes(b"[alphabet E]\nevents a\n" + b"# padding\n" * 1000 + b"\xff\n")
    with pytest.raises(UnicodeDecodeError) as err:
        with open(bad, encoding="utf-8", newline="") as file:
            file.read()
    assert "position 10022" in str(err.value)
    assert run_command(["validate", str(bad)]) == 2
    assert capsys.readouterr().err == f"error[IO_ERROR]: cannot read {bad}: {err.value}\n"


@pytest.mark.parametrize(
    "argv, line, code",
    [
        (["lang", "--op", "sublanguage", UNION_PLANT, UNION_SPEC], "false\n", 1),
        (["lang", "--op", "grade", "--string", "a.c", CENTRAL_PLANT], "0.6\n", 0),
        (["oracle", "--op", "supervisor-exists", "--plant", UNION_PLANT, "--spec", UNION_SPEC], "false\n", 1),
    ],
    ids=["lang-sublanguage", "lang-grade", "oracle-supervisor-exists"],
)
def test_a_verdict_op_writes_its_line_to_out(tmp_path, capsys, argv, line, code):
    assert run_command(argv) == code
    assert capsys.readouterr() == (line, "")
    out = tmp_path / "verdict.txt"
    assert run_command([*argv, "--out", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == line.encode()


def test_a_byte_order_mark_is_read_past(tmp_path, capsys):
    bom = tmp_path / "central_plant.fdl"
    bom.write_bytes(b"\xef\xbb\xbf" + Path(CENTRAL_PLANT).read_bytes())
    outputs = []
    for plant in (CENTRAL_PLANT, str(bom)):
        assert run_command(["check", "--property", "observable", "--plant", plant, "--spec", CENTRAL_SPEC]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0] and outputs[0].err == ""
    # Emitted files carry no mark.
    written = []
    for plant in (CENTRAL_PLANT, str(bom)):
        out = tmp_path / f"K{len(written)}.fdl"
        assert run_command(["infimal-co", "--plant", plant, "--spec", CENTRAL_SPEC, "--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0] and written[0].startswith(b"[alphabet E]\n")
