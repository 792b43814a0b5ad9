"""The command line on tests/data, held byte for byte: the exit code,
stdout, stderr and written file of every subcommand and op, including
forms that end in an input error or a refusal.

Help, usage and argparse errors are left out: their wording changes
between Python releases.  The commands run in a scratch folder holding
copies of the data files, so every file is named relative to it and the
transcript is the same on every checkout.  To regenerate it after a
deliberate change of output:

    PYTHONPATH=src python tests/test_cli_transcript.py > tests/data/cli_transcript.txt
"""

import io
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from fdes.cli import run_command

DATA = Path(__file__).parent / "data"
TRANSCRIPT = DATA / "cli_transcript.txt"

MACHINE = (
    "[alphabet E]\nevents a b\n\n[automaton G]\nalphabet E\nstates q0 q1\ninitial q0\n"
    "trans q0 a q1 0.9\ntrans q1 b q1 0.5\ntrans q1 a q0 0.4\n"
)

PLANT, SPEC = "central_plant.fdl", "central_spec.fdl"
CENTRAL = ["--plant", PLANT, "--spec", SPEC]
UNION = ["--plant", "union_plant.fdl", "--spec", "union_spec.fdl"]
MEDICAL = ["--plant", "medical.fdl", "--spec", "medical.fdl"]
PROPERTIES = ("controllable", "observable", "strongly-observable", "normal")

COMMANDS = [
    ["validate", PLANT, SPEC],
    ["validate", "medical.fdl", "machine.fdl"],
    ["validate", "golden_cyclic.fdl"],
    ["validate", "golden_tree.fdl"],
    ["validate", "golden_cyclic.fdl", "golden_tree.fdl"],
    ["validate", "missing.fdl"],
    ["validate", "union_spec.fdl"],
    *(["check", "--property", p, *pair, *json]
      for p in PROPERTIES for pair in (CENTRAL, UNION) for json in ([], ["--json"])),
    ["check", "--property", "coobservable", *MEDICAL],
    ["check", "--property", "coobservable", *MEDICAL, "--sites", "medical.fdl", "--json"],
    ["check", "--property", "coobservable", *CENTRAL],
    ["check", "--property", "observable", "--plant", "missing.fdl", "--spec", SPEC],
    ["synthesize", "--mode", "central", *CENTRAL],
    ["synthesize", "--mode", "central", *CENTRAL, "--out", "S.fdl"],
    ["synthesize", "--mode", "central", *UNION],
    ["synthesize", "--mode", "central", *UNION, "--force"],
    ["synthesize", "--mode", "decentralized", *MEDICAL, "--out", "S12.fdl"],
    ["synthesize", "--mode", "decentralized", *MEDICAL, "--sites", "medical.fdl"],
    ["synthesize", "--mode", "decentralized", *CENTRAL],
    ["closed-loop", "--plant", PLANT, "--supervisor", "S.fdl"],
    ["closed-loop", "--plant", "medical.fdl", "--supervisor", "S12.fdl", "--out", "loop.fdl"],
    ["closed-loop", "--plant", PLANT, "--supervisor", PLANT],
    ["closed-loop", "--plant", "medical.fdl", "--supervisor", "S.fdl"],
    *([command, *pair] for command in ("infimal-co", "supremal-cn") for pair in (CENTRAL, UNION, MEDICAL)),
    ["infimal-co", *UNION, "--out", "infimal.fdl"],
    ["infimal-co", *CENTRAL, "--out", "missing/infimal.fdl"],
    ["supremal-cn", "--plant", "golden_tree.fdl", "--spec", "golden_tree.fdl"],
    ["scp", "--plant", PLANT, "--min", SPEC, "--max", PLANT],
    ["scp", "--plant", PLANT, "--min", SPEC, "--max", SPEC, "--json"],
    ["scp", "--plant", PLANT, "--min", SPEC, "--max", PLANT, "--out", "scp.fdl"],
    ["scp", "--plant", "union_plant.fdl", "--min", "union_spec.fdl", "--max", "union_spec.fdl"],
    ["scp", "--plant", "union_plant.fdl", "--min", "union_spec.fdl", "--max", "union_spec.fdl", "--json"],
    *(["lang", "--op", op, "union_spec.fdl", "union_plant.fdl"]
      for op in ("union", "intersect", "concat", "sublanguage")),
    ["lang", "--op", "sublanguage", "union_plant.fdl", "union_spec.fdl"],
    ["lang", "--op", "union", PLANT, "--out", "union.fdl"],
    ["lang", "--op", "intersect", PLANT, SPEC, "--out", "intersect.fdl"],
    ["lang", "--op", "project", PLANT],
    ["lang", "--op", "project", "union_plant.fdl", "--observable", "a"],
    ["lang", "--op", "project", PLANT, "--observable", ""],
    ["lang", "--op", "project", "union_spec.fdl", "union_plant.fdl"],
    ["lang", "--op", "grade", PLANT, "--string", "a.c"],
    ["lang", "--op", "grade", PLANT, "--string", "b"],
    ["lang", "--op", "grade", PLANT, "--string", "zz"],
    ["lang", "--op", "grade", PLANT],
    ["gen", "--plant", "machine.fdl"],
    ["gen", "--plant", "machine.fdl", "--horizon", "2", "--out", "generated.fdl"],
    ["gen", "--plant", "machine.fdl", "--horizon", "-1"],
    ["gen", "--plant", PLANT],
    *(["oracle", "--op", op, *pair]
      for op in ("infimal-co", "supremal-cn", "supervisor-exists") for pair in (CENTRAL, UNION)),
    ["oracle", "--op", "infimal-co", *UNION, "--out", "oracle.fdl"],
    ["oracle", "--op", "supervisor-exists", *UNION, "--budget", "1"],
]


def _out(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def transcript() -> str:
    """Every command of COMMANDS run in turn in the current folder, which
    holds the data files: what each printed, exited with and wrote."""
    blocks = []
    for argv in COMMANDS:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = run_command(argv)
        block = [f"$ fdes {' '.join(repr(a) if not a or ' ' in a else a for a in argv)}\n",
                 f"[exit {code}]\n"]
        for name, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
            if text:
                block += [f"[{name}]\n", text]
        out = _out(argv)
        if out is not None and Path(out).is_file():
            block += [f"[file {out}]\n", Path(out).read_text(encoding="utf-8")]
        blocks.append("".join(block))
    return "\n".join(blocks)


def _stage(folder: Path) -> None:
    for path in DATA.glob("*.fdl"):
        shutil.copyfile(path, folder / path.name)
    (folder / "machine.fdl").write_text(MACHINE, encoding="utf-8")


def test_the_cli_transcript_is_unchanged(tmp_path, monkeypatch):
    _stage(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert transcript() == TRANSCRIPT.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        _stage(Path(folder))
        home = os.getcwd()
        os.chdir(folder)
        try:
            text = transcript()
        finally:
            os.chdir(home)
    sys.stdout.write(text)
