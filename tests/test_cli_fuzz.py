"""Seeded CLI fuzzing: every subcommand, run in process on mutated copies
of the test data, ends in exit code 0, 1 or 2 and never in a traceback.

The mutations drop, duplicate, shuffle and corrupt lines.  The draws are
seeded, so a failure names the seed, the round and the argument vector
that reproduce it.
"""

import random
from pathlib import Path

import pytest

from fdes.cli import run_command

DATA = Path(__file__).parent / "data"
ROUNDS = 260

AUTOMATON = (
    "[alphabet E]\nevents a b\n\n[automaton G]\nalphabet E\nstates q0 q1\ninitial q0\n"
    "trans q0 a q1 0.9\ntrans q1 b q1 0.5\ntrans q1 a q0 0.4\n"
)
# Lines and tokens that FDL readers must refuse or accept without crashing.
JUNK = [
    "", "[", "]", "[language]", "[language X]", "[alphabet E]", "[sites S]", "[supervisor T]",
    "eps", "eps 2", "eps 1 1", "a 1/0", "a -1", "a 0.5.5", "a..b 0.5", "a.zz 0.5", "0.5",
    "alphabet", "alphabet Z", "events", "events a a", "controllable zz", "observable",
    "site 3 controllable a", "site 1 observable zz", "projection", "controls", "obs", "obs zz",
    "enable a 2", "enable zz 0.5", "states", "initial q9", "trans q0 zz q1 1", "trans q0 a q1",
    "#", "\t", "é", "1e400", "nan", "-0", "9" * 40,
]


def _mutate(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines.append(rng.choice(JUNK))
            continue
        i = rng.randrange(len(lines))
        op = rng.choice(("drop", "duplicate", "shuffle", "corrupt"))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(rng.randrange(len(lines) + 1), lines[i])
        elif op == "shuffle":
            j = rng.randrange(i, len(lines) + 1)
            window = lines[i:j]
            rng.shuffle(window)
            lines[i:j] = window
        else:
            tokens = lines[i].split(" ")
            k = rng.randrange(len(tokens))
            how = rng.randrange(3)
            if how == 0:
                tokens[k] = rng.choice(JUNK)
            elif how == 1:
                tokens[k] = tokens[k][: rng.randrange(len(tokens[k]) + 1)]
            else:
                lines.insert(i, rng.choice(JUNK))
                continue
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + ("\n" if rng.random() < 0.9 else "")


def _supervisors(tmp_path):
    """Clean supervisor files for the three data sets, synthesized once."""
    made = {}
    for name, plant, spec, mode in (
        ("central", "central_plant.fdl", "central_spec.fdl", "central"),
        ("union", "union_plant.fdl", "union_plant.fdl", "central"),
        ("medical", "medical.fdl", "medical.fdl", "decentralized"),
    ):
        out = tmp_path / f"clean_{name}.fdl"
        argv = ["synthesize", "--mode", mode, "--plant", str(DATA / plant), "--spec", str(DATA / spec)]
        assert run_command(argv + ["--out", str(out)]) == 0
        made[name] = out.read_text(encoding="utf-8")
    return made


def _commands(rng: random.Random, files: dict) -> list:
    p, k, s, g, o = files["plant"], files["spec"], files["supervisor"], files["automaton"], files["out"]
    json = ["--json"] if rng.random() < 0.5 else []
    prop = rng.choice(["controllable", "observable", "strongly-observable", "normal", "coobservable"])
    return [
        ["validate", p, k, s],
        ["check", "--property", prop, "--plant", p, "--spec", k, *json],
        ["synthesize", "--mode", rng.choice(["central", "decentralized"]), "--plant", p, "--spec", k,
         *(["--force"] if rng.random() < 0.3 else []), "--out", o],
        ["closed-loop", "--plant", p, "--supervisor", s],
        ["infimal-co", "--plant", p, "--spec", k],
        ["supremal-cn", "--plant", p, "--spec", k],
        ["scp", "--plant", p, "--min", k, "--max", rng.choice([p, k]), *json],
        ["lang", "--op", rng.choice(["union", "intersect", "concat", "sublanguage"]), k, p],
        ["lang", "--op", "grade", "--string", rng.choice(["eps", "a", "a.b", "a1.a2", "zz"]), k],
        ["lang", "--op", "project", k, *(["--observable", "a,b"] if rng.random() < 0.5 else [])],
        ["gen", "--plant", g, "--horizon", str(rng.randint(0, 4))],
        ["oracle", "--op", rng.choice(["infimal-co", "supremal-cn", "supervisor-exists"]),
         "--plant", p, "--spec", k, "--budget", "300"],
    ]


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_inputs_end_in_an_exit_code(tmp_path, capsys, seed):
    supervisors = _supervisors(tmp_path)
    sets = {
        "central": (DATA / "central_plant.fdl", DATA / "central_spec.fdl"),
        "union": (DATA / "union_plant.fdl", DATA / "union_spec.fdl"),
        "medical": (DATA / "medical.fdl", DATA / "medical.fdl"),
    }
    rng = random.Random(seed)
    files = {role: str(tmp_path / f"{role}.fdl") for role in ("plant", "spec", "supervisor", "automaton", "out")}
    subcommands = set()
    for round_ in range(ROUNDS):
        name = rng.choice(sorted(sets))
        plant, spec = (path.read_text(encoding="utf-8") for path in sets[name])
        texts = {"plant": plant, "spec": spec, "supervisor": supervisors[name], "automaton": AUTOMATON}
        for role in rng.sample(sorted(texts), rng.randint(1, 2)):
            texts[role] = _mutate(rng, texts[role])
        for role, text in texts.items():
            Path(files[role]).write_text(text, encoding="utf-8")
        # One file holds the medical plant, its sites and its spec.
        commands = _commands(rng, {**files, "spec": files["plant"]} if name == "medical" else files)
        argv = commands[round_ % len(commands)]
        try:
            code = run_command(argv)
        except Exception as err:
            raise AssertionError(f"seed {seed} round {round_}: {argv} raised {err!r}") from err
        assert code in (0, 1, 2), f"seed {seed} round {round_}: {argv} exited {code}"
        subcommands.add(argv[0])
        capsys.readouterr()
    assert len(subcommands) == 10
