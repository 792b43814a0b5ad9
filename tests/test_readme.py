"""README's examples run as written: the library sketch, and the FDL
block, whose supervisor row is sparse and densifies as its comments say."""

from fractions import Fraction as F
from pathlib import Path

from fdes import parse_fdl

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(info: str) -> list[str]:
    """The bodies of README's fenced blocks with this info string."""
    blocks, body, current = [], [], None
    for line in README.split("\n"):
        if not line.startswith("```"):
            body.append(line)
        elif current is None:
            current, body = line[3:].strip(), []
        else:
            if current == info:
                blocks.append("\n".join(body) + "\n")
            current = None
    return blocks


def test_library_sketch_runs():
    (sketch,) = _blocks("python")
    exec(compile(sketch, "README.md", "exec"), {})


def test_fdl_example_parses_and_its_supervisor_row_densifies():
    (example,) = _blocks("")
    doc = parse_fdl(example, "README.md")
    assert sorted(doc.alphabets) == ["E"]
    assert (sorted(doc.languages), sorted(doc.automata), sorted(doc.sites)) == (["L"], ["G"], ["SV"])
    supervisor = doc.supervisors["S"]
    assert supervisor.controllables == {"a", "b", "c"}
    assert supervisor.table == {(): {"a": F(7, 10), "b": F(0), "c": F(0), "d": F(1)}}
