"""The FDL span splitter against the line-by-line reference splitter.

Both must find the same sections (kind, name, header line) and the same
body lines (line number, words), and ``parse_fdl`` on either must give the
same document, or the same error code, message and location: on the
committed FDL files, on whitespace and comment variants of them, and on
seeded mutations.
"""

import random
from pathlib import Path

import pytest

import references
from fdes import fdl
from fdes.errors import FdesError
from test_cli_fuzz import AUTOMATON, _mutate

DATA = Path(__file__).parent / "data"
FILES = sorted(DATA.glob("*.fdl"))
DRAWS = 3000

# Each variant keeps every word of the text it changes; the last adds comment lines.
VARIANTS = {
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "lone cr": lambda t: t.replace(" ", "\r"),
    "tabs": lambda t: t.replace(" ", "\t"),
    "form feeds": lambda t: t.replace(" ", " \x0c"),
    "nel": lambda t: t.replace(" ", "\x85"),
    "line separator": lambda t: t.replace(" ", "\u2028"),
    "blanks before headers": lambda t: t.replace("\n[", "\n \t\x0c["),
    "comments holding [": lambda t: t.replace("\n", " # [x] [\n").replace("\n[", "\n# [y]\n["),
}


def _view(split, words, text: str):
    """Each section's (kind, name, header line) and its body's (line
    number, words); or the error the split raised."""
    try:
        sections = split("f.fdl", text)
    except FdesError as err:
        return ("error", err.code, err.message, err.location)
    view = []
    for section in sections:
        body = [(section.at, line) for line in words(section)]
        assert section.at == section.line
        view.append(((section.kind, section.name, section.line), body))
    return view


def _outcome(text: str):
    try:
        doc = fdl.parse_fdl(text, "f.fdl")
    except FdesError as err:
        return ("error", err.code, err.message, err.location)
    return ("document", doc, repr(doc), doc.file_sections)


def _assert_same(text: str) -> None:
    new = _view(fdl._split_sections, fdl._words, text)
    assert new == _view(references._split_sections, references._words, text), repr(text)
    outcome = _outcome(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fdl, "_split_sections", references._split_sections)
        patch.setattr(fdl, "_words", references._words)
        assert outcome == _outcome(text), repr(text)


def _texts():
    return [path.read_text(encoding="utf-8") for path in FILES] + [AUTOMATON]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_committed_files_split_as_the_reference_does(path):
    _assert_same(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variants_split_as_the_reference_does(variant):
    for text in _texts():
        changed = VARIANTS[variant](text)
        assert changed != text
        _assert_same(changed)


def test_edge_texts_split_as_the_reference_does():
    for text in ["", "\n", "# only\n", "x", "[", "[]", "[alphabet E]", " [alphabet E]#\nevents a",
                 "\n\n  \r\n[alphabet E]\nevents a\n", "junk\n[alphabet E]\n", "[alphabet E\n",
                 "[alphabet E]\n  [language\n", "[alphabet E]\nevents a [b\n", "[bogus E]\n",
                 "#[alphabet E]\n", "[alphabet E] x\n", "\ufeff[alphabet E]\n", "[alphabet E]\r"]:
        _assert_same(text)


def test_mutated_texts_split_as_the_reference_does():
    rng = random.Random(1)
    texts = _texts()
    for _ in range(DRAWS):
        text = _mutate(rng, rng.choice(texts))
        if rng.random() < 0.25:
            text = VARIANTS[rng.choice(sorted(VARIANTS))](text)
        _assert_same(text)
