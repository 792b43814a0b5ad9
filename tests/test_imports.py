"""No dead imports in ``src/fdes``: every name a module imports is used.

No linter ships with the package, so this reads each module with the
standard ``ast``.  ``__future__`` imports and the names ``fdes.__init__``
re-exports through ``__all__`` are not uses of their own and are left out.
The same reading checks that only ``events`` raises ``UNKNOWN_EVENT``, so
every unknown event goes through its checks and is named alike, and that
only ``language`` builds an ``Index`` directly, so every other module
reads the one kept on the plant (``Index.of``).  A fresh interpreter
checks what ``import fdes.cli`` loads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "fdes"


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside a quoted annotation such as ``-> "Alphabet"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used | exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, re as regex\nfrom x import A, B\n"
    source += "def f(a: 'A') -> int:\n    return os.sep\n__all__ = ['B']\n"
    assert unused_imports(source) == ["regex (line 2)"]


def unknown_event_errors(source: str) -> list[int]:
    """The lines that construct ``FdesError("UNKNOWN_EVENT", ...)``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        codes = node.args[:1] + [k.value for k in node.keywords if k.arg == "code"]
        if name == "FdesError" and any(
            isinstance(c, ast.Constant) and c.value == "UNKNOWN_EVENT" for c in codes
        ):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_events_raises_unknown_event(path):
    found = unknown_event_errors(path.read_text(encoding="utf-8"))
    assert bool(found) == (path.name == "events.py")


def test_the_check_finds_an_unknown_event_error():
    source = "raise FdesError('UNKNOWN_EVENT', 'x')\nraise errors.FdesError(code='UNKNOWN_EVENT', message='y')\n"
    source += "raise FdesError('UNKNOWN_STATE', 'z')\nevent_subset(s, e, 'w', 'UNKNOWN_EVENT')\nFdesError(code)\n"
    assert unknown_event_errors(source) == [1, 2]


def index_constructions(source: str) -> list[int]:
    """The lines that call ``Index(...)`` directly, not ``Index.of``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Index"
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_language_builds_an_index(path):
    found = index_constructions(path.read_text(encoding="utf-8"))
    assert path.name == "language.py" or found == []


def test_the_check_finds_an_index_construction():
    source = "index = Index(plant)\nindex = language.Index(plant)\nindex = Index.of(plant)\n"
    source += "Indexer(plant)\nindex: Index = Index.of(plant)\n"
    assert index_constructions(source) == [1, 2]


def test_the_cli_starts_without_dataclasses_or_inspect():
    # -S keeps a host's .pth imports out.  The package records are slot
    # classes, so a command's start pays for neither module; the CLI
    # still imports its oracle, which the benchmark reads as fdes.oracle.
    code = "import sys, fdes.cli; print(sorted({'dataclasses', 'inspect', 'fdes.oracle'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         encoding="utf-8", check=True).stdout
    assert out == "['fdes.oracle']\n"
