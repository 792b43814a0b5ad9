"""The record contract: the package's records are immutable, compare and
hash by their fields within one class, and print as ``Name(field=value,
...)``; ``FdlDocument`` is the one mutable record."""

from fractions import Fraction as F
from operator import attrgetter

import pytest

from fdes import (
    Alphabet,
    CheckReport,
    FdlDocument,
    FuzzyAutomaton,
    FuzzySupervisor,
    Projection,
    ScpResult,
    SiteSpec,
    Witness,
    build_language,
)
from fdes.fdl import SitesDecl


def _alphabet():
    return Alphabet({"a", "b"}, {"a"}, {"a", "b"})


def _supervisor():
    return FuzzySupervisor(Projection(_alphabet(), {"a"}), {"a"}, {(): {"a": F(1, 2)}, ("a",): {}})


def _witness():
    return Witness("OBSERVABILITY", (("a",), ("b",)), "a", F(1, 2), F(1, 3), (("a",),))


# Each record, built afresh by each call, with its fields in order and
# whether it hashes: a dict field makes it unhashable, as in a frozen
# dataclass.
RECORDS = {
    "SiteSpec": (lambda: SiteSpec({"a"}, {"b"}), ("controllable", "observable"), True),
    "Alphabet": (_alphabet, ("events", "controllable", "observable"), True),
    "Projection": (lambda: Projection(_alphabet(), {"a"}), ("alphabet", "observable"), True),
    "Witness": (_witness, ("kind", "strings", "event", "lhs", "rhs", "projection_class"), True),
    "CheckReport": (lambda: CheckReport(False, (_witness(),)), ("holds", "witnesses"), True),
    "FuzzySupervisor": (_supervisor, ("projection", "controllables", "table"), False),
    "ScpResult": (
        lambda: ScpResult(True, _supervisor(), build_language(_alphabet(), {(): 1, ("a",): F(1, 2)})),
        ("solvable", "supervisor", "infimal"),
        False,
    ),
    "FuzzyAutomaton": (
        lambda: FuzzyAutomaton({"p", "q"}, _alphabet(), "p", {("p", "a", "q"): F(1, 2)}),
        ("states", "alphabet", "initial", "transitions"),
        False,
    ),
    "SitesDecl": (lambda: SitesDecl("E", SiteSpec({"a"}, {"a"}), SiteSpec(set(), {"b"})),
                  ("alphabet_name", "site1", "site2"), True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    make, fields, hashable = RECORDS[name]
    record, twin = make(), make()
    assert type(record).__name__ == name
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == record and record == twin and not record != twin
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    others = [other() for key, (other, _, _) in RECORDS.items() if key != name]
    assert all(record != other for other in others + [attrgetter(*fields)(record)])
    values = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({values})"


def test_records_with_a_different_field_differ():
    assert SiteSpec({"a"}, {"b"}) != SiteSpec({"a"}, {"a"})
    assert Witness("NORMALITY", ((),)) != Witness("NORMALITY", ((),), lhs=F(1, 2))


def test_fdl_document_contract():
    alphabet = _alphabet()
    doc = FdlDocument(alphabets={"E": alphabet})
    tables = (doc.alphabets, doc.sites, doc.languages, doc.automata, doc.supervisors, doc.file_sections)
    assert tables == ({"E": alphabet}, {}, {}, {}, {}, {})
    twin = FdlDocument(alphabets={"E": _alphabet()})
    twin.file_sections["x.fdl"] = [("alphabet", "E")]
    assert doc == twin
    assert doc != FdlDocument() and doc != doc.alphabets
    with pytest.raises(TypeError):
        hash(doc)
    empty = "sites={}, languages={}, automata={}, supervisors={}"
    assert repr(twin) == f"FdlDocument(alphabets={{'E': {alphabet!r}}}, {empty})"


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_field_cannot_be_deleted(name):
    make, fields, _ = RECORDS[name]
    record = make()
    for field in fields:
        with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
            delattr(record, field)
        getattr(record, field)
