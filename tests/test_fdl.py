"""FDL parsing, validation diagnostics, and canonical emission."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fdes import (
    Alphabet,
    FdesError,
    FuzzyAutomaton,
    FuzzyLanguage,
    FuzzySupervisor,
    SiteSpec,
    build_language,
    natural_projection,
    synthesize_central,
)
from fdes.fdl import FdlDocument, SitesDecl, emit_fdl, parse_documents, parse_fdl
from fdes.grades import parse_grade
from helpers import central_example, lang, medical_example, random_lattice, random_plant, random_supervisor
from theorems import make_instance
from test_cli_fuzz import AUTOMATON, _mutate

DATA = Path(__file__).parent / "data"


def load(*names):
    return parse_documents([(name, (DATA / name).read_text(encoding="utf-8")) for name in names])


def test_parse_central_files_matches_programmatic_instance():
    doc = load("central_plant.fdl", "central_spec.fdl")
    alphabet, plant, spec = central_example()
    assert doc.alphabets["E"] == alphabet
    assert doc.languages["L"] == plant
    assert doc.languages["K"] == spec


def test_parse_medical_sites():
    doc = load("medical.fdl")
    alphabet, spec = medical_example()
    decl = doc.sites["PHYSICIANS"]
    with_sites = doc.alphabets["MED"].with_sites(decl.site1, decl.site2)
    assert with_sites == alphabet
    assert dict(doc.languages["K"].items()) == dict(spec.items())


def test_language_without_eps_line_is_rejected():
    bad = """
[alphabet E]
events a

[language L]
alphabet E
a 0.9
"""
    with pytest.raises(FdesError) as err:
        parse_fdl(bad)
    assert err.value.code == "P1_VIOLATION"
    assert err.value.location is not None


def test_syntax_errors_carry_locations():
    with pytest.raises(FdesError) as err:
        parse_fdl("[language L\n")
    assert err.value.code == "SYNTAX_ERROR"
    assert "1" in err.value.location
    with pytest.raises(FdesError) as err:
        parse_fdl("[alphabet E]\nevents a\n\n[language L]\nalphabet E\neps 1\nbogus line here\n")
    assert err.value.code == "SYNTAX_ERROR"


def test_unknown_alphabet_reference():
    with pytest.raises(FdesError) as err:
        parse_fdl("[language L]\nalphabet MISSING\neps 1\n")
    assert err.value.code == "SYNTAX_ERROR"


def test_duplicate_sections_must_match():
    text = "[alphabet E]\nevents a\n"
    merged = parse_documents([("x", text), ("y", text)])
    assert len(merged.alphabets) == 1
    with pytest.raises(FdesError) as err:
        parse_documents([("x", text), ("y", "[alphabet E]\nevents a b\n")])
    assert err.value.code == "SYNTAX_ERROR"


def test_duplicate_language_line_is_rejected():
    with pytest.raises(FdesError) as err:
        parse_fdl("[alphabet E]\nevents a\n\n[language L]\nalphabet E\neps 1\na 0.5\na 0.4\n")
    assert err.value.code == "DUPLICATE_STRING"


def test_grade_errors_are_located():
    with pytest.raises(FdesError) as err:
        parse_fdl("[alphabet E]\nevents a\n\n[language L]\nalphabet E\neps 1\na 1.5\n")
    assert err.value.code == "OUT_OF_RANGE"
    assert err.value.location.endswith(":7")


def test_repeated_grade_literals_are_parsed_alike_and_located_per_line():
    head = "[alphabet E]\nevents a b\n\n[language L]\nalphabet E\neps 1\n"
    for body, line in (("a 0.9x\n", 7), ("a 0.9\nb 0.9x\n", 8)):
        with pytest.raises(FdesError) as err:
            parse_fdl(head + body)
        assert err.value.code == "MALFORMED_GRADE"
        assert err.value.location == f"<fdl>:{line}"
    language = parse_fdl(head + "a 0.70\nb 0.7\n").languages["L"]
    assert language.grade(("a",)) == language.grade(("b",)) == F(7, 10)


def test_emit_round_trip_languages_and_alphabets():
    doc = load("central_plant.fdl", "central_spec.fdl")
    text = emit_fdl(doc)
    assert parse_fdl(text) == doc
    assert emit_fdl(parse_fdl(text)) == text


def test_emit_round_trip_sites_and_supervisors():
    doc = load("medical.fdl")
    alphabet, plant, spec = central_example()
    supervisor = synthesize_central(spec, plant, natural_projection(alphabet))
    doc.alphabets["E"] = alphabet
    doc.supervisors["S"] = supervisor
    text = emit_fdl(doc)
    again = parse_fdl(text)
    assert again == doc
    assert emit_fdl(again) == text


def test_emit_is_deterministic_and_sorted():
    doc = load("central_plant.fdl")
    text = emit_fdl(doc)
    lines = text.splitlines()
    entries = [l for l in lines if l and l[0] not in "[" and not l.startswith(("alphabet", "events", "controllable", "observable"))]
    assert entries == ["eps 1", "a 0.9", "a.b 0.8", "a.c 0.6", "a.d 0.8", "a.c.b 0.4", "a.c.d 0.6"]


def test_emitted_bytes_end_each_section_with_one_blank_line_between():
    assert emit_fdl(FdlDocument()) == "\n"
    one = "[alphabet E]\nevents a b\ncontrollable a\n"
    assert emit_fdl(parse_fdl(one)) == one
    two = one + "\n[language L]\nalphabet E\neps 1\na 1/3\n"
    assert emit_fdl(parse_fdl(two)) == two


def test_emitted_grades_use_shortest_form():
    doc = parse_fdl("[alphabet E]\nevents a\n\n[language L]\nalphabet E\neps 1\na 1/3\n")
    text = emit_fdl(doc)
    assert "a 1/3" in text
    doc2 = parse_fdl("[alphabet E]\nevents a\n\n[language L]\nalphabet E\neps 1\na 0.80\n")
    assert "a 0.8" in emit_fdl(doc2)


def test_automaton_section_round_trip():
    text = """
[alphabet E]
events a b

[automaton G]
alphabet E
states q0 q1
initial q0
trans q0 a q1 0.9
trans q1 b q1 1/3
"""
    doc = parse_fdl(text)
    aut = doc.automata["G"]
    assert aut.initial == "q0"
    assert aut.transitions[("q1", "b", "q1")] == F(1, 3)
    assert parse_fdl(emit_fdl(doc)) == doc


def test_supervisor_rows_are_densified_and_pinned():
    text = """
[alphabet E]
events a b d

[supervisor S]
alphabet E
observable a b
controllable a b
obs eps
enable a 0.5
"""
    doc = parse_fdl(text)
    row = doc.supervisors["S"].table[()]
    assert row == {"a": F(1, 2), "b": F(0), "d": F(1)}
    bad = text + "obs a\nenable d 0.5\n"
    with pytest.raises(FdesError) as err:
        parse_fdl(bad)
    assert err.value.code == "INVALID_SUPERVISOR"
    with pytest.raises(FdesError) as err:
        parse_fdl(text + "enable zz 0.5\n")
    assert err.value.code == "UNKNOWN_EVENT"


def test_trailing_newlines_in_identifiers_and_grades_are_rejected():
    with pytest.raises(FdesError) as err:
        Alphabet({"a\n", "b"})
    assert err.value.code == "MALFORMED_EVENT"
    with pytest.raises(FdesError) as err:
        parse_grade("0.5\n")
    assert err.value.code == "MALFORMED_GRADE"


event_names = st.text(alphabet="ab_9\n .", min_size=1, max_size=3)


@given(st.sets(event_names, min_size=1, max_size=4), st.data())
def test_every_accepted_alphabet_is_emitted_so_that_it_parses_back(names, data):
    events = sorted(names)
    controllable = data.draw(st.sets(st.sampled_from(events)))
    observable = data.draw(st.sets(st.sampled_from(events)))
    try:
        alphabet = Alphabet(names, controllable=controllable, observable=observable)
    except FdesError:
        return
    doc = FdlDocument(alphabets={"E": alphabet})
    assert parse_fdl(emit_fdl(doc)).alphabets == {"E": alphabet}


PREFIXED = "[alphabet E]\nevents a b\n\n[language L]\nalphabet E\neps 1\na 0.9\na.b 0.8\n"


@pytest.mark.parametrize(
    "line, code, message, lineno",
    [
        ("eps.a", "MALFORMED_EVENT", "'eps' is reserved for the empty string", 9),
        ("a.", "MALFORMED_EVENT", "bad event string: 'a.'", 9),
        ("a.b.", "MALFORMED_EVENT", "bad event string: 'a.b.'", 9),
        ("a..b", "MALFORMED_EVENT", "bad event string: 'a..b'", 9),
        ("a.b-c", "MALFORMED_EVENT", "bad event identifier: 'b-c'", 9),
        ("a.eps", "MALFORMED_EVENT", "'eps' is reserved for the empty string", 9),
        ("a.zz", "UNKNOWN_EVENT", "event 'zz' not in alphabet", 4),
        ("b.a", "P2_VIOLATION", "grade of b.a exceeds its prefix b (1/2 > 0)", 4),
    ],
)
def test_strings_resolved_from_their_prefix_line_fail_as_parsed_whole(line, code, message, lineno):
    # Each string's prefix line (a, a.b, eps) is present except for b.a.
    with pytest.raises(FdesError) as err:
        parse_fdl(PREFIXED + f"{line} 0.5\n", "spec.fdl")
    assert (err.value.code, err.value.message, err.value.location) == (
        code, message, f"spec.fdl:{lineno}"
    )


def test_strings_parse_the_same_with_or_without_their_prefix_lines_first():
    lines = ["eps 1", "a 0.9", "a.b 0.8", "a.b.a 0.5", "b 0.7", "b.b 0.6"]
    head = "[alphabet E]\nevents a b\n\n[language L]\nalphabet E\n"
    forward = parse_fdl(head + "\n".join(lines) + "\n").languages["L"]
    backward = parse_fdl(head + "\n".join(reversed(lines)) + "\n").languages["L"]
    assert forward == backward
    assert dict(forward.items()) == {
        (): 1, ("a",): F(9, 10), ("b",): F(7, 10), ("a", "b"): F(4, 5),
        ("b", "b"): F(3, 5), ("a", "b", "a"): F(1, 2),
    }


LANGUAGE_HEAD = "[alphabet E]\nevents a b\n\n[language L]\n"


@pytest.mark.parametrize(
    "body, code, message, lineno",
    [
        # x.y.z resolved from its x.y line, and whole-string parses.
        ("alphabet E\neps 1\na 1\na.b-c 0.5\n", "MALFORMED_EVENT", "bad event identifier: 'b-c'", 8),
        ("alphabet E\neps 1\nb-c 0.5\n", "MALFORMED_EVENT", "bad event identifier: 'b-c'", 7),
        ("alphabet E\neps 1\nb.b-c 0.5\n", "MALFORMED_EVENT", "bad event identifier: 'b-c'", 7),
        ("alphabet E\neps 1\na..b 0.5\n", "MALFORMED_EVENT", "bad event string: 'a..b'", 7),
        ("alphabet E\neps 1\na 1.5\n", "OUT_OF_RANGE", "grade '1.5' exceeds 1", 7),
        ("alphabet E\neps 1\na x\n", "MALFORMED_GRADE", "not a grade literal: 'x'", 7),
        ("alphabet E\neps 1\na 0.5\nb 0.5\na 0.5\n", "DUPLICATE_STRING", "duplicate string a", 9),
        ("alphabet E\neps 1\na\n", "SYNTAX_ERROR", "expected: <string> <grade>", 7),
        ("alphabet E F\neps 1\n", "SYNTAX_ERROR", "alphabet line takes one name", 5),
        ("eps 1\nalphabet F\n", "SYNTAX_ERROR", "unknown alphabet 'F'", 6),
        # Whole-language faults are reported at the section header.
        ("alphabet E\na 0.5\n", "P1_VIOLATION", "a non-empty language must grade eps at 1", 4),
        ("alphabet E\neps 1\na.b 0.5\n", "P2_VIOLATION", "grade of a.b exceeds its prefix a (1/2 > 0)", 4),
        ("alphabet E\neps 1\nz 0.5\n", "UNKNOWN_EVENT", "event 'z' not in alphabet", 4),
        ("eps 1\na 0.5\n", "SYNTAX_ERROR", "language section needs an alphabet line", 4),
    ],
)
def test_language_section_errors_keep_code_message_and_line(body, code, message, lineno):
    with pytest.raises(FdesError) as err:
        parse_fdl(LANGUAGE_HEAD + body, "spec.fdl")
    assert (err.value.code, err.value.message, err.value.location) == (
        code, message, f"spec.fdl:{lineno}"
    )


SUPERVISOR_HEAD = "[alphabet E]\nevents a b\n\n[supervisor S]\n"


@pytest.mark.parametrize(
    "body, code, message, lineno",
    [
        ("alphabet F\n", "SYNTAX_ERROR", "unknown alphabet 'F'", 5),
        ("alphabet E\nobs eps a\n", "SYNTAX_ERROR", "obs line takes one observed string", 6),
        ("alphabet E\nobs a..b\n", "MALFORMED_EVENT", "bad event string: 'a..b'", 6),
        ("alphabet E\nobs eps\nobs eps\n", "DUPLICATE_STRING", "duplicate row eps", 7),
        ("alphabet E\nenable a 0.5\n", "SYNTAX_ERROR", "enable line before any obs line", 6),
        ("alphabet E\nobs eps\nenable a\n", "SYNTAX_ERROR", "expected: enable <event> <grade>", 7),
        ("alphabet E\nobs eps\nenable a 2\n", "OUT_OF_RANGE", "grade '2' exceeds 1", 7),
        ("alphabet E\nstates q\n", "SYNTAX_ERROR", "unknown supervisor line 'states'", 6),
        ("alphabet E\nobservable a\n", "SYNTAX_ERROR",
         "supervisor section needs alphabet, observable, and controllable lines", 4),
        ("alphabet E\nobservable a\ncontrollable a zz\n", "UNKNOWN_EVENT",
         "supervisor controls events outside the alphabet: zz", 4),
    ]
    + [
        ("alphabet E\nobservable a\ncontrollable a\nobs eps\n" + f"{kind} a\n", "SYNTAX_ERROR",
         f"{kind} line after the first obs line", 9)
        for kind in ("alphabet", "observable", "controllable")
    ],
)
def test_supervisor_section_errors_keep_code_message_and_line(body, code, message, lineno):
    with pytest.raises(FdesError) as err:
        parse_fdl(SUPERVISOR_HEAD + body, "sup.fdl")
    assert (err.value.code, err.value.message, err.value.location) == (
        code, message, f"sup.fdl:{lineno}"
    )


@pytest.mark.parametrize(
    "text, code, message, lineno",
    [
        ("[alphabet E]\nevents a b-c\n", "MALFORMED_EVENT", "bad event identifier: 'b-c'", 2),
        ("[alphabet E]\nevents a\ncontrollable b\n", "UNKNOWN_EVENT",
         "controllable events not in alphabet: b", 1),
        ("[alphabet E]\nevents a b\ncontrollable a\n\n[sites S]\nalphabet E\nsite 1 controllable\n",
         "SITE_COVER_VIOLATION", "site controllable sets do not cover E_c: missing a", 5),
        ("[alphabet E]\nevents a b\ncontrollable a\n\n[sites S]\nalphabet E\nsite 1 controllable a b\n",
         "SITE_COVER_VIOLATION", "site 1 controls events outside the controllable set: b", 5),
        ("[alphabet E]\nevents a b\nobservable a\n\n[sites S]\nalphabet E\nsite 2 observable a b\n",
         "SITE_COVER_VIOLATION", "site 2 observes events outside the observable set: b", 5),
        ("[alphabet E]\nevents a\n\n[automaton G]\nalphabet E\nstates p\ninitial p\ntrans p zz p 1\n",
         "UNKNOWN_EVENT", "event 'zz' not in alphabet", 4),
        ("[alphabet E]\nevents a\n\n[automaton G]\nalphabet E\nstates p\ninitial p\ntrans p a p 2\n",
         "OUT_OF_RANGE", "grade '2' exceeds 1", 8),
        ("[alphabet E]\nevents a\n\n[automaton G]\nalphabet E\nstates p\ninitial q\n",
         "UNKNOWN_STATE", "initial state 'q' not in state set", 4),
        ("[alphabet E]\nevents a\n\n[supervisor S]\nalphabet E\nobservable z\ncontrollable a\n",
         "UNKNOWN_EVENT", "observable events not in alphabet: z", 4),
        # Every section reads its alphabet line alike, and refuses it at that line.
        ("[alphabet E]\nevents a\n\n[sites S]\nsite 1 controllable a\nalphabet X\n",
         "SYNTAX_ERROR", "unknown alphabet 'X'", 6),
        ("[alphabet E]\nevents a\n\n[automaton G]\nstates p\nalphabet F\n",
         "SYNTAX_ERROR", "unknown alphabet 'F'", 6),
        ("[alphabet E]\nevents a\n\n[automaton G]\nalphabet E F\n",
         "SYNTAX_ERROR", "alphabet line takes one name", 5),
    ],
)
def test_other_section_errors_keep_code_message_and_line(text, code, message, lineno):
    with pytest.raises(FdesError) as err:
        parse_fdl(text, "model.fdl")
    assert (err.value.code, err.value.message, err.value.location) == (
        code, message, f"model.fdl:{lineno}"
    )


@pytest.mark.parametrize("char", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_lines_are_numbered_at_newlines_only(char):
    # str.splitlines breaks at each of these; an editor or grep -n does not.
    text = f"[alphabet E]\nevents a b{char}\n\n[language K]\nalphabet E\neps 1\na 0.5x\n"
    with pytest.raises(FdesError) as err:
        parse_fdl(text, "k.fdl")
    assert (err.value.code, err.value.location) == ("MALFORMED_GRADE", "k.fdl:7")
    # Inside a line the character is whitespace.
    assert parse_fdl(text.replace("0.5x", "0.5")).alphabets["E"].events == {"a", "b"}


AUTOMATON_HEAD = "[alphabet E]\nevents a b\n\n[automaton G]\nalphabet E\nstates s0 s1\n"


@pytest.mark.parametrize(
    "text, message, lineno",
    [
        (AUTOMATON_HEAD + "initial s0\ntrans s0 a s1 0.5\ntrans s0 a s1 0.9\n",
         "duplicate transition s0 a s1", 9),
        (AUTOMATON_HEAD + "initial s0\ntrans s0 a s1 0.5\ninitial s1\n", "duplicate 'initial' line", 9),
        (AUTOMATON_HEAD + "alphabet E\ninitial s0\n", "duplicate 'alphabet' line", 7),
        (SUPERVISOR_HEAD + "alphabet E\nalphabet E\n", "duplicate 'alphabet' line", 6),
        (SUPERVISOR_HEAD + "alphabet E\nobservable a\ncontrollable a\nobservable a b\n",
         "duplicate 'observable' line", 8),
        (SUPERVISOR_HEAD + "controllable a\ncontrollable\n", "duplicate 'controllable' line", 6),
        (SUPERVISOR_HEAD + "alphabet E\nobservable a\ncontrollable a\nobs eps\nenable a 0.5\nenable a 1\n",
         "duplicate enable 'a' line", 10),
        (LANGUAGE_HEAD + "alphabet E\neps 1\nalphabet E\n", "duplicate 'alphabet' line", 7),
        ("[alphabet E]\nevents a\n\n[sites S]\nalphabet E\nsite 1 controllable\nalphabet E\n",
         "duplicate 'alphabet' line", 7),
    ],
)
def test_a_repeated_line_is_refused_at_its_own_line(text, message, lineno):
    with pytest.raises(FdesError) as err:
        parse_fdl(text, "dup.fdl")
    assert (err.value.code, err.value.message, err.value.location) == (
        "SYNTAX_ERROR", message, f"dup.fdl:{lineno}"
    )


def test_a_row_may_enable_an_event_that_another_row_enables():
    row = "obs {}\nenable a 0.5\n"
    text = SUPERVISOR_HEAD + "alphabet E\nobservable a b\ncontrollable a\n" + row.format("eps") + row.format("a")
    assert parse_fdl(text).supervisors["S"].table[("a",)]["a"] == F(1, 2)


def test_states_lines_add_up():
    aut = parse_fdl(AUTOMATON_HEAD + "states s2\ninitial s2\ntrans s2 a s0 0.5\n").automata["G"]
    assert aut.states == {"s0", "s1", "s2"}


def test_every_parse_error_names_a_line_that_holds_text():
    # Only parse_documents locates an error: at the body line being read, else the header.
    corpus = [path.read_text(encoding="utf-8") for path in sorted(DATA.glob("*.fdl"))] + [AUTOMATON]
    rng = random.Random(14)
    errors = 0
    for round_ in range(2000):
        text = _mutate(rng, rng.choice(corpus))
        try:
            parse_fdl(text, "m.fdl")
        except FdesError as err:
            errors += 1
            source, _, lineno = err.location.rpartition(":")
            lines = text.split("\n")
            assert source == "m.fdl" and 1 <= int(lineno) <= len(lines), (round_, err.location)
            assert lines[int(lineno) - 1].split("#")[0].strip(), (round_, err.location)
    assert errors >= 1000


_BAD_EVENTS = """
from fdes import Alphabet, FdesError
from fdes.fdl import parse_fdl

for make in (lambda: Alphabet({"ok", "b-c", "d-e"}), lambda: parse_fdl("[alphabet E]\\nevents a b-c d-e x.y\\n")):
    try:
        make()
    except FdesError as error:
        print(error.code, error.message)
"""


def test_the_bad_event_reported_does_not_depend_on_the_string_hash():
    path = str(Path(__file__).parent.parent / "src")
    outputs = {
        subprocess.run(
            [sys.executable, "-c", _BAD_EVENTS],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, encoding="utf-8", check=True, timeout=60,
        ).stdout
        for hash_seed in ("0", "1", "2", "3", "4", "5")
    }
    assert outputs == {"MALFORMED_EVENT bad event identifier: 'b-c'\n" * 2}


def _covering_sites(rng, alphabet):
    """Two site specifications that pass ``Alphabet.with_sites``: each
    event of E_c (resp. E_o) goes to site 1, site 2 or both."""
    parts = []
    for whole in (alphabet.controllable, alphabet.observable):
        buckets = {e: rng.randint(0, 2) for e in sorted(whole)}
        parts.append([frozenset(e for e, b in buckets.items() if b in picks) for picks in ((0, 2), (1, 2))])
    (c1, c2), (o1, o2) = parts
    return SiteSpec(c1, o1), SiteSpec(c2, o2)


# Section and state names that read back whole, odd ones included: a name
# is any non-empty run of characters with no whitespace and no '#'.
_NAMES = ["E", "q0", "a]b", "[x", "]", "é", "x[1]", "ß.2"]


def _random_document(rng):
    alphabet, lattice, plant, spec, pr = make_instance(rng)
    E, P, G, S = (rng.choice(_NAMES) for _ in range(4))
    L, K = rng.sample(_NAMES, 2)
    states = rng.sample(_NAMES, rng.randint(1, 3))
    transitions = {
        (p, e, q): rng.choice(lattice[1:])
        for p in states for e in sorted(alphabet.events) for q in states if rng.random() < 0.3
    }
    return FdlDocument(
        alphabets={E: alphabet},
        sites={P: SitesDecl(E, *_covering_sites(rng, alphabet))},
        languages={L: plant, K: spec},
        automata={G: FuzzyAutomaton(frozenset(states), alphabet, states[0], transitions)},
        supervisors={S: random_supervisor(rng, plant, pr, alphabet.controllable, lattice)},
    )


def test_emitted_documents_of_every_kind_parse_back_equal():
    rng = random.Random(2020)
    for round_ in range(200):
        doc = _random_document(rng)
        text = emit_fdl(doc)
        assert parse_fdl(text) == doc, (round_, text)
        assert emit_fdl(parse_fdl(text)) == text, round_


def test_language_sections_read_in_either_order_build_what_build_language_builds(monkeypatch):
    # Emitted text passes the builder's one-pass check and is stored with
    # no constructor call; shuffled body lines may fall back to it.  Both
    # give build_language's language, in its support order.
    built = []
    init = FuzzyLanguage.__init__
    monkeypatch.setattr(FuzzyLanguage, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    rng = random.Random(2024)
    for round_ in range(200):
        doc = _random_document(rng)
        for name, language in doc.languages.items():
            expected = build_language(language.alphabet, language.items())
            head, body = emit_fdl(FdlDocument(alphabets=doc.alphabets, languages={name: language})).split(
                f"[language {name}]\n")
            lines = body.splitlines()
            for shuffled in (False, True):
                if shuffled:
                    rng.shuffle(lines)
                built.clear()
                parsed = parse_fdl(f"{head}[language {name}]\n" + "\n".join(lines)).languages[name]
                assert parsed == expected and parsed.support == expected.support, (round_, lines)
                assert shuffled or not built, round_


_HEAD = "[alphabet E]\nevents a b\n\n[language L]\n"


@pytest.mark.parametrize(
    "body, outcome",
    [
        ("alphabet E\neps 1\na 0\nb 0.5", {"eps": "1", "b": "0.5"}),
        ("alphabet E\neps 1\na 0\na.b 0.5", ("P2_VIOLATION", "grade of a.b exceeds its prefix a (1/2 > 0)")),
        ("alphabet E\neps 1\nb 0.5\na 0.5", {"eps": "1", "a": "0.5", "b": "0.5"}),
        ("alphabet E\neps 1\na.b 0.5\na 0.4", ("P2_VIOLATION", "grade of a.b exceeds its prefix a (1/2 > 2/5)")),
        ("eps 1\nalphabet E\na 0.5", {"eps": "1", "a": "0.5"}),
        ("eps 1\nz 0.5\nalphabet E", ("UNKNOWN_EVENT", "event 'z' not in alphabet")),
        ("alphabet E\na 0.5\neps 1", {"eps": "1", "a": "0.5"}),
        ("alphabet E\na 0.5", ("P1_VIOLATION", "a non-empty language must grade eps at 1")),
        ("alphabet E\neps 0.5\na 0.5", ("P1_VIOLATION", "a non-empty language must grade eps at 1")),
        # Text order and support order disagree: a shorter string after a
        # longer one that sorts lower as text is out of support order.
        ("alphabet E\neps 1\na 0.5\na.a 0.5\nb 0.5", {"eps": "1", "a": "0.5", "b": "0.5", "a.a": "0.5"}),
        ("alphabet E\neps 1\nb 0.5\nb.a 0.5\na 0.5\na.a 0.6",
         ("P2_VIOLATION", "grade of a.a exceeds its prefix a (3/5 > 1/2)")),
    ],
    ids=["zero-grade", "zero-grade-parent", "out-of-order", "out-of-order-p2", "alphabet-after-strings",
         "alphabet-after-unknown-event", "eps-not-first", "eps-missing", "eps-below-one",
         "shorter-after-lower-text", "shorter-after-lower-text-p2"],
)
def test_language_lines_that_fail_the_fast_check_get_the_constructors_outcome(body, outcome):
    alphabet = Alphabet({"a", "b"})
    if isinstance(outcome, dict):
        parsed = parse_fdl(_HEAD + body).languages["L"]
        expected = lang(alphabet, outcome)
        assert parsed == expected and parsed.support == expected.support
    else:
        with pytest.raises(FdesError) as err:
            parse_fdl(_HEAD + body)
        assert (err.value.code, err.value.message, err.value.location) == (*outcome, "<fdl>:4")


_E = Alphabet({"a", "b"}, controllable={"a"}, observable={"a", "b"})
_SITES = (SiteSpec({"a"}, {"a"}), SiteSpec(set(), {"b"}))


def _bad_name(name):
    return f"bad name {name!r}: a name is non-empty, with no whitespace and no '#'"


@pytest.mark.parametrize(
    "doc, code, message, refused_text",
    [
        (FdlDocument(languages={"L": lang(_E, {"eps": "1", "a": "0.5"})}), "SYNTAX_ERROR",
         "language 'L': its alphabet is no alphabet section of the document",
         "[language L]\nalphabet E\neps 1\n"),
        (FdlDocument(automata={"G": FuzzyAutomaton({"q"}, _E, "q", {})}), "SYNTAX_ERROR",
         "automaton 'G': its alphabet is no alphabet section of the document",
         "[automaton G]\nalphabet E\nstates q\ninitial q\n"),
        (FdlDocument(supervisors={"S": FuzzySupervisor(natural_projection(_E), {"a"}, {})}), "SYNTAX_ERROR",
         "supervisor 'S': its alphabet is no alphabet section of the document",
         "[supervisor S]\nalphabet E\nobservable a b\ncontrollable a\n"),
        (FdlDocument(alphabets={"E": _E}, sites={"P": SitesDecl("F", *_SITES)}), "SYNTAX_ERROR",
         "sites 'P': unknown alphabet 'F'", "[alphabet E]\nevents a b\n\n[sites P]\nalphabet F\n"),
        (FdlDocument(alphabets={"E": _E.with_sites(*_SITES)}), "SYNTAX_ERROR",
         "alphabet 'E': FDL writes sites as a sites section, not on an alphabet",
         "[alphabet E]\nevents a b\nsites P\n"),
        (FdlDocument(alphabets={"E": _E}, sites={"P": SitesDecl("E", _SITES[0], SiteSpec(set(), set()))}),
         "SITE_COVER_VIOLATION", "sites 'P': site observable sets do not cover E_o: missing b",
         "[alphabet E]\nevents a b\ncontrollable a\nobservable a b\n\n"
         "[sites P]\nalphabet E\nsite 1 controllable a\nsite 1 observable a\n"),
        (FdlDocument(alphabets={"E E": _E}), "SYNTAX_ERROR", f"alphabet 'E E': {_bad_name('E E')}",
         "[alphabet E E]\nevents a b\n"),
        (FdlDocument(alphabets={"a#b": _E}), "SYNTAX_ERROR", f"alphabet 'a#b': {_bad_name('a#b')}",
         "[alphabet a#b]\nevents a b\n"),
        (FdlDocument(alphabets={"E": _E}, automata={"G": FuzzyAutomaton({"q 0"}, _E, "q 0", {})}),
         "SYNTAX_ERROR", f"automaton 'G': {_bad_name('q 0')}",
         "[alphabet E]\nevents a b\n\n[automaton G]\nalphabet E\nstates q 0\ninitial q 0\n"),
        # A name that is no str used to end in a raw TypeError, next to a
        # str name in the sort; this one written as its str would be no
        # [kind name] header.
        (FdlDocument(alphabets={"E": _E, ("E", 0): _E}), "SYNTAX_ERROR",
         f"alphabet ('E', 0): {_bad_name(('E', 0))}", "[alphabet ('E', 0)]\nevents a b\n"),
    ],
    ids=["language", "automaton", "supervisor", "sites", "alphabet-with-sites", "site-cover",
         "name-with-space", "name-with-hash", "state-with-space", "name-not-str"],
)
def test_emission_refuses_what_would_not_parse_back(doc, code, message, refused_text):
    with pytest.raises(FdesError) as err:
        emit_fdl(doc)
    assert (err.value.code, err.value.message) == (code, message)
    with pytest.raises(FdesError) as err:
        parse_fdl(refused_text)
    assert err.value.code == code


@pytest.mark.parametrize(
    "doc, bad, written",
    [
        (FdlDocument(alphabets={"E ": _E}), "alphabet 'E '", "[alphabet E ]\nevents a b\n"
         "controllable a\nobservable a b\n"),
        (FdlDocument(alphabets={"E": _E}, automata={"G": FuzzyAutomaton({"q "}, _E, "q ", {})}),
         "automaton 'G'", "[alphabet E]\nevents a b\ncontrollable a\nobservable a b\n\n"
         "[automaton G]\nalphabet E\nstates q \ninitial q \n"),
        # States that are no str used to end in a raw TypeError; written as
        # their str they parse back as states "0" and "1".
        (FdlDocument(alphabets={"E": _E}, automata={"G": FuzzyAutomaton({0, 1}, _E, 0, {(0, "a", 1): 1})}),
         "automaton 'G'", "[alphabet E]\nevents a b\ncontrollable a\nobservable a b\n\n"
         "[automaton G]\nalphabet E\nstates 0 1\ninitial 0\ntrans 0 a 1 1\n"),
        (FdlDocument(alphabets={"E": _E}, automata={"G": FuzzyAutomaton({"q", 0}, _E, "q", {})}),
         "automaton 'G'", "[alphabet E]\nevents a b\ncontrollable a\nobservable a b\n\n"
         "[automaton G]\nalphabet E\nstates 0 q\ninitial q\n"),
    ],
    ids=["trailing-space-name", "trailing-space-state", "states-not-str", "state-not-str-among-str"],
)
def test_emission_refuses_names_that_would_parse_back_unequal(doc, bad, written):
    # ``written`` is these documents with each name written as it is: it
    # parses without error, to another document.
    assert parse_fdl(written) != doc
    with pytest.raises(FdesError) as err:
        emit_fdl(doc)
    assert err.value.code == "SYNTAX_ERROR" and err.value.message.startswith(f"{bad}: bad name ")


def test_single_picks_within_one_file_in_file_order():
    doc = parse_documents([
        ("a.fdl", "[alphabet E]\nevents a\n\n[language L]\nalphabet E\neps 1\n\n"
                  "[language K]\nalphabet E\neps 1\na 0.5\n"),
        ("b.fdl", "[language M]\nalphabet E\neps 1\n"),
    ])
    assert doc.single("language", "b.fdl") == ("M", doc.languages["M"])
    assert doc.single("alphabet", "a.fdl") == doc.single("alphabet") == ("E", doc.alphabets["E"])
    assert doc.names("language", "a.fdl") == ["L", "K"] and doc.names("alphabet", "b.fdl") == []
    cases = [
        (("language", "a.fdl"), "a.fdl: expected exactly one language section, found: L, K"),
        (("alphabet", "b.fdl"), "b.fdl: expected exactly one alphabet section, found: none"),
        (("language", "other.fdl"), "other.fdl: expected exactly one language section, found: none"),
        (("language",), "expected exactly one language section, found: K, L, M"),
    ]
    for args, message in cases:
        with pytest.raises(FdesError) as err:
            doc.single(*args)
        assert (err.value.code, err.value.message) == ("SYNTAX_ERROR", message)


def test_single_takes_a_kind_and_the_constructor_takes_only_tables():
    doc = parse_fdl((DATA / "medical.fdl").read_text(encoding="utf-8"))
    assert doc.single("sites")[0] == "PHYSICIANS"
    with pytest.raises(FdesError, match="expected exactly one language section, found: none"):
        FdlDocument().single("language")
    with pytest.raises(TypeError):
        FdlDocument(file_sections={})


SHARED_ONE = (
    "[alphabet E]\nevents a b\ncontrollable a\nobservable a\n\n"
    "[language K]\nalphabet E\neps 1\na 0.5\na.b 0.5\n\n"
    "[language L]\nalphabet E\neps 1\na 1\na.b 0.25\nb 0.5\n\n"
    "[supervisor S]\nalphabet E\nobservable a\ncontrollable a\nobs a\nenable a 1\n"
)
SHARED_TWO = "[language M]\nalphabet E\neps 1\nb 1\nb.a 1\nb.a.b 0.5\n"


def _key(keys, value):
    """The object among ``keys`` that equals ``value``."""
    return next(key for key in keys if key == value)


def test_one_call_reads_each_string_into_one_tuple():
    def parse():
        return parse_documents([("one.fdl", SHARED_ONE), ("two.fdl", SHARED_TWO)])

    doc = parse()
    K, L, M = (doc.languages[name] for name in "KLM")
    # Two language sections of one file, and a supervisor's obs line.
    a = _key(K.support, ("a",))
    assert _key(L.support, ("a",)) is a
    assert _key(doc.supervisors["S"].table, ("a",)) is a
    assert _key(K.support, ("a", "b")) is _key(L.support, ("a", "b"))
    # Two files.
    assert _key(L.support, ("b",)) is _key(M.support, ("b",))
    # No table outlives its call.
    again = parse()
    assert again == doc
    assert _key(again.languages["K"].support, ("a", "b")) is not _key(K.support, ("a", "b"))
    assert _key(again.supervisors["S"].table, ("a",)) is not a
    assert emit_fdl(doc) == (
        "[alphabet E]\nevents a b\ncontrollable a\nobservable a\n\n"
        "[language K]\nalphabet E\neps 1\na 0.5\na.b 0.5\n\n"
        "[language L]\nalphabet E\neps 1\na 1\nb 0.5\na.b 0.25\n\n"
        "[language M]\nalphabet E\neps 1\nb 1\nb.a 1\nb.a.b 0.5\n\n"
        "[supervisor S]\nalphabet E\nobservable a\ncontrollable a\nobs a\nenable a 1\nenable b 1\n"
    )


# Event names that are prefixes of one another: "." sorts below every
# identifier character, so within one length text order is support order.
_PREFIXED = Alphabet({"a", "ab", "a_1"})
_PREFIXED_HEAD = "[alphabet E]\nevents a a_1 ab\n\n[language L]\nalphabet E\neps 1\n"


def _count_constructor_calls(monkeypatch) -> list:
    built = []
    init = FuzzyLanguage.__init__
    monkeypatch.setattr(FuzzyLanguage, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    return built


def test_emitted_text_over_prefixed_event_names_takes_the_fast_path(monkeypatch):
    built = _count_constructor_calls(monkeypatch)
    rng = random.Random(2828)
    crossed = 0  # languages whose plain text sort is not their support order
    for round_ in range(200):
        language = random_plant(rng, _PREFIXED, random_lattice(rng), max_support=20, max_len=4)
        text = emit_fdl(FdlDocument(alphabets={"E": _PREFIXED}, languages={"L": language}))
        head, body = text.split("[language L]\n")
        lines = body.splitlines()
        crossed += sorted(lines[2:]) != lines[2:]
        for shuffled in (False, True):
            if shuffled:
                rng.shuffle(lines)
            built.clear()
            parsed = parse_fdl(f"{head}[language L]\n" + "\n".join(lines)).languages["L"]
            assert parsed == language and parsed.support == language.support, (round_, lines)
            assert shuffled or not built, round_
    assert crossed > 50


@pytest.mark.parametrize(
    "body, strings, fast",
    [
        ("a 1\na_1 0.5\nab 0.5\na.a 0.5\na.a_1 0.5\na.ab 0.5\n", ["a", "a_1", "ab", "a.a", "a.a_1", "a.ab"],
         True),
        ("a 1\nab 0.5\na_1 0.5\n", ["a", "a_1", "ab"], False),
        # Shorter strings after longer ones that sort lower as text.
        ("a 1\na.ab 0.5\nab 0.5\n", ["a", "ab", "a.ab"], False),
        ("a 1\nab 1\na.a_1 0.5\nab.a 0.5\na_1 0.5\n", ["a", "a_1", "ab", "a.a_1", "ab.a"], False),
        ("a 1\na.a 1\na.a.a 0.5\na.ab 0.5\n", ["a", "a.a", "a.ab", "a.a.a"], False),
    ],
    ids=["in-order", "a_1-after-ab", "ab-after-a.ab", "a_1-after-ab.a", "a.ab-after-a.a.a"],
)
def test_prefixed_event_names_get_the_fast_check_only_in_support_order(monkeypatch, body, strings, fast):
    built = _count_constructor_calls(monkeypatch)
    parsed = parse_fdl(_PREFIXED_HEAD + body).languages["L"]
    assert bool(built) != fast
    grades = {line.split()[0]: line.split()[1] for line in body.splitlines()}
    expected = lang(_PREFIXED, {"eps": "1", **grades})
    assert parsed == expected and parsed.support == expected.support
    assert [".".join(s) for s in parsed.support[1:]] == strings


def test_a_string_read_earlier_in_the_call_is_looked_up_not_rebuilt(monkeypatch):
    from fdes import fdl

    calls = []
    for name in ("check_event_id", "parse_event_string"):
        real = getattr(fdl, name)
        monkeypatch.setattr(fdl, name, lambda text, real=real: calls.append(text) or real(text))
    plant = "[alphabet E]\nevents a b\n\n[language L]\nalphabet E\neps 1\na 1\na.b 0.5\nb 0.5\n"
    spec = "[language K]\nalphabet E\neps 1\na 0.5\na.b 0.5\n"
    parse_documents([("plant.fdl", plant)])
    alone = calls[:]
    calls.clear()
    doc = parse_documents([("plant.fdl", plant), ("spec.fdl", spec)])
    # The spec's strings were all read in the plant's section: no call for them.
    assert calls == alone and "a.b" not in calls
    assert dict(doc.languages["K"].items()) == {(): 1, ("a",): F(1, 2), ("a", "b"): F(1, 2)}
