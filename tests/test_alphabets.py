"""One alphabet per call: every language, projection, site and supervisor
of a call must use the plant's alphabet, whatever the answer would be."""

import pytest

from fractions import Fraction as F

from fdes import (
    Alphabet,
    FdesError,
    FuzzyLanguage,
    FuzzySupervisor,
    Projection,
    SiteSpec,
    closed_loop_central,
    closed_loop_decentralized,
    automaton_from_language,
    build_language,
    empty_language,
    extended_transition,
    infimal_co,
    is_controllable,
    is_coobservable,
    is_normal,
    is_observable,
    is_strongly_observable,
    is_sublanguage,
    make_supervisor,
    natural_projection,
    prefix_close_repair,
    solve_scp,
    supremal_cn,
    synthesize_central,
    synthesize_decentralized,
    union,
)
from fdes.oracle import (
    brute_decentralized_exists,
    brute_infimal_co,
    brute_supervisor_exists,
    brute_supremal_cn,
)
from fdes.observation import project_string
from helpers import lang, union_example

ALPHABET, PLANT, K1, K2 = union_example()
OWN = natural_projection(ALPHABET)
OWN_SUPERVISOR = synthesize_central(PLANT, PLANT, OWN)

PROJECTION_MISMATCH = ("ALPHABET_MISMATCH", "projection and plant use different alphabets")
LANGUAGE_MISMATCH = ("ALPHABET_MISMATCH", "operands use different alphabets")

FOREIGN = {
    # The same events under other controllable and observable sets.
    "same-events": Projection(Alphabet({"a", "b"}, controllable={"a", "b"}, observable={"a"}), {"b"}),
    "fewer-events": natural_projection(Alphabet({"a"}, controllable={"a"}, observable={"a"})),
    "more-events": natural_projection(Alphabet({"a", "b", "c"}, controllable={"a", "b"}, observable={"b", "c"})),
}

# name -> (call(spec, plant, pr), error for an empty spec, error for a
# spec outside the plant); an entry point that takes no spec has None.
ENTRY_POINTS = {
    "is_observable": (lambda k, g, pr: is_observable(k, g, pr), None, "NOT_SUBLANGUAGE"),
    "is_strongly_observable": (lambda k, g, pr: is_strongly_observable(k, g, pr), None, "NOT_SUBLANGUAGE"),
    "is_normal": (lambda k, g, pr: is_normal(k, g, pr), None, "NOT_SUBLANGUAGE"),
    "is_coobservable-site1": (
        lambda k, g, pr: is_coobservable(k, g, (pr, {"a"}), (OWN, {"b"})), None, "NOT_SUBLANGUAGE"
    ),
    "is_coobservable-site2": (
        lambda k, g, pr: is_coobservable(k, g, (OWN, {"a"}), (pr, {"b"})), None, "NOT_SUBLANGUAGE"
    ),
    "infimal_co": (lambda k, g, pr: infimal_co(k, g, pr), None, "NOT_SUBLANGUAGE"),
    "supremal_cn": (lambda k, g, pr: supremal_cn(k, g, pr), None, "NOT_SUBLANGUAGE"),
    "solve_scp-unsolvable": (lambda k, g, pr: solve_scp(k, k, g, pr), "EMPTY_MIN_SPEC", "PRECONDITION_CHAIN"),
    "solve_scp-solvable": (lambda k, g, pr: solve_scp(k, g, g, pr), "EMPTY_MIN_SPEC", "PRECONDITION_CHAIN"),
    "synthesize_central": (lambda k, g, pr: synthesize_central(k, g, pr), "EMPTY_SPEC", "NOT_SUBLANGUAGE"),
    "synthesize_central-force": (
        lambda k, g, pr: synthesize_central(k, g, pr, force=True), "EMPTY_SPEC", "NOT_SUBLANGUAGE"
    ),
    "synthesize_decentralized": (
        lambda k, g, pr: synthesize_decentralized(k, g, (pr, {"a"}), (OWN, {"b"})), "EMPTY_SPEC", "NOT_SUBLANGUAGE"
    ),
    "closed_loop_central": (
        lambda k, g, pr: closed_loop_central(g, make_supervisor(pr, {"a"}, {})), None, None
    ),
    "closed_loop_decentralized": (
        lambda k, g, pr: closed_loop_decentralized(g, OWN_SUPERVISOR, make_supervisor(pr, {"a"}, {})), None, None
    ),
    "brute_infimal_co": (lambda k, g, pr: brute_infimal_co(k, g, pr), None, "NOT_SUBLANGUAGE"),
    "brute_supremal_cn": (lambda k, g, pr: brute_supremal_cn(k, g, pr), None, "NOT_SUBLANGUAGE"),
    "brute_supervisor_exists": (lambda k, g, pr: brute_supervisor_exists(k, g, pr), None, "NOT_SUBLANGUAGE"),
    "brute_decentralized_exists": (
        lambda k, g, pr: brute_decentralized_exists(k, g, (OWN, {"a"}), (pr, {"b"})), None, "NOT_SUBLANGUAGE"
    ),
}


def _error(call):
    with pytest.raises(FdesError) as err:
        call()
    return err.value.code, str(err.value)


@pytest.mark.parametrize("foreign", FOREIGN.values(), ids=FOREIGN)
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_every_entry_point_refuses_a_projection_over_another_alphabet(entry, foreign):
    call, empty_code, chain_code = entry
    empty = empty_language(ALPHABET)
    # The projection is checked after the spec's own checks: an empty spec
    # where one is refused, a spec over another alphabet, a spec outside
    # the plant.  An entry point without a spec checks only the projection.
    cases = [
        ((empty, PLANT), empty_code),
        ((lang(foreign.alphabet, {"eps": "1", "a": "0.8"}), PLANT), chain_code and LANGUAGE_MISMATCH),
        ((PLANT, K1), chain_code),
        ((union(K1, K2), PLANT), None),
        ((empty, empty), empty_code),
    ]
    for (spec, plant), expected in cases:
        got = _error(lambda: call(spec, plant, foreign))
        expected = expected or PROJECTION_MISMATCH
        assert got == expected if isinstance(expected, tuple) else got[0] == expected


@pytest.mark.parametrize("foreign", FOREIGN.values(), ids=FOREIGN)
def test_solve_scp_refuses_a_foreign_projection_whether_or_not_solvable(foreign):
    merged = union(K1, K2)
    assert not solve_scp(merged, merged, PLANT, OWN).solvable
    assert solve_scp(K1, PLANT, PLANT, OWN).solvable
    for minimal, legal in ((merged, merged), (K1, PLANT)):
        assert _error(lambda: solve_scp(minimal, legal, PLANT, foreign)) == PROJECTION_MISMATCH


def test_a_language_over_another_alphabet_is_one_error_everywhere():
    other = Alphabet({"a", "b"}, controllable={"a"}, observable={"b"})
    foreign = lang(other, {"eps": "1", "a": "0.8"})
    for call in (
        lambda: is_controllable(foreign, PLANT),
        lambda: is_sublanguage(foreign, PLANT),
        lambda: is_sublanguage(K1, lang(other, {"eps": "1"})),
        lambda: solve_scp(K1, lang(other, {"eps": "1", "a": "0.9"}), PLANT, OWN),
        lambda: solve_scp(K1, PLANT, lang(other, {"eps": "1", "a": "0.9"}), OWN),
        lambda: union(foreign, K1),
    ):
        assert _error(call) == LANGUAGE_MISMATCH


def test_two_site_calls_check_the_cover_before_the_site_alphabets():
    foreign = FOREIGN["same-events"]
    for call in (is_coobservable, synthesize_decentralized, brute_decentralized_exists):
        got = _error(lambda: call(K1, PLANT, (foreign, {"a"}), (OWN, set())))
        assert got == ("SITE_COVER_VIOLATION", "site controllable sets do not cover E_c: missing b")


def test_a_str_is_refused_wherever_a_set_of_events_is_expected():
    # Over {a, b, ab}, the str "ab" read as a set of events would be {a, b}.
    words = Alphabet({"a", "b", "ab"}, controllable={"a", "b", "ab"}, observable={"a", "b", "ab"})
    pr = natural_projection(words)
    plant = lang(words, {"eps": "1", "a": "0.5", "ab": "0.5"})
    everything = words.controllable
    for call in (
        lambda: Alphabet("ab"),
        lambda: Alphabet(everything, controllable="ab"),
        lambda: Alphabet(everything, observable="ab"),
        lambda: SiteSpec("ab", everything),
        lambda: SiteSpec(everything, "ab"),
        lambda: Projection(words, "ab"),
        lambda: FuzzySupervisor(pr, "ab", {}),
        lambda: make_supervisor(pr, "ab", {}),
        lambda: is_observable(plant, plant, pr, "ab"),
        lambda: is_strongly_observable(plant, plant, pr, "ab"),
        lambda: is_coobservable(plant, plant, (pr, "ab"), (pr, everything)),
        lambda: synthesize_decentralized(plant, plant, (pr, everything), (pr, "ab")),
    ):
        assert _error(call) == ("MALFORMED_EVENT", "event set 'ab' must be a collection of event ids")
    # No collection, or a member that is no str, is refused as well.
    for call, message in (
        (lambda: Projection(words, [1]), "bad event identifier: 1"),
        (lambda: Alphabet({"a"}, controllable=[1]), "bad event identifier: 1"),
        (lambda: Alphabet([1, 2]), "bad event identifier: 1"),
        (lambda: FuzzySupervisor(pr, [2], {}), "bad event identifier: 2"),
        (lambda: SiteSpec([1], ()), "bad event identifier: 1"),
        (lambda: SiteSpec({"a"}, ["b", 4]), "bad event identifier: 4"),
        (lambda: is_observable(plant, plant, pr, [3]), "bad event identifier: 3"),
        (lambda: Projection(words, None), "event set None must be a collection of event ids"),
        (lambda: SiteSpec(None, ()), "event set None must be a collection of event ids"),
    ):
        assert _error(call) == ("MALFORMED_EVENT", message)
    # Any other collection of event ids is still taken.
    assert Alphabet(["ab", "a"], controllable=("a",), observable=iter(["ab"])).observable == {"ab"}
    assert is_observable(plant, plant, pr, ["ab"]).holds


# Over {a, b, ab}, the str "ab" read as a string of events would be a.b.
WORDS = Alphabet({"a", "b", "ab"}, controllable={"a"}, observable={"a", "b", "ab"})
WORDS_PR = natural_projection(WORDS)
WORDS_PLANT = lang(WORDS, {"eps": "1", "a": "1", "a.b": "0.5"})
HALF, QUARTER, A_B = F(1, 2), F(1, 4), ("a", "b")
WORDS_SUPERVISOR = make_supervisor(WORDS_PR, {"a"}, {(): {}, A_B: {"a": QUARTER}})

# name -> (call(s), what it makes of the string a.b, whether s must be a
# dict key): every entry point that takes a string of events.
STRING_ENTRY_POINTS = {
    "build_language": (lambda s: build_language(WORDS, [((), 1), (("a",), 1), (s, HALF)]).grade(A_B), HALF, False),
    "prefix_close_repair": (lambda s: prefix_close_repair(WORDS, [(s, HALF)]).grade(A_B), HALF, False),
    "FuzzySupervisor": (
        lambda s: FuzzySupervisor(WORDS_PR, {"a"}, {(): {}, s: {"a": QUARTER}}).enable_grade(A_B, "a"), QUARTER, True
    ),
    "make_supervisor": (
        lambda s: make_supervisor(WORDS_PR, {"a"}, {(): {}, s: {"a": QUARTER}}).enable_grade(A_B, "a"), QUARTER, True
    ),
    "enable_grade": (lambda s: WORDS_SUPERVISOR.enable_grade(s, "a"), QUARTER, False),
    "project_string": (lambda s: project_string(WORDS_PR, s), A_B, False),
    "extended_transition": (
        lambda s: extended_transition(automaton_from_language(WORDS_PLANT), "eps", s, "a.b"), HALF, False
    ),
    "grade": (lambda s: WORDS_PLANT.grade(s), HALF, False),
}


@pytest.mark.parametrize("entry", STRING_ENTRY_POINTS.values(), ids=STRING_ENTRY_POINTS)
def test_every_entry_point_reads_a_string_of_events_alike(entry):
    call, of_ab, keyed = entry
    # A str, which would split into events, or a non-iterable is refused.
    for value in ("ab", 5, None):
        assert _error(lambda: call(value)) == (
            "MALFORMED_EVENT", f"event string {value!r} must be a tuple of event ids"
        )
    # Any other iterable of events is that string; a list is no dict key.
    assert call(A_B) == of_ab
    assert call(iter(A_B)) == of_ab
    if not keyed:
        assert call(["a", "b"]) == of_ab
    # The first stray is named; a language grades a string over it 0.
    if call is STRING_ENTRY_POINTS["grade"][0]:
        assert call(("a", "zz")) == 0
    else:
        assert _error(lambda: call(("a", "zz"))) == ("UNKNOWN_EVENT", "event 'zz' not in alphabet")


def test_the_language_constructor_takes_tuple_keys_only():
    for key in ("ab", 5, None, frozenset({"a"}), iter(("a",))):
        assert _error(lambda: FuzzyLanguage(WORDS, {(): 1, key: 1})) == (
            "MALFORMED_EVENT", f"event string {key!r} must be a tuple of event ids"
        )
    assert _error(lambda: FuzzyLanguage(WORDS, {(): 1, ("zz",): 1})) == (
        "UNKNOWN_EVENT", "event 'zz' not in alphabet"
    )


def test_a_stray_controllable_event_is_refused_by_the_observability_checks():
    # Over {a, b} with E_c = E_o = {a} the spec fails observability; with
    # the stray "A" dropped, the check would run on no event and hold.
    alphabet = Alphabet({"a", "b"}, controllable={"a"}, observable={"a"})
    pr = natural_projection(alphabet)
    spec = lang(alphabet, {"eps": "1", "a": "1", "b": "1"})
    plant = lang(alphabet, {"eps": "1", "a": "1", "b": "1", "b.a": "1"})
    stray = ("UNKNOWN_EVENT", "controllable events not in alphabet: A")
    for check in (is_observable, is_strongly_observable):
        assert not check(spec, plant, pr, {"a"}).holds
        assert _error(lambda: check(spec, plant, pr, {"A"})) == stray
        assert _error(lambda: check(spec, plant, pr, {"a", "A"})) == stray
    # Observability checks the events before the projection's alphabet,
    # strong observability after it.
    foreign = FOREIGN["same-events"]
    assert _error(lambda: is_observable(spec, plant, foreign, {"A"})) == stray
    assert _error(lambda: is_strongly_observable(spec, plant, foreign, {"A"})) == PROJECTION_MISMATCH



# The entry points that take a string as no dict key: a dict takes no
# unhashable key at all, so its own construction raises first.
UNKEYED = {name: call for name, (call, _, keyed) in STRING_ENTRY_POINTS.items() if not keyed}


@pytest.mark.parametrize("call", UNKEYED.values(), ids=UNKEYED)
def test_a_string_holding_an_unhashable_event_is_refused_as_a_bad_event(call):
    for value, bad in (
        (("a", ["x"]), ["x"]),
        (["a", ["x"]], ["x"]),
        (("a", ("b", {"x"})), ("b", {"x"})),
        ((["x"], {}), ["x"]),
    ):
        assert _error(lambda: call(value)) == ("MALFORMED_EVENT", f"bad event identifier: {bad!r}")


def test_check_string_refuses_an_unhashable_event_as_a_bad_event():
    assert _error(lambda: WORDS.check_string(("a", ["x"]))) == (
        "MALFORMED_EVENT", "bad event identifier: ['x']"
    )


@pytest.mark.parametrize("count", [1, 3])
def test_an_alphabet_takes_exactly_two_sites(count):
    site = SiteSpec({"a"}, {"a"})
    with pytest.raises(FdesError) as err:
        Alphabet({"a"}, controllable={"a"}, observable={"a"}, sites=(site,) * count)
    assert (err.value.code, err.value.message) == ("SITE_COVER_VIOLATION", "exactly two sites are supported")
