"""Supervisor construction, closed loops, and their golden values."""

import random
from fractions import Fraction as F

import pytest

from fdes import (
    Alphabet,
    ConditionViolated,
    FdesError,
    FdlDocument,
    FuzzySupervisor,
    Projection,
    closed_loop_central,
    closed_loop_decentralized,
    emit_fdl,
    empty_language,
    is_coobservable,
    make_supervisor,
    natural_projection,
    parse_fdl,
    solve_scp,
    synthesize_central,
    synthesize_decentralized,
    union,
)
from fdes.events import render_event_string
from fdes.grades import ONE, ZERO, render_grade
from fdes.language import Index
from fdes.observation import project_string
from helpers import (
    central_example,
    lang,
    medical_example,
    random_alphabet,
    random_lattice,
    random_plant,
    random_projection,
    random_sites,
    random_sublanguage,
    union_example,
)


def expected_central_rows():
    return {
        (): {"a": F(7, 10), "b": F(0), "c": F(0), "d": F(1)},
        ("a",): {"a": F(0), "b": F(0), "c": F(2, 5), "d": F(1)},
        ("a", "b"): {"a": F(0), "b": F(0), "c": F(0), "d": F(1)},
        ("a", "d"): {"a": F(0), "b": F(0), "c": F(0), "d": F(1)},
    }


def test_central_synthesis_golden_rows():
    alphabet, plant, spec = central_example()
    supervisor = synthesize_central(spec, plant, natural_projection(alphabet))
    assert dict(supervisor.table) == expected_central_rows()


def test_central_closed_loop_recovers_spec():
    alphabet, plant, spec = central_example()
    supervisor = synthesize_central(spec, plant, natural_projection(alphabet))
    achieved = closed_loop_central(plant, supervisor)
    assert spec == achieved
    assert achieved.grade(("a", "c")) == F(2, 5)


def test_full_observation_spec_equals_plant_rows():
    alphabet = Alphabet({"a", "b"}, controllable={"a", "b"}, observable={"a", "b"})
    plant = lang(alphabet, {"eps": "1", "a": "0.9", "a.b": "0.5"})
    supervisor = synthesize_central(plant, plant, natural_projection(alphabet))
    assert supervisor.table[("a",)]["b"] == F(1, 2)
    assert closed_loop_central(plant, supervisor) == plant


def test_neutral_supervisor_returns_plant():
    alphabet, plant, _ = central_example()
    pr = natural_projection(alphabet)
    observed = {project_string(pr, s) for s, _ in plant.items()}
    neutral = make_supervisor(pr, alphabet.controllable, {t: {e: F(1) for e in alphabet.controllable} for t in observed})
    assert closed_loop_central(plant, neutral) == plant


def test_synthesis_refuses_unachievable_spec():
    alphabet, plant, k1, k2 = union_example()
    merged = union(k1, k2)
    with pytest.raises(ConditionViolated) as err:
        synthesize_central(merged, plant, natural_projection(alphabet))
    assert err.value.code == "CONDITION_VIOLATED"
    assert not err.value.report.holds
    forced = synthesize_central(merged, plant, natural_projection(alphabet), force=True)
    assert closed_loop_central(plant, forced) != merged


def test_synthesis_rejects_empty_spec():
    alphabet, plant, _ = central_example()
    with pytest.raises(FdesError) as err:
        synthesize_central(empty_language(alphabet), plant, natural_projection(alphabet))
    assert err.value.code == "EMPTY_SPEC"


def test_closed_loop_requires_covering_table():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    partial = make_supervisor(pr, alphabet.controllable, {(): {}})
    with pytest.raises(FdesError) as err:
        closed_loop_central(plant, partial)
    assert err.value.code == "SUPERVISOR_DOMAIN_GAP"


def test_supervisor_pins_unrestrictable_events():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    supervisor = synthesize_central(spec, plant, pr)
    for row in supervisor.table.values():
        assert row["d"] == F(1)
    with pytest.raises(FdesError) as err:
        make_supervisor(pr, frozenset({"a"}), {(): {"d": F(1, 2)}})
    assert err.value.code == "INVALID_SUPERVISOR"


def test_decentralized_golden_rows():
    _, spec = medical_example()
    s1, s2 = synthesize_decentralized(spec, spec)
    a1a2b3 = ("a1", "a2", "b3")
    assert s1.table[()]["a1"] == F(9, 10)
    assert s1.table[("a1",)]["a2"] == F(4, 5)
    assert s1.table[a1a2b3]["a1"] == F(1, 5)
    assert s2.table[a1a2b3]["a1"] == F(1, 5)
    assert s1.table[a1a2b3]["a2"] == F(0)
    assert s2.table[a1a2b3]["a2"] == F(0)
    for event in ("b1", "b2", "b3"):
        assert s1.table[a1a2b3][event] == F(1)


def test_decentralized_closed_loop_recovers_spec():
    _, spec = medical_example()
    s1, s2 = synthesize_decentralized(spec, spec)
    assert spec == closed_loop_decentralized(spec, s1, s2)


def test_decentralized_single_step_value():
    _, spec = medical_example()
    s1, s2 = synthesize_decentralized(spec, spec)
    loop = closed_loop_decentralized(spec, s1, s2)
    assert loop.grade(("a1",)) == F(9, 10)


def test_identical_sites_match_central_synthesis():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    site = (pr, alphabet.controllable)
    s1, s2 = synthesize_decentralized(spec, plant, site, site)
    central = synthesize_central(spec, plant, pr)
    assert s1.table == central.table
    assert s2.table == central.table


def test_unrestricting_second_site_reduces_to_central():
    alphabet = Alphabet({"a", "b"}, controllable={"a"}, observable={"a", "b"})
    plant = lang(alphabet, {"eps": "1", "a": "0.9", "b": "0.6", "a.b": "0.5"})
    spec = lang(alphabet, {"eps": "1", "a": "0.4", "b": "0.6", "a.b": "0.4"})
    pr = natural_projection(alphabet)
    site1 = (pr, frozenset({"a"}))
    site2 = (pr, frozenset())
    s1, s2 = synthesize_decentralized(spec, plant, site1, site2)
    assert closed_loop_decentralized(plant, s1, s2) == closed_loop_central(plant, s1)


def test_closed_loop_under_a_supervisor_of_some_controllable_events():
    alphabet, plant, _ = central_example()
    pr = natural_projection(alphabet)
    rows = {(): {}, ("a",): {"c": F(1, 2)}, ("a", "b"): {}, ("a", "d"): {}}
    supervisor = make_supervisor(pr, {"c"}, rows)
    expected = lang(
        alphabet,
        {"eps": "1", "a": "0.9", "a.b": "0.8", "a.c": "0.5", "a.d": "0.8",
         "a.c.b": "0.4", "a.c.d": "0.5"},
    )
    assert closed_loop_central(plant, supervisor) == expected


def test_language_equality_is_exact():
    alphabet, plant, spec = central_example()
    assert spec == spec
    assert spec != plant
    assert plant != spec
    assert empty_language(alphabet) == empty_language(alphabet)
    other = Alphabet({"a"}, controllable={"a"}, observable={"a"})
    assert empty_language(alphabet) != empty_language(other)


def _synthesize_central(spec, plant, force=False):
    return [synthesize_central(spec, plant, natural_projection(spec.alphabet), force=force)]


def _synthesize_two_sites(spec, plant, force=False):
    site = (natural_projection(spec.alphabet), spec.alphabet.controllable)
    return list(synthesize_decentralized(spec, plant, site, site, force=force))


def _closed_loop_central(plant, supervisors):
    return closed_loop_central(plant, *supervisors)


def _closed_loop_two_sites(plant, supervisors):
    return closed_loop_decentralized(plant, *supervisors)


@pytest.mark.parametrize(
    "synthesize, closed_loop",
    [
        pytest.param(_synthesize_central, _closed_loop_central, id="central"),
        pytest.param(_synthesize_two_sites, _closed_loop_two_sites, id="decentralized"),
    ],
)
def test_wrappers_share_error_paths(synthesize, closed_loop):
    alphabet, plant, spec = central_example()
    for args, code in (
        ((empty_language(alphabet), plant), "EMPTY_SPEC"),
        ((plant, spec), "NOT_SUBLANGUAGE"),
    ):
        with pytest.raises(FdesError) as err:
            synthesize(*args)
        assert err.value.code == code

    union_alphabet, union_plant, k1, k2 = union_example()
    merged = union(k1, k2)
    with pytest.raises(ConditionViolated) as err:
        synthesize(merged, union_plant)
    assert err.value.code == "CONDITION_VIOLATED"
    forced = synthesize(merged, union_plant, force=True)
    assert closed_loop(union_plant, forced) != merged

    supervisors = synthesize(spec, plant)
    assert closed_loop(plant, supervisors) == spec
    foreign = synthesize(union_plant, union_plant, force=True)
    with pytest.raises(FdesError) as err:
        closed_loop(plant, foreign)
    assert err.value.code == "ALPHABET_MISMATCH"
    gap = make_supervisor(natural_projection(alphabet), alphabet.controllable, {(): {}})
    for broken in ([gap] + supervisors[1:], supervisors[:-1] + [gap]):
        with pytest.raises(FdesError) as err:
            closed_loop(plant, broken)
        assert err.value.code == "SUPERVISOR_DOMAIN_GAP"
        assert str(err.value) == "supervisor lacks a row for a"
    assert closed_loop(empty_language(alphabet), [gap] * len(supervisors)).is_empty


def test_supervisor_holds_its_own_table_of_coerced_grades():
    alphabet, plant, _ = central_example()
    pr = natural_projection(alphabet)
    sparse = {(): {"a": "0.5", "b": 0.25, "c": 1}, ("a",): {"c": "3/4"}, ("a", "b"): {}, ("a", "d"): {}}
    exact = {t: {e: F(g) for e, g in row.items()} for t, row in sparse.items()}
    reference = make_supervisor(pr, alphabet.controllable, exact)
    given = {t: {e: str(g) for e, g in row.items()} for t, row in reference.table.items()}
    supervisors = [
        make_supervisor(pr, alphabet.controllable, sparse),
        FuzzySupervisor(pr, alphabet.controllable, given),
    ]
    for supervisor in supervisors:
        assert supervisor == reference
        assert all(type(g) is F for row in supervisor.table.values() for g in row.values())
        assert closed_loop_central(plant, supervisor) == closed_loop_central(plant, reference)
        docs = [FdlDocument(alphabets={"E": alphabet}, supervisors={"S": s}) for s in (supervisor, reference)]
        assert emit_fdl(docs[0]) == emit_fdl(docs[1])
    given[()]["a"] = "0"
    del given[("a", "d")]
    sparse[()]["a"] = F(0)
    assert supervisors == [reference, reference]
    for build in (
        lambda: make_supervisor(pr, alphabet.controllable, {(): {"a": "2"}}),
        lambda: FuzzySupervisor(pr, alphabet.controllable, {(): {**reference.table[()], "a": "2"}}),
    ):
        with pytest.raises(FdesError) as err:
            build()
        assert err.value.code == "OUT_OF_RANGE"


def test_supervisor_constructor_densifies_sparse_rows():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    sparse = {(): {"a": "0.7"}, ("a",): {"c": F(2, 5), "d": 1}, ("a", "b"): {}, ("a", "d"): {"b": 0}}
    supervisor = FuzzySupervisor(pr, alphabet.controllable, sparse)
    assert dict(supervisor.table) == expected_central_rows()
    assert supervisor == synthesize_central(spec, plant, pr)
    assert closed_loop_central(plant, supervisor) == spec


# "ab" is one event here, so a str key read as a string of events is ambiguous.
WORDS = Alphabet({"a", "b", "ab"}, controllable={"a"}, observable={"a", "b", "ab"})


@pytest.mark.parametrize("build", [FuzzySupervisor, make_supervisor])
def test_a_str_row_key_is_refused_by_both_entry_points(build):
    pr = natural_projection(WORDS)
    for key in ("a", "ab", ""):
        with pytest.raises(FdesError) as err:
            build(pr, WORDS.controllable, {(): {}, key: {"a": 1}})
        assert (err.value.code, err.value.message) == (
            "MALFORMED_EVENT", f"event string {key!r} must be a tuple of event ids"
        )
    supervisor = build(pr, WORDS.controllable, {(): {}, ("ab",): {"a": 1}, ("a", "b"): {}})
    assert sorted(supervisor.table) == [(), ("a", "b"), ("ab",)]
    assert supervisor.table[("ab",)] == {"a": ONE, "ab": ONE, "b": ONE}


@pytest.mark.parametrize("build", [FuzzySupervisor, make_supervisor])
def test_an_unknown_event_is_unknown_event_through_both_entry_points(build):
    pr = natural_projection(WORDS)
    for rows, message in (
        ({(): {"zz": 1, "a": 1, "x": 0}}, "supervisor row grades events outside the alphabet: x, zz"),
        ({("zz",): {}}, "event 'zz' not in alphabet"),
        ({("a", "zz", "b"): {"zz": 1}}, "event 'zz' not in alphabet"),
    ):
        with pytest.raises(FdesError) as err:
            build(pr, WORDS.controllable, rows)
        assert (err.value.code, err.value.message) == ("UNKNOWN_EVENT", message)
    # An alphabet event outside the projection stays a fault of the supervisor.
    with pytest.raises(FdesError) as err:
        build(Projection(WORDS, {"a"}), WORDS.controllable, {(): {}, ("b",): {}})
    assert (err.value.code, err.value.message) == (
        "INVALID_SUPERVISOR", "observed string b uses an unobservable event"
    )


def _sparse_fdl(supervisor: FuzzySupervisor, rows) -> str:
    """The supervisor's FDL with only the given entries of each row."""
    head = emit_fdl(FdlDocument(alphabets={"E": supervisor.projection.alphabet}))
    lines = [
        "[supervisor S]",
        "alphabet E",
        "observable " + " ".join(sorted(supervisor.projection.observable)),
        "controllable " + " ".join(sorted(supervisor.controllables)),
    ]
    for t, row in rows.items():
        lines.append(f"obs {render_event_string(t)}")
        lines.extend(f"enable {e} {render_grade(g)}" for e, g in row.items())
    return head + "\n" + "\n".join(lines) + "\n"


def test_supervisor_entry_points_agree_on_random_sparse_rows():
    rng = random.Random(5105)
    for _ in range(200):
        alphabet = random_alphabet(rng)
        lattice = random_lattice(rng)
        plant = random_plant(rng, alphabet, lattice)
        pr = random_projection(rng, alphabet)
        ctrl = frozenset(e for e in sorted(alphabet.controllable) if rng.random() < 0.7)
        rows = {
            t: {
                e: rng.choice(lattice) if e in ctrl else ONE
                for e in rng.sample(sorted(alphabet.events), rng.randint(0, len(alphabet.events)))
            }
            for t in sorted({project_string(pr, s) for s, _ in plant.items()})
        }
        supervisor = FuzzySupervisor(pr, ctrl, rows)
        assert supervisor == make_supervisor(pr, ctrl, rows)
        assert parse_fdl(_sparse_fdl(supervisor, rows)).supervisors == {"S": supervisor}
        for t, row in rows.items():
            assert supervisor.table[t] == {
                e: row[e] if e in row else ZERO if e in ctrl else ONE for e in alphabet.events
            }
        # Dense input is stored unchanged, grade objects included.
        dense = {t: dict(row) for t, row in supervisor.table.items()}
        stored = FuzzySupervisor(pr, ctrl, dense).table
        assert stored == dense
        assert all(stored[t][e] is g for t, row in dense.items() for e, g in row.items())
        # Synthesis gives only the controllable entries; the constructor adds the rest.
        spec = random_sublanguage(rng, plant, lattice, allow_empty=False)
        sites = [(pr, alphabet.controllable), *random_sites(rng, alphabet)]
        synthesized = [
            synthesize_central(spec, plant, pr, force=True),
            *synthesize_decentralized(spec, plant, *sites[1:], force=True),
        ]
        for (site_pr, site_ctrl), sup in zip(sites, synthesized):
            sparse = {t: {e: row[e] for e in site_ctrl} for t, row in sup.table.items()}
            assert sup == FuzzySupervisor(site_pr, site_ctrl, sparse)


def test_synthesis_rejects_a_projection_over_another_alphabet():
    alphabet, plant, spec = central_example()
    other = Alphabet(alphabet.events, controllable={"a"}, observable=alphabet.events)
    foreign, own = natural_projection(other), natural_projection(alphabet)
    for force in (False, True):
        for synthesize in (
            lambda k, g: synthesize_central(k, g, foreign, force=force),
            lambda k, g: synthesize_decentralized(
                k, g, (foreign, alphabet.controllable), (own, frozenset()), force=force
            ),
        ):
            for args, code in (
                ((empty_language(alphabet), plant), "EMPTY_SPEC"),
                ((plant, spec), "NOT_SUBLANGUAGE"),
                ((spec, plant), "ALPHABET_MISMATCH"),
            ):
                with pytest.raises(FdesError) as err:
                    synthesize(*args)
                assert err.value.code == code
            assert str(err.value) == "site projection uses a different alphabet"


def test_site_controllable_sets_may_be_lists():
    _, spec = medical_example()
    union_alphabet, union_plant, k1, k2 = union_example()
    merged, pr = union(k1, k2), natural_projection(union_alphabet)
    for k, plant, sites in (
        (spec, spec, [(Projection(spec.alphabet, s.observable), s.controllable) for s in spec.alphabet.sites]),
        (merged, union_plant, [(pr, frozenset({"a"})), (pr, frozenset({"b"}))]),
    ):
        listed = [(site_pr, sorted(ctrl)) for site_pr, ctrl in sites]
        assert is_coobservable(k, plant, *listed) == is_coobservable(k, plant, *sites)
        for force in (False, True):
            try:
                expected = synthesize_decentralized(k, plant, *sites, force=force)
            except ConditionViolated as error:
                with pytest.raises(ConditionViolated) as err:
                    synthesize_decentralized(k, plant, *listed, force=force)
                assert (str(err.value), err.value.report) == (str(error), error.report)
            else:
                assert synthesize_decentralized(k, plant, *listed, force=force) == expected


def test_checked_synthesis_and_scp_number_the_plant_support_once_each(monkeypatch):
    built = []
    init = Index.__init__

    def counting_init(self, plant):
        built.append(plant)
        init(self, plant)

    monkeypatch.setattr(Index, "__init__", counting_init)
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    _, medical = medical_example()
    union_alphabet, union_plant, k1, k2 = union_example()
    merged = union(k1, k2)
    for call, builds in (
        (lambda: synthesize_central(spec, plant, pr), 1),
        (lambda: synthesize_decentralized(medical, medical), 1),
        (lambda: solve_scp(spec, plant, plant, pr), 2),
        (lambda: solve_scp(spec, spec, plant, pr), 2),
        (lambda: solve_scp(merged, merged, union_plant, natural_projection(union_alphabet)), 1),
    ):
        built.clear()
        call()
        assert len(built) == builds
