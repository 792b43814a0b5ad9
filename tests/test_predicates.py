"""The five property checkers and their witnesses."""

import random
from fractions import Fraction as F

import pytest

from fdes import (
    Alphabet,
    FdesError,
    SiteSpec,
    empty_language,
    natural_projection,
    synthesize_decentralized,
    union,
)
from fdes.events import string_key
from fdes.observation import project_string
from fdes.oracle import brute_decentralized_exists
from fdes.predicates import (
    COOBS_CASE1,
    CONTROLLABILITY,
    NORMALITY,
    OBSERVABILITY,
    STRONG_OBS_COND1,
    STRONG_OBS_COND2,
    is_controllable,
    is_coobservable,
    is_normal,
    is_observable,
    is_strongly_observable,
)
from helpers import (
    central_example,
    lang,
    medical_example,
    observable_not_strong_example,
    random_sites,
    union_example,
)
from theorems import make_instance


def test_controllable_golden_instance():
    _, plant, spec = central_example()
    assert is_controllable(spec, plant).holds


def test_plant_always_controllable():
    _, plant, _ = central_example()
    assert is_controllable(plant, plant).holds
    assert is_controllable(empty_language(plant.alphabet), plant).holds


def test_controllability_witness():
    alphabet, plant, _ = central_example()
    truncated = lang(alphabet, {"eps": "1", "a": "0.9"})
    report = is_controllable(truncated, plant)
    assert not report.holds
    w = report.witnesses[0]
    assert w.kind == CONTROLLABILITY
    assert w.strings == (("a",),)
    assert w.event == "d"
    assert w.lhs == 0
    assert w.rhs == F(4, 5)


def test_not_sublanguage_rejected():
    alphabet, plant, _ = central_example()
    too_big = lang(alphabet, {"eps": "1", "a": "1"})
    with pytest.raises(FdesError) as err:
        is_controllable(too_big, plant)
    assert err.value.code == "NOT_SUBLANGUAGE"


def test_observable_golden_instance():
    alphabet, plant, spec = central_example()
    assert is_observable(spec, plant, natural_projection(alphabet)).holds


def test_plant_and_empty_always_observable():
    alphabet, plant, _ = central_example()
    pr = natural_projection(alphabet)
    assert is_observable(plant, plant, pr).holds
    assert is_observable(empty_language(alphabet), plant, pr).holds


def test_union_not_observable_with_witness():
    alphabet, plant, k1, k2 = union_example()
    merged = union(k1, k2)
    report = is_observable(merged, plant, natural_projection(alphabet))
    assert not report.holds
    w = report.witnesses[0]
    assert w.kind == OBSERVABILITY
    assert w.projection_class == ((), ("a",))
    assert w.event == "b"
    assert w.strings == (("a",),)
    assert w.lhs == 0
    assert w.rhs == F(7, 10)


def test_strong_observability_witness_pair():
    alphabet, plant = observable_not_strong_example()
    pr = natural_projection(alphabet)
    assert is_observable(plant, plant, pr).holds
    report = is_strongly_observable(plant, plant, pr)
    assert not report.holds
    w = report.witnesses[0]
    assert w.kind == STRONG_OBS_COND2
    assert w.strings == ((), ("a",))
    assert w.event == "b"
    assert (w.lhs, w.rhs) == (F(9, 10), F(7, 10))


@pytest.mark.parametrize(
    "last, kind, lhs, rhs",
    [("0.4", STRONG_OBS_COND1, "0.4", "0.5"), ("0.5", STRONG_OBS_COND2, "0.6", "0.5")],
)
def test_strong_observability_witness_after_ineligible_members(last, kind, lhs, rhs):
    # the class eps, u, u.u, u.u.u: the first two cannot continue with a in
    # the plant, u.u.a is tight and only u.u.u.a departs from it
    alphabet = Alphabet({"a", "u"}, controllable={"a"}, observable={"a"})
    base = {"eps": "1", "u": "0.9", "u.u": "0.8", "u.u.u": "0.7", "u.u.a": "0.6"}
    plant = lang(alphabet, {**base, "u.u.u.a": "0.5"})
    spec = lang(alphabet, {**base, "u.u.u.a": last})
    report = is_strongly_observable(spec, plant, natural_projection(alphabet))
    assert len(report.witnesses) == 1
    w = report.witnesses[0]
    assert w.kind == kind
    assert w.strings == (("u", "u"), ("u", "u", "u"))
    assert w.event == "a"
    assert (w.lhs, w.rhs) == (F(lhs), F(rhs))
    assert w.projection_class == ((), ("u",), ("u", "u"), ("u", "u", "u"))


def test_union_components_strongly_observable():
    alphabet, plant, k1, k2 = union_example()
    pr = natural_projection(alphabet)
    assert is_strongly_observable(k1, plant, pr).holds
    assert is_strongly_observable(k2, plant, pr).holds


def test_strongly_observable_instances_are_observable():
    alphabet, plant, k1, _ = union_example()
    pr = natural_projection(alphabet)
    assert is_observable(k1, plant, pr).holds


def test_normality_golden_witness():
    alphabet, plant, spec = central_example()
    report = is_normal(spec, plant, natural_projection(alphabet))
    assert not report.holds
    by_string = {w.strings[0]: w for w in report.witnesses}
    w = by_string[("a", "c", "d")]
    assert w.kind == NORMALITY
    assert (w.lhs, w.rhs) == (F(2, 5), F(3, 5))


def test_plant_is_normal_and_union_component_is_not():
    alphabet, plant, k1, _ = union_example()
    pr = natural_projection(alphabet)
    assert is_normal(plant, plant, pr).holds
    assert not is_normal(k1, plant, pr).holds


def test_coobservable_medical_instance():
    _, spec = medical_example()
    assert is_controllable(spec, spec).holds
    assert is_coobservable(spec, spec).holds


def test_coobservable_trivial_when_spec_is_plant():
    alphabet, plant, _ = central_example()
    pr = natural_projection(alphabet)
    site = (pr, alphabet.controllable)
    assert is_coobservable(plant, plant, site, site).holds


def test_identical_sites_reduce_to_observability():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    site = (pr, alphabet.controllable)
    assert is_coobservable(spec, plant, site, site).holds
    merged_alphabet, merged_plant, k1, k2 = union_example()
    merged = union(k1, k2)
    site2 = (natural_projection(merged_alphabet), merged_alphabet.controllable)
    coobs = is_coobservable(merged, merged_plant, site2, site2)
    obs = is_observable(merged, merged_plant, natural_projection(merged_alphabet))
    assert coobs.holds == obs.holds == False
    assert coobs.witnesses[0].kind == COOBS_CASE1


def test_coobservable_needs_site_cover():
    alphabet, plant, spec = central_example()
    pr = natural_projection(alphabet)
    with pytest.raises(FdesError) as err:
        is_coobservable(spec, plant, (pr, frozenset({"a"})), (pr, frozenset({"b"})))
    assert err.value.code == "SITE_COVER_VIOLATION"


def test_coobservable_without_sites_anywhere():
    alphabet, plant, spec = central_example()
    with pytest.raises(FdesError) as err:
        is_coobservable(spec, plant)
    assert err.value.code == "SITE_COVER_VIOLATION"


def test_a_site_cover_fault_names_the_site_and_the_events():
    alphabet, plant, k1, _ = union_example()
    pr = natural_projection(alphabet)
    for call in (is_coobservable, synthesize_decentralized, brute_decentralized_exists):
        for ctrl1, ctrl2, message in (
            ({"a", "b", "zz"}, set(), "site 1 controls events outside the controllable set: zz"),
            ({"a"}, {"y", "x"}, "site 2 controls events outside the controllable set: x, y"),
            (set(), set(), "site controllable sets do not cover E_c: missing a, b"),
        ):
            with pytest.raises(FdesError) as err:
                call(k1, plant, (pr, ctrl1), (pr, ctrl2))
            assert (err.value.code, err.value.message) == ("SITE_COVER_VIOLATION", message)
    for site, message in (
        (SiteSpec({"a"}, {"b"}), "site controllable sets do not cover E_c: missing b"),
        (SiteSpec({"a", "b"}, set()), "site observable sets do not cover E_o: missing b"),
    ):
        with pytest.raises(FdesError) as err:
            alphabet.with_sites(site, site)
        assert (err.value.code, err.value.message) == ("SITE_COVER_VIOLATION", message)


def test_report_invariant():
    from fdes.predicates import CheckReport, Witness

    with pytest.raises(ValueError):
        CheckReport(True, (Witness(CONTROLLABILITY, ((),)),))
    with pytest.raises(ValueError):
        CheckReport(False, ())


def test_witnesses_are_sorted_and_first_per_class():
    alphabet, plant, k1, k2 = union_example()
    merged = union(k1, k2)
    report = is_observable(merged, plant, natural_projection(alphabet))
    # one witness per (class, event) pair that fails
    keys = [(w.projection_class, w.event) for w in report.witnesses]
    assert len(keys) == len(set(keys))


def test_observability_witnesses_follow_class_order_not_string_order():
    # Class (b,) is reached only through u.b, so its violation (at u.b.u)
    # comes after that of class (a, a) (at a.a) in string order, while
    # its projection sorts first.
    alphabet = Alphabet(
        frozenset("abcu"), controllable=frozenset("c"), observable=frozenset("abc")
    )
    strings = ["eps", "a", "a.a", "a.a.u", "a.a.u.c", "u", "u.b", "u.b.c", "u.b.u"]
    plant = lang(alphabet, {s: 1 for s in strings + ["a.a.c", "u.b.u.c"]})
    spec = lang(alphabet, {s: 1 for s in strings})
    report = is_observable(spec, plant, natural_projection(alphabet))
    assert [(w.strings, w.event, w.projection_class) for w in report.witnesses] == [
        ((("u", "b", "u"),), "c", (("u", "b"), ("u", "b", "u"))),
        ((("a", "a"),), "c", (("a", "a"), ("a", "a", "u"))),
    ]
    assert [(w.lhs, w.rhs) for w in report.witnesses] == [(0, 1), (0, 1)]


def test_witness_classes_follow_observed_strings_not_first_appearance():
    # In support order class (b,) appears first, at b; class (a,) only at
    # u.a.  Witnesses still come in the order of the observed strings.
    alphabet = Alphabet(
        frozenset("abcu"), controllable=frozenset("c"), observable=frozenset("abc")
    )
    strings = ["eps", "b", "u", "u.a", "u.b", "u.u", "u.u.a"]
    plant = lang(alphabet, {**{s: 1 for s in strings}, **{f"{s}.c": "0.9" for s in strings[1:]}})
    spec = lang(alphabet, {**{s: 1 for s in strings}, "b.c": "0.5", "u.b.c": "0.3",
                           "u.a.c": "0.5", "u.u.a.c": "0.3"})
    class_a, class_b = (("u", "a"), ("u", "u", "a")), (("b",), ("u", "b"))
    pr = natural_projection(alphabet)
    report = is_observable(spec, plant, pr)
    assert [(w.kind, w.strings, w.event, w.lhs, w.rhs, w.projection_class) for w in report.witnesses] == [
        (OBSERVABILITY, (("u", "u", "a"),), "c", F(3, 10), F(1, 2), class_a),
        (OBSERVABILITY, (("u", "b"),), "c", F(3, 10), F(1, 2), class_b),
    ]
    report = is_strongly_observable(spec, plant, pr)
    assert [(w.kind, w.strings, w.lhs, w.rhs, w.projection_class) for w in report.witnesses] == [
        (STRONG_OBS_COND2, (("u", "a"), ("u", "u", "a")), F(1, 2), F(3, 10), class_a),
        (STRONG_OBS_COND2, (("b",), ("u", "b")), F(1, 2), F(3, 10), class_b),
    ]


def test_witness_order_on_random_failing_specs():
    """Controllability and co-observability witnesses come in (s, event)
    order; observability witnesses in (class projection, event) order, at
    most one per (class, event)."""
    rng = random.Random(171)
    longest = {"controllable": 0, "observable": 0, "coobservable": 0}
    for _ in range(400):
        alphabet, _, plant, spec, pr = make_instance(rng, max_support=20)
        sites = random_sites(rng, alphabet)
        reports = {
            "controllable": is_controllable(spec, plant),
            "coobservable": is_coobservable(spec, plant, *sites),
        }
        for name, report in reports.items():
            keys = [(string_key(w.strings[0]), w.event) for w in report.witnesses]
            assert keys == sorted(set(keys)), name
            longest[name] = max(longest[name], len(keys))
        for controllables in (None, alphabet.events):
            report = is_observable(spec, plant, pr, controllables)
            keys = [
                (string_key(project_string(pr, w.strings[0])), w.event)
                for w in report.witnesses
            ]
            assert keys == sorted(set(keys))
            for w in report.witnesses:
                assert w.strings[0] in w.projection_class
                assert {project_string(pr, t) for t in w.projection_class} == {
                    project_string(pr, w.strings[0])
                }
            longest["observable"] = max(longest["observable"], len(keys))
    assert min(longest.values()) >= 3


@pytest.mark.parametrize("call", [is_coobservable, synthesize_decentralized])
def test_one_site_alone_is_refused(call):
    alphabet, plant, spec = central_example()
    site = (natural_projection(alphabet), alphabet.controllable)
    for sites in ((site,), (None, site)):
        with pytest.raises(FdesError) as err:
            call(spec, plant, *sites)
        assert (err.value.code, err.value.message) == ("SITE_COVER_VIOLATION", "exactly two sites are required")
