"""The five property checkers and their witnesses."""

from fractions import Fraction as F

import pytest

from fdes import (
    Alphabet,
    FdesError,
    empty_language,
    natural_projection,
    union,
)
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
    union_example,
)


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
