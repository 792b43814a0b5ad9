"""Each independent checker must reject a hand-built language that breaks
its property, and accept one that keeps it, so that a broken checker
cannot let wrong library output pass silently.

    python3 -m unittest discover -s bench/tests
"""

from __future__ import annotations

import sys
import unittest
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import checkers as C  # noqa: E402
import instances as I  # noqa: E402

# Events: a controllable and observable, h controllable and unobservable,
# u uncontrollable and observable.
CONTROLLABLE = ("a", "h")
UNCONTROLLABLE = ("u",)
OBSERVABLE = frozenset({"a", "u"})
PLANT = {
    (): F(1),
    ("a",): F("0.9"),
    ("u",): F("0.8"),
    ("h",): F("0.7"),
    ("h", "a"): F("0.6"),
    ("a", "u"): F("0.5"),
}


class LanguageChecks(unittest.TestCase):
    def test_valid_rejects_eps_below_one_and_rising_grades(self):
        self.assertTrue(C.valid({(): F("0.9")}))
        self.assertTrue(C.valid({(): F(1), ("a",): F("0.5"), ("a", "u"): F("0.6")}))
        self.assertFalse(C.valid(PLANT))

    def test_below(self):
        self.assertEqual(C.below({(): F(1), ("a",): F("0.95")}, PLANT), [("a",)])
        self.assertFalse(C.below({(): F(1), ("a",): F("0.9")}, PLANT))


class ControllabilityChecks(unittest.TestCase):
    def test_rejects_a_trimmed_uncontrollable_continuation(self):
        spec = {(): F(1), ("a",): F("0.9"), ("a", "u"): F("0.4"), ("u",): F("0.8")}
        self.assertEqual(C.controllable(spec, PLANT, UNCONTROLLABLE), [(("a",), "u")])

    def test_rejects_a_missing_uncontrollable_continuation(self):
        self.assertEqual(C.controllable({(): F(1)}, PLANT, UNCONTROLLABLE), [((), "u")])

    def test_accepts_a_controllable_spec(self):
        self.assertFalse(C.controllable({(): F(1), ("u",): F("0.8")}, PLANT, UNCONTROLLABLE))


class ObservabilityChecks(unittest.TestCase):
    # eps and h share a projection class; a is enabled after eps only.
    BROKEN = {(): F(1), ("a",): F("0.9"), ("h",): F("0.7")}
    KEPT = {(): F(1), ("a",): F("0.9"), ("h",): F("0.7"), ("h", "a"): F("0.6")}

    def test_rejects_a_class_split_on_a_controllable_event(self):
        self.assertEqual(C.observable(self.BROKEN, PLANT, OBSERVABLE, CONTROLLABLE), [(("h",), "a")])

    def test_accepts_an_observable_spec(self):
        self.assertFalse(C.observable(self.KEPT, PLANT, OBSERVABLE, CONTROLLABLE))

    def test_strong_observability_rejects_unequal_tight_grades(self):
        self.assertEqual(C.strongly_observable(self.KEPT, PLANT, OBSERVABLE, CONTROLLABLE), [((), "a")])
        same = {(): F(1), ("a",): F("0.5"), ("h",): F("0.7"), ("h", "a"): F("0.5")}
        self.assertFalse(C.strongly_observable(same, PLANT, OBSERVABLE, CONTROLLABLE))


class NormalityChecks(unittest.TestCase):
    def test_rejects_a_spec_not_recovered_from_its_projection(self):
        self.assertEqual(C.normal({(): F(1), ("h",): F("0.5")}, PLANT, OBSERVABLE), [("h",)])

    def test_accepts_a_normal_spec(self):
        self.assertFalse(C.normal({(): F(1), ("h",): F("0.7")}, PLANT, OBSERVABLE))


class CoobservabilityChecks(unittest.TestCase):
    SPEC = ObservabilityChecks.BROKEN

    def test_rejects_when_no_controlling_site_tells_the_class_apart(self):
        blind = [(OBSERVABLE, frozenset({"a"})), (OBSERVABLE, frozenset({"a", "h"}))]
        self.assertEqual(C.coobservable(self.SPEC, PLANT, blind), [(("h",), "a")])

    def test_accepts_when_one_controlling_site_sees_the_difference(self):
        sighted = [(OBSERVABLE, frozenset({"a"})), (OBSERVABLE | {"h"}, frozenset({"a", "h"}))]
        self.assertFalse(C.coobservable(self.SPEC, PLANT, sighted))


class ClosedLoopChecks(unittest.TestCase):
    ROWS = {(): {"a": F("0.5"), "h": F(0)}, ("a",): {"a": F(1), "h": F(0)},
            ("u",): {"a": F(1), "h": F(0)}, ("a", "u"): {"a": F(1), "h": F(0)}}

    def test_closed_loop_meets_plant_enable_and_parent(self):
        loop = C.closed_loop(PLANT, [(OBSERVABLE, frozenset(CONTROLLABLE), self.ROWS)])
        self.assertEqual(loop, {(): F(1), ("a",): F("0.5"), ("u",): F("0.8"), ("a", "u"): F("0.5")})

    def test_a_wrong_closed_loop_is_told_apart(self):
        wrong = {(): F(1), ("a",): F("0.9"), ("u",): F("0.8"), ("a", "u"): F("0.5")}
        self.assertNotEqual(C.closed_loop(PLANT, [(OBSERVABLE, frozenset(CONTROLLABLE), self.ROWS)]), wrong)

    def test_every_supervisor_restricts(self):
        other = {t: {"a": F(1), "h": F("0.3")} for t in [(), ("a",), ("u",), ("a", "u")]}
        loop = C.closed_loop(PLANT, [(OBSERVABLE, frozenset({"a"}), self.ROWS),
                                     (OBSERVABLE, frozenset({"h"}), other)])
        self.assertEqual(loop[("h",)], F("0.3"))
        self.assertEqual(loop[("a",)], F("0.5"))


class AutomatonChecks(unittest.TestCase):
    TRANSITIONS = {("p", "a", "q"): F("0.4"), ("p", "a", "r"): F("0.9"), ("r", "b", "q"): F("0.6"),
                   ("q", "b", "q"): F("0.8")}

    def test_path_grade_is_max_over_paths_of_min_edge(self):
        self.assertEqual(C.path_grade(self.TRANSITIONS, "p", ("a", "b")), F("0.6"))
        self.assertEqual(C.path_grade(self.TRANSITIONS, "p", ("b",)), 0)
        self.assertEqual(C.path_grade(self.TRANSITIONS, "p", ()), 1)

    def test_breadth_first_language_agrees_with_path_grades(self):
        aut = I.Automaton(("p", "q", "r"), "p", self.TRANSITIONS, 4)
        lang = I.maxmin_language(aut, ("a", "b"))
        for s, g in lang.items():
            self.assertEqual(C.path_grade(self.TRANSITIONS, "p", s), g)
        self.assertEqual(lang[("a", "b", "b")], F("0.6"))


class GeneratorChecks(unittest.TestCase):
    def test_same_seed_same_instance(self):
        self.assertEqual(I.blind_tree(3), I.blind_tree(3))
        self.assertNotEqual(I.blind_tree(3).spec, I.blind_tree(4).spec)

    def test_seed_relabels_grades_in_order(self):
        base, inst = I.blind_tree_draw(I.BASE_DRAW), I.blind_tree(5)
        order = sorted(base.plant, key=lambda s: (base.plant[s], s))
        self.assertEqual(order, sorted(inst.plant, key=lambda s: (inst.plant[s], s)))
        for s in base.plant:
            self.assertEqual(base.spec[s] < base.plant[s], inst.spec[s] < inst.plant[s])

    def test_specs_are_valid_sublanguages(self):
        for inst in (I.blind_tree(1), *I.desk_batch(1)[:5]):
            self.assertFalse(C.valid(inst.spec))
            self.assertFalse(C.below(inst.spec, inst.plant))


if __name__ == "__main__":
    unittest.main()
