"""Tests of the benchmark's own code: every checker rejects a wrong result.

    python3 bench/selftest.py

Not collected by pytest (the file name does not start with ``test_``), so
the repository's test suite does not change.
"""

import sys
import unittest
from array import array
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from checks import CheckFailed  # noqa: E402

THIRTEEN_AUT = {"C04": 24, "C07": 6, "C18": 4, "C37": 6, "C15": 2, "C43": 2,
                "C22": 4, "C33": 2, "C32": 2, "C25_2": 2, "C25_1": 1,
                "C36": 12, "C64": 24}
SIZES = sorted(48 // a for a in THIRTEEN_AUT.values())


class CensusChecks(unittest.TestCase):
    def test_rows(self):
        checks.check_census_row(3, {"a": 118, "b": 22, "c": 16, "d": 12})
        checks.check_census_row(2, {"a": 1, "b": 1, "c": 1, "d": 1})
        with self.assertRaises(CheckFailed):
            checks.check_census_row(3, {"a": 118, "b": 22, "c": 16, "d": 11})
        with self.assertRaises(CheckFailed):
            checks.check_census_row(2, {"a": 2, "b": 1, "c": 1, "d": 1})

    def test_projective(self):
        checks.check_projective_census(SIZES, 216, True, THIRTEEN_AUT)
        with self.assertRaises(CheckFailed):   # a class lost
            checks.check_projective_census(SIZES[1:], 214, True, THIRTEEN_AUT)
        with self.assertRaises(CheckFailed):   # disconnected flip graph
            checks.check_projective_census(SIZES, 216, False, THIRTEEN_AUT)
        with self.assertRaises(CheckFailed):   # indexed count off
            checks.check_projective_census(SIZES, 215, True, THIRTEEN_AUT)
        with self.assertRaises(CheckFailed):   # class sizes swapped
            wrong = SIZES[:-2] + [SIZES[-2] + 1, SIZES[-1] - 1]
            checks.check_projective_census(wrong, 216, True, THIRTEEN_AUT)

    def test_connectivity(self):
        self.assertTrue(checks.is_connected("abc", [("a", "b"), ("b", "c")]))
        self.assertFalse(checks.is_connected("abc", [("a", "b")]))


class MutationChecks(unittest.TestCase):
    def test_merge(self):
        checks.check_merge((12, 24, 13), (10, 21, 12), 1, 1, 3)
        with self.assertRaises(CheckFailed):
            checks.check_merge((12, 24, 13), (10, 21, 13), 1, 1, 3)
        with self.assertRaises(CheckFailed):
            checks.check_merge((12, 24, 13), (10, 21, 12), 1, 2, 3)
        with self.assertRaises(CheckFailed):
            checks.check_merge((12, 24, 13), (10, 21, 12), 1, 1, 2)

    def test_split(self):
        checks.check_split("k", {"k", "other"})
        with self.assertRaises(CheckFailed):
            checks.check_split("k", {"other", "third"})

    def test_flip(self):
        checks.check_flip((12, 24, 13), (12, 24, 13), True, 1, True)
        for args in (((12, 24, 13), (10, 21, 12), True, 1, True),
                     ((12, 24, 13), (12, 24, 13), False, 1, True),
                     ((12, 24, 13), (12, 24, 13), True, 2, True),
                     ((12, 24, 13), (12, 24, 13), True, 1, False)):
            with self.assertRaises(CheckFailed):
                checks.check_flip(*args)


class VerbChecks(unittest.TestCase):
    C04 = {"aut_order": 24, "f_vector": {"3": 4, "4": 9}, "genus": 1,
           "orbit_count": 2, "simple": True, "thin": True}

    def test_fixture(self):
        good = dict(self.C04)
        checks.check_fixture("C04", 0, good, self.C04)
        for key, value in (("genus", 3), ("f_vector", {"3": 5, "4": 9}),
                           ("thin", False), ("orbit_count", 4)):
            with self.assertRaises(CheckFailed):
                checks.check_fixture("C04", 0, {**good, key: value}, self.C04)
        with self.assertRaises(CheckFailed):
            checks.check_fixture("C04", 1, good, self.C04)

    def test_genus_series(self):
        checks.check_genus(6, 0, {"genus": 21})
        with self.assertRaises(CheckFailed):
            checks.check_genus(6, 0, {"genus": 20})

    def test_stats(self):
        checks.check_stats(3, 0, {"aut_order": 24, "orbit_count": 2}, 24)
        with self.assertRaises(CheckFailed):   # disagrees with the flag graph
            checks.check_stats(3, 0, {"aut_order": 12, "orbit_count": 4}, 24)
        with self.assertRaises(CheckFailed):   # product is not 48
            checks.check_stats(3, 0, {"aut_order": 24, "orbit_count": 3}, 24)

    def test_iso(self):
        checks.check_iso(0, {"isomorphic": True}, True)
        checks.check_iso(1, {"isomorphic": False}, False)
        with self.assertRaises(CheckFailed):
            checks.check_iso(1, {"isomorphic": False}, True)
        with self.assertRaises(CheckFailed):
            checks.check_iso(0, {"isomorphic": True}, False)

    def test_check_verdicts(self):
        checks.check_accepted(0, {"accepted": True, "k": 5}, 5, True)
        witness = {"accepted": False, "k": 5, "witness": {"carrier": 1}}
        checks.check_accepted(1, witness, 5, False, 1)
        with self.assertRaises(CheckFailed):   # a genus-one chirotope rejected
            checks.check_accepted(1, {"accepted": False, "k": 5}, 5, True)
        with self.assertRaises(CheckFailed):   # witness on the wrong carrier
            checks.check_accepted(1, {**witness, "witness": {"carrier": 2}},
                                  5, False, 1)

    def test_reconstruct(self):
        checks.check_reconstructed(0, "key", "key")
        with self.assertRaises(CheckFailed):
            checks.check_reconstructed(0, "another", "key")

    def test_chirotope_names(self):
        text = "indices: 1 2 3\nchi 1 2 3: C04(1 2 3)\n"
        checks.check_chirotope_names(text, 3, {(1, 2, 3): "k"}, {(1, 2, 3): "k"})
        with self.assertRaises(CheckFailed):   # name of another class
            checks.check_chirotope_names(text, 3, {(1, 2, 3): "x"},
                                         {(1, 2, 3): "k"})
        with self.assertRaises(CheckFailed):   # an entry missing
            checks.check_chirotope_names(text, 4, {}, {})

    def test_dot(self):
        text = 'graph dual {\n  c0 [label="3-gon"];\n  c0 -- c0;\n}\n'
        checks.check_dot(text, "dual", 1)
        with self.assertRaises(CheckFailed):
            checks.check_dot(text, "dual", 2)
        with self.assertRaises(CheckFailed):
            checks.check_dot(text, "flag", 1)

    def test_errors_and_rows(self):
        checks.check_structured_error(1, {"code": "format-error"})
        with self.assertRaises(CheckFailed):
            checks.check_structured_error(0, {"code": "format-error"})
        checks.check_moebius_all_row(0, {"a": 1, "b": 1, "c": 1, "d": 1})
        with self.assertRaises(CheckFailed):
            checks.check_moebius_all_row(0, {"a": 2, "b": 1, "c": 1, "d": 1})
        with self.assertRaises(CheckFailed):
            checks.parse_json("Traceback (most recent call last):")


class Repeats(unittest.TestCase):
    def test_later_pass_must_repeat_the_first(self):
        import run
        import workloads
        p = workloads.Pass()
        for label, value in (("a", 1), ("b", 2)):
            p.op(label, lambda v=value: v)
        p.op("c", lambda: {}["missing"])
        first = p.digests(lambda label, out: out)
        self.assertEqual(first, [1, 2, None])
        failures = []
        run.compare_outputs(first, first, p, failures)
        self.assertEqual(failures, [])
        run.compare_outputs(first, [1, 3, None], p, failures)
        self.assertEqual(len(failures), 1)
        self.assertIn("(b)", failures[0])
        self.assertEqual([label for label, _ in p.close()], ["a", "b", "c"])


class Yardstick(unittest.TestCase):
    def test_a_pass_takes_the_median_of_its_yardsticks(self):
        import speed
        n, e = speed.NOMINAL_S, speed.EVERY_S
        readings = iter([n, 2 * n, 2 * n])
        real, speed.yardstick = speed.yardstick, lambda: next(readings)
        try:
            s = speed.Scale()       # reads n
            for t in (e / 2, e / 2, 1.0):
                s.tick()            # reads 2n once e has run since the last
                s.record(t)
            s.close()               # reads 2n
        finally:
            speed.yardstick = real
        self.assertEqual(s.samples, [n, 2 * n, 2 * n])
        # twice as slow as the reference: half the time
        for got, want in zip(s.scaled(), (e / 4, e / 4, 0.5)):
            self.assertAlmostEqual(got, want)


class Spans(unittest.TestCase):
    def test_self_time_and_ratios(self):
        t = spans.Tracer()
        nid = t.name_id
        rec = array("q")
        # one split (span 0) calling validate twice; the second raises
        rec.extend((nid["arrangement.validate"], 10, 30, 1, 0, 0, 1))
        rec.extend((nid["arrangement.validate"], 40, 50, 2, 0, 0, 0))
        rec.extend((nid["mutation.apply_move.split"], 0, 100, 0, -1, 0, 1))
        m = spans.derive(t.names, rec)
        self.assertEqual(m["arrangement.validate.calls"], 2)
        self.assertEqual(m["arrangement.validate.accept_ratio"], 0.5)
        self.assertEqual(m["mutation.split.validate_per_call"], 2)
        self.assertAlmostEqual(m["mutation.apply_move.split_ms"], 1e-4)
        self.assertAlmostEqual(m["arrangement.validate.self_s"], 30e-9)
        self.assertEqual(m["chirotope.extensions4.calls"], 0)

    def test_install_and_remove(self):
        import dpl.arrangement as a
        import dpl.chirotope as c
        import dpl.mutation as m
        from dpl import cli, flags
        before = (a.validate, m.validate, c.validate, m.apply_move,
                  flags.FlagComplex.__dict__["faces"], cli.main)
        t = spans.Tracer()
        t.begin_pass()
        try:
            self.assertIsNot(m.validate, before[1])
            self.assertIs(m.validate, c.validate)
            t.op = 7
            self.assertEqual(a.cyclic_thin(3).genus, 1)
        finally:
            t.end_pass()
        after = (a.validate, m.validate, c.validate, m.apply_move,
                 flags.FlagComplex.__dict__["faces"], cli.main)
        self.assertEqual(before, after)
        names = {t.names[t.records[i]] for i in range(0, len(t.records), 7)}
        self.assertLessEqual({"arrangement.validate", "flags.FlagComplex.build"},
                             names)
        self.assertEqual({t.records[i + 5] for i in range(0, len(t.records), 7)},
                         {7})
        metrics = spans.derive(t.names, t.records, *t.passes[-1])
        self.assertEqual(set(metrics) | {"trace.overhead_s"},
                         set(spans.LAYER_METRICS))


if __name__ == "__main__":
    unittest.main()
