"""Tests of the across-run statistics in sets.py.

Run from the repository root: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from sets import parse_seeds, summarize


class SummarizeTest(unittest.TestCase):
    def test_quartiles_follow_the_exclusive_method(self):
        # statistics.quantiles' default method on 1..10: q1 = 2.75,
        # median = 5.5, q3 = 8.25.
        s = summarize([float(v) for v in range(10, 0, -1)])
        self.assertAlmostEqual(s["q1"], 2.75)
        self.assertAlmostEqual(s["median"], 5.5)
        self.assertAlmostEqual(s["q3"], 8.25)
        self.assertAlmostEqual(s["spread"], (8.25 - 2.75) / 5.5)

    def test_odd_count_median_is_the_middle_run(self):
        s = summarize([3.0, 1.0, 2.0, 100.0, 4.0])
        self.assertEqual(s["median"], 3.0)
        self.assertLess(s["q3"], 100.0)

    def test_identical_runs_have_no_spread(self):
        s = summarize([7.0] * 10)
        self.assertEqual((s["q1"], s["median"], s["q3"], s["spread"]), (7.0, 7.0, 7.0, 0.0))

    def test_one_run_is_refused(self):
        with self.assertRaises(ValueError):
            summarize([1.0])

    def test_seed_lists(self):
        self.assertEqual(parse_seeds("1-4"), [1, 2, 3, 4])
        self.assertEqual(parse_seeds("5,9"), [5, 9])


if __name__ == "__main__":
    unittest.main()
