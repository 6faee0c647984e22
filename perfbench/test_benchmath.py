"""Self-tests of the benchmark's own math.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import benchmath as bm


class Percentiles(unittest.TestCase):
    def test_exact_interpolated(self):
        xs = list(range(1, 101))  # 1..100
        self.assertEqual(bm.percentile(xs, 0.5), 50.5)
        self.assertAlmostEqual(bm.percentile(xs, 0.99), 99.01)
        self.assertEqual(bm.percentile([3.0], 0.99), 3.0)
        self.assertEqual(bm.percentile([5, 1, 3], 0.5), 3)

    def test_not_bucketed(self):
        # A log2 histogram would put both in the same bucket; the exact
        # percentile tells a 20% change apart.
        a = [0.50] * 1000
        b = [0.60] * 1000
        self.assertNotEqual(bm.percentile(a, 0.99), bm.percentile(b, 0.99))

    def test_ten_beyond_rule(self):
        self.assertIsNone(bm.highest_percentile(19))
        self.assertEqual(bm.highest_percentile(20), 0.5)
        self.assertEqual(bm.highest_percentile(99), 0.5)
        self.assertEqual(bm.highest_percentile(100), 0.9)
        self.assertEqual(bm.highest_percentile(999), 0.9)
        self.assertEqual(bm.highest_percentile(1000), 0.99)
        self.assertEqual(bm.highest_percentile(10000), 0.999)
        self.assertTrue(bm.supported(1000, 0.99))
        self.assertFalse(bm.supported(999, 0.99))


class ErrorRate(unittest.TestCase):
    def test_accounting(self):
        self.assertEqual(bm.error_rate(100, 0), 0.0)
        self.assertEqual(bm.error_rate(200, 3), 0.015)
        with self.assertRaises(ValueError):
            bm.error_rate(0, 0)
        with self.assertRaises(ValueError):
            bm.error_rate(5, 6)


class SelfTime(unittest.TestCase):
    def test_leaf_and_nested(self):
        spans = [(1, 0, 0, 100), (2, 1, 10, 30), (3, 1, 50, 60),
                 (4, 2, 12, 20)]
        st = bm.self_times(spans)
        self.assertEqual(st[1], 100 - 20 - 10)
        self.assertEqual(st[2], 20 - 8)
        self.assertEqual(st[3], 10)
        self.assertEqual(st[4], 8)
        self.assertEqual(sum(st.values()), 100)

    def test_overlapping_children_count_once(self):
        # Two worker-thread children overlap in time under one parent.
        spans = [(1, 0, 0, 100), (2, 1, 10, 60), (3, 1, 40, 90)]
        st = bm.self_times(spans)
        self.assertEqual(st[1], 100 - 80)

    def test_child_outside_parent_is_clipped(self):
        spans = [(1, 0, 0, 10), (2, 1, 5, 20)]
        self.assertEqual(bm.self_times(spans)[1], 5)

    def test_union(self):
        self.assertEqual(bm.union_length([]), 0)
        self.assertEqual(bm.union_length([(0, 5), (3, 8), (10, 12)]), 10)


class LittlesResidual(unittest.TestCase):
    def test_residual(self):
        self.assertEqual(bm.littles_residual(10.0, 10.0), 0.0)
        self.assertAlmostEqual(bm.littles_residual(11.0, 10.0), 0.1)
        self.assertAlmostEqual(bm.littles_residual(9.0, 10.0), 0.1)
        with self.assertRaises(ValueError):
            bm.littles_residual(1.0, 0.0)


if __name__ == "__main__":
    unittest.main()
