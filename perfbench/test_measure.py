"""Tests of the benchmark's own arithmetic:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import math
import random
import unittest

import measure


class MedianAndQuartiles(unittest.TestCase):
    def test_median_of_odd_and_even_counts(self):
        self.assertEqual(measure.median([3, 1, 2]), 2)
        self.assertEqual(measure.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_the_exclusive_method(self):
        # statistics.quantiles(n=4) on 1..10 with the default exclusive
        # method: positions (n+1)/4 = 2.75 and 8.25.
        q1, q2, q3 = measure.quartiles(list(range(1, 11)))
        self.assertAlmostEqual(q1, 2.75)
        self.assertAlmostEqual(q2, 5.5)
        self.assertAlmostEqual(q3, 8.25)

    def test_spread_is_interquartile_distance_over_median(self):
        self.assertAlmostEqual(measure.spread(list(range(1, 11))), (8.25 - 2.75) / 5.5)
        self.assertEqual(measure.spread([7.0] * 10), 0.0)


class Percentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            measure.percentile(list(range(99)), 90)
        self.assertEqual(measure.percentile(list(range(1, 101)), 90), 90)

    def test_p50_by_nearest_rank(self):
        self.assertEqual(measure.percentile(list(range(1, 21)), 50), 10)
        self.assertEqual(measure.percentile(list(range(1, 22)), 50), 11)

    def test_misses_sort_last_and_raise_the_percentile(self):
        samples = [1.0] * 85 + [measure.MISS] * 15
        self.assertEqual(measure.percentile(samples, 50), 1.0)
        self.assertTrue(math.isinf(measure.percentile(samples, 90)))


class DueTimeLatency(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        # Due at 1.0, sent late at 1.5 behind a stall, done at 1.6: the
        # stall counts.
        self.assertAlmostEqual(measure.due_latencies([(1.0, 1.6, True)])[0], 0.6)

    def test_failures_are_misses(self):
        out = measure.due_latencies([(0.0, 0.01, True), (0.01, 0.02, False)])
        self.assertAlmostEqual(out[0], 0.01)
        self.assertEqual(out[1], measure.MISS)

    def test_lateness_p90_and_max(self):
        schedule = [(float(i), float(i) + (0.5 if i == 9 else 0.0)) for i in range(10)]
        p90, worst = measure.lateness(schedule)
        self.assertEqual(p90, 0.0)
        self.assertEqual(worst, 0.5)
        self.assertEqual(measure.lateness([(1.0, 0.9)]), (0.0, 0.0))


class PoissonSchedule(unittest.TestCase):
    def test_same_seed_same_schedule(self):
        a = measure.poisson_schedule(random.Random(7), 100, 0.0, 10.0)
        b = measure.poisson_schedule(random.Random(7), 100, 0.0, 10.0)
        self.assertEqual(a, b)
        self.assertNotEqual(a, measure.poisson_schedule(random.Random(8), 100, 0.0, 10.0))

    def test_increasing_inside_the_window_at_about_the_rate(self):
        dues = measure.poisson_schedule(random.Random(1), 100, 5.0, 105.0)
        self.assertTrue(all(5.0 < a < b < 105.0 for a, b in zip(dues, dues[1:])))
        # 10,000 expected; a Poisson count's sd is 100.
        self.assertLess(abs(len(dues) - 10_000), 500)


class Freshness(unittest.TestCase):
    def test_each_batch_matches_the_first_response_covering_it(self):
        batches = [(0.0, 10), (0.1, 20), (0.2, 30)]
        responses = [(0.05, 5), (0.12, 20), (0.30, 30), (0.40, 30)]
        out = measure.freshness(batches, responses)
        self.assertAlmostEqual(out[0], 0.12)  # 5 < 10; first cover is 20 at 0.12
        self.assertAlmostEqual(out[1], 0.02)
        self.assertAlmostEqual(out[2], 0.10)

    def test_one_response_can_cover_several_batches(self):
        out = measure.freshness([(0.0, 1), (0.1, 2)], [(0.5, 2)])
        self.assertAlmostEqual(out[0], 0.5)
        self.assertAlmostEqual(out[1], 0.4)

    def test_an_unshown_batch_is_a_miss(self):
        out = measure.freshness([(0.0, 1), (0.1, 9)], [(0.2, 1)])
        self.assertAlmostEqual(out[0], 0.2)
        self.assertEqual(out[1], measure.MISS)


class HistogramQuantile(unittest.TestCase):
    def test_interpolates_inside_the_bucket(self):
        bounds = [10, 40, 160]
        # Ranks 1..4 in (10, 40]; the median rank 2 sits half-way.
        self.assertEqual(measure.histogram_quantile(bounds, [0, 4, 0, 0], 0.5), (25.0, 10, 40))

    def test_first_bucket_starts_at_zero_and_overflow_ends_at_four_times_the_last_bound(self):
        self.assertEqual(measure.histogram_quantile([10, 40], [2, 0, 0], 0.5), (5.0, 0, 10))
        self.assertEqual(measure.histogram_quantile([10, 40], [0, 0, 1], 1.0), (160.0, 40, 160))

    def test_empty_histogram_raises(self):
        with self.assertRaises(ValueError):
            measure.histogram_quantile([10], [0, 0], 0.5)


if __name__ == "__main__":
    unittest.main()
