"""Unit tests for the benchmark's span and sample arithmetic.

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import json
import unittest

from rollup import (Span, fanout_idle_frac, link_parents, parse_trace,
                    rollup, self_time, tail_percentile, within)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children_are_subtracted_once(self):
        # root [0, 100] > a [10, 40] > b [20, 30]; root > c [50, 60]
        root = Span("root", 1, 0, 100)
        a = Span("a", 1, 10, 40)
        b = Span("b", 1, 20, 30)
        c = Span("c", 1, 50, 60)
        link_parents([root, a, b, c])
        self.assertIs(b.parent, a)
        self.assertIs(a.parent, root)
        self.assertEqual(self_time(root), 100 - 30 - 10)
        self.assertEqual(self_time(a), 30 - 10)
        self.assertEqual(self_time(b), 10)

    def test_other_threads_do_not_nest(self):
        # A worker thread's span overlaps the main thread's span in time but
        # is not its child: the main span keeps its whole duration.
        main = Span("cycle", 1, 0, 100)
        worker = Span("client", 2, 10, 90)
        inner = Span("train", 2, 20, 80)
        link_parents([main, worker, inner])
        self.assertIsNone(worker.parent)
        self.assertIs(inner.parent, worker)
        self.assertEqual(self_time(main), 100)
        self.assertEqual(self_time(worker), 80 - 60)

    def test_overlapping_child_intervals_count_once(self):
        parent = Span("p", 1, 0, 100)
        parent.children = [Span("x", 1, 10, 50), Span("y", 1, 30, 70)]
        self.assertEqual(self_time(parent), 100 - 60)

    def test_rollup_reports_parent_and_times(self):
        spans = [Span("cycle", 1, 0, 100), Span("eval", 1, 60, 90),
                 Span("client", 2, 5, 55), Span("conv", 2, 10, 30),
                 Span("client", 3, 5, 45), Span("conv", 3, 10, 20)]
        rows = rollup(spans)
        self.assertEqual(rows["conv"]["count"], 2)
        self.assertEqual(rows["conv"]["parent"], "client")
        self.assertEqual(rows["client"]["parent"], "")
        self.assertEqual(rows["client"]["inclusive"], 90)
        self.assertEqual(rows["client"]["self"], 90 - 30)
        self.assertEqual(rows["cycle"]["self"], 70)

    def test_parse_trace_pairs_begin_and_end_per_thread(self):
        events = [
            {"name": "a", "ph": "B", "pid": 1, "tid": 1, "ts": 0},
            {"name": "b", "ph": "B", "pid": 1, "tid": 2, "ts": 1},
            {"name": "c", "ph": "B", "pid": 1, "tid": 1, "ts": 2},
            {"name": "", "ph": "E", "pid": 1, "tid": 2, "ts": 3},
            {"name": "", "ph": "E", "pid": 1, "tid": 1, "ts": 4},
            {"name": "", "ph": "E", "pid": 1, "tid": 1, "ts": 9},
            {"name": "gantt", "ph": "X", "pid": 2, "tid": 7, "ts": 0,
             "dur": 5},
        ]
        text = "[\n" + ",\n".join(json.dumps(e) for e in events) + "\n]\n"
        spans = {(s.name, s.start, s.end) for s in
                 parse_trace(text.splitlines())}
        self.assertEqual(spans, {("a", 0, 9), ("b", 1, 3), ("c", 2, 4)})

    def test_within_keeps_only_contained_spans(self):
        spans = [Span("a", 1, 0, 10), Span("b", 1, 5, 15),
                 Span("c", 1, 12, 14), Span("d", 1, 20, 30),
                 Span("e", 1, 40, 45)]
        self.assertEqual([s.name for s in within(spans, [(4, 16), (18, 42)])],
                         ["b", "c", "d"])


class TailPercentileTest(unittest.TestCase):
    def test_ten_samples_stay_above(self):
        samples = list(range(1, 101))  # 1..100
        value, pct, n = tail_percentile(samples)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(sum(1 for x in samples if x > value), 10)

    def test_small_sample_sets(self):
        self.assertIsNone(tail_percentile(list(range(10))))
        value, pct, n = tail_percentile([5.0] * 3 + list(range(8)))
        self.assertEqual(n, 11)
        self.assertEqual(value, 0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_order_does_not_matter(self):
        a = [0.3, 0.1, 0.9, 0.5, 0.7, 0.2, 0.8, 0.4, 0.6, 1.0, 0.05, 1.1]
        self.assertEqual(tail_percentile(a), tail_percentile(sorted(a)))
        self.assertEqual(tail_percentile(a)[0], 0.1)


class FanoutIdleTest(unittest.TestCase):
    def test_fully_busy_threads(self):
        spans = [Span("round", 1, 0, 100),
                 Span("client", 2, 10, 60), Span("client", 3, 10, 60)]
        self.assertEqual(fanout_idle_frac(spans, 2, "round", "client"), 0.0)

    def test_half_idle(self):
        # Two threads, one client: busy 50 of 2 x 50 thread-time.
        spans = [Span("round", 1, 0, 100), Span("client", 2, 10, 60)]
        self.assertEqual(fanout_idle_frac(spans, 2, "round", "client"), 0.5)

    def test_sums_over_rounds(self):
        spans = [Span("round", 1, 0, 100), Span("client", 2, 0, 40),
                 Span("client", 3, 0, 20),
                 Span("round", 1, 100, 200), Span("client", 2, 110, 130),
                 Span("client", 3, 110, 130)]
        # busy = 40 + 20 + 20 + 20 = 100; extent = 40 + 20; threads = 2
        self.assertAlmostEqual(
            fanout_idle_frac(spans, 2, "round", "client"), 1 - 100 / 120)

    def test_no_rounds(self):
        self.assertEqual(fanout_idle_frac([], 4, "round", "client"), 0.0)


if __name__ == "__main__":
    unittest.main()
