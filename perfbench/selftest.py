"""The benchmark's own small-scale tests.

    python3 perfbench/selftest.py

They need numpy only: no ects_bench command is run.
"""

from __future__ import annotations

import json
import os
import tempfile
import unittest

import checks
import gen
import run
import tracer
from yardstick import Yardstick

HERE = os.path.dirname(os.path.abspath(__file__))


def read_all(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class ScratchDir(unittest.TestCase):
    def setUp(self):
        base = os.path.join(os.path.dirname(HERE), ".perfbench")
        os.makedirs(base, exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=base)
        self.tmp = self._tmp.name

    def tearDown(self):
        self._tmp.cleanup()

    def path(self, *parts):
        return os.path.join(self.tmp, *parts)


class TestGenerators(ScratchDir):
    def test_raw_series_deterministic_in_seed(self):
        args = dict(datasets=2, classes=3, length=12, train_per_class=4, test_per_class=3, noise=0.3)
        gen.make_raw_datasets(self.path("a"), 7, **args)
        gen.make_raw_datasets(self.path("b"), 7, **args)
        gen.make_raw_datasets(self.path("c"), 8, **args)
        self.assertEqual(read_all(self.path("a")), read_all(self.path("b")))
        self.assertNotEqual(read_all(self.path("a")), read_all(self.path("c")))
        with open(self.path("a", "ds00_train.csv"), encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().splitlines()]
        self.assertEqual(len(rows), 3 * 4)
        self.assertTrue(all(len(r) == 13 for r in rows))
        self.assertEqual(sorted({r[0] for r in rows}), ["0", "1", "2"])

    def test_results_deterministic_in_seed(self):
        means_a = gen.make_results(self.path("a"), 3, 2, 3, 15, 5)
        means_b = gen.make_results(self.path("b"), 3, 2, 3, 15, 5)
        gen.make_results(self.path("c"), 4, 2, 3, 15, 5)
        self.assertEqual(read_all(self.path("a")), read_all(self.path("b")))
        self.assertEqual(means_a, means_b)
        self.assertNotEqual(read_all(self.path("a")), read_all(self.path("c")))
        self.assertEqual(len(means_a), 2 * len(gen.METHODS) * len(gen.ALPHAS))


class TestChecks(ScratchDir):
    def setUp(self):
        super().setUp()
        self.means = gen.make_results(self.tmp, 5, 2, 3, 15, 6)
        self.cells = checks.expected_cells(["ds00", "ds01"], gen.METHODS, gen.ALPHAS)
        self.timelines, problems = checks.check_timelines(
            self.path("timelines.json"), ["ds00", "ds01"], 15)
        self.assertEqual(problems, [])
        with open(self.path("records.csv"), encoding="utf-8") as fh:
            self.lines = fh.read().splitlines(keepends=True)

    def check(self, lines):
        with open(self.path("records.csv"), "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        return checks.check_records(self.path("records.csv"), self.cells, 6, self.timelines)

    def test_generated_records_pass(self):
        failed, problems = self.check(self.lines)
        self.assertEqual((failed, problems), (set(), []))

    def test_flipped_regret_sign_fails_its_cell(self):
        lines = list(self.lines)
        row = next(i for i, line in enumerate(lines) if i and not line.rstrip().endswith(",0.0"))
        fields = lines[row].rstrip("\n").split(",")
        fields[12] = repr(-float(fields[12]))
        lines[row] = ",".join(fields) + "\n"
        failed, problems = self.check(lines)
        self.assertEqual(failed, {(fields[0], fields[1], float(fields[2]))})
        self.assertIn("negative regret (1 rows or cells)", problems)
        self.assertGreater(len(failed) / len(self.cells), 0.0)

    def test_missing_cell_fails(self):
        lines = [line for line in self.lines if not line.startswith("ds01,ecec,0.3,")]
        failed, _ = self.check(lines)
        self.assertEqual(failed, {("ds01", "ecec", 0.3)})

    def test_bad_weighted_cost_and_asap_time(self):
        lines = list(self.lines)
        for prefix, column, value in (("ds00,asap,0.5,", 6, "15"), ("ds01,calimera,0.2,", 7, "0.75")):
            row = next(i for i, line in enumerate(lines) if line.startswith(prefix))
            fields = lines[row].rstrip("\n").split(",")
            fields[column] = value
            lines[row] = ",".join(fields) + "\n"
        failed, problems = self.check(lines)
        self.assertEqual(failed, {("ds00", "asap", 0.5), ("ds01", "calimera", 0.2)})
        self.assertIn("asap not at the first timestamp (1 rows or cells)", problems)
        self.assertTrue(any(p.startswith("weighted_cost") for p in problems))

    def test_summaries_against_generator_means(self):
        with open(self.path("summaries.csv"), "w", encoding="utf-8") as fh:
            fh.write("dataset,method,alpha,avg_cost\n")
            for (d, m, a), mean in sorted(self.means.items()):
                off = 1e-6 if (d, m, a) == ("ds00", "economy", 0.7) else 0.0
                fh.write(f"{d},{m},{a!r},{mean + off!r}\n")
        failed, _ = checks.check_summaries(self.path("summaries.csv"), self.means)
        self.assertEqual(failed, {("ds00", "economy", 0.7)})


class TestSpans(unittest.TestCase):
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping) and [8, 9];
    # the second child has its own child [4, 5] of the same name.
    SPANS = [
        [0, -1, "cli.main", 0.0, 10.0],
        [1, 0, "bench.run_dataset", 1.0, 3.0],
        [2, 0, "bench.write_reports", 2.0, 6.0],
        [3, 2, "bench.write_reports", 4.0, 5.0],
        [4, 0, "stats.holm_adjust", 8.0, 9.0],
    ]

    def test_self_time_is_span_minus_children(self):
        selfs = tracer.self_time(self.SPANS)
        self.assertAlmostEqual(selfs[0], 10.0 - 5.0 - 1.0)  # children cover [1, 6] and [8, 9]
        self.assertAlmostEqual(selfs[2], 4.0 - 1.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[4], 1.0)

    def test_busy_time_counts_nested_same_name_once(self):
        busy = tracer.busy_time(self.SPANS)
        self.assertEqual(busy["bench.write_reports"], (4.0, 2))
        self.assertEqual(busy["cli.main"], (10.0, 1))

    def test_tracer_records_parent_links(self):
        t = tracer.Tracer("t")
        inner = t.wrap("inner", lambda x: x + 1)
        outer = t.wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        self.assertEqual([(s[0], s[1], s[2]) for s in t.spans], [(0, -1, "outer"), (1, 0, "inner")])
        self.assertTrue(all(s[3] <= s[4] for s in t.spans))


class TestYardstick(unittest.TestCase):
    def test_work_is_fixed(self):
        first, second = Yardstick(), Yardstick()
        self.assertEqual(first.work(), second.work())
        self.assertGreater(first.seconds(), 0.0)


class TestContract(unittest.TestCase):
    def test_benchmark_json_names_match_reported_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual({w["name"] for w in doc["workloads"]}, set(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, run.layer_metric_units())
        for workload in run.WORKLOADS.values():
            self.assertTrue(set(workload.focus) <= set(run.layer_metric_units()))


if __name__ == "__main__":
    unittest.main()
