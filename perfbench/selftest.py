"""Self-tests of the benchmark itself.

Run from the repository root (about ten seconds)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from common import SRC, TooFewSamples, percentile, samples_needed  # noqa: E402

sys.path.insert(0, SRC)

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import traced  # noqa: E402
from common import Metrics  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_refuses_a_tail_with_fewer_than_ten_samples_beyond(self):
        for q in (0.5, 0.9, 0.99):
            n = samples_needed(q)
            percentile([float(i) for i in range(n)], q)
            with self.assertRaises(TooFewSamples):
                percentile([float(i) for i in range(n - 1)], q)
        with self.assertRaises(TooFewSamples):
            percentile([float(i) for i in range(100)], 0.99)

    def test_estimates_the_quantile(self):
        values = [float(i) for i in range(101)]
        self.assertAlmostEqual(percentile(values, 0.5), 50.0)
        self.assertAlmostEqual(percentile(values, 0.9), 90.0, delta=0.5)


def _small_answers():
    from repro.engine import PreparedGraph, SolveRequest, solve

    prepared = PreparedGraph(inputs.planted_contrast(7, n=120, k=12))
    ad = solve(SolveRequest(measure="average_degree"), prepared)
    ga = solve(SolveRequest(measure="affinity", backend="sparse"), prepared)
    return prepared, ad, ga


class CheckerTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.prepared, cls.ad, cls.ga = _small_answers()

    def test_real_answers_pass(self):
        gd = self.prepared.gd
        self.assertEqual(checks.check_dcsad(gd, set(self.ad.subset), self.ad.density, self.ad.beta), [])
        self.assertEqual(checks.check_dcsga(self.prepared.gd_plus, self.ga.embedding, self.ga.density, 1e-2), [])
        self.assertEqual(checks.check_inside(self.ga.subset, set(range(12))), [])

    def test_dcsad_rejects_a_dropped_vertex(self):
        subset = set(self.ad.subset)
        subset.discard(min(subset))
        self.assertTrue(checks.check_dcsad(self.prepared.gd, subset, self.ad.density, self.ad.beta))

    def test_dcsad_rejects_beta_below_one(self):
        problems = checks.check_dcsad(self.prepared.gd, set(self.ad.subset), self.ad.density, 0.9)
        self.assertTrue(any("beta" in p for p in problems))

    def test_dcsga_rejects_a_dropped_vertex(self):
        x = dict(self.ga.embedding)
        gone = max(x, key=x.get)
        weight = x.pop(gone)
        x = {u: w / (1.0 - weight) for u, w in x.items()}
        self.assertTrue(checks.check_dcsga(self.prepared.gd_plus, x, self.ga.density, 1e-2))

    def test_dcsga_rejects_a_non_clique_support(self):
        gd_plus = self.prepared.gd_plus
        support = {u for u, w in self.ga.embedding.items() if w > 0}
        stranger = next(v for v in gd_plus.vertices() if v not in support and not any(
            gd_plus.weight(v, u) > 0 for u in support))
        x = {u: w * 0.9 for u, w in self.ga.embedding.items()}
        x[stranger] = 0.1
        problems = checks.check_dcsga(gd_plus, x, self.ga.density, 1e-2)
        self.assertTrue(any("no positive edge" in p for p in problems))

    def test_planted_check_rejects_a_stray_vertex(self):
        self.assertTrue(checks.check_inside(set(self.ga.subset) | {999}, set(range(12))))

    def test_alert_keys(self):
        a = {(3, frozenset({"x", "y"}))}
        self.assertEqual(checks.check_alert_keys(a, set(a), "t"), [])
        self.assertTrue(checks.check_alert_keys(a, set(), "t"))


class ScheduleTest(unittest.TestCase):
    def test_same_seed_same_schedule_other_seed_other_schedule(self):
        graphs = inputs.serve_graphs(5)
        self.assertEqual(graphs, inputs.serve_graphs(5))
        self.assertNotEqual(graphs, inputs.serve_graphs(6))
        one = inputs.serve_schedule(5, "open", 0, 300, graphs)
        self.assertEqual(one, inputs.serve_schedule(5, "open", 0, 300, graphs))
        self.assertNotEqual(one, inputs.serve_schedule(6, "open", 0, 300, graphs))
        self.assertEqual(inputs.solve_pass_order(5, 3), inputs.solve_pass_order(5, 3))
        self.assertNotEqual(
            [inputs.solve_pass_order(5, i) for i in range(4)],
            [inputs.solve_pass_order(6, i) for i in range(4)],
        )
        self.assertEqual(inputs.planted_contrast(5, 200, 10).num_edges, inputs.planted_contrast(5, 200, 10).num_edges)
        streams = inputs.stream_inputs(5)
        self.assertEqual(streams[0]["steps"], inputs.stream_inputs(5)[0]["steps"])
        self.assertNotEqual(streams[0]["steps"], inputs.stream_inputs(6)[0]["steps"])


class TraceAdditivityTest(unittest.TestCase):
    def test_self_times_plus_unattributed_add_up_to_the_traced_wall(self):
        from repro.engine import PreparedGraph, SolveRequest, solve

        prepared = PreparedGraph(inputs.planted_contrast(3, n=150, k=15))
        layers.install()
        try:
            layers.RECORDER.reset()
            for backend in ("python", "sparse"):
                for measure in ("average_degree", "affinity"):
                    with layers.root("bench.op"):
                        solve(SolveRequest(measure=measure, backend=backend), prepared).to_json()
            rows = layers.RECORDER.snapshot()["all"]
        finally:
            layers.uninstall()
        wall = rows["bench.op"][1]
        share = traced.unattributed(rows, wall)
        self.assertGreaterEqual(share, 0.0)
        self.assertLess(share, 1.0)
        self.assertAlmostEqual(layers.self_total(rows) + share * wall, wall, places=9)
        # every span's self time is inside the root: nothing double counted
        self.assertAlmostEqual(sum(row[0] for row in rows.values()), wall, places=9)
        self.assertIn("core.cd", rows)
        self.assertIn("core.peel", rows)

    def test_uninstall_restores_the_program(self):
        import importlib

        from repro.engine.prepared import PreparedGraph

        seacd = importlib.import_module("repro.core.seacd")
        before = (seacd.coordinate_descent, PreparedGraph.__dict__["gd_plus"])
        layers.install()
        layers.uninstall()
        self.assertEqual(before, (seacd.coordinate_descent, PreparedGraph.__dict__["gd_plus"]))

    def test_router_forward_excludes_the_owner_work_it_waits_for(self):
        router = {"service.cluster.forward": [0.010, 0.010, 2], "service.cluster.connect": [0.001, 0.001, 2],
                  "service.http.conn": [0.002, 0.013, 2]}
        worker = {"service.http.conn": [0.001, 0.008, 2], "engine.solve": [0.007, 0.007, 2]}
        metrics = Metrics()
        wall = 0.020
        traced.server_layers(metrics, {1: {"all": router}, 2: {"all": worker}}, 1, 2, wall)
        attributed = 0.010 - 0.008 + 0.001 + 0.002 + 0.001 + 0.007
        self.assertAlmostEqual(metrics.values["bench.unattributed_share"]["value"], (wall - attributed) / wall)
        self.assertAlmostEqual(metrics.values["service.cluster.forward_s"]["value"], (0.010 - 0.008) / 2)
        self.assertAlmostEqual(metrics.values["service.cluster.connects_per_forward"]["value"], 1.0)


class CoreSpeedTest(unittest.TestCase):
    def test_factor_takes_out_the_steal_share_of_its_window(self):
        from calib import NOMINAL, CoreSpeed

        cores = CoreSpeed()
        # (time, reference-loop seconds, [total ticks, steal ticks])
        cores.samples = [(0.0, 2 * NOMINAL, [0, 0]), (1.0, 2 * NOMINAL, [100, 10]),
                         (2.0, NOMINAL, [200, 10]), (3.0, NOMINAL, [300, 10])]
        self.assertAlmostEqual(cores.factor(0.0, 1.0), 0.5 * 0.9)
        self.assertAlmostEqual(cores.factor(2.0, 3.0), 1.0)
        self.assertAlmostEqual(cores.factor(), 0.5 * (1.0 - 10 / 300))


class ReapTest(unittest.TestCase):
    """No process a run starts outlives it, orphaned grandchildren too."""

    @staticmethod
    def _orphan(sleep: float) -> None:
        import subprocess

        grandchild = f"import subprocess, sys; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep({sleep})'])"
        subprocess.run([sys.executable, "-c", grandchild], check=True)

    def setUp(self):
        from common import become_subreaper

        become_subreaper()

    def test_waits_for_an_orphan_that_ends_on_its_own(self):
        from common import reap

        self._orphan(0.3)
        self.assertEqual(reap(grace=10.0), [])
        with self.assertRaises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_kills_an_orphan_that_outlives_the_grace(self):
        from common import reap

        self._orphan(60)
        killed = reap(grace=0.3)
        self.assertEqual(len(killed), 1)
        self.assertIn("time.sleep(60)", killed[0])
        with self.assertRaises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class CatalogueTest(unittest.TestCase):
    def test_benchmark_json_lists_every_per_layer_metric(self):
        import json

        from common import ROOT

        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual(spec["per_layer"], traced.benchmark_entries())
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


if __name__ == "__main__":
    unittest.main()
