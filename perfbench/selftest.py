"""Self-test of the benchmark's own arithmetic and of the tracer's clean-up.

    python3 perfbench/selftest.py        # from the root of a checkout

Covers self time of nested spans, the ratios and their bases, that a traced
run restores every name it wrapped, the speed probe's normed times and its
clean-up, and that BENCHMARK.json lists exactly the metrics the runner
reports.
"""

import json
import os
import signal
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import dnls.cli  # noqa: E402  (loads every dnls module before any snapshot)
import dnls.lattice  # noqa: E402
import dnls.potentials  # noqa: E402
import dnls.solver  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics, per, self_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def dnls_namespaces() -> dict:
    """(module, attribute) -> object identity for every loaded dnls module."""
    return {(name, attr): id(value)
            for name, module in list(sys.modules.items())
            if name == "dnls" or name.startswith("dnls.")
            for attr, value in vars(module).items()}


def record(spans, counters=None, solves=(), rk4_steps=0, wall_s=1.0):
    base = {name: [0, 0.0] for name in
            ("lattice.neighbor_sum", "lattice.cone_slack", "lattice.project_cone",
             "functionals.energy", "functionals.residual",
             "functionals.participation_ratio", "potentials.psi", "potentials.dpsi")}
    base.update(counters or {})
    return {"spans": spans, "counters": base, "solves": list(solves),
            "rk4_steps": rk4_steps, "wall_s": wall_s,
            "artifact_bytes": 0, "artifact_files": 0}


class SelfTime(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(self_time(2.0, 5.0, []), 3.0)

    def test_disjoint_children(self):
        self.assertAlmostEqual(self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]), 6.0)

    def test_overlap_counts_once_and_clips_to_parent(self):
        self.assertAlmostEqual(self_time(0.0, 10.0, [(2.0, 4.0), (1.0, 3.0), (9.0, 12.0)]), 6.0)

    def test_nested_layers(self):
        # cli.main [0,10] > solve [1,6] > initial_ansatz [1,2]; integrate [7,9]
        spans = [["cli.main", 0.0, 10.0, -1],
                 ["solver.solve", 1.0, 6.0, 0],
                 ["solver.initial_ansatz", 1.0, 2.0, 1],
                 ["evolution.integrate", 7.0, 9.0, 0]]
        m = layer_metrics(record(spans, solves=[(40, True, 3, "residual")], rk4_steps=100))
        self.assertAlmostEqual(m["cli.main.s"], 10.0)
        self.assertAlmostEqual(m["cli.self_s"], 3.0)
        self.assertAlmostEqual(m["solver.solve.s"], 5.0)
        self.assertAlmostEqual(m["solver.solve.self_s"], 4.0)
        self.assertAlmostEqual(m["solver.initial_ansatz.s"], 1.0)
        self.assertAlmostEqual(m["evolution.integrate.s"], 2.0)
        self.assertEqual(m["evolution.integrate.calls"], 1)


class Ratios(unittest.TestCase):
    def test_per_base(self):
        self.assertEqual(per(6, 3), 2.0)
        self.assertEqual(per(2.0, 4, 1e6), 5e5)
        self.assertEqual(per(5, 0), 0.0)

    def test_ratios_use_their_bases(self):
        spans = [["solver.solve", 0.0, 0.5, -1], ["solver.solve", 1.0, 1.5, -1],
                 ["evolution.integrate", 2.0, 4.0, -1]]
        counters = {"potentials.psi": [300, 0.1], "potentials.dpsi": [200, 0.1],
                    "lattice.cone_slack": [250, 0.1]}
        solves = [(60, False, 1, "residual"), (40, True, 2, "stagnation")]
        m = layer_metrics(record(spans, counters, solves, rk4_steps=4000))
        self.assertEqual(m["solver.iterations"], 100)
        self.assertEqual(m["solver.restarts"], 1)
        self.assertEqual(m["solver.max_halvings"], 2)
        self.assertEqual(m["solver.stop_reason.residual"], 1)
        self.assertEqual(m["solver.stop_reason.stagnation"], 1)
        self.assertEqual(m["solver.stop_reason.max_iters"], 0)
        self.assertAlmostEqual(m["potentials.psi.calls_per_iter"], 3.0)
        self.assertAlmostEqual(m["potentials.dpsi.calls_per_iter"], 2.0)
        self.assertAlmostEqual(m["lattice.cone_slack.calls_per_iter"], 2.5)
        self.assertAlmostEqual(m["solver.ascent_us_per_iter"], 1e6 * 1.0 / 100)
        self.assertAlmostEqual(m["evolution.us_per_step"], 1e6 * 2.0 / 4000)

    def test_zero_base_reads_zero(self):
        m = layer_metrics(record([]))
        self.assertEqual(m["solver.ascent_us_per_iter"], 0.0)
        self.assertEqual(m["evolution.us_per_step"], 0.0)


class TracedRun(unittest.TestCase):
    def test_traced_cli_run_restores_every_name(self):
        before = dnls_namespaces()
        tracer = Tracer().install()
        try:
            self.assertIs(dnls.solver.cone_slack, dnls.lattice.cone_slack)
            self.assertIs(dnls.cli.solve, dnls.solver.solve)
            self.assertTrue(hasattr(dnls.solver.solve, "__wrapped__"))
            cwd = os.getcwd()
            with tempfile.TemporaryDirectory() as tmp:
                os.chdir(tmp)
                try:
                    code = dnls.cli.main(["solve", "--potential", "quartic", "--alpha", "1",
                                          "--rho", "2", "--N", "7", "--out", "w"])
                finally:
                    os.chdir(cwd)
        finally:
            tracer.restore()
        self.assertEqual(code, 0)
        self.assertEqual(dnls_namespaces(), before)
        m = layer_metrics(record(tracer.spans, tracer.counters, tracer.solves,
                                 tracer.rk4_steps))
        self.assertEqual(m["solver.solve.calls"], 1)
        self.assertGreater(m["solver.iterations"], 0)
        self.assertGreater(m["potentials.psi.calls"], m["solver.iterations"])
        self.assertGreater(m["lattice.cone_slack.calls"], 0)
        self.assertEqual(m["potentials.check_assumptions.calls"], 1)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names[0], "cli.main")
        self.assertEqual([s[3] for s in tracer.spans if s[0] == "solver.solve"], [0])

    def test_restore_after_exception(self):
        before = dnls_namespaces()
        tracer = Tracer().install()
        try:
            with self.assertRaises(ValueError):
                dnls.solver.solve(dnls.solver.SolverConfig(alpha=-1.0, rho=1.0),
                                  dnls.potentials.quartic())
        finally:
            tracer.restore()
        self.assertEqual(dnls_namespaces(), before)
        self.assertEqual(tracer.spans[0][0], "solver.solve")
        self.assertIsNotNone(tracer.spans[0][2])


class Probe(unittest.TestCase):
    def test_normed_removes_probe_share_and_scales_by_speed(self):
        # 10.2 s pass holding 0.2 s of probes, kernel at twice its nominal time
        self.assertAlmostEqual(probe.normed(10.2, 0.2, 2 * probe.NOMINAL_S), 5.0)
        self.assertAlmostEqual(probe.normed(3.0, 0.0, probe.NOMINAL_S), 3.0)

    def test_samples_through_a_pass_and_restores_the_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        with probe.SpeedProbe(period_s=0.01) as p:
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                sum(range(1000))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        s = p.summary()
        self.assertGreaterEqual(len(p.wall), 4)  # entry, exit and the timer's
        self.assertAlmostEqual(p.inside_wall, sum(p.wall[1:-1]))
        self.assertLess(p.inside_wall, p.elapsed[0])
        self.assertAlmostEqual(s["wall_s"], p.elapsed[0] - p.inside_wall)
        self.assertGreaterEqual(p.elapsed[0], 0.2)


class Manifest(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_benchmark_json_lists_the_layer_metrics(self):
        listed = {m["name"]: (m["unit"], m["better"]) for m in self.spec["per_layer"]}
        self.assertEqual(listed, {k: v[:2] for k, v in LAYER_METRICS.items()})

    def test_workload_and_metric_names_agree(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOAD_NAMES))
        self.assertEqual(names, list(WORKLOADS))
        listed = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(listed, run.END_TO_END)


if __name__ == "__main__":
    unittest.main()
