"""Self-test of the benchmark's checks and span arithmetic.

    python3 perfbench/selftest.py

Kept out of the package's pytest suite on purpose (the file name does not
match ``test_*.py``): it tests the benchmark, not the package.
"""

from __future__ import annotations

import json
import tempfile
import types
import unittest
from pathlib import Path

import passrun
import workloads
from spans import Tracer

zf = passrun.import_package()


def _alter_first_witness_vertex(report: dict, key: str) -> dict:
    bad = json.loads(json.dumps(report))
    wit = bad["witnesses"][key]
    outside = next(v for v in range(bad["n"]) if v not in wit)
    bad["witnesses"][key] = sorted([outside] + wit[1:])
    return bad


class CorruptedOutput(unittest.TestCase):
    def test_altered_golden_witness_counts_as_failed(self):
        ops = workloads.compute_ops(["supertriangle_5"], jobs=1)
        good = workloads.golden_text("compute/supertriangle_5.json")
        bad = json.dumps(_alter_first_witness_vertex(json.loads(good), "z"), indent=2) + "\n"
        for text, failed in ((good, 0), (bad, 1)):
            outputs, _, _, _ = passrun.run_ops(lambda argv: print(text, end="") or 0, ops)
            self.assertEqual(len(passrun.check_ops(ops, outputs)), failed)

    def test_wrong_exit_code_counts_as_failed(self):
        ops = workloads.compute_ops(["supertriangle_5"], jobs=1)
        good = workloads.golden_text("compute/supertriangle_5.json")
        outputs, _, _, _ = passrun.run_ops(lambda argv: print(good, end="") or 3, ops)
        self.assertEqual(len(passrun.check_ops(ops, outputs)), 1)

    def test_altered_random_witness_fails_replay(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.build_ops("compute", 5, Path(tmp), zf)
            op = next(o for o in ops if o.id == "gnp20_0")
            outputs, _, _, _ = passrun.run_ops(zf.cli.main, [op])
        rc, out = outputs[0]
        self.assertIsNone(op.check(rc, out))
        report = json.loads(out)
        for key in ("z", "z_c", "pt", "PT", "pt_c", "PT_c"):
            bad = json.dumps(_alter_first_witness_vertex(report, key))
            self.assertIsNotNone(op.check(rc, bad), key)

    def test_relabeling_is_seeded_and_keeps_the_edges_count(self):
        a = workloads.random_instances(1)
        b = workloads.random_instances(2)
        self.assertEqual([len(e) for _, e in a], [len(e) for _, e in b])
        self.assertNotEqual(a, b)
        self.assertEqual(a, workloads.random_instances(1))


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_nested_toy_tree(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: next(ticks))
        leaf = tracer.wrap(lambda: None, "leaf")
        mid = tracer.wrap(lambda: leaf(), "mid")
        root = tracer.wrap(lambda: (mid(), leaf()), "root")
        root()  # root 0..7 > mid 1..4 > leaf 2..3, then leaf 5..6
        s = tracer.summary()
        self.assertEqual(s["root"], {"calls": 1, "s": 7, "self_s": 3})
        self.assertEqual(s["mid"], {"calls": 1, "s": 3, "self_s": 2})
        self.assertEqual(s["leaf"], {"calls": 2, "s": 2, "self_s": 2})

    def test_wrapping_follows_every_importing_module(self):
        home = types.ModuleType("toy.home")
        home.f = lambda x: x + 1
        user = types.ModuleType("toy.user")
        user.f = home.f
        other = types.ModuleType("toy.other")
        other.f = lambda x: x
        tracer = Tracer()
        self.assertTrue(tracer.instrument(home, "f", "toy.f", importers=[home, user, other]))
        self.assertEqual(user.f(1), 2)
        self.assertEqual(home.f(1), 2)
        self.assertEqual(other.f(1), 1)
        self.assertEqual(tracer.summary()["toy.f"]["calls"], 2)


class MissingEntryPoint(unittest.TestCase):
    def test_missing_entry_point_is_reported_not_raised(self):
        tracer = Tracer()
        self.assertFalse(tracer.instrument(zf.solver, "no_such_function", "solver.no_such_function"))
        metrics = passrun.span_metrics(
            tracer,
            {
                "solver.no_such_function.calls": ("solver.no_such_function", "calls"),
                "solver.solve_report.calls": ("solver.solve_report", "calls"),
            },
        )
        self.assertEqual(tracer.missing, ["solver.no_such_function"])
        self.assertIsNone(metrics["solver.no_such_function.calls"])
        self.assertEqual(metrics["solver.solve_report.calls"], 0)

    def test_probe_reports_missing_phase_metrics(self):
        fake = types.SimpleNamespace(solver=types.ModuleType("zeroforcing.solver"), forcing=zf.forcing)
        tracer = Tracer()
        metrics, failures = passrun.compute_probes(fake, tracer, [], [], 0)
        self.assertEqual(failures, [])
        self.assertTrue(all(v is None for v in metrics.values()))
        self.assertIn("solver.enumerate_min_zfs", tracer.missing)


if __name__ == "__main__":
    unittest.main()
