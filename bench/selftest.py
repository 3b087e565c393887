"""Self-test of the benchmark on a small slice of each workload.

    python3 bench/selftest.py

It checks that the correctness gate accepts srdkit's answers, that it names
a wrong answer, a wrong exit code or an exception, and that the exact
counters of a traced pass repeat.  It asserts nothing about wall-clock time.
About 5 s.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

FAMILY_LABELS = ("K8", "multi2-3-4", "grid4x5", "petersen-r0", "tree12-r0", "general8-12-r0")


def small_slice(workload: str, items: list, reference: dict) -> list:
    """A few cheap items of each kind the workload has."""
    if workload == "exact-search":
        budget = [it for it in items if it.budget]
        return items[:8] + budget[:1]
    if workload == "srd-refute":
        return [it for it in items if it.name.endswith("six-12-3")]
    if workload == "verify-families":
        return [it for it in items if it.name.split("/")[1] in FAMILY_LABELS]
    unsat = {
        f"reduce-check/f{i:03d}-r0"
        for i, rec in enumerate(reference["reduce_check"])
        if not rec["satisfiable"]
    }
    return items[:5] + [it for it in items if it.name in unsat]


class BenchSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(parents=True, exist_ok=True)
        cls.package = run.import_srdkit()
        cls.reference = workloads.load_reference()
        cls.tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        cls.slices = {}
        for name in workloads.WORKLOADS:
            workdir = Path(cls.tmp.name) / name
            workdir.mkdir()
            items = workloads.build(name, 7, workdir, cls.reference)
            cls.slices[name] = small_slice(name, items, cls.reference)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_gate_accepts_srdkit_answers(self):
        for name, items in self.slices.items():
            with self.subTest(workload=name):
                self.assertTrue(items)
                _, latencies, budget, failures = run.run_pass(self.package.cli.run, items)
                self.assertEqual(failures, [])
                self.assertEqual(len(latencies), len(items))
                self.assertEqual(budget, sum(it.budget for it in items))

    def test_gate_names_wrong_answers(self):
        reference = workloads.load_reference()
        reference["exact_search"][3]["rd"] += 1
        first_formula = reference["reduce_check"][0]
        first_formula["satisfiable"] = not first_formula["satisfiable"]
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            exact = workloads.build("exact-search", 7, Path(tmp), reference)[:5]
            reduce = workloads.build("reduce-check", 7, Path(tmp), reference)[:2]
            _, _, _, failures = run.run_pass(self.package.cli.run, exact + reduce)
        self.assertEqual([f[0] for f in failures], ["exact-search/g003-r0", "reduce-check/f000-r0"])

    def test_gate_counts_exceptions_and_exit_codes(self):
        items = self.slices["exact-search"][:3]
        broken = replace(items[1], argv=("solve", "/nonexistent/graph.txt", "--jobs", "1"))

        def flaky_run(argv):
            if argv[1] == "boom":
                raise RecursionError("maximum recursion depth exceeded")
            return self.package.cli.run(argv)

        raising = replace(items[2], argv=("solve", "boom"))
        _, latencies, _, failures = run.run_pass(flaky_run, [items[0], broken, raising, items[0]])
        self.assertEqual(len(latencies), 4)
        self.assertEqual([f[0] for f in failures], [broken.name, raising.name])
        self.assertIn("exit 2", failures[0][1])
        self.assertIn("RecursionError", failures[1][1])

    def test_counters_repeat(self):
        for name, items in self.slices.items():
            with self.subTest(workload=name):
                warm_up, untraced, traced, first, last = run.measure_traced(
                    self.package, self.package.cli.run, items
                )
                self.assertEqual(warm_up[3] + untraced[3] + traced[3], [])
                self.assertEqual(first.exact_counters(), last.exact_counters())
                self.assertGreater(last.exact_counters()["spans"], 0)

    def test_self_time_leaves_out_wrapper_bookkeeping(self):
        items = self.slices["exact-search"]
        tracer = Tracer(self.package).install()
        try:
            wall, _, _, failures = run.run_pass(self.package.cli.run, items)
        finally:
            tracer.close()
        self.assertEqual(failures, [])
        self.assertGreater(tracer.wrapper_time["verifier"], 0)
        booked = sum(tracer.self_time.values()) + sum(tracer.wrapper_time.values())
        self.assertLessEqual(booked, wall)

    def test_counter_check_names_a_difference(self):
        counters = {"verifier.dfs_nodes": 10, "spans": 4}
        error = run.check_counters("exact-search", 7, counters, dict(counters, spans=5))
        self.assertIn("'spans': (4, 5)", error)

    def test_tracer_restores_srdkit(self):
        pkg = self.package
        cli = pkg.cli
        before = (cli.srd_number, pkg.solver.is_rd_coloring, pkg.local_edge_connectivity)
        tracer = Tracer(pkg).install()
        self.assertIsNot(cli.srd_number, before[0])
        self.assertIs(cli.srd_number.__wrapped__, before[0])
        tracer.close()
        after = (cli.srd_number, pkg.solver.is_rd_coloring, pkg.local_edge_connectivity)
        self.assertEqual(before, after)

    def test_inputs_follow_the_seed(self):
        texts = {}
        for seed in (7, 7, 8):
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                items = workloads.build("reduce-check", seed, Path(tmp), self.reference)
                texts.setdefault(seed, []).append(Path(items[-1].argv[1]).read_text())
        self.assertEqual(texts[7][0], texts[7][1])
        self.assertNotEqual(texts[7][0], texts[8][0])


if __name__ == "__main__":
    unittest.main()
