"""The benchmark's own test: tiny graphs, every workload, both modes.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Checks that every workload prints every metric of ``BENCHMARK.json`` with its
unit, that a wrong answer trips the correctness gate (non-zero exit), that the
oracle replays edge updates, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "3", "--size", "tiny"]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in BENCH["workloads"]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = run_bench("--workload", workload["name"], "--trace", trace, *TINY)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
                    result = last_json(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertIs(result["correct"], True)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = BENCH[key]
                    self.assertEqual(list(result["metrics"]), [m["name"] for m in expected])
                    for spec in expected:
                        printed = result["metrics"][spec["name"]]
                        self.assertEqual(printed["unit"], spec["unit"], spec["name"])
                        self.assertTrue(math.isfinite(printed["value"]), spec["name"])
                        if key == "end_to_end":
                            self.assertGreater(printed["value"], 0.0, spec["name"])

    def test_perturbed_answer_trips_the_gate(self):
        # The first single query's value is moved by 2 epsilon inside the
        # program's public call; the run must report it and exit non-zero.
        snippet = f"""
import sys
sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]
from repro.core.engine import QueryEngine
original = QueryEngine.query
def perturbed(self, s, t, epsilon, **kwargs):
    result = original(self, s, t, epsilon, **kwargs)
    if self.stats.num_queries == 1:
        result.value += 2 * epsilon
    return result
QueryEngine.query = perturbed
import run
sys.exit(run.main({["--workload", "geer-walkbound", "--trace", "0", *TINY]!r}))
"""
        proc = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT,
                              capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 1, proc.stderr[-4000:])
        result = last_json(proc)
        self.assertIs(result["correct"], False)
        self.assertLess(result["metrics"]["within_eps_share"]["value"], 1.0)

    def test_refuses_to_run_without_the_program_sources(self):
        with tempfile.TemporaryDirectory(dir=HERE, prefix=".selftest-") as tmp:
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns(".selftest-*", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            proc = run_bench("--workload", "geer-pushbound", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class Oracle(unittest.TestCase):
    def test_replays_updates_and_flags_wrong_answers(self):
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        try:
            from repro import QueryEngine
            from repro.graph.delta import EdgeDelta

            from graphs import build_graph
            from oracle import ResistanceOracle, check_answers
        finally:
            del sys.path[:2]
        graph = build_graph("dblp-quarter", "tiny")
        u, v = next((a, b) for a in range(graph.num_nodes) for b in range(a + 1, graph.num_nodes)
                    if not graph.has_edge(a, b))
        oracle = ResistanceOracle(graph.num_nodes, graph.edge_array())
        oracle.add_update("add", u, v)
        updated = EdgeDelta(inserts=((u, v),)).apply_to(graph)
        exact = [QueryEngine(g, rng=0).exact(u, v) for g in (graph, updated)]
        mine = [oracle.resistances(epoch, [(u, v)])[0] for epoch in (0, 1)]
        for theirs, ours in zip(exact, mine):
            self.assertAlmostEqual(theirs, ours, places=6)
        self.assertLess(mine[1], mine[0])  # Rayleigh monotonicity
        eps = 0.05
        good = (1, u, v, eps, mine[1] + 0.5 * eps)
        bad = (1, u, v, eps, mine[1] + 2 * eps)
        self.assertEqual(check_answers(oracle, [good])[:2], (1, 1))
        checked, within, problems = check_answers(oracle, [good, bad])
        self.assertEqual((checked, within), (2, 1))
        self.assertTrue(problems)


if __name__ == "__main__":
    unittest.main()
