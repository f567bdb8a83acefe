"""Quick self-test of the benchmark on tiny inputs (a few seconds).

    python3 perfbench/selftest.py

Checks that timed and traced runs emit exactly the metric names and units of
``BENCHMARK.json``, that a corrupted golden answer counts as a failure, that
relabeled panel graphs still pass, that the tracer restores every function
it wrapped, and that the benchmark refuses a checkout without sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import symlab  # noqa: E402
import symlab.cli  # noqa: E402
import symlab.invariants  # noqa: E402
from symlab.graphs import build_family  # noqa: E402
from symlab.invariants import invariant_report  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_CORPUS = ("verify", "--suite", "Prop2.2,Prop2.5,EngineOracle", "--corpus",
               "all-connected:<=4", "--json")
TINY_PANEL = ("cycle:6", "hypercube:3")


def verify_golden(args) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = symlab.cli.main(list(args))
    return {"stdout": buf.getvalue(), "exit_code": code}


def tiny_corpus() -> workloads.CorpusWorkload:
    return workloads.CorpusWorkload(TINY_CORPUS, verify_golden(TINY_CORPUS))


def tiny_panel(seed: int, labeling: int = 0) -> workloads.PanelWorkload:
    golden = {s: invariant_report(build_family(s)).to_dict() for s in TINY_PANEL}
    return workloads.PanelWorkload(seed, labeling, TINY_PANEL, golden)


def timed(*copies) -> dict:
    return harness.timed_result(list(copies), 0, lambda: 0.01)[0]


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


class MetricNames(unittest.TestCase):
    def assert_metrics(self, result: dict, section: str) -> None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, declared(section))
        for m in result["metrics"].values():
            self.assertIsInstance(m["value"], (int, float))

    def test_timed_runs_emit_the_end_to_end_metrics(self):
        # seed 0: labeling 0 is checked byte for byte, labeling 1 relabeled
        for copies in ((tiny_corpus(), tiny_corpus()), (tiny_panel(0, 0), tiny_panel(0, 1))):
            result = timed(*copies)
            self.assertTrue(result["correct"], copies[0].name)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(result["attempted"], 2 * copies[0].run_pass().attempted)
            self.assert_metrics(result, "end_to_end")
            self.assertEqual(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_traced_runs_emit_the_per_layer_metrics(self):
        for wl in (tiny_corpus(), tiny_panel(2)):
            result, _ = harness.traced_result(wl, None)
            self.assertTrue(result["correct"], wl.name)
            self.assert_metrics(result, "per_layer")
            self.assertGreater(result["metrics"]["aut.refine.calls"]["value"], 0, wl.name)

    def test_workload_names_are_known(self):
        for w in BENCH["workloads"]:
            self.assertIn(w["name"], workloads.WORKLOADS)


class CorruptedGolden(unittest.TestCase):
    def test_corpus_report(self):
        golden = verify_golden(TINY_CORPUS)
        reports = json.loads(golden["stdout"])
        reports[1]["status"] = "counterexample"
        golden["stdout"] = json.dumps(reports) + "\n"
        result = timed(workloads.CorpusWorkload(TINY_CORPUS, golden))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertLess(result["metrics"]["ok_frac"]["value"], 1.0)

    def test_panel_witness_at_seed_zero(self):
        wl = tiny_panel(0)
        wl.golden["cycle:6"]["witness_det_set"] = [0, 2]
        self.assertEqual(wl.run_pass().failed, 1)

    def test_panel_value_under_relabeling(self):
        wl = tiny_panel(7)
        self.assertNotEqual([g6 for _, _, g6 in wl.graphs],
                            [g6 for _, _, g6 in tiny_panel(7, 1).graphs])
        self.assertEqual(wl.run_pass().failed, 0)
        wl.golden["hypercube:3"]["rho"] += 1
        self.assertEqual(wl.run_pass().failed, 1)


class TracerHygiene(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        import symlab.aut
        import symlab.verifier
        before = (symlab.verifier.cost, symlab.cost, symlab.aut.Budget.spend,
                  symlab.aut.AutContext.__init__, symlab.verifier.corpus)
        tracer = Tracer().install()
        self.assertIsNot(symlab.verifier.cost, before[0])
        self.assertIs(symlab.verifier.cost, symlab.cost)
        tracer.uninstall()
        after = (symlab.verifier.cost, symlab.cost, symlab.aut.Budget.spend,
                 symlab.aut.AutContext.__init__, symlab.verifier.corpus)
        for a, b in zip(before, after):
            self.assertIs(a, b)

    def test_self_time_excludes_children(self):
        tracer = Tracer().install()
        try:
            symlab.invariants.invariant_report(build_family("cycle:6"))
        finally:
            tracer.uninstall()
        spans = tracer.summary()["spans"]
        report = spans["invariants.invariant_report"]
        self.assertEqual(report["calls"], 1)
        self.assertLess(report["self_s"], report["total_s"])
        self.assertGreater(spans["aut.AutContext.init"]["calls"], 0)


class RefusesEmptyCheckout(unittest.TestCase):
    def test_no_sources_means_no_result(self):
        # the benchmark's own directory holds no src/symlab
        p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "bound-corpus6",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=HERE, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout, "")


if __name__ == "__main__":
    unittest.main()
