"""Guards for what the benchmark (``perfbench/``) relies on.

The benchmark's tracer wraps ``AutContext`` methods and public functions by
name, and it reports the calls of ``Budget.spend`` as ``aut.refine.calls``.
Renaming a traced name fails the benchmark's self-test; a second caller of
``Budget.spend`` would silently inflate the refine count.  Both fail here.
"""

import contextlib
import io
import subprocess
import sys
from pathlib import Path

from symlab import aut, build_family, check_witnesses, invariant_report
from symlab.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_budget_is_spent_only_by_refine(monkeypatch):
    counts = {"spend": 0, "refine": 0}
    spend, refine = aut.Budget.spend, aut._Engine.refine

    def counted_spend(budget, amount=1):
        counts["spend"] += 1
        return spend(budget, amount)

    def counted_refine(*args, **kwargs):
        counts["refine"] += 1
        return refine(*args, **kwargs)

    monkeypatch.setattr(aut.Budget, "spend", counted_spend)
    monkeypatch.setattr(aut._Engine, "refine", counted_refine)
    for spec in ("friendship:3", "hypercube:3", "corona:(path:3),(complete:2)"):
        g = build_family(spec)
        assert check_witnesses(g, invariant_report(g)) == []
    with contextlib.redirect_stdout(io.StringIO()):
        main(["verify", "--suite", "Thm1.1,Prop2.2,Prop2.3,Prop2.4,Prop2.5,Cor2.6,Cor2.7,"
              "EngineOracle", "--corpus", "all-connected:<=4", "--json"])
    assert counts["spend"] == counts["refine"] > 0
