"""The benchmark's workloads: inputs, one pass, and the golden check.

Both workloads run in this process, serially.  Each runs a fixed amount of
work per pass and counts operations: a panel graph, or one check report of
the corpus run.  An operation fails when it raises, exceeds its node budget,
or differs from the golden answer taken from the seed commit (see
``make_golden.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"

BOUND_CHECKS = ("Thm1.1", "Prop2.2", "Prop2.3", "Prop2.4", "Prop2.5",
                "Cor2.6", "Cor2.7", "EngineOracle")
# the budget is explicit so that SYMLAB_BUDGET in the environment cannot change it
CORPUS_ARGS = ("verify", "--suite", ",".join(BOUND_CHECKS), "--corpus", "all-connected:<=6",
               "--budget", "10000000", "--json")
PANEL_SPECS = (
    "friendship:5", "friendship:6", "friendship:7", "friendship:8",
    "hypercube:3", "hypercube:4", "complete_bipartite:5,5", "cycle:12", "star:10",
    "corona:(path:3),(complete:2)", "corona:(path:4),(complete:3)",
)
# keys a relabeled panel graph must reproduce; witnesses are re-checked instead
RELABEL_KEYS = ("n", "aut_order", "D", "rho", "det")


@dataclass
class Outcome:
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(message)


def panel_key(spec: str) -> str:
    """Metric-safe name of a family spec, e.g. corona-path-3-complete-2."""
    return re.sub(r"[^A-Za-z0-9_]+", "-", spec).strip("-")


def relabel(g, key: str):
    """The graph under a vertex permutation drawn from ``key``."""
    from symlab.graphs import from_edge_list
    perm = list(range(g.n))
    random.Random(key).shuffle(perm)
    return from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def load_golden(name: str):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def check_verify_output(golden: dict, code: int | None, stdout: str) -> Outcome:
    """One operation per golden check report of a ``verify --json`` run."""
    want = json.loads(golden["stdout"])
    out = Outcome(len(want), 0)
    if code != golden["exit_code"]:
        out.fail(f"exit code {code}, golden {golden['exit_code']}: {stdout[:200]}", len(want))
        return out
    try:
        got = json.loads(stdout)
    except ValueError:
        out.fail("stdout is not JSON", len(want))
        return out
    for i, rep in enumerate(want):
        if not isinstance(got, list) or i >= len(got) or got[i] != rep:
            out.fail(f"report {i} ({rep['theorem_id']}) differs from golden")
    if out.failed == 0 and stdout != golden["stdout"]:
        out.fail("stdout bytes differ from golden")
    return out


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_pass(workload, dump_to: Path | None,
                spans: bool = True) -> tuple[Outcome, dict, float]:
    """One pass under a fresh tracer, and its wall time; with ``spans`` false
    only refine calls are counted.  Spans are written to ``dump_to`` when it
    is given."""
    tracer = Tracer().install(spans)
    try:
        t = time.perf_counter()
        outcome = workload.run_pass(tracer)
        wall = time.perf_counter() - t
    finally:
        tracer.uninstall()
    if dump_to is not None:
        tracer.dump(dump_to, {"workload": workload.name})
    return outcome, tracer.summary(), wall


class CorpusWorkload:
    """In-process ``symlab.cli.main`` verifying the bound checks over a labeled
    corpus, serially; the whole JSON output is compared with the golden."""

    name = "bound-corpus6"

    def __init__(self, args=CORPUS_ARGS, golden: dict | None = None):
        self.args = tuple(args)
        self.golden = golden if golden is not None else load_golden(self.name)

    def run_pass(self, tracer: Tracer | None = None) -> Outcome:
        import symlab.cli
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = symlab.cli.main(list(self.args))
        except Exception as exc:  # any raise fails every report of the pass
            return check_verify_output(self.golden, None, f"raised {exc!r}")
        return check_verify_output(self.golden, code, buf.getvalue())


class PanelWorkload:
    """``invariant_report`` plus ``check_witnesses`` on a fixed graph panel.

    Labeling 0 of seed 0 runs every graph as built: its reports must match
    the golden byte for byte, witnesses included.  Any other labeling runs
    each graph under a vertex permutation drawn from
    ``"{seed}:{labeling}:{spec}"``: n, |Aut|, D, rho and det must match the
    golden values and the witnesses must re-check.
    """

    name = "symmetric-panel"

    def __init__(self, seed: int, labeling: int = 0, specs=PANEL_SPECS,
                 golden: dict | None = None):
        from symlab.graphs import build_family, emit_graph6
        self.golden = golden if golden is not None else load_golden(self.name)
        self.as_built = seed == 0 and labeling == 0
        self.graphs = []
        for spec in specs:
            g = build_family(spec)
            if not self.as_built:
                g = relabel(g, f"{seed}:{labeling}:{spec}")
            self.graphs.append((spec, g, emit_graph6(g)))

    def run_pass(self, tracer: Tracer | None = None) -> Outcome:
        from symlab.invariants import check_witnesses, invariant_report

        def report_and_check(g):
            rep = invariant_report(g)
            return rep, check_witnesses(g, rep)

        out = Outcome(len(self.graphs), 0)
        for spec, g, g6 in self.graphs:
            one = report_and_check
            if tracer is not None:
                one = tracer.wrap(f"panel.{panel_key(spec)}", one)
            try:
                rep, problems = one(g)
            except Exception as exc:  # budget exhaustion included
                out.fail(f"{spec}: raised {exc!r}")
                continue
            want = self.golden[spec]
            got = rep.to_dict()
            if problems:
                out.fail(f"{spec}: witness check: {problems}")
            elif self.as_built and json.dumps(got) != json.dumps(want):
                out.fail(f"{spec}: report differs from golden")
            elif not self.as_built and (got["graph6"] != g6 or any(
                    got[k] != want[k] for k in RELABEL_KEYS)):
                out.fail(f"{spec}: invariants differ from golden under relabeling")
        return out


WORKLOADS = (CorpusWorkload.name, PanelWorkload.name)
# A timed run makes its passes in this many processes at once, one per core
# of the 2-core machine the benchmark was tuned on.  The panel's work depends
# on the labeling by about 12 % (standard deviation), so two labelings, run
# side by side, halve that variance in the time of one pass.
WORKERS = 2


def make(name: str, seed: int) -> list:
    """One full-size workload per worker, inputs and goldens loaded: the
    corpus in each, the panel under labelings 0, 1, ... of ``seed``."""
    if name == CorpusWorkload.name:
        return [CorpusWorkload() for _ in range(WORKERS)]
    if name == PanelWorkload.name:
        return [PanelWorkload(seed, r) for r in range(WORKERS)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
