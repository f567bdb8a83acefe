"""Turns workload passes into the benchmark's metrics.

A timed run (``--trace 0``) gives the end-to-end metrics with no tracer
installed, from passes made in one worker process per workload copy.  A
traced run (``--trace 1``) gives the per-layer metrics of the first copy
from two passes in this process: one that only counts refine calls, and one
with every span.
"""

from __future__ import annotations

import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable

from tracer import REFINE_COUNTER, SPAN_NAMES
from workloads import PANEL_SPECS, Outcome, panel_key, peak_rss_mb, traced_pass

SETUP_REPEATS = 9
SETUP_SLOT = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# the highest of these percentiles with at least TAIL_BEYOND samples beyond it
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
REPORT_SPAN = "invariants.invariant_report"


def per_layer_units() -> dict[str, str]:
    units = {REFINE_COUNTER: "count"}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units["aut.AutContext.pointwise_trivial.hit_frac"] = "frac"
    units[f"{REPORT_SPAN}.p50_ms"] = "ms"
    units[f"{REPORT_SPAN}.tail_ms"] = "ms"
    for spec in PANEL_SPECS:
        units[f"panel.{panel_key(spec)}.total_s"] = "s"
    units["trace.overhead_frac"] = "frac"
    return units


def _result(outcomes: list[Outcome], metrics: dict[str, float],
            units: dict[str, str]) -> dict:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _passes(workload, seconds: float) -> tuple[list[Outcome], list[float], float]:
    """Passes for about ``seconds``: at least one, and another only if it
    should end within ``seconds``.  Also returns this process's peak RSS."""
    outcomes: list[Outcome] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        outcomes.append(workload.run_pass())
        walls.append(time.perf_counter() - t)
        if time.perf_counter() - start + walls[-1] > seconds:
            return outcomes, walls, peak_rss_mb()


def timed_result(copies: list, seconds: float,
                 setup_probe: Callable[[], float]) -> tuple[dict, list[str]]:
    """Each copy of the workload makes its passes in its own process, forked
    after set-up, all at once; wall time is the median pass, peak RSS the
    largest process.  Forking, unlike spawning, leaves no helper process
    behind.

    Set-up is probed SETUP_SLOT times before the passes and the rest of
    SETUP_REPEATS after them, while nothing else runs; ``setup_s`` is the
    median.
    """
    setups = [setup_probe() for _ in range(SETUP_SLOT)]
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=len(copies), mp_context=fork) as pool:
        runs = list(pool.map(_passes, copies, [seconds] * len(copies)))
    setups += [setup_probe() for _ in range(SETUP_REPEATS - SETUP_SLOT)]
    outcomes = [o for run in runs for o in run[0]]
    walls = [w for run in runs for w in run[1]]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": max(run[2] for run in runs),
    }
    notes = [f"passes={len(walls)} walls_s={[round(w, 3) for w in walls]} "
             f"setups_s={[round(s, 4) for s in setups]} fail_frac={failed / attempted:.6g}"]
    notes += [p for o in outcomes for p in o.problems]
    return _result(outcomes, metrics, END_TO_END_UNITS), notes


def _tail(durations: list[float]) -> tuple[float, float, float]:
    """(p50_ms, tail_ms, tail_pct): the tail is the highest listed percentile
    with at least TAIL_BEYOND samples beyond it, else the median."""
    if not durations:
        return 0.0, 0.0, 0.0
    ordered = sorted(durations)
    n = len(ordered)

    def pct(q: float) -> float:
        return ordered[min(n - 1, int(q / 100 * n))] * 1000

    for q in TAIL_PERCENTILES:
        if n * (1 - q / 100) >= TAIL_BEYOND:
            return statistics.median(ordered) * 1000, pct(q), q
    return statistics.median(ordered) * 1000, statistics.median(ordered) * 1000, 50.0


def layer_metrics(summary: dict, traced_wall: float, base_wall: float) -> dict[str, float]:
    """Per-layer metrics of a spanned pass, and its overhead over ``base_wall``."""
    spans = summary["spans"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    metrics: dict[str, float] = {REFINE_COUNTER: summary["refine_calls"]}
    for name in SPAN_NAMES:
        s = spans.get(name, zero)
        metrics[f"{name}.calls"] = s["calls"]
        metrics[f"{name}.self_s"] = s["self_s"]
        metrics[f"{name}.total_s"] = s["total_s"]
    pw = spans.get("aut.AutContext.pointwise_trivial", zero)["calls"]
    hits = summary["true_counts"].get("aut.AutContext.pointwise_trivial", 0)
    metrics["aut.AutContext.pointwise_trivial.hit_frac"] = hits / pw if pw else 0.0
    p50, tail, q = _tail(summary["durations"].get(REPORT_SPAN, []))
    metrics[f"{REPORT_SPAN}.p50_ms"] = p50
    metrics[f"{REPORT_SPAN}.tail_ms"] = tail
    for spec in PANEL_SPECS:
        name = f"panel.{panel_key(spec)}"
        metrics[f"{name}.total_s"] = spans.get(name, zero)["total_s"]
    metrics["trace.overhead_frac"] = traced_wall / base_wall - 1 if base_wall > 0 else 0.0
    return metrics


def traced_result(workload, dump_to: Path | None) -> tuple[dict, list[str]]:
    """A pass that only counts refine calls, then a pass with every span;
    spans of the second are written to ``dump_to``.

    The first pass is the base of the tracing overhead (counting alone costs
    well under 1 %), and the second must repeat its refine count exactly.
    The passes run one after the other, so the overhead includes no
    contention between them, but each meets its own stretch of machine speed.
    """
    base, counted, base_wall = traced_pass(workload, None, spans=False)
    traced, summary, traced_wall = traced_pass(workload, dump_to, spans=True)
    repeat = Outcome(1, 0)
    if counted["refine_calls"] != summary["refine_calls"]:
        repeat.fail(f"{REFINE_COUNTER} did not repeat: "
                    f"{counted['refine_calls']} then {summary['refine_calls']}")
    outcomes = [base, traced, repeat]
    metrics = layer_metrics(summary, traced_wall, base_wall)
    tail_pct = _tail(summary["durations"][REPORT_SPAN])[2]
    notes = [f"base_wall_s={base_wall:.3f} traced_wall_s={traced_wall:.3f} "
             f"overhead={metrics['trace.overhead_frac']:.3%} spans={summary['span_count']} "
             f"refine_calls={counted['refine_calls']}/{summary['refine_calls']} "
             f"{REPORT_SPAN}.tail_ms=p{tail_pct:g} peak_rss_mb={peak_rss_mb():.1f}"]
    notes += [p for o in outcomes for p in o.problems]
    return _result(outcomes, metrics, per_layer_units()), notes
