"""Outside-in tracer for symlab: wraps public functions, records spans.

The tracer never edits ``src/``.  ``install`` replaces each traced function
with a wrapper in every ``symlab`` module namespace that binds it, because
callers import by name (``verifier`` does ``from .invariants import cost``),
and replaces traced methods on their class.  ``uninstall`` puts every
original back.

Each call of a traced function is one span: name, start, end and the id of
the span that was open when it began.  Spans are kept in
a compact array in memory and written out by ``dump``.  Per-name calls,
self time and total time are aggregated as spans close:

* ``self_s`` is a span's duration minus the durations of its direct child
  spans;
* ``total_s`` sums only the outermost span of a name, so recursion is not
  counted twice.

A few hot functions are counted rather than spanned (``Budget.spend``).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

# (layer.name, owner path, attribute): owner is a module or "module:Class".
SPANNED = (
    ("aut.AutContext.init", "symlab.aut:AutContext", "__init__"),
    ("aut.AutContext.first_nontrivial", "symlab.aut:AutContext", "first_nontrivial"),
    ("aut.AutContext.pointwise_trivial", "symlab.aut:AutContext", "pointwise_trivial"),
    ("aut.AutContext.group", "symlab.aut:AutContext", "group"),
    ("aut.AutContext.subset_orbit", "symlab.aut:AutContext", "subset_orbit"),
    ("invariants.distinguishing_number", "symlab.invariants", "distinguishing_number"),
    ("invariants.determining_number", "symlab.invariants", "determining_number"),
    ("invariants.cost", "symlab.invariants", "cost"),
    ("invariants.minimum_determining_sets", "symlab.invariants", "minimum_determining_sets"),
    ("invariants.subset_distinguishing_witness", "symlab.invariants",
     "subset_distinguishing_witness"),
    ("invariants.subset_is_d_distinguishable", "symlab.invariants",
     "subset_is_d_distinguishable"),
    ("invariants.invariant_report", "symlab.invariants", "invariant_report"),
    ("invariants.check_witnesses", "symlab.invariants", "check_witnesses"),
    ("graphs.parse_graph6", "symlab.graphs", "parse_graph6"),
    ("graphs.emit_graph6", "symlab.graphs", "emit_graph6"),
    ("graphs.from_edge_list", "symlab.graphs", "from_edge_list"),
    ("verifier.run_suite", "symlab.verifier", "run_suite"),
    ("cli.main", "symlab.cli", "main"),
)

# Budget.spend has exactly one caller, _Engine.refine, so its call count is
# the number of refine calls.
REFINE_COUNTER = "aut.refine.calls"
CORPUS_SPAN = "verifier.corpus"
TRUE_COUNTED = {"aut.AutContext.pointwise_trivial"}
KEEP_DURATIONS = {"invariants.invariant_report"}

SPAN_NAMES = tuple(name for name, _, _ in SPANNED) + (CORPUS_SPAN,)
MAX_NAMES = 256
ROW = 5
_now = time.perf_counter


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    module = sys.modules[module_name]
    return getattr(module, cls) if cls else module


class Tracer:
    """Span recorder; create one per traced pass, install, run, uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # ROW doubles per span, appended as the span closes
        self.rows = array("d")
        self._span_ids = itertools.count()
        self.stats: list[list[float]] = []   # per name id: [calls, total, self]
        self.true_counts: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {n: [] for n in KEEP_DURATIONS}
        self.refine_calls = 0
        # the open frames, and how many spans of each name are open; symlab
        # runs the benchmark's work on one thread
        self._stack: list[list] = []
        self._active = [0] * MAX_NAMES
        self._patches: list[tuple[object, str, object]] = []
        for name in SPAN_NAMES:
            self._intern(name)

    # -- recording -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            if len(self.names) == MAX_NAMES:
                raise ValueError(f"more than {MAX_NAMES} span names")
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0.0, 0.0])
        return nid

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn``, recording one span named ``name`` per call."""
        nid = self._intern(name)
        stats = self.stats[nid]
        count_true = name in TRUE_COUNTED
        kept = self.durations.get(name)
        tracer = self
        stack = self._stack
        active = self._active
        new_id = self._span_ids.__next__
        record = self.rows.fromlist

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [new_id(), stack[-1][0] if stack else -1, 0.0]  # id, parent, child time
            stack.append(frame)
            active[nid] += 1
            start = _now()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[2] += dur - frame[2]
                active[nid] -= 1
                if not active[nid]:
                    stats[1] += dur
                if stack:
                    stack[-1][2] += dur
                record([frame[0], nid, frame[1], start, end])
                if kept is not None:
                    kept.append(dur)
            if count_true and out is True:
                tracer.true_counts[name] = tracer.true_counts.get(name, 0) + 1
            return out

        return traced

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original: object, new: object) -> None:
        # every symlab namespace that binds the original, including the package
        for modname, module in list(sys.modules.items()):
            if modname != "symlab" and not modname.startswith("symlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)

    def install(self, spans: bool = True) -> "Tracer":
        """Patch symlab; with ``spans`` false only refine calls are counted."""
        import symlab.aut
        import symlab.cli  # noqa: F401  (bound in the namespace walk below)
        import symlab.verifier

        tracer = self
        spend = symlab.aut.Budget.spend

        @functools.wraps(spend)
        def counted_spend(budget, amount=1):
            tracer.refine_calls += 1
            return spend(budget, amount)

        self._patch(symlab.aut.Budget, "spend", counted_spend)
        if not spans:
            return self

        for name, owner_path, attr in SPANNED:
            owner = _resolve(owner_path)
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
            else:
                self._patch_everywhere(original, wrapped)

        corpus = symlab.verifier.corpus

        @functools.wraps(corpus)
        def traced_corpus(spec):
            return _TracedIterator(tracer.wrap(CORPUS_SPAN, corpus(spec).__next__))

        self._patch_everywhere(corpus, traced_corpus)
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls / self / total plus counters, as plain JSON data."""
        per_name = {}
        for nid, name in enumerate(self.names):
            calls, total, self_s = self.stats[nid]
            per_name[name] = {"calls": int(calls), "total_s": total, "self_s": self_s}
        return {
            "spans": per_name,
            "refine_calls": self.refine_calls,
            "true_counts": dict(self.true_counts),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "span_count": len(self.rows) // ROW,
        }

    def dump(self, path: Path, meta: dict) -> None:
        """Write spans as ``<path>.spans`` (float64 rows: span id, name id,
        parent span id or -1, start, end) and ``<path>.json`` (names, layout)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        binary = path.with_suffix(".spans")
        with open(binary, "wb") as fh:
            self.rows.tofile(fh)
        header = dict(meta)
        header.update({
            "names": self.names,
            "count": len(self.rows) // ROW,
            "row": ["span_id", "name_id", "parent_id", "start_s", "end_s"],
            "typecode": "d",
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter",
            "spans_file": binary.name,
        })
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


class _TracedIterator:
    """Iterator proxy whose ``next`` is a traced call."""

    def __init__(self, traced_next: Callable):
        self._next = traced_next

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()
