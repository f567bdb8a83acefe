"""Machine-checked claims over graph corpora, with replayable reports.

Each registered check runs one exact statement against a corpus and reports
one of: ``verified``, ``counterexample`` (with a replayable payload),
``hypothesis-never-met`` (the gate of a conditional statement never held,
which is deliberately not a pass), ``not-refuted`` (a restricted probe found
no witness but also no counterexample), or ``budget-exceeded``.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass
from typing import Iterator, Sequence

from . import families
from .aut import (AutContext, Budget, BudgetExceededError, DEFAULT_NODE_BUDGET,
                  brute_force_automorphisms, enumerate_elements)
from .graphs import (FamilySpec, Graph, Graph6Error, emit_graph6, friendship,
                     from_edge_list, hypercube, induced_subgraph, parse_family_spec,
                     parse_graph6)
from .invariants import (InvariantReport, cost, determining_number,
                         distinguishing_number, invariant_report,
                         minimum_determining_sets, subset_distinguishing_witness,
                         subset_is_d_distinguishable)


class CorpusError(ValueError):
    """Unparseable corpus spec, unreadable file, or corpus/check mismatch."""


class UnknownCheckError(ValueError):
    """Check id not in the registry."""


@dataclass
class TheoremReport:
    theorem_id: str
    corpus: str
    graphs_checked: int
    hypothesis_met: int
    status: str
    counterexample: dict | None = None
    notes: str | None = None
    informative: bool = False

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "corpus": self.corpus,
            "graphs_checked": self.graphs_checked,
            "hypothesis_met": self.hypothesis_met,
            "status": self.status,
            "counterexample": self.counterexample,
            "notes": self.notes,
            "informative": self.informative,
        }


def exit_code_for(reports: Sequence[TheoremReport]) -> int:
    """0 = clean, 1 = counterexample somewhere, 3 = a budget ran out.

    Checks flagged informative report their findings but never gate the code.
    """
    gating = [r for r in reports if not r.informative]
    if any(r.status == "counterexample" for r in gating):
        return 1
    if any(r.status == "budget-exceeded" for r in gating):
        return 3
    return 0


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _edge_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _connected_exact(n: int) -> Iterator[Graph]:
    """Every labeled connected graph on exactly n vertices, by edge subset."""
    pairs = _edge_pairs(n)
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = from_edge_list(n, edges)
        if g.is_connected():
            yield g


def _parse_range(text: str, what: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise CorpusError(f"bad {what} range {text!r}") from None
    if b < a:
        raise CorpusError(f"empty {what} range {text!r}")
    return a, b


def parse_corona_pairs(text: str) -> list[tuple[FamilySpec, FamilySpec]]:
    """Parse ';'-separated pairs of parenthesized family specs."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        spec = parse_family_spec(f"corona:{chunk}")
        pairs.append((spec.parts[0], spec.parts[1]))
    if not pairs:
        raise CorpusError(f"no corona pairs in {text!r}")
    return pairs


def corpus(spec: str) -> Iterator[Graph]:
    """Stream the graphs described by a corpus spec.

    Kinds: ``all-connected:<=N`` (orders 1..N), ``all-connected:N`` (exact),
    ``friendship:A..B``, ``corona-pairs:(spec),(spec);...`` (streams the
    built coronas), ``file:PATH`` (graph6 lines).
    """
    kind, sep, rest = spec.partition(":")
    kind = kind.strip()
    rest = rest.strip()
    if not sep:
        raise CorpusError(f"missing ':' in corpus spec {spec!r}")
    if kind == "all-connected":
        if rest.startswith("<="):
            try:
                nmax = int(rest[2:])
            except ValueError:
                raise CorpusError(f"bad order bound {rest!r}") from None
            if nmax < 1:
                raise CorpusError(f"order bound must be >= 1, got {nmax}")
            for n in range(1, nmax + 1):
                yield from _connected_exact(n)
        else:
            try:
                n = int(rest)
            except ValueError:
                raise CorpusError(f"bad order {rest!r}") from None
            if n < 1:
                raise CorpusError(f"order must be >= 1, got {n}")
            yield from _connected_exact(n)
    elif kind == "friendship":
        a, b = _parse_range(rest, "friendship")
        if a < 2:
            raise CorpusError(f"friendship graphs start at n=2, got {a}")
        for n in range(a, b + 1):
            yield friendship(n)
    elif kind == "corona-pairs":
        for gs, hs in parse_corona_pairs(rest):
            yield parse_family_spec(f"corona:({gs.to_string()}),({hs.to_string()})").build()
    elif kind == "file":
        try:
            with open(rest, "r", encoding="ascii") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise CorpusError(f"cannot read corpus file {rest!r}: {exc}") from exc
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if line and line != ">>graph6<<":
                try:
                    g = parse_graph6(line)
                except Graph6Error as exc:
                    raise CorpusError(f"corpus file {rest!r}, line {lineno}: {exc}") from exc
                yield g
    else:
        raise CorpusError(f"unknown corpus kind {kind!r}")


# ---------------------------------------------------------------------------
# per-graph verdicts for the connected-corpus bound suite
# ---------------------------------------------------------------------------

# outcome values: "ok", "open" (probe exhausted without witness), "fail"
Verdict = tuple[str, bool, str, dict | None]

_ORACLE_SAMPLE_STRIDE = 100


def _fail(check: str, g6: str, reason: str, **extra) -> Verdict:
    payload = {"graph6": g6, "reason": reason}
    payload.update(extra)
    return (check, True, "fail", payload)


def _check_prop22(g6: str, rep: InvariantReport) -> Verdict:
    d, rho, n = rep.distinguishing_number, rep.cost, rep.n
    if rho * d > n:
        return _fail("Prop2.2", g6, "cost exceeds n/d", D=d, rho=rho, n=n)
    if (d == 1) != (rho == n):
        return _fail("Prop2.2", g6, "d=1 iff cost=n failed", D=d, rho=rho, n=n)
    return ("Prop2.2", True, "ok", None)


def _check_prop23(g6: str, rep: InvariantReport) -> Verdict:
    d, rho, n = rep.distinguishing_number, rep.cost, rep.n
    hyp = d >= 2 or 2 * rho == n
    if d >= 2 and 2 * rho > n:
        return _fail("Prop2.3", g6, "cost exceeds n/2 with d >= 2", D=d, rho=rho, n=n)
    if 2 * rho == n and d != 2:
        return _fail("Prop2.3", g6, "cost = n/2 without d = 2", D=d, rho=rho, n=n)
    return ("Prop2.3", hyp, "ok", None)


def _check_prop24(g6: str, rep: InvariantReport, ctx: AutContext) -> Verdict:
    # proof form: the witness classes minus one largest class determine the graph
    classes: dict[int, list[int]] = {}
    for v, lab in enumerate(rep.witness_labeling):
        classes.setdefault(lab, []).append(v)
    drop = max(classes, key=lambda lab: (len(classes[lab]), lab))
    union = [v for lab, cls in classes.items() if lab != drop for v in cls]
    if not ctx.pointwise_trivial(union):
        return _fail("Prop2.4", g6, "union of all but the largest class does not determine",
                     witness=list(rep.witness_labeling))
    sizes = sorted(len(c) for c in classes.values())
    if rep.determining_number > sum(sizes[:-1]):
        return _fail("Prop2.4", g6, "determining number exceeds the class-size bound",
                     det=rep.determining_number, class_sizes=sizes)
    return ("Prop2.4", True, "ok", None)


def _check_prop25(g6: str, rep: InvariantReport) -> Verdict:
    if rep.cost > rep.n - rep.determining_number:
        return _fail("Prop2.5", g6, "cost exceeds n - determining number",
                     rho=rep.cost, det=rep.determining_number, n=rep.n)
    return ("Prop2.5", True, "ok", None)


def _check_cor27(g6: str, rep: InvariantReport) -> Verdict:
    d, rho, det, n = (rep.distinguishing_number, rep.cost,
                      rep.determining_number, rep.n)
    hyp = det <= rho or d == 2
    if det <= rho and 2 * det > n:
        return _fail("Cor2.7", g6, "det <= cost but det exceeds n/2", det=det, rho=rho, n=n)
    if d == 2 and 2 * det > n:
        return _fail("Cor2.7", g6, "d = 2 but det exceeds n/2", det=det, n=n)
    return ("Cor2.7", hyp, "ok", None)


def _lifted_colors(n: int, labeling: dict[int, int], rest_label: int) -> list[int]:
    colors = [rest_label] * n
    for v, lab in labeling.items():
        colors[v] = lab
    return colors


def _check_thm11(g6: str, rep: InvariantReport, ctx: AutContext,
                 mindets: list[tuple[int, ...]], truncated: bool) -> Verdict:
    d = rep.distinguishing_number
    if d < 2:
        return ("Thm1.1", False, "ok", None)
    forward = False
    for A in mindets:
        got = subset_distinguishing_witness(ctx.graph, A, upto=d - 1, ctx=ctx)
        if got is None:
            continue  # this set needs d labels or more; fine for minimality
        sdn, labeling = got
        lift = _lifted_colors(rep.n, labeling, sdn + 1)
        if not ctx.is_rigid(lift):
            return _fail("Thm1.1", g6, "distinguishable determining set failed to lift",
                         det_set=list(A), labels=labeling)
        if sdn < d - 1:
            # lift is rigid with sdn+1 < d labels: contradicts minimality of d
            return _fail("Thm1.1", g6, "rigid labeling with fewer labels than computed minimum",
                         det_set=list(A), labels=labeling, subset_labels=sdn)
        forward = True
    if forward:
        return ("Thm1.1", True, "ok", None)
    # No minimum set qualified.  The statement quantifies over all determining
    # sets, so fall back to the constructive witness: everything outside one
    # largest class of the cost witness, labeled by that witness.
    classes: dict[int, list[int]] = {}
    for v, lab in enumerate(rep.witness_labeling):
        classes.setdefault(lab, []).append(v)
    drop = max(classes, key=lambda lab: (len(classes[lab]), lab))
    union = sorted(v for lab, cls in classes.items() if lab != drop for v in cls)
    labeling = {v: rep.witness_labeling[v] for v in union}
    if not ctx.pointwise_trivial(union):
        return _fail("Thm1.1", g6, "constructive witness set does not determine",
                     det_set=union)
    if not subset_is_d_distinguishable(ctx.graph, union, labeling, ctx=ctx):
        return _fail("Thm1.1", g6, "constructive witness set not (d-1)-distinguishable",
                     det_set=union, labels=labeling)
    return ("Thm1.1", True, "widened",
            {"graph6": g6, "probed": len(mindets), "truncated": truncated})


# Per-run memo of Cor2.6's induced-subgraph results, keyed by the labeled
# adjacency ``adj_bits``: [context, distinguishing number, (cost, witness) or
# None until a graph needs it].  Entries are stored only once computed, so a
# budget overrun leaves nothing behind, and a later cost query charges the
# same context budget that one uncached call would.
_SubMemo = dict[tuple[int, ...], list]


def _check_cor26(g6: str, rep: InvariantReport, ctx: AutContext,
                 mindets: list[tuple[int, ...]], budget_cap: int,
                 memo: _SubMemo) -> Verdict:
    d = rep.distinguishing_number
    if d < 2:
        return ("Cor2.6", False, "ok", None)
    met = False
    for A in mindets:
        if not A:
            continue
        sub, index = induced_subgraph(ctx.graph, A)
        entry = memo.get(sub.adj_bits)
        if entry is None:
            sub_ctx = AutContext(sub, Budget(budget_cap))
            d_sub, _ = distinguishing_number(sub, ctx=sub_ctx)
            entry = memo[sub.adj_bits] = [sub_ctx, d_sub, None]
        sub_ctx, d_sub, found = entry
        if d_sub != d - 1:
            continue
        met = True
        if found is None:
            found = entry[2] = cost(sub, d=d_sub, ctx=sub_ctx)
        rho_sub, wit = found
        bound = min(rep.n - rep.determining_number, rho_sub)
        if rep.cost > bound:
            return _fail("Cor2.6", g6, "cost exceeds induced-subgraph bound",
                         det_set=list(A), bound=bound, rho=rep.cost)
        back = {old: wit.labels[new] for old, new in index.items()}
        if not ctx.is_rigid(_lifted_colors(rep.n, back, d)):
            return _fail("Cor2.6", g6, "constructive labeling not distinguishing",
                         det_set=list(A))
    return ("Cor2.6", met, "ok", None)


def _check_engine_oracle(g6: str, g: Graph, ctx: AutContext, index: int) -> Verdict:
    if index % _ORACLE_SAMPLE_STRIDE != 0 or g.n > 8:
        return ("EngineOracle", False, "ok", None)
    expected = set(brute_force_automorphisms(g))
    got = set(enumerate_elements(ctx.full, cap=max(ctx.full.order, 1)))
    if expected != got:
        return _fail("EngineOracle", g6, "engine group differs from permutation filter",
                     engine_order=ctx.full.order, brute_order=len(expected))
    return ("EngineOracle", True, "ok", None)


_BOUND_IDS = ("Thm1.1", "Prop2.2", "Prop2.3", "Prop2.4", "Prop2.5",
              "Cor2.6", "Cor2.7", "EngineOracle")


def _graph_verdicts(index: int, g: Graph, ids: tuple[str, ...], budget_cap: int,
                    memo: _SubMemo) -> list[Verdict]:
    try:
        ctx = AutContext(g, Budget(budget_cap))
        rep = invariant_report(g, ctx=ctx)
        g6 = rep.graph6
        mindets: list[tuple[int, ...]] = []
        truncated = False
        if "Thm1.1" in ids or "Cor2.6" in ids:
            mindets, truncated = minimum_determining_sets(g, ctx=ctx)
        out = []
        for check in ids:
            if check == "Prop2.2":
                out.append(_check_prop22(g6, rep))
            elif check == "Prop2.3":
                out.append(_check_prop23(g6, rep))
            elif check == "Prop2.4":
                out.append(_check_prop24(g6, rep, ctx))
            elif check == "Prop2.5":
                out.append(_check_prop25(g6, rep))
            elif check == "Cor2.7":
                out.append(_check_cor27(g6, rep))
            elif check == "Thm1.1":
                out.append(_check_thm11(g6, rep, ctx, mindets, truncated))
            elif check == "Cor2.6":
                out.append(_check_cor26(g6, rep, ctx, mindets, budget_cap, memo))
            elif check == "EngineOracle":
                out.append(_check_engine_oracle(g6, g, ctx, index))
        return out
    except BudgetExceededError:
        return [(check, True, "budget", {"graph6": emit_graph6(g)}) for check in ids]


# the Cor2.6 memo of one pool worker, set by the pool's initializer; each
# pool starts fresh workers, so it lives for one run
_worker_memo: _SubMemo | None = None


def _init_worker() -> None:
    global _worker_memo
    _worker_memo = {}


def _bound_worker(args: tuple[int, str, tuple[str, ...], int]) -> list[Verdict]:
    index, g6, ids, budget_cap = args
    return _graph_verdicts(index, parse_graph6(g6), ids, budget_cap, _worker_memo)


def _aggregate(theorem_id: str, corpus_desc: str, verdicts: list[Verdict],
               checked: int, notes: str | None = None) -> TheoremReport:
    hyp = sum(1 for _, h, _, _ in verdicts if h)
    fail = next((v for v in verdicts if v[2] == "fail"), None)
    if fail is not None:
        return TheoremReport(theorem_id, corpus_desc, checked, hyp,
                             "counterexample", fail[3], notes)
    if any(v[2] == "budget" for v in verdicts):
        return TheoremReport(theorem_id, corpus_desc, checked, hyp,
                             "budget-exceeded", None, notes)
    if any(v[2] == "open" for v in verdicts):
        opens = sum(1 for v in verdicts if v[2] == "open")
        extra = f"restricted probe found no witness on {opens} graph(s)"
        return TheoremReport(theorem_id, corpus_desc, checked, hyp, "not-refuted",
                             None, f"{notes}; {extra}" if notes else extra)
    widened = sum(1 for v in verdicts if v[2] == "widened")
    if widened:
        extra = (f"on {widened} graph(s) no minimum determining set qualified; "
                 f"verified through a larger constructive witness set")
        notes = f"{notes}; {extra}" if notes else extra
    if hyp == 0:
        return TheoremReport(theorem_id, corpus_desc, checked, 0,
                             "hypothesis-never-met", None, notes)
    return TheoremReport(theorem_id, corpus_desc, checked, hyp, "verified", None, notes)


def _run_bound_checks(ids: Sequence[str], corpus_spec: str, budget_cap: int,
                      jobs: int) -> list[TheoremReport]:
    ids = tuple(ids)
    per_check: dict[str, list[Verdict]] = {check: [] for check in ids}
    checked = 0
    if jobs > 1:
        tasks = ((i, emit_graph6(g), ids, budget_cap)
                 for i, g in enumerate(corpus(corpus_spec)))
        with multiprocessing.Pool(jobs, initializer=_init_worker) as pool:
            results = pool.imap(_bound_worker, tasks, chunksize=64)
            for verdicts in results:
                checked += 1
                for v in verdicts:
                    per_check[v[0]].append(v)
    else:
        memo: _SubMemo = {}
        for i, g in enumerate(corpus(corpus_spec)):
            checked += 1
            for v in _graph_verdicts(i, g, ids, budget_cap, memo):
                per_check[v[0]].append(v)
    return [_aggregate(check, corpus_spec, per_check[check], checked)
            for check in ids]


# ---------------------------------------------------------------------------
# friendship-family checks
# ---------------------------------------------------------------------------

class _FriendshipValues:
    """Search-computed friendship invariants, memoized per run."""

    def __init__(self, budget_cap: int):
        self.budget_cap = budget_cap
        self._ctx: dict[int, AutContext] = {}
        self._d: dict[int, int] = {}
        self._rho: dict[int, int] = {}
        self._det: dict[int, tuple[int, tuple[int, ...]]] = {}

    def ctx(self, n: int) -> AutContext:
        if n not in self._ctx:
            self._ctx[n] = AutContext(friendship(n), Budget(self.budget_cap))
        return self._ctx[n]

    def d(self, n: int) -> int:
        if n not in self._d:
            self._d[n] = distinguishing_number(friendship(n), ctx=self.ctx(n))[0]
        return self._d[n]

    def rho(self, n: int) -> int:
        if n not in self._rho:
            self._rho[n] = cost(friendship(n), d=self.d(n), ctx=self.ctx(n))[0]
        return self._rho[n]

    def det(self, n: int) -> tuple[int, tuple[int, ...]]:
        if n not in self._det:
            self._det[n] = determining_number(friendship(n), ctx=self.ctx(n))
        return self._det[n]


def _friendship_range(corpus_spec: str) -> tuple[int, int]:
    kind, _, rest = corpus_spec.partition(":")
    if kind.strip() != "friendship":
        raise CorpusError(f"check needs a friendship corpus, got {corpus_spec!r}")
    return _parse_range(rest.strip(), "friendship")


def _run_thm31(corpus_spec: str, vals: _FriendshipValues) -> TheoremReport:
    a, b = _friendship_range(corpus_spec)
    verdicts: list[Verdict] = []
    for n in range(a, b + 1):
        want = families.friendship_distinguishing_number(n)
        got = vals.d(n)
        if got != want:
            verdicts.append(_fail("Thm3.1", emit_graph6(friendship(n)),
                                  "distinguishing number mismatch", n=n,
                                  computed=got, formula=want))
        else:
            verdicts.append(("Thm3.1", True, "ok", None))
    return _aggregate("Thm3.1", corpus_spec, verdicts, b - a + 1)


def _run_rem32(corpus_spec: str, vals: _FriendshipValues) -> TheoremReport:
    a, b = _friendship_range(corpus_spec)
    if a != 2:
        raise CorpusError("threshold check needs the friendship range to start at 2")
    computed = {n: vals.d(n) for n in range(a, b + 1)}
    verdicts: list[Verdict] = []
    levels = sorted({j for j in computed.values()
                     if families.friendship_threshold(j) + j - 1 <= b})
    for j in levels:
        first = min(n for n, d in computed.items() if d == j)
        want = families.friendship_threshold(j)
        if first != want:
            verdicts.append(_fail("Rem3.2", emit_graph6(friendship(first)),
                                  "first n at this label count mismatches the threshold",
                                  labels=j, computed_first=first, formula=want))
            continue
        jump = computed[want + j - 1]
        if jump != j + 1:
            verdicts.append(_fail("Rem3.2", emit_graph6(friendship(want + j - 1)),
                                  "label count at threshold + (j-1) is not j+1",
                                  labels=j, computed=jump))
            continue
        verdicts.append(("Rem3.2", True, "ok", None))
    return _aggregate("Rem3.2", corpus_spec, verdicts, b - a + 1,
                      notes=f"levels checked: {levels}")


def _run_thm33(corpus_spec: str, vals: _FriendshipValues) -> TheoremReport:
    a, b = _friendship_range(corpus_spec)
    verdicts: list[Verdict] = []
    for n in range(a, b + 1):
        want = families.friendship_cost(n)
        got = vals.rho(n)
        if got != want:
            verdicts.append(_fail("Thm3.3", emit_graph6(friendship(n)),
                                  "cost mismatch", n=n, computed=got, formula=want))
        else:
            verdicts.append(("Thm3.3", True, "ok", None))
    return _aggregate("Thm3.3", corpus_spec, verdicts, b - a + 1)


def _run_thm34(corpus_spec: str, vals: _FriendshipValues) -> TheoremReport:
    a, b = _friendship_range(corpus_spec)
    verdicts: list[Verdict] = []
    for n in range(a, b + 1):
        det, _ = vals.det(n)
        if det != n:
            verdicts.append(_fail("Thm3.4", emit_graph6(friendship(n)),
                                  "determining number differs from n", n=n, computed=det))
            continue
        one_per_triangle = tuple(range(1, 2 * n, 2))
        if not vals.ctx(n).pointwise_trivial(one_per_triangle):
            verdicts.append(_fail("Thm3.4", emit_graph6(friendship(n)),
                                  "one-outer-vertex-per-triangle set does not determine",
                                  witness=list(one_per_triangle)))
            continue
        verdicts.append(("Thm3.4", True, "ok", None))
    return _aggregate("Thm3.4", corpus_spec, verdicts, b - a + 1)


def _run_thm28(corpus_spec: str, vals: _FriendshipValues) -> TheoremReport:
    a, b = _friendship_range(corpus_spec)
    gaps = {n: families.friendship_gap(n) for n in range(a, b + 1)}
    achieved = sorted(set(gaps.values()))
    predicted = sorted({families.friendship_threshold(families.friendship_distinguishing_number(n)) - 1
                        for n in range(a, b + 1)})
    verdicts: list[Verdict] = []
    if achieved != predicted:
        verdicts.append(_fail("Thm2.8", "", "gap set differs from threshold-1 prediction",
                              achieved=achieved, predicted=predicted))
    for n in range(a, b + 1):
        if n <= 4:
            # spot-check the closed form against full searches where cheap
            det, _ = vals.det(n)
            searched = abs(det - vals.rho(n))
            if searched != gaps[n]:
                verdicts.append(_fail("Thm2.8", emit_graph6(friendship(n)),
                                      "searched gap differs from closed form",
                                      n=n, searched=searched, formula=gaps[n]))
                continue
        verdicts.append(("Thm2.8", True, "ok", None))
    notes = (f"achieved gaps {achieved}: thresholds minus one, i.e. triangular numbers; "
             f"values between consecutive triangular numbers are not achieved by this family")
    return _aggregate("Thm2.8", corpus_spec, verdicts, b - a + 1, notes=notes)


# ---------------------------------------------------------------------------
# corona checks
# ---------------------------------------------------------------------------

def _corona_pairs_from(corpus_spec: str) -> list[tuple[FamilySpec, FamilySpec]]:
    kind, _, rest = corpus_spec.partition(":")
    if kind.strip() != "corona-pairs":
        raise CorpusError(f"check needs a corona-pairs corpus, got {corpus_spec!r}")
    return parse_corona_pairs(rest.strip())


def _run_thm41(corpus_spec: str, budget_cap: int) -> TheoremReport:
    verdicts: list[Verdict] = []
    pairs = _corona_pairs_from(corpus_spec)
    for gs, hs in pairs:
        g, h = gs.build(), hs.build()
        if not (g.is_connected() and h.is_connected() and g.n >= 2 and h.n >= 2):
            verdicts.append(("Thm4.1", False, "ok", None))
            continue
        prod = parse_family_spec(f"corona:({gs.to_string()}),({hs.to_string()})").build()
        det_g = determining_number(g, budget=budget_cap)[0]
        det_h = determining_number(h, budget=budget_cap)[0]
        det_prod = determining_number(prod, budget=budget_cap)[0]
        want = families.corona_determining_number(det_g, g.n, det_h)
        if det_prod != want:
            verdicts.append(_fail("Thm4.1", emit_graph6(prod), "corona determining mismatch",
                                  pair=f"({gs.to_string()}),({hs.to_string()})",
                                  computed=det_prod, formula=want))
        else:
            verdicts.append(("Thm4.1", True, "ok", None))
    return _aggregate("Thm4.1", corpus_spec, verdicts, len(pairs))


def _run_thm42(corpus_spec: str, budget_cap: int) -> TheoremReport:
    verdicts: list[Verdict] = []
    pairs = _corona_pairs_from(corpus_spec)
    for gs, hs in pairs:
        g, h = gs.build(), hs.build()
        if h.n != 1:
            raise CorpusError("pendant corona check needs the second factor to be complete:1")
        if not (g.is_connected() and g.n >= 2):
            verdicts.append(("Thm4.2", False, "ok", None))
            continue
        prod = parse_family_spec(f"corona:({gs.to_string()}),({hs.to_string()})").build()
        det_g = determining_number(g, budget=budget_cap)[0]
        det_prod = determining_number(prod, budget=budget_cap)[0]
        if det_prod != families.corona_pendant_determining_number(det_g):
            verdicts.append(_fail("Thm4.2", emit_graph6(prod),
                                  "pendant corona determining mismatch",
                                  pair=gs.to_string(), computed=det_prod, base=det_g))
        else:
            verdicts.append(("Thm4.2", True, "ok", None))
    return _aggregate("Thm4.2", corpus_spec, verdicts, len(pairs))


def _run_thm43(corpus_spec: str, budget_cap: int) -> TheoremReport:
    verdicts: list[Verdict] = []
    pairs = _corona_pairs_from(corpus_spec)
    for gs, hs in pairs:
        g, h = gs.build(), hs.build()
        if not (g.is_connected() and h.is_connected() and g.n >= 2 and h.n >= 2):
            verdicts.append(("Thm4.3", False, "ok", None))
            continue
        prod = parse_family_spec(f"corona:({gs.to_string()}),({hs.to_string()})").build()
        gctx = AutContext(g, Budget(budget_cap))
        hctx = AutContext(h, Budget(budget_cap))
        pctx = AutContext(prod, Budget(budget_cap))
        d_g = distinguishing_number(g, ctx=gctx)[0]
        d_h = distinguishing_number(h, ctx=hctx)[0]
        d_prod = distinguishing_number(prod, ctx=pctx)[0]
        if d_prod != max(d_g, d_h):
            verdicts.append(("Thm4.3", False, "ok", None))  # bound not applicable
            continue
        rho_g = cost(g, d=d_g, ctx=gctx)[0]
        rho_h = cost(h, d=d_h, ctx=hctx)[0]
        rho_prod = cost(prod, d=d_prod, ctx=pctx)[0]
        bound = families.corona_cost_bound(rho_g, g.n, rho_h)
        if rho_prod > bound:
            verdicts.append(_fail("Thm4.3", emit_graph6(prod), "corona cost bound violated",
                                  pair=f"({gs.to_string()}),({hs.to_string()})",
                                  computed=rho_prod, bound=bound))
        else:
            verdicts.append(("Thm4.3", True, "ok", None))
    return _aggregate("Thm4.3", corpus_spec, verdicts, len(pairs))


def _run_corona_degree(corpus_spec: str) -> TheoremReport:
    verdicts: list[Verdict] = []
    pairs = _corona_pairs_from(corpus_spec)
    for gs, hs in pairs:
        g, h = gs.build(), hs.build()
        if not (g.is_connected() and h.is_connected() and g.n >= 2):
            verdicts.append(("CoronaDegree", False, "ok", None))
            continue
        prod = parse_family_spec(f"corona:({gs.to_string()}),({hs.to_string()})").build()
        base_degs = {prod.degree(v) for v in range(g.n)}
        copy_degs = {prod.degree(v) for v in range(g.n, prod.n)}
        if base_degs & copy_degs:
            verdicts.append(_fail("CoronaDegree", emit_graph6(prod),
                                  "copy vertex shares a degree with a base vertex",
                                  overlap=sorted(base_degs & copy_degs)))
        else:
            verdicts.append(("CoronaDegree", True, "ok", None))
    return _aggregate("CoronaDegree", corpus_spec, verdicts, len(pairs))


# ---------------------------------------------------------------------------
# hypercube cost sanity (informative)
# ---------------------------------------------------------------------------

def _run_hypercube(budget_cap: int, dims: Sequence[int] = (3, 4)) -> TheoremReport:
    verdicts: list[Verdict] = []
    values = {}
    for k in dims:
        g = hypercube(k)
        ctx = AutContext(g, Budget(budget_cap))
        d, _ = distinguishing_number(g, ctx=ctx)
        rho, _ = cost(g, d=d, ctx=ctx)
        values[k] = rho
        ceil_log = (k - 1).bit_length()
        lo, hi = ceil_log - 1, ceil_log + 1
        if not (lo <= rho <= hi):
            verdicts.append(_fail("HypercubeCost", emit_graph6(g),
                                  "cost outside the quoted log bounds",
                                  dim=k, rho=rho, low=lo, high=hi))
        else:
            verdicts.append(("HypercubeCost", True, "ok", None))
    report = _aggregate("HypercubeCost", f"hypercube dims {list(dims)}", verdicts,
                        len(dims), notes=f"computed costs {values} (informative check)")
    report.informative = True
    return report


# ---------------------------------------------------------------------------
# registry and entry points
# ---------------------------------------------------------------------------

_THM41_PAIRS = "(path:3),(complete:2);(path:2),(complete:2);(path:3),(path:2)"
_THM42_PAIRS = "(path:3),(complete:1);(cycle:4),(complete:1);(complete:3),(complete:1)"


@dataclass(frozen=True)
class CheckDef:
    theorem_id: str
    kind: str
    default_corpus: str
    description: str


_REGISTRY: dict[str, CheckDef] = {}


def _register(theorem_id: str, kind: str, default_corpus: str, description: str) -> None:
    _REGISTRY[theorem_id] = CheckDef(theorem_id, kind, default_corpus, description)


_register("Thm1.1", "bound", "all-connected:<=6",
          "a graph needs d labels iff some determining set is (d-1)-subset-distinguishable")
_register("Prop2.2", "bound", "all-connected:<=6",
          "cost <= n/d, and d = 1 iff cost = n")
_register("Prop2.3", "bound", "all-connected:<=6",
          "d >= 2 gives cost <= n/2; cost = n/2 forces d = 2")
_register("Prop2.4", "bound", "all-connected:<=6",
          "witness classes minus the largest form a determining set")
_register("Prop2.5", "bound", "all-connected:<=6",
          "cost <= n - determining number")
_register("Cor2.6", "bound", "all-connected:<=6",
          "cost <= min(n - det, cost of the induced subgraph on a qualifying determining set)")
_register("Cor2.7", "bound", "all-connected:<=6",
          "det <= cost or d = 2 forces det <= n/2")
_register("EngineOracle", "bound", "all-connected:<=6",
          "engine group equals the brute-force permutation filter on a 1% sample")
_register("Thm3.1", "friendship", "friendship:2..8",
          "friendship distinguishing numbers match the closed form")
_register("Rem3.2", "friendship", "friendship:2..7",
          "label-count thresholds of the friendship family match the closed form")
_register("Thm3.3", "friendship", "friendship:2..6",
          "friendship costs match offset + 1")
_register("Thm3.4", "friendship", "friendship:2..6",
          "friendship determining number equals the triangle count")
_register("Thm2.8", "friendship", "friendship:2..12",
          "achieved |det - cost| gap set for the friendship family")
_register("Thm4.1", "corona", f"corona-pairs:{_THM41_PAIRS}",
          "corona determining number = det(G) + n*det(H)")
_register("Thm4.2", "corona", f"corona-pairs:{_THM42_PAIRS}",
          "pendant corona keeps the determining number")
_register("Thm4.3", "corona", "corona-pairs:(path:3),(complete:2)",
          "corona cost bound when the label counts agree")
_register("CoronaDegree", "corona", f"corona-pairs:{_THM41_PAIRS}",
          "no copy vertex shares a degree with a base vertex")
_register("HypercubeCost", "hypercube", "hypercube dims [3, 4]",
          "hypercube cost lies within the quoted logarithmic bounds (informative)")


def registered_checks() -> list[CheckDef]:
    return list(_REGISTRY.values())


def run_suite(ids: Sequence[str] | None = None, corpus_override: str | None = None,
              budget: int | None = None, jobs: int = 1) -> list[TheoremReport]:
    """Run the selected checks (default: all) and return their reports."""
    if ids is None:
        ids = list(_REGISTRY)
    for check in ids:
        if check not in _REGISTRY:
            raise UnknownCheckError(f"unknown check id {check!r}")
    budget_cap = budget if budget is not None else DEFAULT_NODE_BUDGET
    reports: dict[str, TheoremReport] = {}

    bound_ids = [c for c in ids if _REGISTRY[c].kind == "bound"]
    if bound_ids:
        spec = corpus_override or _REGISTRY[bound_ids[0]].default_corpus
        for rep in _run_bound_checks(bound_ids, spec, budget_cap, jobs):
            reports[rep.theorem_id] = rep

    friendship_ids = [c for c in ids if _REGISTRY[c].kind == "friendship"]
    if friendship_ids:
        vals = _FriendshipValues(budget_cap)
        runners = {"Thm3.1": _run_thm31, "Rem3.2": _run_rem32, "Thm3.3": _run_thm33,
                   "Thm3.4": _run_thm34, "Thm2.8": _run_thm28}
        for check in friendship_ids:
            spec = corpus_override or _REGISTRY[check].default_corpus
            reports[check] = runners[check](spec, vals)

    for check in ids:
        kind = _REGISTRY[check].kind
        if kind in ("bound", "friendship"):
            continue
        spec = corpus_override or _REGISTRY[check].default_corpus
        if check == "Thm4.1":
            reports[check] = _run_thm41(spec, budget_cap)
        elif check == "Thm4.2":
            reports[check] = _run_thm42(spec, budget_cap)
        elif check == "Thm4.3":
            reports[check] = _run_thm43(spec, budget_cap)
        elif check == "CoronaDegree":
            reports[check] = _run_corona_degree(spec)
        elif check == "HypercubeCost":
            if corpus_override is not None:
                raise CorpusError("the hypercube check has a fixed corpus")
            reports[check] = _run_hypercube(budget_cap)
    return [reports[c] for c in ids]


def run_check(theorem_id: str, corpus_spec: str | None = None,
              budget: int | None = None, jobs: int = 1) -> TheoremReport:
    """Run one registered check over its default or the given corpus."""
    return run_suite([theorem_id], corpus_override=corpus_spec,
                     budget=budget, jobs=jobs)[0]
