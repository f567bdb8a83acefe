"""Machine-checked claims over graph corpora, with replayable reports.

Each registered check runs one exact statement against a corpus and reports
one of: ``verified``, ``counterexample`` (with a replayable payload),
``hypothesis-never-met`` (the gate of a conditional statement never held,
which is deliberately not a pass), or ``budget-exceeded``.

A check is one registry entry that carries its callable.  The corpus kind
picks the loop that calls it: bound checks get one verdict per graph of a
shared corpus pass, friendship checks get the parsed range of n, and corona
checks get one verdict per (G, H) pair.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple, Sequence

from . import families
from .aut import (AutContext, Budget, BudgetExceededError, DEFAULT_NODE_BUDGET,
                  brute_force_automorphisms, enumerate_elements, labeling_colors)
from .graphs import (FamilySpec, FamilySpecError, Graph, Graph6Error, corona,
                     emit_graph6, friendship, from_edge_list, hypercube,
                     induced_subgraph, parse_family_spec, parse_graph6,
                     split_corona_args)
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
        return dataclasses.asdict(self)


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

def _connected_exact(n: int) -> Iterator[Graph]:
    """Every labeled connected graph on exactly n vertices, by edge subset."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = from_edge_list(n, edges)
        if g.is_connected():
            yield g


def _friendship_range(text: str) -> tuple[int, int]:
    """The bounds of ``A..B`` (or ``A``), a range of friendship orders n >= 2."""
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise CorpusError(f"bad friendship range {text!r}") from None
    if b < a:
        raise CorpusError(f"empty friendship range {text!r}")
    if a < 2:
        raise CorpusError(f"friendship graphs start at n=2, got {a}")
    return a, b


def _corona_pairs(text: str) -> list[tuple[FamilySpec, FamilySpec, Graph, Graph, Graph]]:
    """Parse ';'-separated pairs of parenthesized family specs and build each
    pair: (G spec, H spec, G, H, G∘H)."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            gs, hs = (parse_family_spec(part) for part in split_corona_args(chunk))
            g, h = gs.build(), hs.build()
        except FamilySpecError as exc:
            raise CorpusError(f"bad corona pair {chunk!r}: {exc}") from exc
        pairs.append((gs, hs, g, h, corona(g, h)))
    if not pairs:
        raise CorpusError(f"no corona pairs in {text!r}")
    return pairs


def _corpus_rest(corpus_spec: str, kind: str) -> str:
    """The part after ``kind:`` of a corpus spec a check needs to be of ``kind``."""
    got, _, rest = corpus_spec.partition(":")
    if got.strip() != kind:
        raise CorpusError(f"check needs a {kind} corpus, got {corpus_spec!r}")
    return rest.strip()


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
        a, b = _friendship_range(rest)
        for n in range(a, b + 1):
            yield friendship(n)
    elif kind == "corona-pairs":
        for *_, prod in _corona_pairs(rest):
            yield prod
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
# verdicts and their aggregation
# ---------------------------------------------------------------------------

# (hypothesis met, outcome, payload); outcome is "ok", "fail", "budget" or
# "widened" (Thm1.1 verified through its constructive fallback)
Verdict = tuple[bool, str, dict | None]

_OK: Verdict = (True, "ok", None)
_UNMET: Verdict = (False, "ok", None)
# a search outside the bound pass ran out of budget, so no hypothesis is known to hold
_BUDGET: Verdict = (False, "budget", None)


def _fail(g6: str, reason: str, **extra) -> Verdict:
    payload = {"graph6": g6, "reason": reason}
    payload.update(extra)
    return (True, "fail", payload)


def _aggregate(theorem_id: str, corpus_desc: str, verdicts: list[Verdict],
               checked: int, notes: str | None = None) -> TheoremReport:
    hyp = sum(1 for h, _, _ in verdicts if h)
    fail = next((v for v in verdicts if v[1] == "fail"), None)
    if fail is not None:
        return TheoremReport(theorem_id, corpus_desc, checked, hyp,
                             "counterexample", fail[2], notes)
    if any(v[1] == "budget" for v in verdicts):
        return TheoremReport(theorem_id, corpus_desc, checked, hyp,
                             "budget-exceeded", None, notes)
    widened = sum(1 for v in verdicts if v[1] == "widened")
    if widened:
        extra = (f"on {widened} graph(s) no minimum determining set qualified; "
                 f"verified through a larger constructive witness set")
        notes = f"{notes}; {extra}" if notes else extra
    if hyp == 0:
        return TheoremReport(theorem_id, corpus_desc, checked, 0,
                             "hypothesis-never-met", None, notes)
    return TheoremReport(theorem_id, corpus_desc, checked, hyp, "verified", None, notes)


# ---------------------------------------------------------------------------
# bound checks: one verdict per graph of a shared corpus pass
# ---------------------------------------------------------------------------

_ORACLE_SAMPLE_STRIDE = 100

# Per-run memo of Cor2.6's induced-subgraph results, keyed by the labeled
# adjacency ``adj_bits``: [context, distinguishing number, (cost, witness) or
# None until a graph needs it].  Entries are stored only once computed, so a
# budget overrun leaves nothing behind, and a later cost query charges the
# same context budget that one uncached call would.
_SubMemo = dict[tuple[int, ...], list]


class _Case(NamedTuple):
    """One corpus graph as every bound check sees it."""
    index: int
    graph: Graph
    ctx: AutContext
    rep: InvariantReport
    mindets: list[tuple[int, ...]]  # minimum determining sets, if a check needs them
    truncated: bool
    budget_cap: int
    memo: _SubMemo


def _check_prop22(c: _Case) -> Verdict:
    d, rho, n = c.rep.distinguishing_number, c.rep.cost, c.rep.n
    if rho * d > n:
        return _fail(c.rep.graph6, "cost exceeds n/d", D=d, rho=rho, n=n)
    if (d == 1) != (rho == n):
        return _fail(c.rep.graph6, "d=1 iff cost=n failed", D=d, rho=rho, n=n)
    return _OK


def _check_prop23(c: _Case) -> Verdict:
    d, rho, n = c.rep.distinguishing_number, c.rep.cost, c.rep.n
    if d >= 2 and 2 * rho > n:
        return _fail(c.rep.graph6, "cost exceeds n/2 with d >= 2", D=d, rho=rho, n=n)
    if 2 * rho == n and d != 2:
        return _fail(c.rep.graph6, "cost = n/2 without d = 2", D=d, rho=rho, n=n)
    return (d >= 2 or 2 * rho == n, "ok", None)


def _outside_largest_class(labeling: Sequence[int]) -> tuple[list[int], list[int]]:
    """The sorted vertices outside one largest class of a labeling (the
    largest label among the largest classes), and the sorted class sizes."""
    classes: dict[int, list[int]] = {}
    for v, lab in enumerate(labeling):
        classes.setdefault(lab, []).append(v)
    drop = max(classes, key=lambda lab: (len(classes[lab]), lab))
    union = sorted(v for lab, cls in classes.items() if lab != drop for v in cls)
    return union, sorted(len(cls) for cls in classes.values())


def _check_prop24(c: _Case) -> Verdict:
    # proof form: the witness classes minus one largest class determine the graph
    union, sizes = _outside_largest_class(c.rep.witness_labeling)
    if not c.ctx.pointwise_trivial(union):
        return _fail(c.rep.graph6, "union of all but the largest class does not determine",
                     witness=list(c.rep.witness_labeling))
    if c.rep.determining_number > sum(sizes[:-1]):
        return _fail(c.rep.graph6, "determining number exceeds the class-size bound",
                     det=c.rep.determining_number, class_sizes=sizes)
    return _OK


def _check_prop25(c: _Case) -> Verdict:
    rep = c.rep
    if rep.cost > rep.n - rep.determining_number:
        return _fail(rep.graph6, "cost exceeds n - determining number",
                     rho=rep.cost, det=rep.determining_number, n=rep.n)
    return _OK


def _check_cor27(c: _Case) -> Verdict:
    d, rho, det, n = (c.rep.distinguishing_number, c.rep.cost,
                      c.rep.determining_number, c.rep.n)
    if det <= rho and 2 * det > n:
        return _fail(c.rep.graph6, "det <= cost but det exceeds n/2", det=det, rho=rho, n=n)
    if d == 2 and 2 * det > n:
        return _fail(c.rep.graph6, "d = 2 but det exceeds n/2", det=det, n=n)
    return (det <= rho or d == 2, "ok", None)


def _check_thm11(c: _Case) -> Verdict:
    rep, ctx, g6 = c.rep, c.ctx, c.rep.graph6
    d = rep.distinguishing_number
    if d < 2:
        return _UNMET
    forward = False
    for A in c.mindets:
        got = subset_distinguishing_witness(ctx.graph, A, upto=d - 1, ctx=ctx)
        if got is None:
            continue  # this set needs d labels or more; fine for minimality
        sdn, labeling = got
        lift = labeling_colors(rep.n, labeling, sdn + 1)
        if not ctx.is_rigid(lift):
            return _fail(g6, "distinguishable determining set failed to lift",
                         det_set=list(A), labels=labeling)
        if sdn < d - 1:
            # lift is rigid with sdn+1 < d labels: contradicts minimality of d
            return _fail(g6, "rigid labeling with fewer labels than computed minimum",
                         det_set=list(A), labels=labeling, subset_labels=sdn)
        forward = True
    if forward:
        return _OK
    # No minimum set qualified.  The statement quantifies over all determining
    # sets, so fall back to the constructive witness: everything outside one
    # largest class of the cost witness, labeled by that witness.
    union, _ = _outside_largest_class(rep.witness_labeling)
    labeling = {v: rep.witness_labeling[v] for v in union}
    if not ctx.pointwise_trivial(union):
        return _fail(g6, "constructive witness set does not determine", det_set=union)
    if not subset_is_d_distinguishable(ctx.graph, union, labeling, ctx=ctx):
        return _fail(g6, "constructive witness set not (d-1)-distinguishable",
                     det_set=union, labels=labeling)
    return (True, "widened", {"graph6": g6, "probed": len(c.mindets), "truncated": c.truncated})


def _check_cor26(c: _Case) -> Verdict:
    rep, ctx = c.rep, c.ctx
    d = rep.distinguishing_number
    if d < 2:
        return _UNMET
    met = False
    for A in c.mindets:
        if not A:
            continue
        sub, index = induced_subgraph(ctx.graph, A)
        entry = c.memo.get(sub.adj_bits)
        if entry is None:
            sub_ctx = AutContext(sub, Budget(c.budget_cap))
            d_sub, _ = distinguishing_number(sub, ctx=sub_ctx)
            entry = c.memo[sub.adj_bits] = [sub_ctx, d_sub, None]
        sub_ctx, d_sub, found = entry
        if d_sub != d - 1:
            continue
        met = True
        if found is None:
            found = entry[2] = cost(sub, d=d_sub, ctx=sub_ctx)
        rho_sub, wit = found
        bound = min(rep.n - rep.determining_number, rho_sub)
        if rep.cost > bound:
            return _fail(rep.graph6, "cost exceeds induced-subgraph bound",
                         det_set=list(A), bound=bound, rho=rep.cost)
        back = {old: wit.labels[new] for old, new in index.items()}
        if not ctx.is_rigid(labeling_colors(rep.n, back, d)):
            return _fail(rep.graph6, "constructive labeling not distinguishing",
                         det_set=list(A))
    return (met, "ok", None)


def _check_engine_oracle(c: _Case) -> Verdict:
    g, ctx = c.graph, c.ctx
    if c.index % _ORACLE_SAMPLE_STRIDE != 0 or g.n > 8:
        return _UNMET
    expected = set(brute_force_automorphisms(g))
    got = set(enumerate_elements(ctx.full))
    if expected != got:
        return _fail(c.rep.graph6, "engine group differs from permutation filter",
                     engine_order=ctx.full.order, brute_order=len(expected))
    return _OK


def _graph_verdicts(index: int, g: Graph, ids: tuple[str, ...], budget_cap: int,
                    memo: _SubMemo) -> list[Verdict]:
    try:
        ctx = AutContext(g, Budget(budget_cap))
        rep = invariant_report(g, ctx=ctx)
        mindets, truncated = (minimum_determining_sets(g, ctx=ctx)
                              if "Thm1.1" in ids or "Cor2.6" in ids else ([], False))
        case = _Case(index, g, ctx, rep, mindets, truncated, budget_cap, memo)
        return [_REGISTRY[check].run(case) for check in ids]
    except BudgetExceededError:
        payload = {"graph6": emit_graph6(g)}
        return [(True, "budget", payload) for _ in ids]


# the Cor2.6 memo of one pool worker, set by the pool's initializer; each
# pool starts fresh workers, so it lives for one run
_worker_memo: _SubMemo | None = None


def _init_worker() -> None:
    global _worker_memo
    _worker_memo = {}


def _bound_worker(args: tuple[int, str, tuple[str, ...], int]) -> list[Verdict]:
    index, g6, ids, budget_cap = args
    return _graph_verdicts(index, parse_graph6(g6), ids, budget_cap, _worker_memo)


def _run_bound_checks(ids: Sequence[str], corpus_spec: str, budget_cap: int,
                      jobs: int) -> list[TheoremReport]:
    ids = tuple(ids)
    per_check: list[list[Verdict]] = [[] for _ in ids]
    checked = 0
    if jobs > 1:
        tasks = ((i, emit_graph6(g), ids, budget_cap)
                 for i, g in enumerate(corpus(corpus_spec)))
        with multiprocessing.Pool(jobs, initializer=_init_worker) as pool:
            for row in pool.imap(_bound_worker, tasks, chunksize=64):
                checked += 1
                for verdicts, v in zip(per_check, row):
                    verdicts.append(v)
    else:
        memo: _SubMemo = {}
        for i, g in enumerate(corpus(corpus_spec)):
            checked += 1
            for verdicts, v in zip(per_check, _graph_verdicts(i, g, ids, budget_cap, memo)):
                verdicts.append(v)
    return [_aggregate(check, corpus_spec, verdicts, checked)
            for check, verdicts in zip(ids, per_check)]


# ---------------------------------------------------------------------------
# friendship checks: one call per range of n
# ---------------------------------------------------------------------------

def _friendship_values(budget_cap: int) -> SimpleNamespace:
    """Search-computed friendship invariants, memoized for one run: one
    context, and so one budget, per n; d, rho and det are computed on first use."""
    ctx = functools.cache(lambda n: AutContext(friendship(n), Budget(budget_cap)))
    d = functools.cache(lambda n: distinguishing_number(ctx(n).graph, ctx=ctx(n))[0])
    rho = functools.cache(lambda n: cost(ctx(n).graph, d=d(n), ctx=ctx(n))[0])
    det = functools.cache(lambda n: determining_number(ctx(n).graph, ctx=ctx(n)))
    return SimpleNamespace(ctx=ctx, d=d, rho=rho, det=det)


FriendshipResult = tuple[list[Verdict], str | None]


def _search_matches_formula(a: int, b: int, search: Callable[[int], int],
                            formula: Callable[[int], int], reason: str) -> FriendshipResult:
    verdicts: list[Verdict] = []
    for n in range(a, b + 1):
        want = formula(n)
        got = search(n)
        verdicts.append(_OK if got == want else
                        _fail(emit_graph6(friendship(n)), reason, n=n, computed=got, formula=want))
    return verdicts, None


def _thm31(a: int, b: int, vals: SimpleNamespace) -> FriendshipResult:
    return _search_matches_formula(a, b, vals.d, families.friendship_distinguishing_number,
                                   "distinguishing number mismatch")


def _thm33(a: int, b: int, vals: SimpleNamespace) -> FriendshipResult:
    return _search_matches_formula(a, b, vals.rho, families.friendship_cost, "cost mismatch")


def _rem32(a: int, b: int, vals: SimpleNamespace) -> FriendshipResult:
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
            verdicts.append(_fail(emit_graph6(friendship(first)),
                                  "first n at this label count mismatches the threshold",
                                  labels=j, computed_first=first, formula=want))
        elif computed[want + j - 1] != j + 1:
            verdicts.append(_fail(emit_graph6(friendship(want + j - 1)),
                                  "label count at threshold + (j-1) is not j+1",
                                  labels=j, computed=computed[want + j - 1]))
        else:
            verdicts.append(_OK)
    return verdicts, f"levels checked: {levels}"


def _thm34(a: int, b: int, vals: SimpleNamespace) -> FriendshipResult:
    verdicts: list[Verdict] = []
    for n in range(a, b + 1):
        det, _ = vals.det(n)
        one_per_triangle = tuple(range(1, 2 * n, 2))
        if det != n:
            verdicts.append(_fail(emit_graph6(friendship(n)),
                                  "determining number differs from n", n=n, computed=det))
        elif not vals.ctx(n).pointwise_trivial(one_per_triangle):
            verdicts.append(_fail(emit_graph6(friendship(n)),
                                  "one-outer-vertex-per-triangle set does not determine",
                                  witness=list(one_per_triangle)))
        else:
            verdicts.append(_OK)
    return verdicts, None


def _thm28(a: int, b: int, vals: SimpleNamespace) -> FriendshipResult:
    gaps = {n: families.friendship_gap(n) for n in range(a, b + 1)}
    achieved = sorted(set(gaps.values()))
    predicted = sorted({families.friendship_threshold(families.friendship_distinguishing_number(n)) - 1
                        for n in range(a, b + 1)})
    verdicts: list[Verdict] = []
    if achieved != predicted:
        verdicts.append(_fail("", "gap set differs from threshold-1 prediction",
                              achieved=achieved, predicted=predicted))
    for n in range(a, b + 1):
        # spot-check the closed form against full searches where cheap
        searched = abs(vals.det(n)[0] - vals.rho(n)) if n <= 4 else gaps[n]
        verdicts.append(_OK if searched == gaps[n] else
                        _fail(emit_graph6(friendship(n)), "searched gap differs from closed form",
                              n=n, searched=searched, formula=gaps[n]))
    notes = (f"achieved gaps {achieved}: thresholds minus one, i.e. triangular numbers; "
             f"values between consecutive triangular numbers are not achieved by this family")
    return verdicts, notes


# ---------------------------------------------------------------------------
# corona checks: one verdict per (G, H) pair
# ---------------------------------------------------------------------------

def _thm41(gs: FamilySpec, hs: FamilySpec, g: Graph, h: Graph, prod: Graph,
           budget_cap: int) -> Verdict:
    if not (g.is_connected() and h.is_connected() and g.n >= 2 and h.n >= 2):
        return _UNMET
    det_g, det_h, det_prod = (determining_number(x, ctx=AutContext(x, Budget(budget_cap)))[0]
                              for x in (g, h, prod))
    want = families.corona_determining_number(det_g, g.n, det_h)
    if det_prod != want:
        return _fail(emit_graph6(prod), "corona determining mismatch",
                     pair=f"({gs.to_string()}),({hs.to_string()})",
                     computed=det_prod, formula=want)
    return _OK


def _thm42(gs: FamilySpec, hs: FamilySpec, g: Graph, h: Graph, prod: Graph,
           budget_cap: int) -> Verdict:
    if h.n != 1:
        raise CorpusError("pendant corona check needs the second factor to be complete:1")
    if not (g.is_connected() and g.n >= 2):
        return _UNMET
    det_g, det_prod = (determining_number(x, ctx=AutContext(x, Budget(budget_cap)))[0]
                       for x in (g, prod))
    if det_prod != families.corona_pendant_determining_number(det_g):
        return _fail(emit_graph6(prod), "pendant corona determining mismatch",
                     pair=gs.to_string(), computed=det_prod, base=det_g)
    return _OK


def _thm43(gs: FamilySpec, hs: FamilySpec, g: Graph, h: Graph, prod: Graph,
           budget_cap: int) -> Verdict:
    if not (g.is_connected() and h.is_connected() and g.n >= 2 and h.n >= 2):
        return _UNMET
    gctx = AutContext(g, Budget(budget_cap))
    hctx = AutContext(h, Budget(budget_cap))
    pctx = AutContext(prod, Budget(budget_cap))
    d_g = distinguishing_number(g, ctx=gctx)[0]
    d_h = distinguishing_number(h, ctx=hctx)[0]
    d_prod = distinguishing_number(prod, ctx=pctx)[0]
    if d_prod != max(d_g, d_h):
        return _UNMET  # bound not applicable
    rho_g = cost(g, d=d_g, ctx=gctx)[0]
    rho_h = cost(h, d=d_h, ctx=hctx)[0]
    rho_prod = cost(prod, d=d_prod, ctx=pctx)[0]
    bound = families.corona_cost_bound(rho_g, g.n, rho_h)
    if rho_prod > bound:
        return _fail(emit_graph6(prod), "corona cost bound violated",
                     pair=f"({gs.to_string()}),({hs.to_string()})",
                     computed=rho_prod, bound=bound)
    return _OK


def _corona_verdict(run: Callable, pair: tuple, budget_cap: int) -> Verdict:
    """One pair's verdict; a pair that runs out of budget keeps the verdicts
    of the other pairs, a counterexample among them included."""
    try:
        return run(*pair, budget_cap)
    except BudgetExceededError:
        return _BUDGET


def _corona_degree(gs: FamilySpec, hs: FamilySpec, g: Graph, h: Graph, prod: Graph,
                   budget_cap: int) -> Verdict:
    if not (g.is_connected() and h.is_connected() and g.n >= 2):
        return _UNMET
    base_degs = {prod.degree(v) for v in range(g.n)}
    copy_degs = {prod.degree(v) for v in range(g.n, prod.n)}
    if base_degs & copy_degs:
        return _fail(emit_graph6(prod), "copy vertex shares a degree with a base vertex",
                     overlap=sorted(base_degs & copy_degs))
    return _OK


# ---------------------------------------------------------------------------
# hypercube cost sanity (informative, fixed corpus)
# ---------------------------------------------------------------------------

_HYPERCUBE_DIMS = (3, 4)


def _run_hypercube(budget_cap: int) -> tuple[list[Verdict], str]:
    verdicts: list[Verdict] = []
    values = {}
    for k in _HYPERCUBE_DIMS:
        g = hypercube(k)
        ctx = AutContext(g, Budget(budget_cap))
        d, _ = distinguishing_number(g, ctx=ctx)
        rho, _ = cost(g, d=d, ctx=ctx)
        values[k] = rho
        ceil_log = (k - 1).bit_length()
        lo, hi = ceil_log - 1, ceil_log + 1
        verdicts.append(_OK if lo <= rho <= hi else
                        _fail(emit_graph6(g), "cost outside the quoted log bounds",
                              dim=k, rho=rho, low=lo, high=hi))
    return verdicts, f"computed costs {values} (informative check)"


# ---------------------------------------------------------------------------
# registry and entry points
# ---------------------------------------------------------------------------

_THM41_PAIRS = "(path:3),(complete:2);(path:2),(complete:2);(path:3),(path:2)"
_THM42_PAIRS = "(path:3),(complete:1);(cycle:4),(complete:1);(complete:3),(complete:1)"


@dataclass(frozen=True)
class CheckDef:
    """A registered check; ``kind`` names the loop that calls ``run``: "bound"
    (per graph), "friendship" (per range), "corona" (per pair), "hypercube" (once)."""
    theorem_id: str
    kind: str
    default_corpus: str
    description: str
    run: Callable = dataclasses.field(repr=False, compare=False)


_BOUND_CORPUS = "all-connected:<=6"
_REGISTRY: dict[str, CheckDef] = {c.theorem_id: c for c in (
    CheckDef("Thm1.1", "bound", _BOUND_CORPUS, "a graph needs d labels iff some determining "
             "set is (d-1)-subset-distinguishable", _check_thm11),
    CheckDef("Prop2.2", "bound", _BOUND_CORPUS, "cost <= n/d, and d = 1 iff cost = n",
             _check_prop22),
    CheckDef("Prop2.3", "bound", _BOUND_CORPUS,
             "d >= 2 gives cost <= n/2; cost = n/2 forces d = 2", _check_prop23),
    CheckDef("Prop2.4", "bound", _BOUND_CORPUS,
             "witness classes minus the largest form a determining set", _check_prop24),
    CheckDef("Prop2.5", "bound", _BOUND_CORPUS, "cost <= n - determining number",
             _check_prop25),
    CheckDef("Cor2.6", "bound", _BOUND_CORPUS, "cost <= min(n - det, cost of the induced "
             "subgraph on a qualifying determining set)", _check_cor26),
    CheckDef("Cor2.7", "bound", _BOUND_CORPUS, "det <= cost or d = 2 forces det <= n/2",
             _check_cor27),
    CheckDef("EngineOracle", "bound", _BOUND_CORPUS, "engine group equals the brute-force "
             "permutation filter on a 1% sample", _check_engine_oracle),
    CheckDef("Thm3.1", "friendship", "friendship:2..8",
             "friendship distinguishing numbers match the closed form", _thm31),
    CheckDef("Rem3.2", "friendship", "friendship:2..7", "label-count thresholds of the "
             "friendship family match the closed form", _rem32),
    CheckDef("Thm3.3", "friendship", "friendship:2..6", "friendship costs match offset + 1",
             _thm33),
    CheckDef("Thm3.4", "friendship", "friendship:2..6",
             "friendship determining number equals the triangle count", _thm34),
    CheckDef("Thm2.8", "friendship", "friendship:2..12",
             "achieved |det - cost| gap set for the friendship family", _thm28),
    CheckDef("Thm4.1", "corona", f"corona-pairs:{_THM41_PAIRS}",
             "corona determining number = det(G) + n*det(H)", _thm41),
    CheckDef("Thm4.2", "corona", f"corona-pairs:{_THM42_PAIRS}",
             "pendant corona keeps the determining number", _thm42),
    CheckDef("Thm4.3", "corona", "corona-pairs:(path:3),(complete:2)",
             "corona cost bound when the label counts agree", _thm43),
    CheckDef("CoronaDegree", "corona", f"corona-pairs:{_THM41_PAIRS}",
             "no copy vertex shares a degree with a base vertex", _corona_degree),
    CheckDef("HypercubeCost", "hypercube", f"hypercube dims {list(_HYPERCUBE_DIMS)}",
             "hypercube cost lies within the quoted logarithmic bounds (informative)",
             _run_hypercube),
)}


def registered_checks() -> list[CheckDef]:
    return list(_REGISTRY.values())


def run_suite(ids: Sequence[str] | None = None, corpus_override: str | None = None,
              budget: int | None = None, jobs: int = 1) -> list[TheoremReport]:
    """Run the selected checks (default: all) and return their reports.

    The bound checks share one corpus pass and run first, then the
    friendship checks, then the rest, each group in the order given.  A
    check whose search runs out of budget reports ``budget-exceeded``, and
    the checks after it still run."""
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
        reports.update(zip(bound_ids, _run_bound_checks(bound_ids, spec, budget_cap, jobs)))

    vals = _friendship_values(budget_cap)
    rest = [c for c in ids if _REGISTRY[c].kind != "bound"]
    for entry in sorted((_REGISTRY[c] for c in rest), key=lambda e: e.kind != "friendship"):
        spec = corpus_override or entry.default_corpus
        if entry.kind == "hypercube" and corpus_override is not None:
            raise CorpusError("the hypercube check has a fixed corpus")
        try:
            if entry.kind == "friendship":
                a, b = _friendship_range(_corpus_rest(spec, "friendship"))
                checked = b - a + 1
                verdicts, notes = entry.run(a, b, vals)
            elif entry.kind == "corona":
                pairs = _corona_pairs(_corpus_rest(spec, "corona-pairs"))
                checked, notes = len(pairs), None
                verdicts = [_corona_verdict(entry.run, pair, budget_cap) for pair in pairs]
            else:
                checked = len(_HYPERCUBE_DIMS)
                verdicts, notes = entry.run(budget_cap)
        except BudgetExceededError:
            verdicts, notes = [_BUDGET], None
        report = _aggregate(entry.theorem_id, spec, verdicts, checked, notes)
        report.informative = entry.kind == "hypercube"
        reports[entry.theorem_id] = report
    return [reports[c] for c in ids]


def run_check(theorem_id: str, corpus_spec: str | None = None,
              budget: int | None = None, jobs: int = 1) -> TheoremReport:
    """Run one registered check over its default or the given corpus."""
    return run_suite([theorem_id], corpus_override=corpus_spec,
                     budget=budget, jobs=jobs)[0]
