"""Machine-checked claims over graph corpora, with replayable reports.

Each registered check runs one exact statement against a corpus and reports
one of: ``verified``, ``counterexample`` (with a replayable payload),
``hypothesis-never-met`` (the gate of a conditional statement never held,
which is deliberately not a pass), or ``budget-exceeded``.

A check is one registry entry that carries its callable.  Bound checks get
one verdict per graph of a shared corpus pass.  Every other check is called
once with the items its corpus kind parses to (a range of friendship orders,
(G, H) pairs, hypercube dimensions), all parsed before the first search; the
per-item ones judge each item on its own.  Each check's verdicts are
tallied as they come: the hypothesis count, the first counterexample, any
budget overrun and the count of widened verdicts.  Over ``all-connected``,
which holds every relabeling, the bound pass streams edge masks, not
graphs: the S_n-orbit of a mask is its graph's isomorphism class, each
orbit is marked whole on first sight, and a graph is built only for the
first mask of a class, for an EngineOracle sample, or for a copy of a class
that has no verdict row yet.  Each class is judged once per run and hands
its verdicts to every later copy, which searches nothing; with ``--jobs``
this process streams and marks, and the pool judges the classes and
samples.  Over any other corpus each graph is judged on its own.  Every
other search (Cor2.6's induced subgraphs, the friendship graphs, corona
factors and products, hypercubes) goes through one per-run memo that keeps
one context, and so one budget, per labeled graph.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import multiprocessing
import os
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import families
from .aut import (AutContext, Budget, BudgetExceededError, DEFAULT_NODE_BUDGET, PermGroup,
                  automorphisms, brute_force_automorphisms, byte_tables, enumerate_elements,
                  labeling_colors)
from .graphs import (MAX_FAMILY_ORDER, FamilySpec, FamilySpecError, Graph, Graph6Error,
                     corona, emit_graph6, friendship, from_edge_list, hypercube,
                     induced_subgraph, parse_family_spec, parse_graph6)
from .invariants import (InvariantReport, _distinguishing, _minimum_bases, _subset_witness,
                         cost, determining_number, invariant_report)


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

@functools.cache
def _pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The vertex pairs of order n in edge-mask order: bit i is pair i."""
    return tuple(itertools.combinations(range(n), 2))


def _mask_graph(n: int, mask: int) -> Graph:
    """The graph of order n whose edges are the pairs set in ``mask``."""
    return from_edge_list(n, [p for i, p in enumerate(_pairs(n)) if mask >> i & 1])


# the table value of every mask of a disconnected orbit
_DISCONNECTED = 0xFFFF


class _OrbitMarks:
    """The isomorphism classes of one order n <= 7, by edge mask.

    The S_n-orbit of an edge mask (``_pairs`` order) is its graph's
    isomorphism class.  ``table[mask]`` is 0 until the orbit of ``mask`` is
    met, then 1 plus the orbit's slot, or ``_DISCONNECTED``: connectivity is
    a class invariant, so one graph tells it for the whole orbit.  A new
    orbit is marked whole by breadth-first search under (0 1) and
    (0 1 ... n-1), which generate S_n.  Per connected slot, ``sizes`` holds
    the orbit's size and ``rows`` the class's verdict row with the index of
    the graph that computed it, None until the class has been judged in
    full, with no budget overrun (notes/decisions.md)."""

    def __init__(self, n: int):
        pairs = _pairs(n)
        bit = {p: 1 << i for i, p in enumerate(pairs)}
        self.n = n
        self.table = array("H", [0]) * (1 << len(pairs))
        self.sizes: list[int] = []
        self.rows: list[tuple[int, list[Verdict]] | None] = []
        gens = ((1, 0, *range(2, n)), (*range(1, n), 0)) if n > 1 else ()
        # per generator and per byte of a mask, the image of each byte value;
        # the at most 21 bits are padded to three bytes for _mark's lookups
        self.moves = [byte_tables([bit[tuple(sorted((s[u], s[v])))] for u, v in pairs]
                                  + [0] * (24 - len(pairs))) for s in gens]

    def _mark(self, mask: int, value: int) -> int:
        """Mark the orbit of ``mask`` with ``value``; returns its size."""
        table = self.table
        table[mask] = value
        frontier = [mask]
        for seen in frontier:
            for lo, mid, hi in self.moves:
                image = lo[seen & 255] | mid[seen >> 8 & 255] | hi[seen >> 16]
                if not table[image]:
                    table[image] = value
                    frontier.append(image)
        return len(frontier)

    def stream(self) -> Iterator[tuple[int, int, Graph | None]]:
        """Each connected mask in index order with its slot, and the graph of
        each newly met orbit's first mask (None for every later mask)."""
        table = self.table
        for mask in range(len(table)):
            slot = table[mask]
            if not slot:
                g = _mask_graph(self.n, mask)
                if not g.is_connected():
                    self._mark(mask, _DISCONNECTED)
                    continue
                self.rows.append(None)
                self.sizes.append(self._mark(mask, len(self.rows)))
                yield mask, len(self.rows) - 1, g
            elif slot != _DISCONNECTED:
                yield mask, slot - 1, None


def _connected_exact(n: int) -> Iterator[Graph]:
    """Every labeled connected graph on exactly n <= 7 vertices, by edge mask."""
    for mask, _, g in _OrbitMarks(n).stream():
        yield g or _mask_graph(n, mask)


def _connected_orders(text: str) -> range:
    """The orders of ``<=N`` (1 to N) or ``N`` (N alone), 1 <= N <= 7."""
    upto = text.startswith("<=")
    try:
        n = int(text[2:] if upto else text)
    except ValueError:
        raise CorpusError(f"bad order {text!r}") from None
    if n < 1:
        raise CorpusError(f"order must be >= 1, got {n}")
    if n > 7:  # order 8 alone has 251,548,592 labeled connected graphs
        raise CorpusError(f"all-connected order must be <= 7, got {n}; use a file: corpus")
    return range(1 if upto else n, n + 1)


def _friendship_range(text: str) -> range:
    """The friendship orders of ``A..B`` (or ``A``), n >= 2 and 2n + 1 within the cap."""
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
    if 2 * b + 1 > MAX_FAMILY_ORDER:
        raise CorpusError(f"friendship:{b} has order above the cap of {MAX_FAMILY_ORDER}")
    return range(a, b + 1)


_Pair = tuple[FamilySpec, FamilySpec, Graph, Graph, Graph]


def _corona_pairs(text: str) -> list[_Pair]:
    """Parse ';'-separated pairs of parenthesized family specs and build each
    pair: (G spec, H spec, G, H, G∘H)."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            spec = parse_family_spec(f"corona:{chunk}")
            if spec.order() > MAX_FAMILY_ORDER:  # checked before anything is built
                raise CorpusError(f"{spec.to_string()} has order above the cap of "
                                  f"{MAX_FAMILY_ORDER}")
            gs, hs = spec.parts
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


def _graph6_lines(path: str) -> list[str]:
    """The graph6 lines of a corpus file, each parsed once to check it, so a
    malformed line fails before the first graph is searched."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh.read().splitlines()]
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read corpus file {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        if line and line != ">>graph6<<":
            try:
                parse_graph6(line)
            except Graph6Error as exc:
                raise CorpusError(f"corpus file {path!r}, line {lineno}: {exc}") from exc
    return [line for line in lines if line and line != ">>graph6<<"]


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
        for n in _connected_orders(rest):
            yield from _connected_exact(n)
    elif kind == "friendship":
        for n in _friendship_range(rest):
            yield friendship(n)
    elif kind == "corona-pairs":
        for *_, prod in _corona_pairs(rest):
            yield prod
    elif kind == "file":
        yield from map(parse_graph6, _graph6_lines(rest))
    else:
        raise CorpusError(f"unknown corpus kind {kind!r}")


# ---------------------------------------------------------------------------
# verdicts and their aggregation
# ---------------------------------------------------------------------------

# (hypothesis met, outcome, payload); outcome is "ok", "fail", "budget" or
# "widened" (Thm1.1 verified through its constructive fallback), and only a
# "fail" carries a payload
Verdict = tuple[bool, str, dict | None]

_OK: Verdict = (True, "ok", None)
_UNMET: Verdict = (False, "ok", None)
# a search ran out of budget, so no hypothesis is known to hold
_BUDGET: Verdict = (False, "budget", None)


def _fail(g6: str, reason: str, **extra) -> Verdict:
    payload = {"graph6": g6, "reason": reason}
    payload.update(extra)
    return (True, "fail", payload)


def _judged(run: Callable[..., Verdict], *args) -> Verdict:
    """The verdict of one item, or of the EngineOracle check of a graph whose
    other verdicts are reused.  An item that runs out of budget keeps the
    verdicts of the others, a counterexample among them included."""
    try:
        return run(*args)
    except BudgetExceededError:
        return _BUDGET


class _Tally:
    """One check's verdicts so far: how many met the hypothesis, the first
    counterexample by corpus index, whether a budget ran out, and how many
    were verified through Thm1.1's constructive fallback."""

    def __init__(self):
        self.hyp = self.widened = 0
        self.fail: tuple[int, dict] | None = None
        self.budget = False

    def add(self, verdict: Verdict, index: int, times: int = 1) -> None:
        """Count ``verdict`` for ``times`` graphs, the first at ``index``."""
        met, outcome, payload = verdict
        self.hyp += met * times
        if outcome == "fail" and (self.fail is None or index < self.fail[0]):
            self.fail = (index, payload)
        self.budget |= outcome == "budget"
        self.widened += (outcome == "widened") * times

    @classmethod
    def of(cls, verdicts: Sequence[Verdict]) -> _Tally:
        tally = cls()
        for index, v in enumerate(verdicts):
            tally.add(v, index)
        return tally


def _aggregate(theorem_id: str, corpus_desc: str, tally: _Tally, checked: int,
               notes: str | None, informative: bool) -> TheoremReport:
    if tally.fail is not None:
        status, payload = "counterexample", tally.fail[1]
    elif tally.budget:
        status, payload = "budget-exceeded", None
    else:
        if tally.widened:
            extra = (f"on {tally.widened} graph(s) no minimum determining set qualified; "
                     f"verified through a larger constructive witness set")
            notes = f"{notes}; {extra}" if notes else extra
        status, payload = ("verified" if tally.hyp else "hypothesis-never-met"), None
    return TheoremReport(theorem_id, corpus_desc, checked, tally.hyp, status, payload, notes,
                         informative)


# ---------------------------------------------------------------------------
# per-run facts: one memo for the searches of every check
# ---------------------------------------------------------------------------

class _Facts:
    """What one run has computed, kept for that run only: per labeled graph
    (``Graph`` is hashable) one context, and so one budget, with D,
    (rho, witness) and (det, witness) computed on first use.  A value is
    stored only once it has been computed, so a budget overrun leaves nothing
    behind; every later query on that graph charges the same budget."""

    def __init__(self, budget_cap: int):
        self.budget_cap = budget_cap
        # the caches close over each other, not over self, so a run's facts
        # are freed by reference counting as soon as the run returns
        ctx = self.ctx = functools.cache(lambda g: AutContext(g, Budget(budget_cap)))
        d = self.d = functools.cache(lambda g: _distinguishing(ctx(g), witness=False)[0])
        self.rho = functools.cache(lambda g: cost(g, d=d(g), ctx=ctx(g)))
        self.det = functools.cache(lambda g: determining_number(g, ctx=ctx(g)))


# ---------------------------------------------------------------------------
# bound checks: one verdict per graph of a shared corpus pass
# ---------------------------------------------------------------------------

_ORACLE_SAMPLE_STRIDE = 100


class _Case(NamedTuple):
    """One corpus graph as every bound check sees it."""
    index: int
    ctx: AutContext
    rep: InvariantReport
    # the det base search's leaves, if a check needs them, in place of every
    # minimum determining set (notes/decisions.md, "Minimum determining sets from the leaves")
    leaves: list[tuple[int, ...]]
    facts: _Facts


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
    sizes = Counter(labeling)
    drop = max(sizes, key=lambda lab: (sizes[lab], lab))
    return [v for v, lab in enumerate(labeling) if lab != drop], sorted(sizes.values())


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
    for A in c.leaves:
        # A is a minimum determining set, so it determines
        got = _subset_witness(ctx, A, d - 1, determines=True)
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
    # union determines, so its labeling is subset-distinguishing iff rigid
    if not ctx.is_rigid(labeling_colors(rep.n, labeling, 0)):
        return _fail(g6, "constructive witness set not (d-1)-distinguishable",
                     det_set=union, labels=labeling)
    return (True, "widened", None)


def _check_cor26(c: _Case) -> Verdict:
    rep, ctx = c.rep, c.ctx
    d = rep.distinguishing_number
    if d < 2:
        return _UNMET
    met = False
    for A in c.leaves:
        sub, index = induced_subgraph(ctx.graph, A)
        if c.facts.d(sub) != d - 1:
            continue
        met = True
        rho_sub, wit = c.facts.rho(sub)
        bound = min(rep.n - rep.determining_number, rho_sub)
        if rep.cost > bound:
            return _fail(rep.graph6, "cost exceeds induced-subgraph bound",
                         det_set=list(A), bound=bound, rho=rep.cost)
        back = {old: wit[new] for old, new in index.items()}
        if not ctx.is_rigid(labeling_colors(rep.n, back, d)):
            return _fail(rep.graph6, "constructive labeling not distinguishing",
                         det_set=list(A))
    return (met, "ok", None)


def _engine_oracle(index: int, g: Graph, group: Callable[[], PermGroup]) -> Verdict:
    """EngineOracle on the corpus graph at ``index``; ``group`` gives the
    engine's group of ``g`` and is called on the sampled indices only."""
    if index % _ORACLE_SAMPLE_STRIDE != 0 or g.n > 8:
        return _UNMET
    expected = set(brute_force_automorphisms(g))
    full = group()
    if expected != set(enumerate_elements(full)):
        return _fail(emit_graph6(g), "engine group differs from brute-force backtracking",
                     engine_order=full.order, brute_order=len(expected))
    return _OK


def _check_engine_oracle(c: _Case) -> Verdict:
    return _engine_oracle(c.index, c.ctx.graph, lambda: c.ctx.full)


def _verdicts(index: int, g: Graph, ids: tuple[str, ...], facts: _Facts,
              oracle_only: bool = False) -> list[Verdict]:
    """One verdict per check id for the corpus graph at ``index``; a budget
    overrun makes every verdict ``_BUDGET``.  With ``oracle_only``,
    EngineOracle's verdict alone, for a copy whose class has a row."""
    if oracle_only:
        group = functools.partial(automorphisms, g, budget=Budget(facts.budget_cap))
        return [_judged(_engine_oracle, index, g, group)]
    try:
        ctx = AutContext(g, Budget(facts.budget_cap))
        rep = invariant_report(g, ctx=ctx)
        leaves = list(_minimum_bases(ctx)) if "Thm1.1" in ids or "Cor2.6" in ids else []
        case = _Case(index, ctx, rep, leaves, facts)
        return [_REGISTRY[check].run(case) for check in ids]
    except BudgetExceededError:
        return [_BUDGET] * len(ids)


# a graph to judge: its corpus index, its class's slot in the orbit marks
# (None outside all-connected), the graph, and whether only EngineOracle is
# asked; judged, it becomes (index, slot, oracle only, verdicts)
_Job = tuple[int, int | None, Graph, bool]
_Judged = tuple[int, int | None, bool, list[Verdict]]

# the per-run facts of one pool worker, set by the pool's initializer; each
# pool starts fresh workers, so they live for one run
_worker_facts: _Facts | None = None


def _init_worker(budget_cap: int) -> None:
    global _worker_facts
    _worker_facts = _Facts(budget_cap)


def _bound_worker(task: tuple[int, int | None, str, tuple[str, ...], bool]) -> _Judged:
    index, slot, g6, ids, oracle_only = task
    g = parse_graph6(g6)
    return index, slot, oracle_only, _verdicts(index, g, ids, _worker_facts, oracle_only)


@contextlib.contextmanager
def _judging(ids: tuple[str, ...], facts: _Facts,
             jobs: int) -> Iterator[Callable[[Iterable[_Job]], Iterable[_Judged]]]:
    """A function that judges jobs and yields them in order: in this process,
    or in a pool of at most one worker per CPU that is sent graph6 text."""
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1:
        yield lambda todo: ((i, slot, only, _verdicts(i, g, ids, facts, only))
                            for i, slot, g, only in todo)
        return
    with multiprocessing.Pool(workers, initializer=_init_worker,
                              initargs=(facts.budget_cap,)) as pool:
        yield lambda todo: pool.imap(
            _bound_worker, [(i, slot, emit_graph6(g), ids, only) for i, slot, g, only in todo],
            chunksize=8)


def _order_pass(n: int, start: int, ids: tuple[str, ...], facts: _Facts,
                tallies: list[_Tally], judge: Callable[[Iterable[_Job]], Iterable[_Judged]]) -> int:
    """Tally the verdicts of the labeled connected graphs of order n, the
    first at corpus index ``start``; returns how many there are.

    This process streams the edge masks and marks their orbits; ``judge``
    judges the first graph of each class and EngineOracle's sampled copies.
    A class judged in full hands its row to every later copy.  The later
    copies of any other class are then judged here in index order, until
    one of them stores a row."""
    marks = _OrbitMarks(n)
    eo = ids.index("EngineOracle") if "EngineOracle" in ids else None

    def sampled(index: int) -> bool:
        return eo is not None and index % _ORACLE_SAMPLE_STRIDE == 0

    def jobs() -> Iterator[_Job]:
        for index, (mask, slot, g) in enumerate(marks.stream(), start):
            if g is not None:
                yield index, slot, g, False
            elif sampled(index):
                yield index, slot, _mask_graph(n, mask), True

    def take(index: int, slot: int, oracle_only: bool, verdicts: list[Verdict]) -> None:
        if not oracle_only:
            for tally, v in zip(tallies, verdicts):
                tally.add(v, index)
            if _BUDGET not in verdicts:  # an overrun makes every verdict _BUDGET
                marks.rows[slot] = (index, verdicts)
        elif marks.rows[slot] is not None:  # otherwise the copy is judged in full below
            tallies[eo].add(verdicts[0], index)

    for judged in judge(jobs()):
        take(*judged)
    copies = [size - 1 for size in marks.sizes]
    pending = {slot for slot, row in enumerate(marks.rows) if row is None}
    if pending:
        met: set[int] = set()
        for index, (mask, slot, _) in enumerate(marks.stream(), start):
            if slot not in pending:
                continue
            if slot not in met:  # the class's first graph, judged above
                met.add(slot)
                copies[slot] = 0
            elif marks.rows[slot] is None:
                take(index, slot, False, _verdicts(index, _mask_graph(n, mask), ids, facts))
            else:
                copies[slot] += 1
                if sampled(index):
                    g = _mask_graph(n, mask)
                    take(index, slot, True, _verdicts(index, g, ids, facts, True))
    # every copy not judged on its own reuses its class's row; its
    # EngineOracle verdict is its own, tallied above or unmet
    for slot, row in enumerate(marks.rows):
        if row is not None and copies[slot]:
            first, verdicts = row
            for k, (tally, v) in enumerate(zip(tallies, verdicts)):
                if k != eo:
                    tally.add(v, first, copies[slot])
    return sum(marks.sizes)


def _run_bound_checks(ids: Sequence[str], corpus_spec: str, facts: _Facts,
                      jobs: int) -> tuple[list[_Tally], int]:
    """Per check id its tally over the corpus, and the number of graphs.
    Over ``all-connected`` each order's classes are judged once
    (``_order_pass``); over any other corpus each graph is judged on its own."""
    ids = tuple(ids)
    tallies = [_Tally() for _ in ids]
    kind, _, rest = corpus_spec.partition(":")
    orders = _connected_orders(rest.strip()) if kind.strip() == "all-connected" else None
    checked = 0
    with _judging(ids, facts, jobs) as judge:
        if orders is not None:
            for n in orders:
                checked += _order_pass(n, checked, ids, facts, tallies, judge)
            return tallies, checked
        for index, _, _, verdicts in judge((i, None, g, False)
                                           for i, g in enumerate(corpus(corpus_spec))):
            for tally, v in zip(tallies, verdicts):
                tally.add(v, index)
            checked += 1
    return tallies, checked


# ---------------------------------------------------------------------------
# checks over parsed items: friendship orders, corona pairs, hypercube dims
# ---------------------------------------------------------------------------

ItemsResult = tuple[list[Verdict], str | None]


def _each(one: Callable[..., Verdict], items: Sequence, facts: _Facts) -> ItemsResult:
    """Judge each item on its own with ``one(item, facts)``."""
    return [_judged(one, item, facts) for item in items], None


def _matches_formula(n: int, search: Callable[[Graph], int], formula: Callable[[int], int],
                     reason: str) -> Verdict:
    g = friendship(n)
    want, got = formula(n), search(g)
    return _OK if got == want else _fail(emit_graph6(g), reason,
                                         n=n, computed=got, formula=want)


def _thm31(n: int, facts: _Facts) -> Verdict:
    return _matches_formula(n, facts.d, families.friendship_distinguishing_number,
                            "distinguishing number mismatch")


def _thm33(n: int, facts: _Facts) -> Verdict:
    return _matches_formula(n, lambda g: facts.rho(g)[0], families.friendship_cost,
                            "cost mismatch")


def _rem32(orders: range, facts: _Facts) -> ItemsResult:
    b = orders[-1]
    computed = {n: facts.d(friendship(n)) for n in orders}
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


def _thm34(n: int, facts: _Facts) -> Verdict:
    g = friendship(n)
    det, _ = facts.det(g)
    one_per_triangle = tuple(range(1, 2 * n, 2))
    if det != n:
        return _fail(emit_graph6(g), "determining number differs from n", n=n, computed=det)
    if not facts.ctx(g).pointwise_trivial(one_per_triangle):
        return _fail(emit_graph6(g), "one-outer-vertex-per-triangle set does not determine",
                     witness=list(one_per_triangle))
    return _OK


def _thm28(orders: range, facts: _Facts) -> ItemsResult:
    gaps = {n: families.friendship_gap(n) for n in orders}
    achieved = sorted(set(gaps.values()))
    predicted = sorted({families.friendship_threshold(families.friendship_distinguishing_number(n)) - 1
                        for n in orders})
    verdicts: list[Verdict] = []
    if achieved != predicted:
        verdicts.append(_fail("", "gap set differs from threshold-1 prediction",
                              achieved=achieved, predicted=predicted))
    for n in orders:
        # spot-check the closed form against full searches where cheap
        g = friendship(n)
        searched = abs(facts.det(g)[0] - facts.rho(g)[0]) if n <= 4 else gaps[n]
        verdicts.append(_OK if searched == gaps[n] else
                        _fail(emit_graph6(g), "searched gap differs from closed form",
                              n=n, searched=searched, formula=gaps[n]))
    notes = (f"achieved gaps {achieved}: thresholds minus one, i.e. triangular numbers; "
             f"values between consecutive triangular numbers are not achieved by this family")
    return verdicts, notes


def _thm41(pair: _Pair, facts: _Facts) -> Verdict:
    gs, hs, g, h, prod = pair
    if not (g.is_connected() and h.is_connected() and g.n >= 2 and h.n >= 2):
        return _UNMET
    det_g, det_h, det_prod = (facts.det(x)[0] for x in (g, h, prod))
    want = families.corona_determining_number(det_g, g.n, det_h)
    if det_prod != want:
        return _fail(emit_graph6(prod), "corona determining mismatch",
                     pair=f"({gs.to_string()}),({hs.to_string()})",
                     computed=det_prod, formula=want)
    return _OK


def _thm42(pair: _Pair, facts: _Facts) -> Verdict:
    gs, _, g, _, prod = pair
    if not (g.is_connected() and g.n >= 2):
        return _UNMET
    det_g, det_prod = (facts.det(x)[0] for x in (g, prod))
    if det_prod != families.corona_pendant_determining_number(det_g):
        return _fail(emit_graph6(prod), "pendant corona determining mismatch",
                     pair=gs.to_string(), computed=det_prod, base=det_g)
    return _OK


def _thm43(pair: _Pair, facts: _Facts) -> Verdict:
    gs, hs, g, h, prod = pair
    if not (g.is_connected() and h.is_connected() and g.n >= 2 and h.n >= 2):
        return _UNMET
    d_g, d_h, d_prod = (facts.d(x) for x in (g, h, prod))
    if d_prod != max(d_g, d_h):
        return _UNMET  # bound not applicable
    rho_g, rho_h, rho_prod = (facts.rho(x)[0] for x in (g, h, prod))
    bound = families.corona_cost_bound(rho_g, g.n, rho_h)
    if rho_prod > bound:
        return _fail(emit_graph6(prod), "corona cost bound violated",
                     pair=f"({gs.to_string()}),({hs.to_string()})",
                     computed=rho_prod, bound=bound)
    return _OK


def _corona_degree(pair: _Pair, facts: _Facts) -> Verdict:
    _, _, g, h, prod = pair
    if not (g.is_connected() and h.is_connected() and g.n >= 2):
        return _UNMET
    base_degs = {prod.degree(v) for v in range(g.n)}
    copy_degs = {prod.degree(v) for v in range(g.n, prod.n)}
    if base_degs & copy_degs:
        return _fail(emit_graph6(prod), "copy vertex shares a degree with a base vertex",
                     overlap=sorted(base_degs & copy_degs))
    return _OK


_HYPERCUBE_DIMS = (3, 4)
_HYPERCUBE_CORPUS = f"hypercube dims {list(_HYPERCUBE_DIMS)}"


def _hypercube_dims(spec: str) -> tuple[int, ...]:
    if spec != _HYPERCUBE_CORPUS:
        raise CorpusError("the hypercube check has a fixed corpus")
    return _HYPERCUBE_DIMS


def _run_hypercube(dims: Sequence[int], facts: _Facts) -> ItemsResult:
    values = {}

    def one(k: int, facts: _Facts) -> Verdict:
        g = hypercube(k)
        rho = values[k] = facts.rho(g)[0]
        ceil_log = (k - 1).bit_length()
        lo, hi = ceil_log - 1, ceil_log + 1
        if lo <= rho <= hi:
            return _OK
        return _fail(emit_graph6(g), "cost outside the quoted log bounds",
                     dim=k, rho=rho, low=lo, high=hi)
    verdicts, _ = _each(one, dims, facts)
    return verdicts, f"computed costs {values} (informative check)"


# ---------------------------------------------------------------------------
# registry and entry points
# ---------------------------------------------------------------------------

_THM41_PAIRS = "(path:3),(complete:2);(path:2),(complete:2);(path:3),(path:2)"
_THM42_PAIRS = "(path:3),(complete:1);(cycle:4),(complete:1);(complete:3),(complete:1)"


@dataclass(frozen=True)
class CheckDef:
    """A registered check.  A "bound" check is called as ``run(case)`` once
    per graph of the shared corpus pass.  Every other ``kind`` names the
    parser in ``_ITEMS`` that turns a corpus spec into items (friendship
    orders, corona pairs, hypercube dimensions), and the check is called once
    as ``run(items, facts) -> (verdicts, notes)``.  An informative check
    reports its findings but never gates the exit code."""
    theorem_id: str
    kind: str
    default_corpus: str
    description: str
    run: Callable = dataclasses.field(repr=False, compare=False)
    informative: bool = False


def _threshold_orders(spec: str) -> range:
    # Rem3.2 reads the first n of each label count, so its range starts at 2
    orders = _friendship_range(_corpus_rest(spec, "friendship"))
    if orders.start != 2:
        raise CorpusError("threshold check needs the friendship range to start at 2")
    return orders


def _pendant_pairs(spec: str) -> list[_Pair]:
    # Thm4.2 is stated for H = K1
    pairs = _corona_pairs(_corpus_rest(spec, "corona-pairs"))
    if any(h.n != 1 for _, _, _, h, _ in pairs):
        raise CorpusError("pendant corona check needs the second factor to be complete:1")
    return pairs


# the items of each non-bound kind, parsed from a corpus spec with no search
_ITEMS: dict[str, Callable[[str], Sequence]] = {
    "friendship": lambda spec: _friendship_range(_corpus_rest(spec, "friendship")),
    "threshold": _threshold_orders,
    "corona": lambda spec: _corona_pairs(_corpus_rest(spec, "corona-pairs")),
    "pendant-corona": _pendant_pairs,
    "hypercube": _hypercube_dims,
}

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
             "backtracking group on a 1% sample", _check_engine_oracle),
    CheckDef("Thm3.1", "friendship", "friendship:2..8", "friendship distinguishing numbers "
             "match the closed form", functools.partial(_each, _thm31)),
    CheckDef("Rem3.2", "threshold", "friendship:2..7", "label-count thresholds of the "
             "friendship family match the closed form", _rem32),
    CheckDef("Thm3.3", "friendship", "friendship:2..6", "friendship costs match offset + 1",
             functools.partial(_each, _thm33)),
    CheckDef("Thm3.4", "friendship", "friendship:2..6", "friendship determining number "
             "equals the triangle count", functools.partial(_each, _thm34)),
    CheckDef("Thm2.8", "friendship", "friendship:2..12",
             "achieved |det - cost| gap set for the friendship family", _thm28),
    CheckDef("Thm4.1", "corona", f"corona-pairs:{_THM41_PAIRS}",
             "corona determining number = det(G) + n*det(H)",
             functools.partial(_each, _thm41)),
    CheckDef("Thm4.2", "pendant-corona", f"corona-pairs:{_THM42_PAIRS}",
             "pendant corona keeps the determining number",
             functools.partial(_each, _thm42)),
    CheckDef("Thm4.3", "corona", "corona-pairs:(path:3),(complete:2)",
             "corona cost bound when the label counts agree",
             functools.partial(_each, _thm43)),
    CheckDef("CoronaDegree", "corona", f"corona-pairs:{_THM41_PAIRS}",
             "no copy vertex shares a degree with a base vertex",
             functools.partial(_each, _corona_degree)),
    CheckDef("HypercubeCost", "hypercube", _HYPERCUBE_CORPUS,
             "hypercube cost lies within the quoted logarithmic bounds (informative)",
             _run_hypercube, informative=True),
)}


def registered_checks() -> list[CheckDef]:
    return list(_REGISTRY.values())


def run_suite(ids: Sequence[str] | None = None, corpus_override: str | None = None,
              budget: int | None = None, jobs: int = 1) -> list[TheoremReport]:
    """Run the selected checks (default: all) and return their reports.

    Every corpus is parsed before the first search.  The bound checks
    share one corpus pass and run first, then the others in the order
    given.  A check whose search runs out of budget reports
    ``budget-exceeded``, and the checks after it still run."""
    if ids is None:
        ids = list(_REGISTRY)
    for check in ids:
        if check not in _REGISTRY:
            raise UnknownCheckError(f"unknown check id {check!r}")
    specs = {c: corpus_override or _REGISTRY[c].default_corpus for c in ids}
    items = {c: _ITEMS[_REGISTRY[c].kind](specs[c])
             for c in ids if _REGISTRY[c].kind != "bound"}
    bound = [c for c in ids if c not in items]
    facts = _Facts(budget if budget is not None else DEFAULT_NODE_BUDGET)
    # per check id: its tally, the number of items checked, and notes
    found: dict[str, tuple[_Tally, int, str | None]] = {}
    if bound:
        tallies, checked = _run_bound_checks(bound, specs[bound[0]], facts, jobs)
        found.update((c, (tally, checked, None)) for c, tally in zip(bound, tallies))
    for check, got in items.items():
        try:
            verdicts, notes = _REGISTRY[check].run(got, facts)
        except BudgetExceededError:
            verdicts, notes = [_BUDGET], None
        found[check] = _Tally.of(verdicts), len(got), notes
    reports = {c: _aggregate(c, specs[c], *found[c], _REGISTRY[c].informative) for c in found}
    return [reports[c] for c in ids]


def run_check(theorem_id: str, corpus_spec: str | None = None,
              budget: int | None = None, jobs: int = 1) -> TheoremReport:
    """Run one registered check over its default or the given corpus."""
    return run_suite([theorem_id], corpus_override=corpus_spec,
                     budget=budget, jobs=jobs)[0]
