"""Distinguishing number, distinguishing cost, determining number, and
subset distinguishability, each computed exactly with a verifiable witness.

All three invariants reduce to colored-automorphism queries.  The labeling
searches are complete backtracking with three prunes:

* dead-end prune: a nontrivial automorphism that preserves the partial
  labeling while fixing every unlabeled vertex survives any completion;
* orbit prune: only the lexicographically least partial labeling in its
  orbit under (a generator subset of) the symmetry group is expanded;
* shortcut: if the partial label classes plus "rest" already pin the graph
  rigid and a fresh label is available, the rest becomes one new class.

Label names are canonicalized by first use, so label permutations are never
re-explored.  The cost search tries, for each class size, the lex-least
class of every Aut(G)-orbit in lexicographic order.

A determining set is a base of Aut(G), so the determining number comes from
an iterative-deepening base search over sorted prefixes P that extends P
only by a vertex v above max(P) with two properties, both of which keep the
lex-least minimum determining set S reachable:

* v is moved by the pointwise stabilizer G_P.  A minimum determining set is
  irredundant: if G_P fixed a member s of S beyond P, S minus s would
  determine too.
* v is least in its G_P-orbit.  If h in G_P mapped some u < v onto v, then
  h^-1(S) would be a determining set of the same size containing P and u,
  so lexicographically smaller than S.

Sets and prefixes are visited in lexicographic order, making every reported
witness reproducible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .aut import AutContext, Coloring, Perm, invert, labeling_colors, pointwise_colors
from .graphs import Graph, emit_graph6


# ---------------------------------------------------------------------------
# labeling search core
# ---------------------------------------------------------------------------

def _lex_tables(ctx: AutContext, fixed: Sequence[frozenset[int]]) -> list[Perm]:
    """Inverse tables of group generators (and their inverses) that fix every
    pre-assigned class setwise; used for the orbit prune."""
    seen: set[Perm] = set()
    tables: list[Perm] = []
    for gen in ctx.full.generators:
        for p in (gen, invert(gen)):
            if p in seen:
                continue
            seen.add(p)
            if all(frozenset(p[v] for v in cls) == cls for cls in fixed):
                tables.append(invert(p))
    return tables


def _lex_rejected(labels: list[int], placed: Sequence[int], tables: Sequence[Perm]) -> bool:
    # Reject when some group element maps the partial labeling to a strictly
    # lex-smaller one (unlabeled compares as +inf along the branch order).
    for t in tables:
        for q in placed:
            a = labels[t[q]]
            b = labels[q]
            if a == b:
                continue
            if a == 0 or a > b:
                break
            return True
    return False


class _LabelSearch:
    """Complete search for a rigid completion of a partial labeling."""

    def __init__(self, ctx: AutContext, labels: list[int], order: list[int],
                 pool: int, tables: Sequence[Perm]):
        self.ctx = ctx
        self.n = ctx.graph.n
        self.labels = labels
        self.order = order
        self.pool = pool
        self.tables = tables

    def _pw_colors(self) -> list[int]:
        # unlabeled vertices get pairwise-distinct colors above the label range
        labels = self.labels
        fresh = self.pool + 2
        out = list(labels)
        for v in range(self.n):
            if labels[v] == 0:
                out[v] = fresh
                fresh += 1
        return out

    def run(self, start: int, used: int) -> list[int] | None:
        labels = self.labels
        if self.tables and _lex_rejected(labels, self.order[:start], self.tables):
            return None
        if self.ctx.first_nontrivial(self._pw_colors()) is not None:
            return None
        if start == len(self.order):
            return list(labels)
        todo = self.order[start:]
        if self.pool == 1:
            # single possible completion
            out = list(labels)
            for v in todo:
                out[v] = 1
            return out if self.ctx.is_rigid(out) else None
        if used < self.pool and self.ctx.is_rigid(labels):
            # 0 acts as one shared "rest" class; promote it to a fresh label
            out = list(labels)
            for v in todo:
                out[v] = used + 1
            return out
        v = todo[0]
        for lab in range(1, min(used + 1, self.pool) + 1):
            labels[v] = lab
            found = self.run(start + 1, max(used, lab))
            if found is not None:
                labels[v] = 0
                return found
            labels[v] = 0
        return None


def _search_distinguishing(ctx: AutContext, d: int) -> list[int] | None:
    """A d-label distinguishing labeling of the whole graph, or None."""
    n = ctx.graph.n
    search = _LabelSearch(ctx, [0] * n, list(range(n)), d, _lex_tables(ctx, ()))
    return search.run(0, 0)


def _search_cost_class(ctx: AutContext, d: int, cls: Sequence[int]) -> list[int] | None:
    """A distinguishing d-labeling whose d-th class is exactly ``cls``, or None."""
    n = ctx.graph.n
    labels = [0] * n
    for v in cls:
        labels[v] = d
    order = sorted(cls) + [v for v in range(n) if labels[v] == 0]
    tables = _lex_tables(ctx, (frozenset(cls),))
    search = _LabelSearch(ctx, labels, order, d - 1, tables)
    got = search.run(len(cls), 0)
    if got is None:
        return None
    if max(got) != d or len(set(got)) != d:
        raise AssertionError("cost witness uses fewer labels than the distinguishing number")
    return got


# ---------------------------------------------------------------------------
# public invariants
# ---------------------------------------------------------------------------

def distinguishing_number(g: Graph, ctx: AutContext | None = None) -> tuple[int, Coloring]:
    """Least d admitting a distinguishing d-labeling, with a witness."""
    ctx = ctx or AutContext(g)
    if ctx.full.order == 1:
        return 1, Coloring.uniform(g.n)
    for d in range(2, g.n + 1):
        got = _search_distinguishing(ctx, d)
        if got is not None:
            if max(got) != d:
                raise AssertionError("distinguishing witness skipped a smaller label count")
            return d, Coloring(tuple(got))
    raise AssertionError("all-distinct labeling must distinguish")


def _class_candidates(ctx: AutContext, k: int) -> Iterator[tuple[int, ...]]:
    # the lex-least k-set of each Aut(G)-orbit, in lexicographic order; seen
    # sets are stored as vertex bitmasks, which take far less memory than
    # frozensets (C(16, 5) of them on Q_4)
    n = ctx.graph.n
    if not ctx.full.is_trivial:
        seen: set[int] = set()
        for comb in itertools.combinations(range(n), k):
            if sum(1 << v for v in comb) in seen:
                continue
            seen.update(sum(1 << v for v in s) for s in ctx.subset_orbit(comb))
            yield comb
    else:
        yield from itertools.combinations(range(n), k)


def cost(g: Graph, d: int | None = None, ctx: AutContext | None = None,
         det_hint: int | None = None) -> tuple[int, Coloring]:
    """Minimum label-class size over distinguishing labelings at the graph's
    own distinguishing number, with a witness labeling."""
    ctx = ctx or AutContext(g)
    if d is None:
        d, _ = distinguishing_number(g, ctx=ctx)
    n = g.n
    if d == 1:
        return n, Coloring.uniform(n)
    for k in range(1, n + 1):
        if det_hint is not None and k > n - det_hint:
            raise AssertionError(
                f"cost search passed the n - determining-number cutoff ({n - det_hint})"
            )
        for cls in _class_candidates(ctx, k):
            got = _search_cost_class(ctx, d, cls)
            if got is not None:
                return k, Coloring(tuple(got))
    raise AssertionError("no distinguishing labeling found at the known distinguishing number")


def determining_number(g: Graph, ctx: AutContext | None = None) -> tuple[int, tuple[int, ...]]:
    """Size of a minimum determining set plus the lexicographically least witness.

    Iterative-deepening base search over sorted prefixes P: P grows only by
    vertices above max(P) that the pointwise stabilizer G_P moves and that are
    least in their G_P-orbit.  Each prefix's extensions are computed once per
    call, so deeper rounds reuse the stabilizer orbits of shallower ones.
    """
    ctx = ctx or AutContext(g)
    if ctx.full.order == 1:
        return 0, ()
    n = g.n
    branches: dict[tuple[int, ...], list[int]] = {}

    def extensions(prefix: tuple[int, ...]) -> list[int]:
        got = branches.get(prefix)
        if got is None:
            group = ctx.group(pointwise_colors(n, prefix)) if prefix else ctx.full
            low = prefix[-1] if prefix else -1
            # orbits are sorted tuples, so orbit[0] is the least point of each
            got = sorted(orbit[0] for orbit in group.orbits
                         if len(orbit) > 1 and orbit[0] > low)
            branches[prefix] = got
        return got

    def search(prefix: tuple[int, ...], todo: int) -> tuple[int, ...] | None:
        for v in extensions(prefix):
            ext = prefix + (v,)
            if todo == 1:
                if ctx.pointwise_trivial(ext):
                    return ext
            else:
                found = search(ext, todo - 1)
                if found is not None:
                    return found
        return None

    for k in range(1, n + 1):
        found = search((), k)
        if found is not None:
            return k, found
    raise AssertionError("the full vertex set always determines")


def is_determining_set(g: Graph, vertices: Iterable[int], ctx: AutContext | None = None) -> bool:
    """True iff automorphisms agreeing on ``vertices`` agree everywhere."""
    return (ctx or AutContext(g)).pointwise_trivial(vertices)


def minimum_determining_sets(g: Graph, cap: int = 1000, ctx: AutContext | None = None
                             ) -> tuple[list[tuple[int, ...]], bool]:
    """All minimum determining sets in lexicographic order, up to ``cap``;
    the flag reports truncation."""
    ctx = ctx or AutContext(g)
    k, _ = determining_number(g, ctx=ctx)
    if k == 0:
        return [()], False
    found: list[tuple[int, ...]] = []
    for comb in itertools.combinations(range(g.n), k):
        if ctx.pointwise_trivial(comb):
            if len(found) == cap:
                return found, True
            found.append(comb)
    return found, False


# ---------------------------------------------------------------------------
# subset distinguishability
# ---------------------------------------------------------------------------

def subset_is_d_distinguishable(g: Graph, w: Iterable[int], labeling: Mapping[int, int],
                                ctx: AutContext | None = None) -> bool:
    """True iff every automorphism fixing ``w`` setwise and preserving the
    label classes of ``w`` fixes ``w`` pointwise.

    The query colors the classes of w and lumps everything else into one
    extra class; the answer is whether each w-vertex sits in a singleton
    orbit of that colored group.
    """
    ws = sorted(set(w))
    if set(labeling) != set(ws):
        raise ValueError("labeling must assign exactly the vertices of w")
    if not ws:
        return True
    ctx = ctx or AutContext(g)
    group = ctx.group(labeling_colors(g.n, labeling, 0))
    moved = {v for orbit in group.orbits if len(orbit) > 1 for v in orbit}
    return not any(v in moved for v in ws)


def _partitions_into(items: Sequence[int], blocks: int) -> Iterator[dict[int, int]]:
    # restricted-growth labelings with exactly `blocks` classes
    k = len(items)
    if blocks > k:
        return
    rgs = [0] * k

    def rec(i: int, mx: int) -> Iterator[dict[int, int]]:
        if i == k:
            if mx + 1 == blocks:
                yield {items[j]: rgs[j] + 1 for j in range(k)}
            return
        top = min(mx + 1, blocks - 1)
        for val in range(top + 1):
            nmx = max(mx, val)
            if blocks - 1 - nmx <= k - i - 1:
                rgs[i] = val
                yield from rec(i + 1, nmx)

    yield from rec(0, -1)


def subset_distinguishing_witness(g: Graph, w: Iterable[int], upto: int | None = None,
                                  ctx: AutContext | None = None
                                  ) -> tuple[int, dict[int, int]] | None:
    """Least d with a labeling making ``w`` d-distinguishable, plus a witness;
    None when the minimum exceeds ``upto``."""
    ws = sorted(set(w))
    if not ws:
        return (1, {})
    ctx = ctx or AutContext(g)
    limit = len(ws) if upto is None else min(upto, len(ws))
    for d in range(1, limit + 1):
        for labeling in _partitions_into(ws, d):
            if subset_is_d_distinguishable(g, ws, labeling, ctx=ctx):
                return d, labeling
    if upto is not None and upto < len(ws):
        return None
    # labeling every vertex of w distinctly always qualifies
    raise AssertionError("all-distinct subset labeling must distinguish")


# ---------------------------------------------------------------------------
# combined report
# ---------------------------------------------------------------------------

_REPORT_KEYS = ("graph6", "n", "aut_order", "D", "rho", "det",
                "witness_labeling", "witness_det_set", "class_sizes")


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class InvariantReport:
    """All three invariants of one graph plus re-checkable witnesses."""

    graph6: str
    n: int
    aut_order: int
    distinguishing_number: int
    cost: int
    determining_number: int
    witness_labeling: tuple[int, ...]
    witness_det_set: tuple[int, ...]
    class_sizes: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "graph6": self.graph6,
            "n": self.n,
            "aut_order": self.aut_order,
            "D": self.distinguishing_number,
            "rho": self.cost,
            "det": self.determining_number,
            "witness_labeling": list(self.witness_labeling),
            "witness_det_set": list(self.witness_det_set),
            "class_sizes": list(self.class_sizes),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "InvariantReport":
        """Parse a ``to_dict`` mapping; raises ValueError when a key is missing,
        graph6 is not a string, n is not a count, a number or class size is not
        an integer, a witness vertex is not a vertex, or the witness labeling
        does not label exactly n vertices."""
        if not isinstance(data, Mapping):
            raise ValueError(f"report must be a JSON object, got {type(data).__name__}")
        missing = [k for k in _REPORT_KEYS if k not in data]
        if missing:
            raise ValueError(f"report missing keys: {missing}")
        if not isinstance(data["graph6"], str):
            raise ValueError(f"report graph6 must be a string, got {data['graph6']!r}")
        n = data["n"]
        if not _is_int(n) or n < 0:
            raise ValueError(f"report n must be a non-negative integer, got {n!r}")
        for key in ("aut_order", "D", "rho", "det"):
            if not _is_int(data[key]):
                raise ValueError(f"report {key} must be an integer, got {data[key]!r}")
        sizes = data["class_sizes"]
        if not isinstance(sizes, (list, tuple)) or not all(map(_is_int, sizes)):
            raise ValueError(f"class_sizes must list integers, got {sizes!r}")
        det_set = data["witness_det_set"]
        if not isinstance(det_set, (list, tuple)) or not all(
                _is_int(v) and 0 <= v < n for v in det_set):
            raise ValueError(f"witness_det_set must list vertices 0..{n - 1}, got {det_set!r}")
        labeling = data["witness_labeling"]
        if not isinstance(labeling, (list, tuple)) or len(labeling) != n:
            raise ValueError(f"witness_labeling must list {n} labels, got {labeling!r}")
        return cls(
            graph6=data["graph6"],
            n=data["n"],
            aut_order=data["aut_order"],
            distinguishing_number=data["D"],
            cost=data["rho"],
            determining_number=data["det"],
            witness_labeling=tuple(data["witness_labeling"]),
            witness_det_set=tuple(data["witness_det_set"]),
            class_sizes=tuple(data["class_sizes"]),
        )


def invariant_report(g: Graph, ctx: AutContext | None = None) -> InvariantReport:
    """Compute all invariants; the stored labeling is the cost witness, so its
    smallest class size equals the cost."""
    ctx = ctx or AutContext(g)
    d, _ = distinguishing_number(g, ctx=ctx)
    det, det_witness = determining_number(g, ctx=ctx)
    rho, rho_witness = cost(g, d=d, ctx=ctx, det_hint=det)
    return InvariantReport(
        graph6=emit_graph6(g),
        n=g.n,
        aut_order=ctx.full.order,
        distinguishing_number=d,
        cost=rho,
        determining_number=det,
        witness_labeling=rho_witness.labels,
        witness_det_set=det_witness,
        class_sizes=tuple(sorted(rho_witness.class_sizes())),
    )


def check_witnesses(g: Graph, report: InvariantReport,
                    ctx: AutContext | None = None) -> list[str]:
    """Re-verify a report's witnesses against the graph; returns problems."""
    problems: list[str] = []
    ctx = ctx or AutContext(g)
    if g.n != report.n:
        problems.append(f"order mismatch: graph has {g.n}, report says {report.n}")
        return problems
    if ctx.full.order != report.aut_order:
        problems.append(
            f"group order mismatch: computed {ctx.full.order}, report says {report.aut_order}"
        )
    try:
        coloring = Coloring(report.witness_labeling)
    except Exception as exc:
        problems.append(f"witness labeling invalid: {exc}")
        coloring = None
    if coloring is not None:
        if coloring.num_labels != report.distinguishing_number:
            problems.append("witness labeling does not use D labels")
        if not ctx.is_rigid(list(coloring.labels)):
            problems.append("witness labeling is preserved by a nontrivial automorphism")
        sizes = tuple(sorted(coloring.class_sizes()))
        if sizes != report.class_sizes:
            problems.append("class_sizes does not match the witness labeling")
        if min(sizes) != report.cost:
            problems.append("smallest witness class does not equal rho")
    if len(report.witness_det_set) != report.determining_number:
        problems.append("witness determining set has the wrong size")
    if not ctx.pointwise_trivial(report.witness_det_set):
        problems.append("witness determining set does not determine")
    return problems
