"""Distinguishing number, distinguishing cost, determining number, and
subset distinguishability, each computed exactly with a verifiable witness.

D and the cost reduce to colored-automorphism queries, the determining
number to the full group's point stabilizers.  The labeling searches are
complete backtracking with four prunes:

* dead-end prune: a nontrivial automorphism that preserves the partial
  labeling while fixing every unlabeled vertex survives any completion.
  Giving a vertex the label of one it can be swapped with is such a dead
  end, and below the root the query is made only when the vertex just
  labeled has a twin, which such an automorphism must map it onto;
* orbit prune: a partial labeling is expanded only if no coset
  representative of the stabilizer chain maps it to a lexicographically
  smaller one;
* shortcut: if the partial label classes plus "rest" already pin the graph
  rigid and a fresh label is available, the rest becomes one new class;
* block prune: the interchangeable blocks of a family
  (``Graph.block_families``) must still be able to take labelings that
  leave their own block rigid and that are pairwise inequivalent, a
  bipartite matching from blocks to the canonical forms their labels
  still allow.  It runs at the root, so it refutes whole D pools and cost
  classes, and after each vertex placed in a block (notes/decisions.md,
  "Interchangeable blocks").

Both queries go to the graph's ``AutContext``.  It answers with an
automorphism that an earlier query of any invariant found, if one keeps the
colors, and searches only when none does.

Label names are canonicalized by first use, so label permutations are never
re-explored.  The cost search tries, for each class size, the lex-least
class of every Aut(G)-orbit in lexicographic order.  At D = 2 a class S
has one labeling, and it distinguishes iff S's orbit has |Aut(G)| sets,
so no labeling search is made (notes/decisions.md, "D = 2 cost classes by
orbit size").

The prunes hold in any branch order, so a D pool or a cost class has a
distinguishing labeling in one order iff it has one in any other.  Each
decision is one search.  Where its labeling is kept, the search runs in
index order, whose first labeling is the witness; where only D is read, it
runs in the full group's base order (``PermGroup.base_order``), where
refuting takes far fewer nodes (notes/decisions.md, "Kept labelings are
searched in index order; D alone in base order").

A determining set is a base of Aut(G), so the determining number comes from
an iterative-deepening base search over sorted prefixes P that extends P
only by a vertex v above max(P) with two properties, both of which keep the
least set S of each Aut(G)-orbit of minimum determining sets reachable:

* v is moved by the pointwise stabilizer G_P.  A minimum determining set is
  irredundant: if G_P fixed a member s of S beyond P, S minus s would
  determine too.
* v is least in its G_P-orbit.  If h in G_P mapped some u < v onto v, then
  h^-1(S) would be a set of S's orbit containing P and u, so
  lexicographically smaller than S.

G_{P+v} is the stabilizer of v in G_P, so it comes from G_P by Schreier's
lemma (``aut.point_stabilizer``), with no colored search, and P + v
determines when v's G_P-orbit has |G_P| points (notes/decisions.md,
"Pointwise stabilizers by Schreier's lemma").

Swap classes (``Graph.swap_classes``) give all three searches lower bounds,
since swapping two vertices of one class is an automorphism: a
distinguishing labeling gives a class's vertices distinct labels, and a
determining set leaves out at most one of them.  So D starts at the largest
class, det at the sum of the class sizes less one each, and a det prefix
stops growing once it has passed over two vertices of one class.  A class
labeled D holds at most one vertex of each swap class and one of each of
size D; swapping in the least member of a class keeps it in its orbit, so
the cost search tries only sets of least members and classless vertices
that cover every class of size D, and no smaller sets than there are such
classes (notes/decisions.md, "Swap classes bound D, det and ρ").

Sets and prefixes are visited in lexicographic order, making every reported
witness reproducible.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .aut import AutContext, Perm, labeling_colors, orbit_partition, point_stabilizer
from .graphs import BlockFamily, Graph, emit_graph6


# ---------------------------------------------------------------------------
# labeling search core
# ---------------------------------------------------------------------------

def _lex_tables(ctx: AutContext, fixed: frozenset[int]) -> list[Perm]:
    """Every non-identity coset representative in the full group's
    transversals that fixes the pre-assigned class ``fixed`` setwise; used
    for the orbit prune.  Representatives of one level differ at its base
    point and fix every base point above it, so each is kept once."""
    return [p for level in ctx.full.transversals for p in level[1:]
            if all(p[v] in fixed for v in fixed)]


class _LexBuckets:
    """The orbit prune's tables, each filed under the one vertex whose
    label can change its state (``notes/decisions.md``, "Coset tables,
    twins, swaps and known automorphisms").

    A table t waits at the first position i of ``order`` where it does not
    yet compare equal: on t[order[i]] while order[i] is labeled and its
    image is not, else on order[i].  Labeling any other vertex leaves that
    state as it is, so a node rescans only the tables of the vertex it
    labeled last, and nothing is filed under a labeled vertex."""

    def __init__(self, order: list[int], start: int, tables: list[Perm]):
        self.order = order
        self.waiting: list[list[tuple[Perm, int]]] = [[] for _ in order]
        if start < len(order):
            # the tables map the pre-assigned order[:start] onto itself
            self.waiting[order[start]] = [(t, start) for t in tables]

    def enter(self, labels: list[int], start: int) -> list[int] | None:
        """The orbit prune at the labels of order[:start]: None when a table
        maps them to a strictly lex-smaller labeling along ``order``
        (unlabeled compares as +inf), else the keys under which the tables
        waiting on order[start - 1] were filed anew, for ``leave``.  A table
        that gives a larger labeling gives one in the whole subtree, so it
        is filed nowhere."""
        order, waiting, end = self.order, self.waiting, len(self.order)
        filed: list[int] = []
        for t, i in waiting[order[start - 1]]:
            while i < start and labels[t[order[i]]] == labels[order[i]]:
                i += 1
            if i < start:
                key = t[order[i]]
                a = labels[key]
                if a:
                    if a < labels[order[i]]:
                        self.leave(filed)
                        return None
                    continue
            elif i < end:
                key = order[i]
            else:
                continue
            waiting[key].append((t, i))
            filed.append(key)
        return filed

    def leave(self, filed: list[int]) -> None:
        """Undo ``enter``.  The subtree below has undone its own filings, so
        each table filed here is last in its bucket."""
        for key in filed:
            self.waiting[key].pop()


def _swaps(g: Graph) -> list[tuple[int, ...]]:
    """Per vertex v, its swap partners: the other vertices of its swap class
    (``Graph.swap_classes``), so that swapping v and any of them is an
    automorphism."""
    partners: list[tuple[int, ...]] = [()] * g.n
    for cls in g.swap_classes:
        for v in cls:
            partners[v] = tuple(w for w in cls if w != v)
    return partners


class _Blocks:
    """The block prune for one family of interchangeable blocks
    (``Graph.block_families``) in one labeling search: the blocks' labels
    must still extend to labelings that leave their own block rigid and
    that no internal automorphism makes equal (notes/decisions.md,
    "Interchangeable blocks").

    It keeps a matching of the blocks to pairwise different options.
    Options only shrink down the search tree, so a matching of the node
    last checked also serves each of its ancestors, and a node whose one
    changed block keeps its option needs no more work."""

    def __init__(self, family: BlockFamily, pool: int):
        self.blocks = family.blocks
        self.internal = family.internal
        self.pool = pool
        self.options: dict[tuple[int, ...], set[tuple[int, ...]] | None] = {}
        # held[i]: the option block i is matched to, or None; owner inverts it
        self.held: list[tuple[int, ...] | None] = [None] * len(self.blocks)
        self.owner: dict[tuple[int, ...], int] = {}

    def _options(self, labels: list[int], i: int) -> set[tuple[int, ...]] | None:
        # the least internal images of the completions of block i's labels
        # (0 = unlabeled, completed from 1..pool) that no internal
        # automorphism keeps; None once there are as many as blocks, since
        # such a block always finds one the others left free
        pattern = tuple([labels[v] for v in self.blocks[i]])
        if pattern in self.options:
            return self.options[pattern]
        found: set[tuple[int, ...]] | None = set()
        free = range(1, self.pool + 1)
        for full in itertools.product(*[(lab,) if lab else free for lab in pattern]):
            images = [tuple([full[j] for j in k]) for k in self.internal]
            if full not in images:
                found.add(min([full, *images]))
                if len(found) == len(self.blocks):
                    found = None
                    break
        self.options[pattern] = found
        return found

    def _match(self, labels: list[int], i: int, tried: set[tuple[int, ...]]) -> bool:
        # an augmenting path from block i; a block with as many options as
        # blocks gives its option up and needs none.  Only a success changes
        # the matching
        options = self._options(labels, i)
        if options is None:
            self.held[i] = None
            return True
        for o in options:
            if o not in tried:
                tried.add(o)
                j = self.owner.get(o)
                if j is None or self._match(labels, j, tried):
                    self.owner[o] = i
                    self.held[i] = o
                    return True
        return False

    def fit(self, labels: list[int], changed: int | None = None) -> bool:
        """True iff the blocks can still take pairwise different options.
        Without ``changed`` the matching is built anew; with it, only block
        ``changed`` has new labels since a check that passed."""
        if changed is None:
            self.held = [None] * len(self.blocks)
            self.owner = {}
            return all(self._match(labels, i, set()) for i in range(len(self.blocks)))
        old = self.held[changed]
        options = self._options(labels, changed)
        if options is None or old in options:
            return True
        if old is not None:
            del self.owner[old]
        if self._match(labels, changed, set()):
            return True
        if old is not None:
            # the ancestors' matching stands
            self.owner[old] = changed
            self.held[changed] = old
        return False


class _LabelSearch:
    """Complete search for a rigid completion of a partial labeling."""

    def __init__(self, ctx: AutContext, labels: list[int], order: list[int], pool: int,
                 lex: _LexBuckets):
        self.ctx = ctx
        self.labels = labels
        self.order = order
        self.pool = pool
        self.lex = lex
        self.swaps = _swaps(ctx.graph)
        self.families = [_Blocks(fam, pool) for fam in ctx.graph.block_families]
        # in_blocks[v]: each family with a block holding v, and that block's index
        self.in_blocks: list[list[tuple[_Blocks, int]]] = [[] for _ in labels]
        for fam in self.families:
            for i, blk in enumerate(fam.blocks):
                for v in blk:
                    self.in_blocks[v].append((fam, i))
        # placed[lab]: the vertices placed so far with label lab, in order
        self.placed: list[list[int]] = [[] for _ in range(pool + 1)]
        # later[i]: the vertices placed after order[i], as a bitmask
        self.later = [0] * len(order)
        for i in range(len(order) - 1, 0, -1):
            self.later[i - 1] = self.later[i] | 1 << order[i]

    def _pw_colors(self) -> list[int]:
        # unlabeled vertices get pairwise-distinct colors above the label range
        fresh = itertools.count(self.pool + 2)
        return [lab or next(fresh) for lab in self.labels]

    def _has_twin(self, i: int) -> bool:
        # some vertex placed before order[i] has its label and its neighbors
        # among the vertices placed after it (notes/decisions.md, "Coset
        # tables, twins, swaps and known automorphisms"); order[i] is the
        # last vertex placed with its label
        v, bits = self.order[i], self.ctx.graph.adj_bits
        later = self.later[i]
        mine = bits[v] & later
        return any(bits[w] & later == mine for w in self.placed[self.labels[v]][:-1])

    def run(self, start: int, used: int, root: bool = False) -> list[int] | None:
        """Search below the labels of order[:start].  The ``root`` checks
        every block family; below it the block prune checks the families of
        the vertex placed last, the lex prune rescans the tables waiting on
        that vertex, and the dead-end query is made only if it has a twin:
        else it would find no automorphism."""
        labels = self.labels
        if root:
            if not all(fam.fit(labels) for fam in self.families):
                return None
        else:
            for fam, i in self.in_blocks[self.order[start - 1]]:
                if not fam.fit(labels, i):
                    return None
            filed = self.lex.enter(labels, start)
            if filed is None:
                return None
        try:
            if (root or self._has_twin(start - 1)) and not self.ctx.is_rigid(self._pw_colors()):
                return None
            if start == len(self.order):
                return list(labels)
            todo = self.order[start:]
            if used < self.pool and self.ctx.is_rigid(labels):
                # 0 acts as one shared "rest" class; promote it to a fresh label
                out = list(labels)
                for v in todo:
                    out[v] = used + 1
                return out
            v = todo[0]
            partners = self.swaps[v]
            for lab in range(1, min(used + 1, self.pool) + 1):
                # a swap of v with a partner of its label keeps the labels: a dead end
                if partners and any(labels[w] == lab for w in partners):
                    continue
                labels[v] = lab
                placed = self.placed[lab]
                placed.append(v)
                found = self.run(start + 1, max(used, lab))
                placed.pop()
                labels[v] = 0
                if found is not None:
                    return found
            return None
        finally:
            if not root:
                self.lex.leave(filed)


def _search(ctx: AutContext, pool: int, cls: Sequence[int] = (),
            rest: Sequence[int] | None = None) -> list[int] | None:
    """A distinguishing labeling that gives the vertices of ``cls`` the label
    pool + 1 and every other vertex one of the labels 1..pool, or None.  The
    search branches on ``cls`` first, then on the other vertices in the
    order ``rest``, index order by default."""
    n = ctx.graph.n
    labels = [0] * n
    for v in cls:
        labels[v] = pool + 1
    order = sorted(cls) + [v for v in (range(n) if rest is None else rest) if labels[v] == 0]
    lex = _LexBuckets(order, len(cls), _lex_tables(ctx, frozenset(cls)))
    return _LabelSearch(ctx, labels, order, pool, lex).run(len(cls), 0, True)


# ---------------------------------------------------------------------------
# public invariants
# ---------------------------------------------------------------------------

def _distinguishing(ctx: AutContext, witness: bool) -> tuple[int, list[int]]:
    # D and a distinguishing D-labeling: with ``witness`` the index-order
    # witness, else one searched in the full group's base order, which
    # refutes a pool in far fewer nodes.  The pools below the largest swap
    # class, which needs a label per vertex, are not tried
    g = ctx.graph
    if ctx.full.order == 1:
        return 1, [1] * g.n
    rest = None if witness else ctx.full.base_order
    for d in range(max(map(len, g.swap_classes), default=2), g.n + 1):
        got = _search(ctx, d, rest=rest)
        if got is not None:
            if max(got) != d:
                raise AssertionError("distinguishing witness skipped a smaller label count")
            return d, got
    raise AssertionError("all-distinct labeling must distinguish")


def distinguishing_number(g: Graph, ctx: AutContext | None = None) -> tuple[int, tuple[int, ...]]:
    """Least d admitting a distinguishing d-labeling, with a witness labeling."""
    d, witness = _distinguishing(ctx or AutContext(g), witness=True)
    return d, tuple(witness)


def _class_candidates(ctx: AutContext, k: int, d: int) -> Iterator[tuple[tuple[int, ...], int]]:
    # the lex-least k-set of each Aut(G)-orbit that can be the class labeled
    # d, in lexicographic order, with the length of its orbit: it holds only
    # the least vertex of a swap class or vertices in none, and the least of
    # each class of size d (module docstring).  Seen sets are vertex
    # bitmasks, which take far less memory than frozensets (C(16, 5) of them
    # on Q_4)
    g = ctx.graph
    later = {v for cls in g.swap_classes for v in cls[1:]}
    due = sum(1 << cls[0] for cls in g.swap_classes if len(cls) == d)
    seen: set[int] = set()
    for comb in itertools.combinations([v for v in range(g.n) if v not in later], k):
        mask = sum(1 << v for v in comb)
        if mask & due != due or mask in seen:
            continue
        orbit = ctx.subset_orbit(comb)
        seen.update(orbit)
        yield comb, len(orbit)


def cost(g: Graph, d: int | None = None, ctx: AutContext | None = None,
         det_hint: int | None = None) -> tuple[int, tuple[int, ...]]:
    """Minimum label-class size over distinguishing labelings at the graph's
    own distinguishing number, with a witness labeling."""
    ctx = ctx or AutContext(g)
    if d is None:
        d = _distinguishing(ctx, witness=False)[0]
    n = g.n
    if d == 1:
        return n, (1,) * n
    # the class labeled d holds a vertex of each swap class of size d
    for k in range(max(1, sum(len(cls) == d for cls in g.swap_classes)), n + 1):
        if det_hint is not None and k > n - det_hint:
            raise AssertionError(
                f"cost search passed the n - determining-number cutoff ({n - det_hint})"
            )
        for cls, orbit in _class_candidates(ctx, k, d):
            if d == 2:
                # the one labeling that labels cls 2 and the rest 1
                # distinguishes iff only the identity keeps cls, that is iff
                # |cls^G| = |G|
                ctx.budget.recall()
                got = [1 + (v in cls) for v in range(n)] if orbit == ctx.full.order else None
            else:
                got = _search(ctx, d - 1, cls)
            if got is not None:
                if max(got) != d or len(set(got)) != d:
                    raise AssertionError(
                        "cost witness uses fewer labels than the distinguishing number")
                return k, tuple(got)
    raise AssertionError("no distinguishing labeling found at the known distinguishing number")


def _extensions(g: Graph, prefix: tuple[int, ...], gens: Sequence[Perm]) -> dict[int, int]:
    """The vertices a prefix may grow by, each with the length of its orbit
    under the prefix's pointwise stabilizer, which ``gens`` generate."""
    low = prefix[-1] if prefix else -1
    # an extension by v leaves out every vertex below v outside the prefix;
    # past the second such vertex of one swap class, it leaves out two, whose
    # swap fixes the set pointwise, and so does every larger v: the
    # extensions stop there
    left_out = ([u for u in cls if u not in prefix] for cls in g.swap_classes)
    high = min((out[1] for out in left_out if len(out) > 1), default=g.n)
    # orbits are sorted tuples, so orbit[0] is the least point of each
    return {orbit[0]: len(orbit) for orbit in orbit_partition(g.n, gens)
            if len(orbit) > 1 and low < orbit[0] <= high}


def _base_search(ctx: AutContext, branches: dict[tuple[int, ...], tuple],
                 prefix: tuple[int, ...], todo: int) -> Iterator[tuple[int, ...]]:
    # the determining extensions of ``prefix`` by ``todo`` vertices in lex
    # order; a closure that called itself would hold ctx in a reference cycle
    exts, gens, order = branches[prefix]
    for v, size in exts.items():
        ext = prefix + (v,)
        if todo == 1:
            # |G_{P+v}| = |G_P| / |v^{G_P}|
            if size == order:
                yield ext
        else:
            if ext not in branches:
                g = ctx.graph
                sub, sub_order = point_stabilizer(g.n, gens, order, v, ctx.budget)
                branches[ext] = (_extensions(g, ext, sub), sub, sub_order)
            yield from _base_search(ctx, branches, ext, todo - 1)


def _minimum_bases(ctx: AutContext) -> Iterator[tuple[int, ...]]:
    # the base search's leaves at the least depth that has one, in
    # lexicographic order: the least set of each orbit of minimum determining
    # sets is one (module docstring)
    g = ctx.graph
    if ctx.full.order == 1:
        yield ()
        return
    gens = ctx.full.generators
    # each prefix's extensions, with their orbit lengths, and its pointwise
    # stabilizer's generators and order, computed once for every depth
    branches = {(): (_extensions(g, (), gens), gens, ctx.full.order)}
    # a determining set leaves out at most one vertex of each swap class
    for k in range(max(1, sum(len(cls) - 1 for cls in g.swap_classes)), g.n + 1):
        leaves = _base_search(ctx, branches, (), k)
        first = next(leaves, None)
        if first is not None:
            yield first
            yield from leaves
            return
    raise AssertionError("the full vertex set always determines")


def determining_number(g: Graph, ctx: AutContext | None = None) -> tuple[int, tuple[int, ...]]:
    """Size of a minimum determining set plus the lexicographically least witness.

    Iterative-deepening base search over sorted prefixes P: P grows only by
    vertices above max(P) that the pointwise stabilizer G_P moves and that are
    least in their G_P-orbit.  G_P comes from its parent's stabilizer by
    Schreier's lemma, the root's being the full group, with no colored search;
    P + v determines when v's orbit has |G_P| points.  The first leaf is
    the witness.
    """
    first = next(_minimum_bases(ctx or AutContext(g)))
    return len(first), first


def is_determining_set(g: Graph, vertices: Iterable[int], ctx: AutContext | None = None) -> bool:
    """True iff automorphisms agreeing on ``vertices`` agree everywhere."""
    return (ctx or AutContext(g)).pointwise_trivial(vertices)


def minimum_determining_sets(g: Graph, cap: int = 1000,
                             ctx: AutContext | None = None) -> tuple[list[tuple[int, ...]], bool]:
    """All minimum determining sets in lexicographic order, up to ``cap``;
    the flag reports truncation.  They are the orbits of the base search's
    leaves (notes/decisions.md, "Minimum determining sets from the leaves")."""
    if cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    ctx = ctx or AutContext(g)
    seen: set[int] = set()
    for leaf in _minimum_bases(ctx):
        if sum(1 << v for v in leaf) not in seen:
            seen |= ctx.subset_orbit(leaf)
    n = g.n
    # sets of one size compare as their bit strings read from vertex 0
    first = sorted(seen, key=lambda m: -int(f"{m:0{n}b}"[::-1], 2))[:cap + 1]
    return [tuple(v for v in range(n) if m >> v & 1) for m in first[:cap]], len(first) > cap


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
    return _subset_witness(ctx, ws, upto, ctx.pointwise_trivial(ws))


def _subset_witness(ctx: AutContext, ws: Sequence[int], upto: int | None,
                    determines: bool) -> tuple[int, dict[int, int]] | None:
    # ``subset_distinguishing_witness`` on the sorted, non-empty ``ws``, for a
    # caller that knows whether ws determines.  For a determining ws, the
    # group keeping its classes fixes it pointwise iff it is trivial
    # (notes/decisions.md, "Subset distinguishability of a determining set is
    # rigidity")
    g = ctx.graph
    limit = len(ws) if upto is None else min(upto, len(ws))
    for d in range(1, limit + 1):
        for labeling in _partitions_into(ws, d):
            if (ctx.is_rigid(labeling_colors(g.n, labeling, 0)) if determines
                    else subset_is_d_distinguishable(g, ws, labeling, ctx=ctx)):
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
        does not give exactly n integer labels."""
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
        if not isinstance(labeling, (list, tuple)) or len(labeling) != n or not all(
                map(_is_int, labeling)):
            raise ValueError(f"witness_labeling must list {n} integer labels, got {labeling!r}")
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
    d = _distinguishing(ctx, witness=False)[0]
    det, det_witness = determining_number(g, ctx=ctx)
    rho, labels = cost(g, d=d, ctx=ctx, det_hint=det)
    return InvariantReport(
        graph6=emit_graph6(g),
        n=g.n,
        aut_order=ctx.full.order,
        distinguishing_number=d,
        cost=rho,
        determining_number=det,
        witness_labeling=labels,
        witness_det_set=det_witness,
        class_sizes=tuple(sorted(Counter(labels).values())),
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
    counts = Counter(report.witness_labeling)
    if not counts or set(counts) != set(range(1, len(counts) + 1)):
        problems.append(f"witness labeling invalid: labels must be 1..d, got {sorted(counts)}")
    else:
        if len(counts) != report.distinguishing_number:
            problems.append("witness labeling does not use D labels")
        if not ctx.is_rigid(report.witness_labeling):
            problems.append("witness labeling is preserved by a nontrivial automorphism")
        sizes = tuple(sorted(counts.values()))
        if sizes != report.class_sizes:
            problems.append("class_sizes does not match the witness labeling")
        if min(sizes) != report.cost:
            problems.append("smallest witness class does not equal rho")
    if len(set(report.witness_det_set)) != len(report.witness_det_set):
        problems.append("witness determining set repeats a vertex")
    if len(report.witness_det_set) != report.determining_number:
        problems.append("witness determining set has the wrong size")
    det_set = set(report.witness_det_set)
    if not ctx.pointwise_trivial(det_set):
        problems.append("witness determining set does not determine")
    elif any(ctx.pointwise_trivial(det_set - {v}) for v in det_set):
        problems.append("witness determining set stays determining without one of its vertices")
    return problems
