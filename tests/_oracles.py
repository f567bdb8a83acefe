"""Brute-force oracles for the tests.

Everything here is deliberately naive and independent of the library's
search engine: automorphisms by filtering all n! permutations, invariants
by scanning all labelings or subsets.  Only usable at toy sizes.
"""

from __future__ import annotations

import itertools
import random

from symlab import Graph, from_edge_list


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def brute_aut(g: Graph, colors=None) -> list[tuple[int, ...]]:
    """All adjacency- and color-preserving permutations, by raw filtering."""
    n = g.n
    adj = [set(s) for s in g.adj]
    out = []
    for sigma in itertools.permutations(range(n)):
        if colors is not None and any(colors[sigma[v]] != colors[v] for v in range(n)):
            continue
        if all({sigma[u] for u in adj[v]} == adj[sigma[v]] for v in range(n)):
            out.append(sigma)
    return out


def relabeled(g: Graph, sigma) -> Graph:
    """The graph with an edge sigma[u]sigma[v] for each edge uv of g."""
    return from_edge_list(g.n, [(sigma[u], sigma[v]) for u in range(g.n) for v in g.adj[u] if u < v])


def brute_canonical(g: Graph) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The order of g and its least sorted edge list over all n! relabelings:
    equal exactly for isomorphic graphs."""
    edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    return g.n, min(tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
                    for p in itertools.permutations(range(g.n)))


def naive_refine(adj, colors) -> tuple[int, ...]:
    """Coarsest equitable refinement of ``colors`` on the adjacency lists
    ``adj``, one full round at a time: each round gives every vertex the rank
    of (its class, its neighbors' classes sorted) and it stops at the first
    round that makes no new class."""
    colors = list(colors)
    ncells = len(set(colors))
    while True:
        sigs = [(colors[v], *sorted(colors[u] for u in adj[v])) for v in range(len(adj))]
        palette = sorted(set(sigs))
        rank = {s: i for i, s in enumerate(palette)}
        colors = [rank[s] for s in sigs]
        if len(palette) == ncells:
            return tuple(colors)
        ncells = len(palette)


def stabilizes_labeling(sigma, labels) -> bool:
    return all(labels[sigma[v]] == labels[v] for v in range(len(labels)))


def brute_distinguishing(g: Graph, elements=None) -> int:
    elements = brute_aut(g) if elements is None else elements
    nonid = [s for s in elements if s != identity(g.n)]
    if not nonid:
        return 1
    for d in range(2, g.n + 1):
        for labels in itertools.product(range(1, d + 1), repeat=g.n):
            if not any(stabilizes_labeling(s, labels) for s in nonid):
                return d
    raise AssertionError("all-distinct labeling distinguishes")


def brute_cost(g: Graph, d: int, elements=None) -> int:
    elements = brute_aut(g) if elements is None else elements
    nonid = [s for s in elements if s != identity(g.n)]
    if d == 1:
        return g.n
    best = g.n
    for labels in itertools.product(range(1, d + 1), repeat=g.n):
        if len(set(labels)) != d:
            continue
        if any(stabilizes_labeling(s, labels) for s in nonid):
            continue
        smallest = min(labels.count(lab) for lab in range(1, d + 1))
        best = min(best, smallest)
    return best


def brute_determining(g: Graph, elements=None) -> tuple[int, tuple[int, ...]]:
    elements = brute_aut(g) if elements is None else elements
    nonid = [s for s in elements if s != identity(g.n)]
    for k in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if not any(all(s[v] == v for v in subset) for s in nonid):
                return k, subset
    raise AssertionError("the full vertex set determines")


def colored_determining_number(g: Graph, ctx) -> tuple[int, tuple[int, ...]]:
    """The determining-number base search with each prefix's pointwise
    stabilizer from a colored group search (``ctx.group`` on the coloring that
    individualizes the prefix) and a rigidity query at each leaf: a reference
    for the search by Schreier's lemma, not independent of the engine."""
    from symlab.aut import pointwise_colors
    if ctx.full.order == 1:
        return 0, ()
    branches = {}

    def search(prefix, todo):
        exts = branches.get(prefix)
        if exts is None:
            group = ctx.group(pointwise_colors(g.n, prefix)) if prefix else ctx.full
            low = prefix[-1] if prefix else -1
            left_out = ([u for u in cls if u not in prefix] for cls in g.swap_classes)
            high = min((out[1] for out in left_out if len(out) > 1), default=g.n)
            exts = branches[prefix] = sorted(orbit[0] for orbit in group.orbits
                                             if len(orbit) > 1 and low < orbit[0] <= high)
        for v in exts:
            ext = prefix + (v,)
            if todo == 1:
                found = ext if ctx.pointwise_trivial(ext) else None
            else:
                found = search(ext, todo - 1)
            if found is not None:
                return found
        return None

    for k in range(max(1, sum(len(cls) - 1 for cls in g.swap_classes)), g.n + 1):
        found = search((), k)
        if found is not None:
            return k, found
    raise AssertionError("the full vertex set always determines")


def group_closure(n: int, gens) -> set[tuple[int, ...]]:
    """Every element of the group that ``gens`` generate, by closing under
    multiplication by the generators."""
    found = {identity(n)}
    frontier = list(found)
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = tuple(s[x] for x in p)
            if q not in found:
                found.add(q)
                frontier.append(q)
    return found


def brute_subset_distinguishing(g: Graph, w, elements=None) -> int:
    """Least label count making w a distinguishable subset, by full scan."""
    ws = sorted(w)
    if not ws:
        return 1
    elements = brute_aut(g) if elements is None else elements
    nonid = [s for s in elements if s != identity(g.n)]
    wset = frozenset(ws)
    for d in range(1, len(ws) + 1):
        for labels in itertools.product(range(1, d + 1), repeat=len(ws)):
            lab = dict(zip(ws, labels))
            bad = False
            for s in nonid:
                if frozenset(s[v] for v in ws) != wset:
                    continue
                if all(lab[v] == lab[s[v]] for v in ws) and any(s[v] != v for v in ws):
                    bad = True
                    break
            if not bad:
                return d
    raise AssertionError("distinct labels on w distinguish it")


def lex_live(labels, order, start, live):
    """The orbit prune at the labels of order[:start] by a scan of every live
    table: None when a table of ``live`` maps them to a strictly lex-smaller
    labeling along ``order`` (unlabeled compares as +inf), else the tables
    that still may reject below, each with the first position where it does
    not yet compare equal.

    ``live`` comes from the parent, whose labels this node keeps: positions
    that compared equal with both ends labeled stay equal, and a table that
    gave a larger labeling there gives a larger one in the whole subtree."""
    out = []
    for t, i in live:
        while i < start and labels[t[order[i]]] == labels[order[i]]:
            i += 1
        if i < start:
            a = labels[t[order[i]]]
            if 0 < a < labels[order[i]]:
                return None
            if a:
                continue
        out.append((t, i))
    return out


class FullScanLex:
    """The interface of ``invariants._LexBuckets``, answered by ``lex_live``
    over every live table at each node: one list of live tables per depth."""

    def __init__(self, order, start, tables):
        self.order = order
        self.live = [[(t, 0) for t in tables]]

    def enter(self, labels, start):
        live = lex_live(labels, self.order, start, self.live[-1])
        if live is not None:
            self.live.append(live)
        return live

    def leave(self, filed):
        self.live.pop()


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
    return from_edge_list(n, edges)


def hung_blocks_graph(rng: random.Random, max_order: int) -> Graph:
    """A random connected core with copies of small random blocks hung on
    some of its vertices, at most ``max_order`` vertices, randomly
    relabeled: copies of one block on one vertex are interchangeable."""
    n = rng.randint(1, 3)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.4]
    while n < max_order - 1:
        c, size = rng.randrange(n), rng.randint(1, 3)
        inner = [(rng.randrange(i), i) for i in range(1, size)]
        inner += [(i, j) for i, j in itertools.combinations(range(size), 2) if rng.random() < 0.4]
        to_c = [i for i in range(size) if rng.random() < 0.5] or [0]
        for _ in range(min(rng.randint(1, 3), (max_order - n) // size)):
            edges += [(n + i, n + j) for i, j in inner] + [(c, n + i) for i in to_c]
            n += size
    sigma = list(range(n))
    rng.shuffle(sigma)
    return from_edge_list(n, [(sigma[u], sigma[v]) for u, v in edges])


def connected_graphs(n: int):
    """Every labeled connected graph on exactly n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        g = from_edge_list(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
        if g.is_connected():
            yield g
