"""Colored-graph automorphism engine.

The engine decides which vertex permutations preserve both adjacency and a
vertex coloring, using individualization-refinement backtracking:

* ``refine`` drives a coloring to its coarsest equitable refinement (every
  two vertices in a class see the same multiset of neighbor classes).
* The group search individualizes one vertex of the first smallest
  non-singleton class, recursively computes that vertex's stabilizer, and
  finds one coset representative per orbit point.  Before it searches, it
  takes the twin transpositions and block swaps that the graph's structure
  shows (``_structural_moves``).  The group keeps these transversals, one
  per level of this first-path stabilizer chain: its order is the product
  of their sizes, its elements their products.
* ``point_stabilizer`` derives, with no search, the stabilizer of a point
  from a group's generators and order by Schreier's lemma.
* ``AutContext`` keeps one graph's full group and answers colored queries
  with the automorphisms it knows, the full group's generators first,
  before it searches.

All searches are deterministic (fixed cell selection, vertices branched in
index order) and guarded by a node budget: exhausting the budget raises,
it never degrades into a wrong answer.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import Graph

DEFAULT_NODE_BUDGET = 10_000_000

Perm = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """Search-tree node budget exhausted; the query has no answer."""


class ColoringError(ValueError):
    """A color vector does not give exactly one color per vertex."""


class Budget:
    """Mutable node counter shared across the searches of one operation."""

    __slots__ = ("cap", "used")

    def __init__(self, cap: int = DEFAULT_NODE_BUDGET):
        self.cap = cap
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceededError(f"search budget of {self.cap} nodes exhausted")

    def recall(self) -> None:
        """One node of work that is not a refinement."""
        self.used += 1
        if self.used > self.cap:
            raise BudgetExceededError(f"search budget of {self.cap} nodes exhausted")


@dataclass(frozen=True)
class PermGroup:
    """Permutation group given by generators, orbit partition, and the
    transversals of a stabilizer chain, top level first: level i holds one
    representative per coset of stabilizer i + 1 in stabilizer i, identity first."""

    degree: int
    generators: tuple[Perm, ...]
    orbits: tuple[tuple[int, ...], ...]
    transversals: tuple[tuple[Perm, ...], ...]

    @cached_property
    def order(self) -> int:
        return math.prod(map(len, self.transversals))

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @cached_property
    def base_order(self) -> tuple[int, ...]:
        """The points in the order the stabilizer chain fixes them: by 1 + the
        last level with a representative that moves them, 0 if none does,
        ties by index.  A point at i is fixed by the pointwise stabilizer of
        the first i base points, so the base comes in chain order."""
        depth = [0] * self.degree
        for i, level in enumerate(self.transversals, 1):
            for p in level[1:]:
                for v, w in enumerate(p):
                    if v != w:
                        depth[v] = i
        return tuple(sorted(range(self.degree), key=depth.__getitem__))


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Permutation applying q first, then p."""
    return tuple(p[x] for x in q)


def _is_automorphism(bits: Sequence[int], colors: Sequence[int], sigma: Sequence[int]) -> bool:
    """True iff ``sigma`` maps the adjacency bitmasks ``bits`` and the vertex
    colors onto themselves."""
    for v in range(len(bits)):
        if colors[sigma[v]] != colors[v]:
            return False
        m = bits[v]
        img = 0
        while m:
            b = m & -m
            img |= 1 << sigma[b.bit_length() - 1]
            m ^= b
        if img != bits[sigma[v]]:
            return False
    return True


def _orbit(v: int, gens: Sequence[Perm]) -> set[int]:
    """The points that products of ``gens`` take v to."""
    orbit = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for g in gens:
            w = g[u]
            if w not in orbit:
                orbit.add(w)
                frontier.append(w)
    return orbit


def orbit_partition(n: int, gens: Sequence[Perm]) -> tuple[tuple[int, ...], ...]:
    """The orbits of ``gens`` as sorted tuples, in order of their least point."""
    orbits = []
    seen: set[int] = set()
    for v in range(n):
        if v not in seen:
            orbit = _orbit(v, gens)
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def _transversal(n: int, beta: int, gens: Sequence[Perm], trans: dict | None = None) -> dict[int, Perm]:
    """Map each point of beta's orbit under ``gens`` to a permutation taking
    beta there, the identity for beta first.  Given an earlier result as
    ``trans``, extend it in place: known points keep their representative."""
    if trans is None:
        trans = {beta: identity_perm(n)}
    frontier = list(trans)
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = g[v]
            if w not in trans:
                # g after trans[v] in one pass; g moves v, so n >= 2 and
                # itemgetter gives a tuple
                trans[w] = operator.itemgetter(*trans[v])(g)
                frontier.append(w)
    return trans


def _orbit_bound(n: int, levels: Mapping[int, Mapping[int, Perm]]) -> int:
    """A lower bound on the order of the group generated by the permutations
    in ``levels``, where those at i fix 0..i-1 and move i: the product over
    i of the length of i's orbit under those at i and above, merged in a
    union-find forest from the top level down (``notes/decisions.md``,
    "Pointwise stabilizers by Schreier's lemma")."""
    root = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    ident = identity_perm(n)
    bound = 1
    for i in sorted(levels, reverse=True):
        for k in levels[i].values():
            for x in itertools.compress(ident, map(operator.ne, k, ident)):
                a, b = find(x), find(k[x])
                if a != b:
                    root[b] = a
                    size[a] += size[b]
        bound *= size[find(i)]
    return bound


def point_stabilizer(n: int, gens: Sequence[Perm], order: int, v: int,
                     budget: Budget) -> tuple[list[Perm], int]:
    """Generators and order of the stabilizer of v in the group of ``order``
    elements that ``gens`` generate, by Schreier's lemma: the order over the
    length of v's orbit, and the Schreier generators t_{s(u)}⁻¹ s t_u, for
    each generator s and each t_u in v's transversal, each formed spending
    one node.

    Sims's filter sifts them: while a kept element has the same first moved
    point i and image of i, a generator is replaced by that one's inverse
    times it, which fixes i too; it is kept once its pair is new, and
    dropped as the identity.  Once the kept elements' orbit bound reaches
    the order, checked before the generators of each u, they generate the
    whole stabilizer and the rest are not formed."""
    trans = _transversal(n, v, gens)
    order //= len(trans)
    ident = identity_perm(n)
    # first moved point -> its image -> the inverse of the kept element; the
    # inverses generate the same group, so they are what is returned
    levels: dict[int, dict[int, Perm]] = {}
    inverses: dict[int, Perm] = {}
    kept, checked = 0, None
    for u, t in trans.items():
        if checked != kept:
            checked = kept
            if _orbit_bound(n, levels) == order:
                break
        # itemgetter(*p)(q) is q after p, in one pass; a group that moves a
        # point has n >= 2 points, so it gives a tuple
        after_t = operator.itemgetter(*t)
        for s in gens:
            budget.recall()
            w = s[u]
            inv = inverses.get(w)
            if inv is None:
                inv = inverses[w] = _inverse(trans[w])
            h = operator.itemgetter(*after_t(s))(inv)
            i = next(itertools.compress(ident, map(operator.ne, h, ident)), None)
            while i is not None:
                level = levels.setdefault(i, {})
                k = level.get(h[i])
                if k is None:
                    level[h[i]] = _inverse(h)
                    kept += 1
                    break
                h = operator.itemgetter(*h)(k)
                i = next(itertools.compress(ident, map(operator.ne, h, ident)), None)
    return [k for level in levels.values() for k in level.values()], order


def _structural_moves(g: Graph, v: int) -> Iterator[dict[int, int]]:
    """The automorphisms of ``g`` that move v and that its structure shows
    with no search, each as the map of the points it moves: v's
    transpositions with the rest of its swap class (``Graph.swap_classes``),
    then, per family with a block holding v (``Graph.block_families``), the
    swaps of that block with each other block and the family's internal
    maps carried into it (notes/decisions.md, "Structural automorphisms seed
    the group search")."""
    for cls in g.swap_classes:
        if v in cls:
            yield from ({v: w, w: v} for w in cls if w != v)
    for fam in g.block_families:
        for blk in fam.blocks:
            if v in blk:
                for other in fam.blocks:
                    if other is not blk:
                        yield {**dict(zip(blk, other)), **dict(zip(other, blk))}
                for k in fam.internal:
                    move = {u: blk[j] for u, j in zip(blk, k) if u != blk[j]}
                    if v in move:
                        yield move


# ---------------------------------------------------------------------------
# the search engine
# ---------------------------------------------------------------------------

class _Engine:
    """One individualization-refinement search over a fixed graph + coloring."""

    def __init__(self, graph: Graph, root_colors: Sequence[int], budget: Budget):
        self.graph = graph
        self.n = graph.n
        self.adj = graph.adj_lists
        self.bits = graph.adj_bits
        self.root = tuple(root_colors)
        self.budget = budget

    # -- partition primitives ------------------------------------------------

    def refine(self, colors: Sequence[int], at: int | None = None) -> list[int]:
        """Coarsest equitable refinement; class ids renumbered 0..k-1 in an
        isomorphism-invariant order (old class first, then neighbor signature).

        With ``at``, ``colors`` is an output of this method and ``at`` a vertex
        of a non-singleton class; the result is the refinement of ``colors``
        with ``at`` given a new color above all others.

        Each round cuts a class by its vertices' sorted neighbor classes, but
        looks only at neighbors in the parts of the classes the previous round
        split: elsewhere the vertices of a class have equal neighbor counts,
        so the restricted keys order them as the full ones do
        (``notes/decisions.md``).  Only vertices of classes of two or more
        are keyed, as a singleton cannot be cut, and a discrete coloring is
        returned at once."""
        self.budget.spend()
        adj = self.adj
        if at is None:
            lut = {c: i for i, c in enumerate(sorted(set(colors)))}
            colors = [lut[c] for c in colors]
        else:
            colors = list(colors)
        n = self.n
        cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
        for v, c in enumerate(colors):
            cells[c].append(v)
        split = cells
        if at is not None:
            rest = cells[colors[at]]
            rest.remove(at)
            colors[at] = len(cells)
            cells.append([at])
            split = [rest, cells[-1]]
        multi = [len(cells[c]) > 1 for c in colors]
        while len(cells) < n:
            # split parts in id order, so each key list comes out sorted
            keys: dict[int, list[int]] = {}
            for cell in split:
                for u in cell:
                    c = colors[u]
                    for w in adj[u]:
                        if multi[w]:
                            if w in keys:
                                keys[w].append(c)
                            else:
                                keys[w] = [c]
            parts: dict[int, list[list[int]]] = {}
            for j in {colors[w] for w in keys}:
                cell = cells[j]
                groups: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    key = tuple(keys.get(v, ()))
                    if key in groups:
                        groups[key].append(v)
                    else:
                        groups[key] = [v]
                if len(groups) > 1:
                    parts[j] = [groups[key] for key in sorted(groups)]
            if not parts:
                return colors
            first = min(parts)
            out = cells[:first]
            split = []
            for j in range(first, len(cells)):
                if j in parts:
                    out += parts[j]
                    split += parts[j]
                    for part in parts[j]:
                        if len(part) == 1:
                            multi[part[0]] = False
                else:
                    out.append(cells[j])
            for i in range(first, len(out)):
                for v in out[i]:
                    colors[v] = i
            cells = out
        return colors

    @staticmethod
    def shape(colors: Sequence[int]) -> tuple[int, ...]:
        sizes = [0] * (max(colors) + 1)
        for c in colors:
            sizes[c] += 1
        return tuple(sizes)

    @staticmethod
    def target_cell(colors: Sequence[int]) -> list[int] | None:
        """First smallest non-singleton class, or None when discrete."""
        best, cell = len(colors) + 1, None
        for c, k in enumerate(_Engine.shape(colors)):
            if 1 < k < best:
                best, cell = k, c
        if cell is None:
            return None
        return [v for v, c in enumerate(colors) if c == cell]

    # -- complete search for one mapping between two configurations -----------

    def _find_iso(self, depth: int, right: list[int]) -> Perm | None:
        """An automorphism taking the first path's coloring at ``depth`` to
        ``right``, or None; only the right side is refined."""
        left, shape, cell = self.path[depth]
        if shape != self.shape(right):
            return None
        if cell is None:
            pos = {c: v for v, c in enumerate(right)}
            sigma = tuple(pos[c] for c in left)
            return sigma if _is_automorphism(self.bits, self.root, sigma) else None
        color = left[cell[0]]
        for w in (v for v in range(self.n) if right[v] == color):
            found = self._find_iso(depth + 1, self.refine(right, w))
            if found is not None:
                return found
        return None

    # -- group computation along the first-path stabilizer chain --------------

    def _first_path(self) -> list[tuple[list[int], tuple[int, ...], list[int] | None]]:
        """The refined root coloring, then the refinement after individualizing
        the first vertex of each target cell, down to a discrete coloring:
        (coloring, shape, target cell) per depth."""
        path = []
        colors = self.refine(self.root)
        while True:
            cell = self.target_cell(colors)
            path.append((colors, self.shape(colors), cell))
            if cell is None:
                return path
            colors = self.refine(colors, cell[0])

    def group(self) -> PermGroup:
        self.path = self._first_path()
        gens, levels = self._group_of(0)
        return PermGroup(self.n, tuple(gens), orbit_partition(self.n, gens),
                         tuple(tuple(t.values()) for t in levels))

    def _group_of(self, depth: int, first: bool = False) -> tuple[list[Perm], list[dict]]:
        """Generators of the group fixing the first path's coloring at
        ``depth`` and its transversals, top level first; with ``first``,
        return as soon as one generator is found (the transversals are then
        incomplete).  Without ``first``, the structural moves of the base
        point that keep the coloring and grow its orbit are generators
        before any candidate image is searched: each lies in this level's
        group, so the transversal still ends as the whole orbit."""
        colors, _, cell = self.path[depth]
        if cell is None:
            return [], []
        beta = cell[0]
        gens, levels = self._group_of(depth + 1, first)
        if first and gens:
            return gens, levels
        trans = _transversal(self.n, beta, gens)
        if not first:
            for move in _structural_moves(self.graph, beta):
                if move[beta] not in trans and all(colors[w] == colors[v]
                                                   for v, w in move.items()):
                    gens.append(tuple([move.get(u, u) for u in range(self.n)]))
                    _transversal(self.n, beta, gens, trans)
        for v in cell[1:]:
            if v in trans:
                continue
            sigma = self._find_iso(depth + 1, self.refine(colors, v))
            if sigma is not None:
                gens.append(sigma)
                if first:
                    return gens, levels
                _transversal(self.n, beta, gens, trans)
        return gens, [trans, *levels]

    def first_nontrivial(self) -> Perm | None:
        """Cheapest witness that the colored group is nontrivial, else None."""
        self.path = self._first_path()
        gens, _ = self._group_of(0, first=True)
        return gens[0] if gens else None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _color_key(n: int, colors: Sequence[int] | None) -> tuple[int, ...]:
    """A coloring as a tuple: any int vector of length n, equal values
    meaning the same class; None colors every vertex alike."""
    if colors is None:
        return (0,) * n
    key = tuple(colors)
    if len(key) != n:
        raise ColoringError(f"{len(key)} colors for a graph of order {n}")
    return key


def automorphisms(g: Graph, colors: Sequence[int] | None = None,
                  budget: Budget | None = None) -> PermGroup:
    """Exact group of adjacency- and color-preserving permutations."""
    return _Engine(g, _color_key(g.n, colors), budget or Budget()).group()


def labeling_colors(n: int, labeling: Mapping[int, int], rest: int) -> list[int]:
    """Color vector giving each vertex of ``labeling`` its label, which must
    be positive, and every other vertex the color ``rest``."""
    colors = [rest] * n
    for v, lab in labeling.items():
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range for order {n}")
        if lab < 1:
            raise ValueError(f"labels must be positive, got {lab} at vertex {v}")
        colors[v] = lab
    return colors


def pointwise_colors(n: int, vertices: Iterable[int]) -> list[int]:
    """Color vector that individualizes ``vertices``: the i-th smallest gets color
    i + 1, every other vertex color 0.  Its colored group is the pointwise
    stabilizer of the set."""
    return labeling_colors(n, {v: i + 1 for i, v in enumerate(sorted(set(vertices)))}, 0)


def byte_tables(images: Sequence[int]) -> list[list[int]]:
    """Per byte of a bitmask, the image of each value of that byte under the
    map that takes bit i to the bitmask ``images[i]`` and a union of bits to
    the union of their images.  Built by doubling: the values below 2^j
    extended by bit j are those values' images plus the image of bit j.  A
    last byte of k < 8 bits has 2^k values."""
    tables = []
    for shift in range(0, len(images), 8):
        table = [0]
        for image in images[shift:shift + 8]:
            table += [t | image for t in table]
        tables.append(table)
    return tables


def enumerate_elements(group: PermGroup) -> Iterator[Perm]:
    """Each group element once, lazily, the identity first: the products of
    one representative per level of the group's transversals."""
    ident = identity_perm(group.degree)
    for reps in itertools.product(*group.transversals):
        yield reduce(compose, reps, ident)


def brute_force_automorphisms(g: Graph, colors: Sequence[int] | None = None,
                              max_order: int = 8) -> list[Perm]:
    """Oracle: every adjacency- and color-preserving permutation, in
    lexicographic order, built vertex by vertex.

    The map of vertices 0..v-1 is extended to v by each unused image of v's
    degree and color that is adjacent to exactly the images of v's earlier
    neighbors.  Independent of the refinement search: no refinement, no
    individualization, no orbit pruning; only sensible for g.n <= max_order.
    """
    if g.n > max_order:
        raise ValueError(f"brute force limited to order {max_order}, got {g.n}")
    n, bits = g.n, g.adj_bits
    key = [(c, len(s)) for c, s in zip(_color_key(n, colors), g.adj)]
    found: list[Perm] = []
    image: list[int] = []

    def extend(v: int, used: int) -> None:
        if v == n:
            found.append(tuple(image))
            return
        # the images of v's neighbors among 0..v-1
        want, m = 0, bits[v] & ((1 << v) - 1)
        while m:
            b = m & -m
            want |= 1 << image[b.bit_length() - 1]
            m ^= b
        for s in range(n):
            if not used >> s & 1 and key[s] == key[v] and bits[s] & used == want:
                image.append(s)
                extend(v + 1, used | 1 << s)
                image.pop()

    extend(0, 0)
    return found


def refine(g: Graph, colors: Sequence[int], budget: Budget | None = None) -> tuple[int, ...]:
    """Coarsest equitable refinement of a coloring as class ids 0..k-1 (stable,
    deterministic, automorphism-invariant; refines the input classes in order)."""
    key = _color_key(g.n, colors)
    return tuple(_Engine(g, key, budget or Budget()).refine(key))


# ---------------------------------------------------------------------------
# per-graph query context
# ---------------------------------------------------------------------------

class AutContext:
    """One graph's full automorphism group, kept, the automorphisms it knows
    (the full group's generators, then those its colored queries have
    found), the partitions those queries have proved rigid, and a node
    budget that every query spends.  A query whose colors a known
    automorphism keeps, or whose partition was proved rigid, is answered
    without a search, for one node (``notes/decisions.md``, "Coset tables,
    twins, swaps and known automorphisms" and "Structural automorphisms
    seed the group search")."""

    def __init__(self, graph: Graph, budget: Budget | None = None):
        self.graph = graph
        self.budget = budget or Budget()
        self.full = automorphisms(graph, budget=self.budget)
        # the full group's generators, then each automorphism a query found,
        # with the itemgetter that reads colors through it
        self._known: list[tuple[Perm, operator.itemgetter]] = [
            (gen, operator.itemgetter(*gen)) for gen in self.full.generators]
        # rigid colorings, classes renamed by first occurrence
        self._rigid: set[tuple[int, ...]] = set()

    def first_nontrivial(self, colors: Sequence[int]) -> Perm | None:
        """A nontrivial automorphism that keeps ``colors``, or None."""
        key = _color_key(self.graph.n, colors)
        for sigma, image in self._known:
            # a nontrivial sigma has n >= 2 points, so image(key) is a tuple
            if image(key) == key:
                self.budget.recall()
                return sigma
        ids: dict[int, int] = {}
        partition = tuple([ids.setdefault(c, len(ids)) for c in key])
        if partition in self._rigid:
            self.budget.recall()
            return None
        sigma = _Engine(self.graph, key, self.budget).first_nontrivial()
        if sigma is None:
            self._rigid.add(partition)
        else:
            self._known.append((sigma, operator.itemgetter(*sigma)))
        return sigma

    def is_rigid(self, colors: Sequence[int]) -> bool:
        return self.first_nontrivial(colors) is None

    def group(self, colors: Sequence[int]) -> PermGroup:
        return automorphisms(self.graph, colors, self.budget)

    def pointwise_trivial(self, vertices: Iterable[int]) -> bool:
        """True iff only the identity fixes every vertex of ``vertices``."""
        return self.first_nontrivial(pointwise_colors(self.graph.n, vertices)) is None

    @cached_property
    def _set_moves(self) -> list[list[tuple[int, list[int]]]]:
        # per generator and per byte of a vertex bitmask, the byte's shift and
        # the image of each byte value
        shifts = range(0, self.graph.n, 8)
        return [list(zip(shifts, byte_tables([1 << v for v in gen])))
                for gen in self.full.generators]

    def subset_orbit(self, vertices: Iterable[int]) -> set[int]:
        """Orbit of a vertex set under the full group's generators, each set
        as the bitmask of its vertices."""
        start = sum(1 << v for v in set(vertices))
        orbit = {start}
        frontier = [start]
        for s in frontier:
            for tables in self._set_moves:
                t = 0
                for shift, table in tables:
                    t |= table[s >> shift & 255]
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        return orbit
