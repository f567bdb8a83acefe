"""Colored-graph automorphism engine.

The engine decides which vertex permutations preserve both adjacency and a
vertex coloring, using individualization-refinement backtracking:

* ``refine`` drives a coloring to its coarsest equitable refinement (every
  two vertices in a class see the same multiset of neighbor classes).
* The group search individualizes one vertex of the first smallest
  non-singleton class, recursively computes that vertex's stabilizer, and
  finds one coset representative per orbit point.  The group keeps these
  transversals, one per level of this first-path stabilizer chain: its order
  is the product of their sizes, its elements their products.

All searches are deterministic (fixed cell selection, vertices branched in
index order) and guarded by a node budget: exhausting the budget raises,
it never degrades into a wrong answer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .graphs import Graph

DEFAULT_NODE_BUDGET = 10_000_000

# Groups at most this large are expanded into an explicit element list so
# that repeated colored queries on one graph become cheap filters.
ENUMERATE_LIMIT = 2048

Perm = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """Search-tree node budget exhausted; the query has no answer."""


class ColoringError(ValueError):
    """Labels are not a total map onto a contiguous range 1..d."""


class Budget:
    """Mutable node counter shared across the searches of one operation."""

    __slots__ = ("cap", "used")

    def __init__(self, cap: int = DEFAULT_NODE_BUDGET):
        self.cap = cap
        self.used = 0

    def spend(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceededError(
                f"search budget of {self.cap} nodes exhausted"
            )


@dataclass(frozen=True)
class Coloring:
    """Total vertex labeling with labels 1..d; doubles as an ordered partition."""

    labels: tuple[int, ...]

    def __post_init__(self):
        if not self.labels:
            raise ColoringError("coloring must label at least one vertex")
        seen = set(self.labels)
        d = max(seen)
        if seen != set(range(1, d + 1)):
            raise ColoringError(f"labels must form a contiguous range 1..d, got {sorted(seen)}")

    @classmethod
    def uniform(cls, n: int) -> "Coloring":
        return cls((1,) * n)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def num_labels(self) -> int:
        return max(self.labels)

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.num_labels)]
        for v, c in enumerate(self.labels):
            out[c - 1].append(v)
        return out

    def class_sizes(self) -> list[int]:
        return [len(c) for c in self.classes()]


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


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """Permutation applying q first, then p."""
    return tuple(p[x] for x in q)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


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


def _orbit_partition(n: int, gens: Sequence[Perm]) -> tuple[tuple[int, ...], ...]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in gens:
        for v in range(n):
            a, b = find(v), find(g[v])
            if a != b:
                parent[a] = b
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(m)) for m in sorted(groups.values()))


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
                trans[w] = compose(g, trans[v])
                frontier.append(w)
    return trans


# ---------------------------------------------------------------------------
# the search engine
# ---------------------------------------------------------------------------

class _Engine:
    """One individualization-refinement search over a fixed graph + coloring."""

    def __init__(self, graph: Graph, root_colors: Sequence[int], budget: Budget):
        self.n = graph.n
        self.adj = graph.adj_lists
        self.bits = graph.adj_bits
        self.root = tuple(root_colors)
        self.budget = budget

    # -- partition primitives ------------------------------------------------

    def refine(self, colors: Sequence[int]) -> list[int]:
        """Coarsest equitable refinement; class ids renumbered 0..k-1 in an
        isomorphism-invariant order (old class first, then neighbor signature)."""
        self.budget.spend()
        adj = self.adj
        n = self.n
        colors = list(colors)
        ncells = len(set(colors))
        while True:
            sigs = [
                (colors[v], *sorted(colors[u] for u in adj[v]))
                for v in range(n)
            ]
            palette = sorted(set(sigs))
            lut = {s: i for i, s in enumerate(palette)}
            colors = [lut[s] for s in sigs]
            if len(palette) == ncells:
                return colors
            ncells = len(palette)

    @staticmethod
    def individualize(colors: Sequence[int], v: int) -> list[int]:
        out = list(colors)
        out[v] = max(colors) + 1
        return out

    @staticmethod
    def shape(colors: Sequence[int]) -> tuple[int, ...]:
        sizes = [0] * (max(colors) + 1)
        for c in colors:
            sizes[c] += 1
        return tuple(sizes)

    @staticmethod
    def target_cell(colors: Sequence[int]) -> list[int] | None:
        """First smallest non-singleton class, or None when discrete."""
        sizes: dict[int, int] = {}
        for c in colors:
            sizes[c] = sizes.get(c, 0) + 1
        best: tuple[int, int] | None = None
        for c, k in sizes.items():
            if k >= 2 and (best is None or (k, c) < best):
                best = (k, c)
        if best is None:
            return None
        return [v for v, c in enumerate(colors) if c == best[1]]

    # -- complete search for one mapping between two configurations -----------

    def _find_iso(self, left: list[int], right: list[int]) -> Perm | None:
        if self.shape(left) != self.shape(right):
            return None
        cell = self.target_cell(left)
        if cell is None:
            pos = {c: v for v, c in enumerate(right)}
            sigma = tuple(pos[c] for c in left)
            return sigma if _is_automorphism(self.bits, self.root, sigma) else None
        color = left[cell[0]]
        sub_left = self.refine(self.individualize(left, cell[0]))
        for w in (v for v in range(self.n) if right[v] == color):
            sub_right = self.refine(self.individualize(right, w))
            found = self._find_iso(sub_left, sub_right)
            if found is not None:
                return found
        return None

    # -- group computation along the first-path stabilizer chain --------------

    def group(self) -> PermGroup:
        gens, levels = self._group_of(self.refine(self.root))
        return PermGroup(self.n, tuple(gens), _orbit_partition(self.n, gens),
                         tuple(tuple(t.values()) for t in levels))

    def _group_of(self, colors: list[int], first: bool = False) -> tuple[list[Perm], list[dict]]:
        """Generators of the group fixing ``colors`` and its transversals, top
        level first; with ``first``, return as soon as one generator is found
        (the transversals are then incomplete)."""
        cell = self.target_cell(colors)
        if cell is None:
            return [], []
        beta = cell[0]
        sub = self.refine(self.individualize(colors, beta))
        gens, levels = self._group_of(sub, first)
        if first and gens:
            return gens, levels
        trans = _transversal(self.n, beta, gens)
        for v in cell[1:]:
            if v in trans:
                continue
            sigma = self._find_iso(sub, self.refine(self.individualize(colors, v)))
            if sigma is not None:
                gens.append(sigma)
                if first:
                    return gens, levels
                _transversal(self.n, beta, gens, trans)
        return gens, [trans, *levels]

    def first_nontrivial(self) -> Perm | None:
        """Cheapest witness that the colored group is nontrivial, else None."""
        gens, _ = self._group_of(self.refine(self.root), first=True)
        return gens[0] if gens else None


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def _root_colors(g: Graph, coloring: Coloring | None) -> list[int]:
    if coloring is None:
        return [0] * g.n
    if coloring.n != g.n:
        raise ColoringError(f"coloring has {coloring.n} labels for a graph of order {g.n}")
    return list(coloring.labels)


def automorphisms(g: Graph, coloring: Coloring | None = None, budget: Budget | None = None) -> PermGroup:
    """Exact group of adjacency- and color-preserving permutations."""
    budget = budget or Budget()
    return _Engine(g, _root_colors(g, coloring), budget).group()


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
    """Coloring that individualizes ``vertices``: the i-th smallest gets color
    i + 1, every other vertex color 0.  Its colored group is the pointwise
    stabilizer of the set."""
    colors = [0] * n
    for i, v in enumerate(sorted(set(vertices))):
        if not (0 <= v < n):
            raise ValueError(f"vertex {v} out of range for order {n}")
        colors[v] = i + 1
    return colors


def enumerate_elements(group: PermGroup) -> Iterator[Perm]:
    """Each group element once, lazily, the identity first: the products of
    one representative per level of the group's transversals."""
    ident = identity_perm(group.degree)
    for reps in itertools.product(*group.transversals):
        yield reduce(compose, reps, ident)


def brute_force_automorphisms(g: Graph, coloring: Coloring | None = None, max_order: int = 8) -> list[Perm]:
    """Oracle: filter all n! permutations for adjacency and color preservation.

    Independent of the refinement search (it shares only the preservation
    test with the engine's leaf check); only sensible for g.n <= max_order.
    """
    if g.n > max_order:
        raise ValueError(f"brute force limited to order {max_order}, got {g.n}")
    colors, bits = _root_colors(g, coloring), g.adj_bits
    return [s for s in itertools.permutations(range(g.n)) if _is_automorphism(bits, colors, s)]


def refine(g: Graph, coloring: Coloring, budget: Budget | None = None) -> Coloring:
    """Coarsest equitable refinement of a coloring (stable, deterministic,
    automorphism-invariant; refines the input label classes in order)."""
    budget = budget or Budget()
    colors = _Engine(g, _root_colors(g, coloring), budget).refine(coloring.labels)
    return Coloring(tuple(c + 1 for c in colors))


# ---------------------------------------------------------------------------
# per-graph query context
# ---------------------------------------------------------------------------

class AutContext:
    """Caches one graph's automorphism group and answers colored queries.

    When the full group is small enough it is expanded once into an explicit
    element list, and every colored query becomes an exact filter over it;
    otherwise each query runs its own refinement search.  Both backends give
    identical answers, so callers stay deterministic either way.

    The filter keeps, per non-identity element p, an ``itemgetter(*p)``: p
    preserves a coloring iff the getter maps the color tuple onto itself.
    """

    def __init__(self, graph: Graph, budget: Budget | None = None):
        self.graph = graph
        self.budget = budget or Budget()
        self.full = automorphisms(graph, budget=self.budget)
        self._filter: list[tuple[Perm, itemgetter]] | None = None
        if self.full.order <= ENUMERATE_LIMIT:
            # elements are sorted, so the identity sits at index 0; every
            # other element moves a vertex, so n >= 2 and each getter
            # returns a tuple
            elements = sorted(enumerate_elements(self.full))
            self._filter = [(p, itemgetter(*p)) for p in elements[1:]]

    # colors below are arbitrary integer vectors of length n: equal value =
    # same class

    def _key(self, colors: Sequence[int]) -> tuple[int, ...]:
        key = tuple(colors)
        if len(key) != self.graph.n:
            raise ColoringError(f"{len(key)} colors for a graph of order {self.graph.n}")
        return key

    def first_nontrivial(self, colors: Sequence[int]) -> Perm | None:
        key = self._key(colors)
        if self._filter is None:
            return _Engine(self.graph, key, self.budget).first_nontrivial()
        for p, get in self._filter:
            if get(key) == key:
                return p
        return None

    def is_rigid(self, colors: Sequence[int]) -> bool:
        return self.first_nontrivial(colors) is None

    def group(self, colors: Sequence[int]) -> PermGroup:
        key = self._key(colors)
        if self._filter is None:
            return _Engine(self.graph, key, self.budget).group()
        n = self.graph.n
        gens = tuple(p for p, get in self._filter if get(key) == key)
        kept = (identity_perm(n),) + gens
        # the kept elements form a group, so the orbit of v is its set of images
        orbits = tuple(sorted({tuple(sorted({p[v] for p in kept})) for v in range(n)}))
        return PermGroup(n, gens, orbits, (kept,))

    def pointwise_trivial(self, vertices: Iterable[int]) -> bool:
        """True iff only the identity fixes every vertex of ``vertices``."""
        return self.first_nontrivial(pointwise_colors(self.graph.n, vertices)) is None

    def subset_orbit(self, vertices: Iterable[int]) -> set[frozenset[int]]:
        """Orbit of a vertex set under the full group's generators."""
        start = frozenset(vertices)
        orbit = {start}
        frontier = [start]
        while frontier:
            s = frontier.pop()
            for gen in self.full.generators:
                t = frozenset(gen[v] for v in s)
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        return orbit
