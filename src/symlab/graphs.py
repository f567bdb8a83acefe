"""Immutable simple graphs, standard family constructors, and I/O formats.

Vertices are integers 0..n-1.  Family constructors use a fixed, documented
index layout so that vertex sets appearing in reports are reproducible:

* ``friendship(n)``: hub = index 0, outer vertices 1..2n; indices 2q-1 and 2q
  form one triangle together with the hub.
* ``corona(g, h)``: the vertices of ``g`` come first (0..g.n-1), then the
  copies of ``h`` in order; copy i occupies g.n + i*h.n .. g.n + (i+1)*h.n - 1.
* ``star(n)``: center = index 0, n leaves.
* ``hypercube(k)``: vertex v is the k-bit string with value v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class GraphError(ValueError):
    """Invalid graph construction (bad index, self-loop, empty vertex set)."""


class Graph6Error(ValueError):
    """Malformed graph6 input; carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class EdgeListError(ValueError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class FamilySpecError(ValueError):
    """Unparseable or out-of-range family spec string."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after construction."""

    n: int
    adj: tuple[frozenset[int], ...]

    @cached_property
    def adj_lists(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sorted(s)) for s in self.adj)

    @cached_property
    def adj_bits(self) -> tuple[int, ...]:
        return tuple(sum(1 << u for u in s) for s in self.adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(s) for s in self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adj_lists[u]:
                if u < v:
                    yield (u, v)

    @cached_property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = 1
        frontier = 1
        bits = self.adj_bits
        while frontier:
            nxt = 0
            m = frontier
            while m:
                b = m & -m
                nxt |= bits[b.bit_length() - 1]
                m ^= b
            frontier = nxt & ~seen
            seen |= nxt
        return seen == (1 << self.n) - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, m={self.edge_count})"


def _build(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    if n < 1:
        raise GraphError(f"graph order must be >= 1, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for order {n}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) not allowed")
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(frozenset(s) for s in adj))


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given edges; duplicates collapse, loops rejected."""
    return _build(n, edges)


# ---------------------------------------------------------------------------
# standard families
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    return _build(n, itertools.combinations(range(n), 2))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete_bipartite needs both sides nonempty")
    return _build(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def path(n: int) -> Graph:
    return _build(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs order >= 3, got {n}")
    return _build(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star with n leaves (order n+1); the center is index 0."""
    if n < 1:
        raise GraphError(f"star needs at least one leaf, got {n}")
    return _build(n + 1, ((0, i) for i in range(1, n + 1)))


def hypercube(k: int) -> Graph:
    """k-dimensional hypercube on 2**k vertices; adjacency = Hamming distance 1."""
    if k < 0:
        raise GraphError(f"hypercube dimension must be >= 0, got {k}")
    n = 1 << k
    edges = ((v, v ^ (1 << b)) for v in range(n) for b in range(k) if v < v ^ (1 << b))
    return _build(n, edges)


def friendship(n: int) -> Graph:
    """n triangles sharing one hub vertex; order 2n+1, size 3n.

    Hub = index 0; outer vertices v_1..v_2n at indices 1..2n,
    with {v_{2q-1}, v_{2q}} completing the q-th triangle.
    """
    if n < 2:
        raise GraphError(f"friendship graph needs at least 2 triangles, got {n}")
    edges = [(0, i) for i in range(1, 2 * n + 1)]
    edges += [(2 * q - 1, 2 * q) for q in range(1, n + 1)]
    return _build(2 * n + 1, edges)


def corona(g: Graph, h: Graph) -> Graph:
    """Corona of g and h: one copy of g, g.n copies of h, vertex i of g joined
    to every vertex of copy i.

    Index layout is deterministic: g's vertices first, then copies in order.
    """
    n = g.n * (1 + h.n)
    edges: list[tuple[int, int]] = list(g.edges())
    for i in range(g.n):
        base = g.n + i * h.n
        edges += [(base + u, base + v) for u, v in h.edges()]
        edges += [(i, base + u) for u in range(h.n)]
    return _build(n, edges)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by ``vertices``; also returns the old->new index map."""
    vs = sorted(set(vertices))
    if not vs:
        raise GraphError("induced subgraph needs a nonempty vertex set")
    for v in vs:
        if not (0 <= v < g.n):
            raise GraphError(f"vertex {v} out of range for order {g.n}")
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return _build(len(vs), edges), index


# ---------------------------------------------------------------------------
# graph6 encoding
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _g6_check_char(ch: str, offset: int) -> int:
    code = ord(ch)
    if not (63 <= code <= 126):
        raise Graph6Error(f"character {ch!r} outside graph6 range 63..126", offset)
    return code - 63


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional '>>graph6<<' header allowed).

    The format packs the upper triangle of the adjacency matrix, column by
    column, into 6-bit chunks stored as printable ASCII (value + 63).
    Malformed input raises :class:`Graph6Error` with a byte offset.
    """
    s = text.strip()
    base = 0
    if s.startswith(_G6_HEADER):
        base = len(_G6_HEADER)
        s = s[base:].strip()
    if not s:
        raise Graph6Error("empty graph6 input", base)

    pos = 0
    first = _g6_check_char(s[0], base)
    if first < 63:
        n = first
        pos = 1
    else:  # '~' marks an extended order field
        if len(s) < 4:
            raise Graph6Error("truncated extended order field", base + len(s))
        if s[1] == "~":
            if len(s) < 8:
                raise Graph6Error("truncated 36-bit order field", base + len(s))
            digits = [_g6_check_char(s[i], base + i) for i in range(2, 8)]
            n = 0
            for d in digits:
                n = (n << 6) | d
            pos = 8
        else:
            digits = [_g6_check_char(s[i], base + i) for i in range(1, 4)]
            n = (digits[0] << 12) | (digits[1] << 6) | digits[2]
            pos = 4
    if n < 1:
        raise Graph6Error(f"graph6 order {n} out of supported range (need >= 1)", base)

    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    have = len(s) - pos
    if have < need:
        raise Graph6Error(
            f"truncated bit stream: expected {need} data characters, found {have}",
            base + len(s),
        )
    if have > need:
        raise Graph6Error("trailing data after bit stream", base + pos + need)

    edges = []
    bit = 0
    for k in range(need):
        val = _g6_check_char(s[pos + k], base + pos + k)
        for shift in range(5, -1, -1):
            if bit >= nbits:
                if (val >> shift) & 1:
                    raise Graph6Error("nonzero padding bits", base + pos + k)
                continue
            if (val >> shift) & 1:
                edges.append(_g6_cell(bit))
            bit += 1
    return _build(n, edges)


def _g6_cell(bit_index: int) -> tuple[int, int]:
    # Upper-triangle bit order: (0,1), (0,2), (1,2), (0,3), ...
    j = 1
    while j * (j - 1) // 2 <= bit_index:
        j += 1
    j -= 1
    i = bit_index - j * (j - 1) // 2
    return (i, j)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a canonical graph6 string (no header)."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    elif n <= 258047:
        out = ["~", chr(((n >> 12) & 63) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        out = ["~", "~"]
        out += [chr(((n >> (6 * k)) & 63) + 63) for k in range(5, -1, -1)]
    val = 0
    nbits = 0
    for j in range(1, n):
        for i in range(j):
            val = (val << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(val + 63))
                val = 0
                nbits = 0
    if nbits:
        val <<= 6 - nbits
        out.append(chr(val + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# edge-list text format: first line "n m", then m lines "u v"; '#' comments
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format; errors carry 1-based line numbers."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"expected two integers, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"expected two integers, got {line!r}", lineno) from None
        if header is None:
            if a < 1 or b < 0:
                raise EdgeListError(f"bad header n={a} m={b}", lineno)
            header = (a, b)
            continue
        if len(edges) >= header[1]:
            raise EdgeListError("more edge lines than declared in header", lineno)
        n = header[0]
        if not (0 <= a < n) or not (0 <= b < n):
            raise EdgeListError(f"edge ({a}, {b}) out of range for order {n}", lineno)
        if a == b:
            raise EdgeListError(f"self-loop ({a}, {b}) not allowed", lineno)
        edges.append((a, b))
    if header is None:
        raise EdgeListError("missing 'n m' header line")
    if len(edges) < header[1]:
        raise EdgeListError(f"expected {header[1]} edge lines, found {len(edges)}")
    return _build(header[0], edges)


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# family spec strings: "complete:4", "friendship:5",
# "corona:(path:3),(complete:2)" (corona parts may nest)
# ---------------------------------------------------------------------------

_SIMPLE_KINDS = {
    "complete": (complete, 1),
    "complete_bipartite": (complete_bipartite, 2),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "star": (star, 1),
    "hypercube": (hypercube, 1),
    "friendship": (friendship, 1),
}


@dataclass(frozen=True)
class FamilySpec:
    """Constructible description of a family graph; `parts` is used by corona."""

    kind: str
    params: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = ()

    def build(self) -> Graph:
        if self.kind == "corona":
            g, h = (p.build() for p in self.parts)
            return corona(g, h)
        ctor, _ = _SIMPLE_KINDS[self.kind]
        try:
            return ctor(*self.params)
        except GraphError as exc:
            raise FamilySpecError(str(exc)) from exc

    def to_string(self) -> str:
        if self.kind == "corona":
            a, b = self.parts
            return f"corona:({a.to_string()}),({b.to_string()})"
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def split_corona_args(rest: str) -> tuple[str, str]:
    """The two part specs of a corona argument string '(spec),(spec)'."""
    if not rest.startswith("("):
        raise FamilySpecError(f"corona arguments must be parenthesized: {rest!r}")
    depth = 0
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                first = rest[1:i]
                tail = rest[i + 1 :]
                if not tail.startswith(",(") or not tail.endswith(")"):
                    raise FamilySpecError(f"corona needs two parenthesized parts: {rest!r}")
                return first, tail[2:-1]
    raise FamilySpecError(f"unbalanced parentheses in {rest!r}")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse a family spec string such as 'friendship:5' or
    'corona:(path:3),(complete:2)'."""
    s = text.strip()
    kind, sep, rest = s.partition(":")
    kind = kind.strip()
    if not sep:
        raise FamilySpecError(f"missing ':' in family spec {text!r}")
    if kind == "corona":
        a, b = split_corona_args(rest.strip())
        return FamilySpec("corona", (), (parse_family_spec(a), parse_family_spec(b)))
    if kind not in _SIMPLE_KINDS:
        raise FamilySpecError(f"unknown family kind {kind!r}")
    _, arity = _SIMPLE_KINDS[kind]
    fields = [p.strip() for p in rest.split(",")] if rest.strip() else []
    if len(fields) != arity:
        raise FamilySpecError(f"{kind} takes {arity} integer parameter(s), got {len(fields)}")
    try:
        params = tuple(int(p) for p in fields)
    except ValueError:
        raise FamilySpecError(f"non-integer parameter in {text!r}") from None
    return FamilySpec(kind, params)


def build_family(text: str) -> Graph:
    """Parse and construct in one step."""
    return parse_family_spec(text).build()
