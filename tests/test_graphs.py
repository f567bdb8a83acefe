import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from symlab import (FamilySpec, build_family, complete, complete_bipartite, corona,
                    cycle, emit_edge_list, emit_graph6, friendship, from_edge_list,
                    hypercube, induced_subgraph, parse_edge_list, parse_family_spec,
                    parse_graph6, path, star)
from symlab.graphs import EdgeListError, FamilySpecError, Graph6Error, GraphError


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_from_edge_list_basics():
    k2 = from_edge_list(2, [(0, 1)])
    assert k2.n == 2 and k2.edge_count == 1
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    assert p3.degree_sequence == (1, 1, 2)
    k1 = from_edge_list(1, [])
    assert k1.n == 1 and k1.edge_count == 0


def test_from_edge_list_collapses_duplicates():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1


def test_from_edge_list_rejects_bad_edges():
    with pytest.raises(GraphError, match=r"\(0, 3\)"):
        from_edge_list(3, [(0, 3)])
    with pytest.raises(GraphError, match=r"self-loop \(1, 1\)"):
        from_edge_list(3, [(1, 1)])
    with pytest.raises(GraphError):
        from_edge_list(0, [])


def test_friendship_layout():
    f2 = friendship(2)
    assert f2.n == 5
    assert sorted(f2.degree(v) for v in range(5)) == [2, 2, 2, 2, 4]
    assert f2.degree(0) == 4 and f2.degree(1) == 2  # the hub is index 0

    assert friendship(15).n == 31

    f3 = friendship(3)
    want = {(0, k) for k in range(1, 7)} | {(1, 2), (3, 4), (5, 6)}
    assert set(f3.edges()) == want
    assert f3.edge_count == 9  # 3n

    with pytest.raises(GraphError):
        friendship(1)


def test_friendship_degree_multiset():
    for n in range(2, 8):
        g = friendship(n)
        assert g.n == 2 * n + 1 and g.edge_count == 3 * n
        assert g.degree_sequence == tuple([2] * (2 * n) + [2 * n])


def test_corona_layout():
    assert corona(complete(1), complete(1)).degree_sequence == (1, 1)  # K_2

    c = corona(path(3), complete(2))
    assert c.n == 9
    # base vertices keep their path degrees plus one edge to each copy vertex
    assert [c.degree(v) for v in range(3)] == [1 + 2, 2 + 2, 1 + 2]
    # copy i hangs off base vertex i
    for i in range(3):
        base = 3 + 2 * i
        assert c.has_edge(base, base + 1)
        assert c.has_edge(i, base) and c.has_edge(i, base + 1)

    assert corona(friendship(2), complete(1)).n == 10


def test_corona_order_identity():
    specs = [complete(1), complete(2), path(3), cycle(4), star(2)]
    for g, h in itertools.product(specs, repeat=2):
        assert corona(g, h).n == g.n * (1 + h.n)


def test_corona_degree_separation():
    # connected base != K_1: no copy vertex may share a degree with a base vertex
    pairs = [(path(3), complete(2)), (cycle(4), path(2)), (complete(3), star(2)),
             (path(2), complete(1)), (star(3), cycle(3))]
    for g, h in pairs:
        c = corona(g, h)
        base = {c.degree(v) for v in range(g.n)}
        copies = {c.degree(v) for v in range(g.n, c.n)}
        assert not (base & copies)


def test_induced_subgraph():
    sub, index = induced_subgraph(path(3), [0, 2])
    assert sub.n == 2 and sub.edge_count == 0
    assert index == {0: 0, 2: 1}

    sub, _ = induced_subgraph(complete(4), [1, 2, 3])
    assert sub.edge_count == 3  # K_3

    sub, _ = induced_subgraph(friendship(2), [0, 1, 2])
    assert sub.edge_count == 3  # one triangle

    with pytest.raises(GraphError):
        induced_subgraph(path(3), [])
    with pytest.raises(GraphError):
        induced_subgraph(path(3), [5])


def test_standard_families():
    assert complete(4).edge_count == 6
    assert complete_bipartite(2, 3).degree_sequence == (2, 2, 2, 3, 3)
    assert path(1).n == 1
    assert cycle(5).degree_sequence == (2,) * 5
    assert star(3).degree_sequence == (1, 1, 1, 3)
    q3 = hypercube(3)
    assert q3.n == 8 and q3.degree_sequence == (3,) * 8
    assert hypercube(0).n == 1
    with pytest.raises(GraphError):
        cycle(2)


def test_connectivity():
    assert path(5).is_connected()
    assert not from_edge_list(4, [(0, 1), (2, 3)]).is_connected()
    assert from_edge_list(1, []).is_connected()


def test_swap_classes_hold_exactly_the_transpositions_of_the_group(rng):
    # a transposition is an automorphism iff its two vertices share their
    # open or their closed neighborhood, so the classes hold every pair the
    # brute-force group swaps (maximal) and only such pairs
    graphs = [_oracles.random_graph(rng, rng.randint(1, 7), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(120)]
    graphs += [star(6), friendship(3), complete_bipartite(3, 4), complete(5),
               corona(path(2), complete(2)), from_edge_list(4, [])]
    for g in graphs:
        auts = set(_oracles.brute_aut(g))
        swapped = set()
        for v, w in itertools.combinations(range(g.n), 2):
            sigma = list(range(g.n))
            sigma[v], sigma[w] = w, v
            if tuple(sigma) in auts:
                swapped.add((v, w))
        classes = g.swap_classes
        assert {pair for cls in classes for pair in itertools.combinations(cls, 2)} == swapped
        members = [v for cls in classes for v in cls]
        assert len(members) == len(set(members))
        assert all(len(cls) > 1 and list(cls) == sorted(cls) for cls in classes)
        assert list(classes) == sorted(classes)
    assert star(6).swap_classes == ((1, 2, 3, 4, 5, 6),)
    assert complete(5).swap_classes == ((0, 1, 2, 3, 4),)
    assert path(4).swap_classes == ()


def _components_without(g, c):
    # the components of G - c that hold a neighbor of c, by a scan
    parts, seen = [], {c}
    for s in sorted(g.adj[c]):
        if s not in seen:
            part, frontier = {s}, [s]
            while frontier:
                for w in g.adj[frontier.pop()]:
                    if w not in seen and w not in part:
                        part.add(w)
                        frontier.append(w)
            seen |= part
            parts.append(tuple(sorted(part)))
    return tuple(sorted(parts))


def _keeps_edges(g, moves):
    # True iff the permutation taking each key of ``moves`` to its value and
    # fixing every other vertex is an automorphism of g
    sigma = [moves.get(v, v) for v in range(g.n)]
    return all(g.has_edge(sigma[u], sigma[v]) for u, v in g.edges())


def test_block_families_hold_the_swaps_and_internal_automorphisms(rng):
    # every family's transports give swaps, its internal permutations are
    # exactly the automorphisms fixing every vertex outside its first block,
    # and any two components of G - c of 2 or 3 vertices that some
    # automorphism fixing the rest swaps lie in one family; automorphisms
    # that fix all but a few vertices are tested edge by edge
    graphs = [_oracles.hung_blocks_graph(rng, 8) for _ in range(150)]
    graphs += [_oracles.random_graph(rng, rng.randint(1, 11), rng.choice((0.1, 0.2, 0.3, 0.5)))
               for _ in range(400)]
    graphs += [friendship(3), corona(path(3), complete(1)), path(5), star(5), cycle(5),
               from_edge_list(7, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6)]),
               from_edge_list(5, [(0, 1), (2, 3), (3, 4)])]
    seen = 0
    for g in graphs:
        for fam in g.block_families:
            seen += 1
            assert [min(b) for b in fam.blocks] == sorted(min(b) for b in fam.blocks)
            first = fam.blocks[0]
            for blk in fam.blocks[1:]:
                assert _keeps_edges(g, {**dict(zip(first, blk)), **dict(zip(blk, first))})
            inner = {k for k in itertools.permutations(range(len(first)))
                     if _keeps_edges(g, {v: first[k[j]] for j, v in enumerate(first)})}
            assert inner == {(*range(len(first)),), *fam.internal}
            assert len(fam.internal) == len(inner) - 1
        together = {(min(x), min(y)) for fam in g.block_families
                    for x in fam.blocks for y in fam.blocks}
        for c in range(g.n):
            blocks = [p for p in _components_without(g, c) if 2 <= len(p) <= 3]
            for b1, b2 in itertools.combinations(blocks, 2):
                if len(b1) == len(b2) and any(
                        _keeps_edges(g, {**dict(zip(b1, img)), **dict(zip(img, b1))})
                        for img in itertools.permutations(b2)):
                    assert (b1[0], b2[0]) in together
    assert seen > 50
    [fam] = friendship(3).block_families
    assert fam.blocks == ((1, 2), (3, 4), (5, 6)) and fam.internal == ((1, 0),)
    # blocks of four vertices are beyond the limit
    assert from_edge_list(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)]
                          ).block_families == ()
    # large inputs: one family of 500 blades, and no two equal blocks on one vertex
    [fam] = friendship(500).block_families
    assert len(fam.blocks) == 500 and fam.blocks[-1] == (999, 1000)
    assert star(1000).block_families == corona(path(300), complete(2)).block_families == ()


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------

def test_graph6_known_values():
    # hand-decoded: 'A_' is order 2 with the single upper-triangle bit set
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.has_edge(0, 1)
    assert emit_graph6(complete(1)) == "@"
    # P_3: bits x01,x02,x12 = 1,0,1 -> 101000 -> chr(40+63) = 'g'
    assert emit_graph6(path(3)) == "Bg"
    assert set(parse_graph6("Bg").edges()) == {(0, 1), (1, 2)}


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<A_").n == 2
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error, match="truncated"):
        parse_graph6("D")  # order 5 needs data characters
    with pytest.raises(Graph6Error, match="trailing"):
        parse_graph6("A__")
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("A`")  # second bit of the final group must be zero padding
    with pytest.raises(Graph6Error, match="range"):
        parse_graph6("A!")


def test_graph6_large_order_round_trip():
    g = path(80)  # forces the 3-character order field
    s = emit_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


@given(st.integers(1, 9), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_graph6_round_trip(n, pyrng):
    g = _oracles.random_graph(pyrng, n)
    s = emit_graph6(g)
    assert parse_graph6(s) == g
    assert emit_graph6(parse_graph6(s)) == s


def test_graph6_round_trip_on_families():
    for g in [friendship(4), corona(path(3), complete(2)), hypercube(4), star(5)]:
        assert parse_graph6(emit_graph6(g)) == g


def test_graph6_round_trip_on_small_corpus():
    for n in range(1, 6):
        for g in _oracles.connected_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------

def test_edge_list_round_trip():
    g = corona(path(3), complete(2))
    assert parse_edge_list(emit_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    text = "# a path\n3 2\n0 1  # first\n\n1 2\n"
    assert parse_edge_list(text) == path(3)


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list("3 1\n0 x\n")
    with pytest.raises(EdgeListError, match="line 3"):
        parse_edge_list("3 1\n0 1\n1 2\n")
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list("2 1\n1 1\n")
    with pytest.raises(EdgeListError, match="missing"):
        parse_edge_list("# nothing\n")
    with pytest.raises(EdgeListError, match="expected 2 edge"):
        parse_edge_list("3 2\n0 1\n")


# ---------------------------------------------------------------------------
# family specs
# ---------------------------------------------------------------------------

def test_family_spec_round_trip():
    for text in ["complete:4", "friendship:5", "complete_bipartite:3,2",
                 "corona:(path:3),(complete:2)",
                 "corona:(corona:(path:2),(complete:1)),(cycle:3)"]:
        spec = parse_family_spec(text)
        assert spec.to_string() == text
        assert spec.build().n == spec.order() >= 1


def test_family_spec_builds_expected_graphs():
    assert build_family("complete:4") == complete(4)
    assert build_family("friendship:5") == friendship(5)
    assert build_family("corona:(path:3),(complete:2)") == corona(path(3), complete(2))
    assert build_family("hypercube:3") == hypercube(3)


def test_family_spec_errors():
    for bad in ["nope:3", "complete", "complete:x", "complete:1,2",
                "corona:(path:3)", "corona:path:3,(complete:2)", "friendship:1"]:
        with pytest.raises(FamilySpecError):
            build_family(bad)


def test_family_spec_order_cap():
    # the largest orders the cap allows still build; above it, the order is
    # computed from the parameters and nothing is built
    assert build_family("hypercube:10").n == build_family("complete:1024").n == 1024
    assert build_family("star:1000").n == 1001
    assert parse_family_spec("hypercube:40").order() > 1024
    for bad in ["hypercube:11", "path:1025", "corona:(complete:40),(complete:40)",
                "corona:(path:2),(hypercube:11)"]:
        with pytest.raises(FamilySpecError, match="1024"):
            build_family(bad)


def test_family_spec_value_object():
    spec = FamilySpec("corona", (), (FamilySpec("path", (3,)), FamilySpec("complete", (2,))))
    assert spec.to_string() == "corona:(path:3),(complete:2)"
