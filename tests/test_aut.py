import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from symlab import (AutContext, Budget, BudgetExceededError, Coloring, automorphisms,
                    brute_force_automorphisms, complete, cycle, enumerate_elements,
                    friendship, from_edge_list, hypercube, is_determining_set, path,
                    refine)
from symlab import aut
from symlab.aut import ColoringError, identity_perm


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

def test_coloring_validation():
    c = Coloring((1, 2, 1))
    assert c.num_labels == 2 and c.classes() == [[0, 2], [1]]
    assert Coloring.uniform(4).labels == (1, 1, 1, 1)
    with pytest.raises(ColoringError):
        Coloring((1, 3))  # label 2 missing
    with pytest.raises(ColoringError):
        Coloring(())


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_separates_by_degree():
    out = refine(friendship(2), Coloring.uniform(5))
    assert sorted(out.class_sizes()) == [1, 4]
    assert out.labels[0] != out.labels[1]  # hub alone in its class

    out = refine(path(4), Coloring.uniform(4))
    assert sorted(out.class_sizes()) == [2, 2]
    assert out.labels[0] == out.labels[3] and out.labels[1] == out.labels[2]


def test_refine_fixes_vertex_transitive():
    out = refine(cycle(5), Coloring.uniform(5))
    assert out.class_sizes() == [5]


def test_refine_is_idempotent_and_refines_input():
    cases = [
        (friendship(3), Coloring.uniform(7)),
        (path(5), Coloring((1, 1, 2, 1, 1))),
        (hypercube(3), Coloring.uniform(8)),
        (from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
         Coloring.uniform(6)),
    ]
    for g, c in cases:
        once = refine(g, c)
        assert refine(g, once) == once
        # every output class sits inside one input class
        for cls in once.classes():
            assert len({c.labels[v] for v in cls}) == 1


def test_refine_is_automorphism_invariant(rng):
    for _ in range(30):
        g = _oracles.random_graph(rng, rng.randint(2, 6))
        labels = tuple(rng.randint(1, 2) for _ in range(g.n))
        if len(set(labels)) < max(labels):
            continue
        c = Coloring(labels)
        out = refine(g, c)
        for sigma in _oracles.brute_aut(g, labels):
            assert all(out.labels[sigma[v]] == out.labels[v] for v in range(g.n))


# ---------------------------------------------------------------------------
# the group itself
# ---------------------------------------------------------------------------

def test_known_group_orders():
    assert automorphisms(friendship(2)).order == 8
    for n in range(1, 7):
        assert automorphisms(complete(n)).order == math.factorial(n)
    assert automorphisms(cycle(5)).order == 10
    assert automorphisms(hypercube(3)).order == 48
    assert automorphisms(path(1)).order == 1


def test_colored_orders_on_path():
    p3 = path(3)
    assert automorphisms(p3, Coloring((1, 2, 1))).order == 2
    assert automorphisms(p3, Coloring((1, 1, 2))).order == 1


def test_is_color_rigid_examples():
    assert automorphisms(path(3), Coloring((1, 1, 2))).is_trivial
    assert automorphisms(complete(3), Coloring((1, 2, 3))).is_trivial
    assert not automorphisms(cycle(4), Coloring.uniform(4)).is_trivial


def test_pointwise_stabilizer_examples():
    f2 = friendship(2)
    assert is_determining_set(f2, [1, 3])
    assert not is_determining_set(f2, [1])
    assert is_determining_set(f2, range(5))
    with pytest.raises(ValueError):
        is_determining_set(f2, [99])


def test_orbits_and_enumeration():
    p3 = automorphisms(path(3))
    assert p3.orbits == ((0, 2), (1,))

    k3 = automorphisms(complete(3))
    assert len(list(enumerate_elements(k3))) == k3.order == 6

    f2 = automorphisms(friendship(2))
    elements = list(enumerate_elements(f2))
    assert len(elements) == f2.order == 8
    assert set(elements) == set(_oracles.brute_aut(friendship(2)))


def test_permgroup_invariants_on_samples(rng):
    for _ in range(25):
        g = _oracles.random_graph(rng, rng.randint(1, 7))
        grp = automorphisms(g)
        assert (grp.order == 1) == (not grp.generators)
        assert (grp.order == 1) == all(len(o) == 1 for o in grp.orbits)
        assert math.factorial(g.n) % grp.order == 0
        # generators preserve adjacency
        for sig in grp.generators:
            assert all(g.has_edge(sig[u], sig[v]) for u, v in g.edges())
        # colored group order divides the uncolored order
        labels = tuple(rng.randint(1, 2) for _ in range(g.n))
        if len(set(labels)) == max(labels):
            sub = automorphisms(g, Coloring(labels))
            assert grp.order % sub.order == 0
            for sig in sub.generators:
                assert all(labels[sig[v]] == labels[v] for v in range(g.n))


def test_engine_matches_brute_force(rng):
    for _ in range(40):
        g = _oracles.random_graph(rng, rng.randint(1, 6))
        grp = automorphisms(g)
        want = set(_oracles.brute_aut(g))
        assert set(enumerate_elements(grp)) == want
        assert len(list(enumerate_elements(grp))) == grp.order


def test_engine_matches_brute_force_exhaustively_order4():
    import itertools
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = from_edge_list(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            want = set(_oracles.brute_aut(g))
            grp = automorphisms(g)
            assert set(enumerate_elements(grp)) == want
            assert len(list(enumerate_elements(grp))) == grp.order


@given(st.integers(2, 6), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_engine_matches_brute_force_colored(n, pyrng):
    g = _oracles.random_graph(pyrng, n)
    raw = [pyrng.randint(1, 2) for _ in range(n)]
    lut = {}
    labels = tuple(lut.setdefault(x, len(lut) + 1) for x in raw)
    grp = automorphisms(g, Coloring(labels))
    want = set(_oracles.brute_aut(g, labels))
    assert set(enumerate_elements(grp)) == want
    assert len(list(enumerate_elements(grp))) == grp.order


def test_determinism():
    g = friendship(4)
    a = automorphisms(g)
    b = automorphisms(g)
    assert a.generators == b.generators and a.order == b.order and a.orbits == b.orbits


def test_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        automorphisms(complete(8), budget=Budget(3))


def test_brute_force_guard():
    with pytest.raises(ValueError):
        brute_force_automorphisms(path(9))


# ---------------------------------------------------------------------------
# the cached query context
# ---------------------------------------------------------------------------

def _backend_panel(rng):
    # random graphs of every order 1..7 plus a few with large groups
    graphs = [_oracles.random_graph(rng, n) for n in range(1, 8) for _ in range(3)]
    graphs += [complete(5), cycle(6), path(7), friendship(3),
               from_edge_list(7, [(0, v) for v in range(1, 7)])]
    return graphs


def test_context_backends_agree(rng, monkeypatch):
    for g in _backend_panel(rng):
        n = g.n
        elements = _oracles.brute_aut(g)
        # filter over every element, against per-query searches
        monkeypatch.setattr(aut, "ENUMERATE_LIMIT", math.factorial(n))
        cached = AutContext(g)
        monkeypatch.setattr(aut, "ENUMERATE_LIMIT", 0)
        searched = AutContext(g)
        colorings = [[0] * n] + [[rng.randint(0, k) for _ in range(n)] for k in (1, 2, 3)]
        for colors in colorings:
            kept = [p for p in elements if _oracles.stabilizes_labeling(p, colors)]
            rigid = len(kept) == 1
            for ctx in (cached, searched):
                found = ctx.first_nontrivial(colors)
                assert (found is None) == rigid
                if found is not None:
                    assert found != identity_perm(n) and found in kept
                assert ctx.is_rigid(colors) == rigid
                # a color vector needs exactly one entry per vertex
                for bad in (colors + [0], colors[1:]):
                    for query in (ctx.first_nontrivial, ctx.is_rigid, ctx.group):
                        with pytest.raises(ColoringError):
                            query(bad)
            got, want = cached.group(colors), searched.group(colors)
            assert got.order == want.order == len(kept)
            assert got.orbits == want.orbits
            assert got.generators == tuple(sorted(p for p in kept if p != identity_perm(n)))
            assert set(enumerate_elements(got)) == set(enumerate_elements(want)) == set(kept)
        subsets = [[], [v for v in range(n) if rng.random() < 0.4], list(range(n))]
        for subset in subsets:
            want = all(p == identity_perm(n) or any(p[v] != v for v in subset)
                       for p in elements)
            assert cached.pointwise_trivial(subset) == searched.pointwise_trivial(subset) == want


def test_context_identity_is_first_element():
    ctx = AutContext(complete(4))
    assert ctx.first_nontrivial([0, 0, 0, 0]) != identity_perm(4)
    assert ctx.is_rigid([1, 2, 3, 4])


def test_strongly_regular_reference_orders():
    # equitable refinement alone cannot split these; published group orders
    q = 13
    residues = {(x * x) % q for x in range(1, q)}
    paley = from_edge_list(q, [(a, b) for a in range(q) for b in range(a + 1, q)
                               if (b - a) % q in residues])
    assert automorphisms(paley).order == 78

    rook = from_edge_list(16, [(4 * i + j, 4 * k + l)
                               for i in range(4) for j in range(4)
                               for k in range(4) for l in range(4)
                               if 4 * i + j < 4 * k + l and (i == k or j == l)])
    assert automorphisms(rook).order == 1152

    conn = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for a in range(4):
        for b in range(4):
            for da, db in conn:
                u, v = 4 * a + b, 4 * ((a + da) % 4) + (b + db) % 4
                if u < v:
                    edges.append((u, v))
    shrikhande = from_edge_list(16, edges)
    assert automorphisms(shrikhande).order == 192
    assert rook.degree_sequence == shrikhande.degree_sequence  # same SRG parameters
