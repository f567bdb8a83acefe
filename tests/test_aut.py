import json
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from symlab import (AutContext, Budget, BudgetExceededError, automorphisms,
                    brute_force_automorphisms, build_family, complete, cycle,
                    enumerate_elements, friendship, from_edge_list, hypercube,
                    invariant_report, is_determining_set, path, refine)
from symlab import aut
from symlab.aut import ColoringError, identity_perm


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

def test_coloring_validation():
    # any int vector is a coloring: only which vertices share a value matters
    assert automorphisms(path(3), (5, 9, 5)).order == automorphisms(path(3), (1, 2, 1)).order == 2
    assert automorphisms(path(3), (7, 7, -1)).is_trivial
    assert refine(path(3), (5, 9, 5)) == refine(path(3), (1, 2, 1))
    # but it needs exactly one color per vertex
    for bad in ((1, 2), (1, 2, 1, 1), ()):
        for query in (automorphisms, refine, brute_force_automorphisms):
            with pytest.raises(ColoringError):
                query(path(3), bad)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def test_refine_separates_by_degree():
    out = refine(friendship(2), (0,) * 5)
    assert sorted(Counter(out).values()) == [1, 4]
    assert out[0] != out[1]  # hub alone in its class

    out = refine(path(4), (0,) * 4)
    assert sorted(Counter(out).values()) == [2, 2]
    assert out[0] == out[3] and out[1] == out[2]


def test_refine_fixes_vertex_transitive():
    assert refine(cycle(5), (0,) * 5) == (0,) * 5


def test_refine_is_idempotent_and_refines_input():
    cases = [
        (friendship(3), (1,) * 7),
        (path(5), (1, 1, 2, 1, 1)),
        (hypercube(3), (1,) * 8),
        (from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
         (1,) * 6),
    ]
    for g, c in cases:
        once = refine(g, c)
        assert refine(g, once) == once
        # every output class sits inside one input class
        assert all(c[u] == c[v] for u in range(g.n) for v in range(g.n) if once[u] == once[v])


def test_refine_is_automorphism_invariant(rng):
    for _ in range(30):
        g = _oracles.random_graph(rng, rng.randint(2, 6))
        labels = tuple(rng.randint(1, 2) for _ in range(g.n))
        out = refine(g, labels)
        for sigma in _oracles.brute_aut(g, labels):
            assert all(out[sigma[v]] == out[v] for v in range(g.n))


def _individualized(colors, v):
    out = list(colors)
    out[v] = max(colors) + 1
    return out


def _assert_refine_ids_match_oracle(g, colors):
    """``refine`` gives the round-based oracle's class ids, not just its
    partition, and so does the engine's ``refine(..., at=v)`` for every vertex
    of every non-singleton class of the result, and down one path to a
    discrete coloring."""
    want = _oracles.naive_refine(g.adj_lists, colors)
    assert refine(g, colors) == want, (g.adj, colors)
    engine = aut._Engine(g, colors, Budget())
    sizes = Counter(want)
    for v in range(g.n):
        if sizes[want[v]] > 1:
            got = engine.refine(want, at=v)
            assert tuple(got) == _oracles.naive_refine(g.adj_lists, _individualized(want, v)), \
                (g.adj, want, v)
    current = list(want)
    while (cell := engine.target_cell(current)) is not None:
        expected = _oracles.naive_refine(g.adj_lists, _individualized(current, cell[-1]))
        current = engine.refine(current, at=cell[-1])
        assert tuple(current) == expected, (g.adj, cell)


def test_refine_ids_match_oracle_on_random_graphs(rng):
    for n in range(1, 13):
        for _ in range(12):
            g = _oracles.random_graph(rng, n, rng.choice((0.2, 0.5, 0.8)))
            # non-contiguous, unsorted and negative values are colorings too
            values = rng.sample((5, 9, -3, 100, 0, 7), rng.randint(1, 3))
            _assert_refine_ids_match_oracle(g, tuple(rng.choice(values) for _ in range(n)))
            _assert_refine_ids_match_oracle(g, (0,) * n)
            # almost all singletons: refine stops once the coloring is
            # discrete and keys only vertices of classes of two or more
            shared = rng.sample(range(n), min(n, rng.randint(2, 3)))
            _assert_refine_ids_match_oracle(
                g, tuple(-1 if v in shared else 3 * v for v in range(n)))
            _assert_refine_ids_match_oracle(g, tuple(range(n, 0, -1)))
    _assert_refine_ids_match_oracle(path(3), (5, 9, 5))


def _panel_graphs():
    """The 11 benchmark panel graphs as built, by spec."""
    from symlab import build_family
    golden_file = Path(__file__).resolve().parent.parent / "perfbench/golden/symmetric-panel.json"
    specs = list(json.loads(golden_file.read_text()))
    assert len(specs) == 11
    return [(spec, build_family(spec)) for spec in specs]


def test_refine_ids_match_oracle_on_panel():
    for _, g in _panel_graphs():
        _assert_refine_ids_match_oracle(g, (0,) * g.n)
        _assert_refine_ids_match_oracle(g, tuple(v % 3 for v in range(g.n)))


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
    assert automorphisms(p3, (1, 2, 1)).order == 2
    assert automorphisms(p3, (1, 1, 2)).order == 1


def test_is_color_rigid_examples():
    assert automorphisms(path(3), (1, 1, 2)).is_trivial
    assert automorphisms(complete(3), (1, 2, 3)).is_trivial
    assert not automorphisms(cycle(4), (1,) * 4).is_trivial


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
        sub = automorphisms(g, labels)
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
    labels = tuple(pyrng.randint(1, 2) for _ in range(n))
    grp = automorphisms(g, labels)
    want = set(_oracles.brute_aut(g, labels))
    assert set(enumerate_elements(grp)) == want
    assert len(list(enumerate_elements(grp))) == grp.order


def _lcf(n: int, jumps: list[int]) -> tuple[int, list[tuple[int, int]]]:
    # the cubic graph of LCF notation [jumps]^(n / len(jumps))
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    edges |= {tuple(sorted((i, (i + jumps[i % len(jumps)]) % n))) for i in range(n)}
    return n, sorted(edges)


def _disjoint_union(*parts: tuple[int, list[tuple[int, int]]]):
    edges, offset = [], 0
    for n, part in parts:
        edges += [(u + offset, v + offset) for u, v in part]
        offset += n
    return from_edge_list(offset, edges)


_FRUCHT = _lcf(12, [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])
_FRANKLIN = _lcf(12, [5, -5])
_PETERSEN = (10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
_PRISM = (10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
          + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])


@pytest.mark.parametrize("parts, order", [
    ((_FRUCHT,), 1),
    ((_FRUCHT, _FRUCHT), 2),
    ((_FRUCHT, _FRANKLIN), 48),
    ((_PETERSEN, _PRISM), 2400),
], ids=["frucht", "frucht+frucht", "frucht+franklin", "petersen+prism"])
def test_engine_backtracks_to_the_brute_force_group(parts, order):
    # cubic graphs whose first descents fail: on the rigid Frucht graph a
    # discrete leaf is no automorphism, and across the components of a union
    # of cubic graphs a candidate's refinement takes another shape or runs
    # out of candidates, so the group search must backtrack
    g = _disjoint_union(*parts)
    grp = automorphisms(g)
    assert grp.order == order
    assert set(enumerate_elements(grp)) == set(brute_force_automorphisms(g, max_order=g.n))


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


def test_brute_force_matches_permutation_filter_on_every_class():
    # the backtracking oracle against the n! filter on each of the 143
    # connected classes of order <= 6, as first met in the corpus and under
    # one seeded relabeling
    from symlab.verifier import _OrbitMarks
    rng = random.Random(6)
    firsts = [g for n in range(1, 7) for _, _, g in _OrbitMarks(n).stream() if g is not None]
    assert len(firsts) == 143
    for g in firsts:
        sigma = list(range(g.n))
        rng.shuffle(sigma)
        for h in (g, _oracles.relabeled(g, sigma)):
            assert brute_force_automorphisms(h) == _oracles.brute_aut(h)


def test_brute_force_matches_permutation_filter_colored():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = _oracles.random_graph(rng, n, rng.random())
        colors = [rng.randrange(3) for _ in range(n)]
        assert brute_force_automorphisms(g, colors) == _oracles.brute_aut(g, colors)


# Each case has a fixed id, so a re-pin keeps its name.  The numbers in an id
# are the counts pinned when the case was added (the second one that of a
# canonical-form search since removed); the current count follows it.
_SEARCH_EFFORT = [pytest.param(spec, report, id=case) for case, spec, report in [
    ("friendship:5-819-35", "friendship:5", 50),
    ("hypercube:3-187-10", "hypercube:3", 60),
    ("hypercube:4-418-15", "hypercube:4", 95),
    ("cycle:12-118-6", "cycle:12", 22),
    ("corona:(path:3),(complete:2)-410-15", "corona:(path:3),(complete:2)", 27),
    ("complete_bipartite:5,5-1038-53", "complete_bipartite:5,5", 81),
    ("star:10-1708-55", "star:10", 77),
    # "spec@1": the graph under the vertex relabeling drawn with key 1, as
    # the labeling search's effort depends on the vertex labeling
    ("friendship:6@1-7461-28", "friendship:6@1", 63),
    ("hypercube:3@1-208-10", "hypercube:3@1", 51),
    ("cycle:12@1-75-10", "cycle:12@1", 31),
    ("corona:(path:3),(complete:2)@1-305-15", "corona:(path:3),(complete:2)@1", 21),
]]


def _relabeled_family(spec: str, key: str):
    # the family graph under the vertex relabeling drawn with ``key``
    g = build_family(spec)
    sigma = list(range(g.n))
    random.Random(f"{key}:{spec}").shuffle(sigma)
    return _oracles.relabeled(g, sigma)


@pytest.mark.parametrize("spec, report_nodes", _SEARCH_EFFORT)
def test_search_effort_is_pinned(spec, report_nodes):
    # Budget.used counts refine calls, the queries answered by the context's
    # known automorphisms and the cost classes decided by orbit size: a
    # cheaper refine must not change the search, and every colored query of
    # the context spends it
    spec, relabel, key = spec.partition("@")
    g = _relabeled_family(spec, key) if relabel else build_family(spec)
    budget = Budget()
    invariant_report(g, AutContext(g, budget))
    assert budget.used == report_nodes


@pytest.mark.parametrize("spec", [spec for spec, _ in _panel_graphs()])
def test_search_effort_is_bounded_under_relabeling(spec):
    # the failing D pools and cost classes are searched in the group's base
    # order, not by vertex index, so a relabeling costs at most a small
    # multiple of the graph as built
    def used(g):
        budget = Budget()
        invariant_report(g, AutContext(g, budget))
        return budget.used
    built = used(build_family(spec))
    for key in range(1, 11):
        assert used(_relabeled_family(spec, str(key))) <= 3 * built, (spec, key)


def test_orbit_bound_is_the_product_of_level_orbits():
    # the permutations at level i, keyed by the image of i, fix 0..i-1 and
    # move i; the bound multiplies the length of i's orbit under those at i
    # and above
    adjacent = {0: {1: (1, 0, 2, 3)}, 1: {2: (0, 2, 1, 3)}, 2: {3: (0, 1, 3, 2)}}
    assert aut._orbit_bound(4, adjacent) == 24
    assert aut._orbit_bound(4, {0: {1: (1, 2, 0, 3)}}) == 3
    assert aut._orbit_bound(4, {0: {1: (1, 0, 3, 2)}, 2: {3: (0, 1, 3, 2)}}) == 4
    assert aut._orbit_bound(4, {}) == 1


def test_point_stabilizer_stops_at_the_whole_stabilizer(rng):
    # the Schreier generators of the stabilizer of each moved point stop once
    # the kept ones' orbit bound reaches the stabilizer's order, which is the
    # group's order over the point's orbit; the kept ones then generate a
    # group of exactly that order, the stabilizer itself
    graphs = [friendship(3), hypercube(3), complete(5), cycle(6), path(7),
              from_edge_list(7, [(0, v) for v in range(1, 7)])]
    graphs += [_oracles.random_graph(rng, n, 0.3) for n in range(2, 8) for _ in range(3)]
    stopped = 0
    for g in graphs:
        group = automorphisms(g)
        for orbit in group.orbits:
            v = orbit[-1]
            budget = Budget()
            gens, order = aut.point_stabilizer(g.n, group.generators, group.order, v, budget)
            assert order * len(orbit) == group.order
            closure = _oracles.group_closure(g.n, gens)
            assert len(closure) == order
            assert all(p[v] == v for p in closure)
            stopped += budget.used < len(orbit) * len(group.generators)
    assert stopped


def _planted_graphs(rng, count: int, max_order: int) -> list:
    # random graphs with twins and interchangeable pendant blocks planted,
    # and some family graphs whose groups such automorphisms generate
    graphs = [_oracles.hung_blocks_graph(rng, max_order) for _ in range(count)]
    return graphs + [friendship(3), build_family("star:6"),
                     build_family("corona:(path:2),(complete:2)")]


def test_structural_moves_are_automorphisms(rng):
    # every swap-class transposition, block swap and internal block map that
    # set-up may seed a level with preserves adjacency and moves its point
    graphs = _planted_graphs(rng, 150, 12)
    graphs += [_oracles.random_graph(rng, rng.randint(1, 10), rng.choice((0.2, 0.8)))
               for _ in range(100)]
    moves = 0
    for g in graphs:
        for v in range(g.n):
            for move in aut._structural_moves(g, v):
                sigma = [move.get(u, u) for u in range(g.n)]
                assert move[v] != v and sorted(move) == sorted(move.values())
                assert aut._is_automorphism(g.adj_bits, (0,) * g.n, sigma), (g.adj, move)
                moves += 1
    assert moves


def test_seeded_group_equals_brute_force(rng):
    # structural automorphisms seed each level before any search, both for
    # the full group and for a colored one, and the group is still exactly
    # the brute-force one: the same elements, each once
    seeded = 0
    for g in _planted_graphs(rng, 120, 8):
        brute = _oracles.brute_aut(g)
        for colors in ((0,) * g.n, [rng.randint(1, 2) for _ in range(g.n)]):
            group = automorphisms(g, colors)
            elements = list(enumerate_elements(group))
            assert len(elements) == group.order
            assert set(elements) == {p for p in brute if all(
                colors[p[v]] == colors[v] for v in range(g.n))}, (g.adj, colors)
        seeded += any(next(aut._structural_moves(g, v), None) for v in range(g.n))
    assert seeded > 100


@pytest.mark.parametrize("spec, nodes", [("star:100", 100), ("friendship:40", 41),
                                         ("complete:30", 30)])
def test_setup_spends_one_refinement_per_level(spec, nodes):
    # the swap-class transpositions and block swaps grow each level's
    # transversal to the whole orbit, so the set-up refines only along the
    # first path (before the seeding: 5,050, 1,680 and 465 nodes)
    budget = Budget()
    AutContext(build_family(spec), budget)
    assert budget.used == nodes


# ---------------------------------------------------------------------------
# the cached query context
# ---------------------------------------------------------------------------

def _backend_panel(rng):
    # random graphs of every order 1..7 plus a few with large groups
    graphs = [_oracles.random_graph(rng, n) for n in range(1, 8) for _ in range(3)]
    graphs += [complete(5), cycle(6), path(7), friendship(3),
               from_edge_list(7, [(0, v) for v in range(1, 7)])]
    return graphs


def test_context_backends_agree(rng):
    # the context's one backend, a search per colored query, agrees with
    # filtering all n! permutations; each query is asked again, in reverse
    # order, and once more with its values remapped, so that the context
    # answers from the automorphisms it found and the partitions it proved
    # rigid
    for g in _backend_panel(rng):
        n = g.n
        elements = _oracles.brute_aut(g)
        ctx = AutContext(g)
        colorings = [[0] * n] + [[rng.randint(0, k) for _ in range(n)] for k in (1, 2, 3)]
        remapped = [[3 * c + 5 for c in colors] for colors in colorings]
        for colors in colorings + colorings[::-1] + remapped:
            kept = [p for p in elements if _oracles.stabilizes_labeling(p, colors)]
            rigid = len(kept) == 1
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
            got = ctx.group(colors)
            assert got.order == len(kept)
            assert got.orbits == tuple(sorted({tuple(sorted({p[v] for p in kept}))
                                               for v in range(n)}))
            assert set(enumerate_elements(got)) == set(kept)
        subsets = [[], [v for v in range(n) if rng.random() < 0.4], list(range(n))]
        for subset in subsets + subsets[::-1]:
            want = all(p == identity_perm(n) or any(p[v] != v for v in subset)
                       for p in elements)
            assert ctx.pointwise_trivial(subset) == want


def test_subset_orbits_are_the_images_under_every_element(rng):
    # a vertex set's orbit, as bitmasks, is its set of images under every
    # element of the full group; orders 9 to 16 give masks of two bytes,
    # most with a partial last byte
    graphs = [cycle(12), hypercube(4), friendship(5)]
    graphs += [_oracles.hung_blocks_graph(rng, k) for k in (10, 13, 16)]
    graphs += [_oracles.random_graph(rng, k, 0.3) for k in (9, 11, 14)]
    for g in graphs:
        ctx = AutContext(g)
        elements = list(enumerate_elements(ctx.full))
        subsets = [[], list(range(g.n))]
        subsets += [rng.sample(range(g.n), k) for k in (1, 2, 3, g.n // 2, g.n - 1)]
        for vs in subsets:
            want = {sum(1 << p[v] for v in vs) for p in elements}
            assert ctx.subset_orbit(vs) == want, (g.adj, vs)


def test_rigid_partitions_are_remembered(monkeypatch):
    # a rigid coloring asked again with its classes under other values is
    # answered from the context's rigid partitions: one node, no refinement
    refines = [0]
    refine = aut._Engine.refine

    def counted(self, colors, at=None):
        refines[0] += 1
        return refine(self, colors, at)

    monkeypatch.setattr(aut._Engine, "refine", counted)
    g = friendship(3)
    budget = Budget()
    ctx = AutContext(g, budget)
    colors = [0, 1, 2, 1, 3, 1, 4]
    assert ctx.is_rigid(colors)
    used, calls = budget.used, refines[0]
    assert ctx.first_nontrivial([7 - 2 * c for c in colors]) is None
    assert (budget.used - used, refines[0] - calls) == (1, 0)
    # the same classes are rigid under any values, a coarser partition is not
    assert not ctx.is_rigid([0, 1, 2, 1, 1, 1, 4])


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
