import itertools
import json
import random
import time
from pathlib import Path

import pytest

import _oracles
from symlab import (AutContext, Budget, BudgetExceededError, InvariantReport, automorphisms,
                    check_witnesses, complete, corona, cost, cycle, determining_number,
                    distinguishing_number, friendship, hypercube, invariant_report,
                    is_determining_set, minimum_determining_sets, path, star,
                    subset_distinguishing_witness, subset_is_d_distinguishable)


# ---------------------------------------------------------------------------
# distinguishing number
# ---------------------------------------------------------------------------

def test_distinguishing_known_values():
    for n in range(3, 8):
        assert distinguishing_number(path(n))[0] == 2
    assert distinguishing_number(friendship(2))[0] == 3
    assert distinguishing_number(complete(1))[0] == 1
    assert distinguishing_number(complete(5))[0] == 5
    assert distinguishing_number(cycle(5))[0] == 3
    assert distinguishing_number(cycle(6))[0] == 2
    assert distinguishing_number(star(3))[0] == 3


def test_distinguishing_witness_is_rigid():
    for g in [path(4), friendship(3), cycle(4), complete(4), star(4)]:
        d, witness = distinguishing_number(g)
        assert set(witness) == set(range(1, d + 1))
        assert automorphisms(g, witness).is_trivial


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------

def test_cost_known_values():
    for n in range(3, 8):
        assert cost(path(n))[0] == 1
    for n in range(2, 6):
        assert cost(complete(n))[0] == 1
    assert cost(friendship(3))[0] == 2
    assert cost(complete(1))[0] == 1  # single class is everything


def test_cost_witness_properties():
    for g in [path(5), friendship(3), cycle(4), star(3)]:
        ctx = AutContext(g)
        d, _ = distinguishing_number(g, ctx=ctx)
        rho, witness = cost(g, d=d, ctx=ctx)
        assert set(witness) == set(range(1, d + 1))
        assert min(map(witness.count, witness)) == rho
        assert automorphisms(g, witness).is_trivial


# ---------------------------------------------------------------------------
# determining number
# ---------------------------------------------------------------------------

def test_determining_known_values():
    for n in range(2, 5):
        assert determining_number(friendship(n))[0] == n
    for n in range(2, 6):
        assert determining_number(complete(n))[0] == n - 1
    assert determining_number(complete(1))[0] == 0
    assert determining_number(path(4))[0] == 1


def test_determining_witness_is_lex_least():
    det, witness = determining_number(path(4))
    assert det == 1 and witness == (0,)
    det, witness = determining_number(friendship(3))
    assert witness == (1, 3, 5)


def test_corona_determining_value():
    # the drop below det(G) + n*det(H) here is real: one vertex inside a copy
    # also pins its base vertex, so copy representatives determine everything
    c = corona(path(3), complete(2))
    det, witness = determining_number(c)
    assert det == 3
    assert _oracles.brute_determining(c)[0] == 3
    assert is_determining_set(c, witness)


def test_is_determining_set_examples():
    f3 = friendship(3)
    assert is_determining_set(f3, [1, 3, 5])
    assert not is_determining_set(f3, [1, 3])
    assert is_determining_set(complete(1), [])
    for bad in ([-1], [4]):  # negative indices must not wrap around
        with pytest.raises(ValueError, match="out of range"):
            is_determining_set(path(4), bad)


def test_determining_witness_matches_brute_force_sampled_order7(rng):
    # random graphs of order 6 and 7, disconnected ones included
    for _ in range(12):
        g = _oracles.random_graph(rng, rng.randint(6, 7), p=rng.choice([0.3, 0.5]))
        assert determining_number(g) == _oracles.brute_determining(g)


def test_minimum_determining_sets():
    sets, truncated = minimum_determining_sets(path(3))
    assert sets == [(0,), (2,)] and not truncated
    sets, truncated = minimum_determining_sets(complete(1))
    assert sets == [()] and not truncated
    sets, truncated = minimum_determining_sets(complete(4), cap=2)
    assert len(sets) == 2 and truncated
    # cap=0 lists nothing and reports the cut, the rigid graph's empty set
    # included; a negative cap is an error, not a list of every set
    for g in (path(3), complete(4), complete(1)):
        assert minimum_determining_sets(g, cap=0) == ([], True)
        with pytest.raises(ValueError):
            minimum_determining_sets(g, cap=-1)


def _class_candidate_graphs(rng) -> list:
    from symlab import complete_bipartite
    graphs = [_oracles.random_graph(rng, rng.randint(1, 7), rng.choice((0.1, 0.3, 0.7, 0.9)))
              for _ in range(60)]
    for g in (star(6), friendship(3), corona(path(3), complete(2)), complete_bipartite(3, 3)):
        sigma = list(range(g.n))
        random.Random(g.n).shuffle(sigma)
        graphs += [g, _oracles.relabeled(g, sigma)]
    return graphs


def test_class_candidates_are_the_lex_least_feasible_sets(rng):
    # the cost search's candidate classes are, in lexicographic order, the
    # lex-least set of each Aut(G)-orbit of the k-sets that hold at most one
    # vertex of each swap class and exactly one of each swap class of size d,
    # each with the length of its orbit
    from symlab.invariants import _class_candidates
    for g in _class_candidate_graphs(rng):
        group = _oracles.brute_aut(g)
        ctx = AutContext(g)
        classes = [set(cls) for cls in g.swap_classes]
        for d in range(max([2, *map(len, classes)]), g.n + 1):
            for k in range(g.n + 1):
                want = [(s, len({tuple(sorted(p[v] for v in s)) for p in group}))
                        for s in itertools.combinations(range(g.n), k)
                        if all(len(cls.intersection(s)) <= 1 for cls in classes)
                        and all(len(cls.intersection(s)) == 1 for cls in classes
                                if len(cls) == d)
                        and s == min(tuple(sorted(p[v] for v in s)) for p in group)]
                assert list(_class_candidates(ctx, k, d)) == want, (g.adj, k, d)


def test_two_label_classes_are_decided_by_orbit_size(rng):
    # labeling a class 2 and the rest 1 distinguishes iff the class's orbit
    # has |G| sets, the test the cost search makes when D = 2 in place of a
    # labeling search; that search agrees on every candidate class, and finds
    # that one labeling
    from symlab.invariants import _class_candidates, _search
    decided = 0
    for g in _class_candidate_graphs(rng):
        ctx = AutContext(g)
        if max(map(len, g.swap_classes), default=2) > 2:
            continue
        for k in range(g.n + 1):
            for cls, orbit in _class_candidates(ctx, k, 2):
                got = _search(ctx, 1, cls)
                want = [1 + (v in cls) for v in range(g.n)] if orbit == ctx.full.order else None
                assert got == want, (g.adj, cls)
                decided += got is not None
    assert decided


def test_minimum_determining_sets_equal_the_flat_scan(rng):
    # the orbits of the base search's leaves list the same sets, in the same
    # order and cut at the same place, as testing every det-set
    graphs = [_oracles.random_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(120)]
    graphs += [star(7), friendship(3), complete(6), corona(path(2), complete(3))]
    for g in graphs:
        ctx = AutContext(g)
        k = determining_number(g, ctx=ctx)[0]
        flat = [s for s in itertools.combinations(range(g.n), k) if ctx.pointwise_trivial(s)]
        assert minimum_determining_sets(g, ctx=ctx) == (flat, False)
        assert minimum_determining_sets(g, cap=3, ctx=ctx) == (flat[:3], len(flat) > 3)


def test_listing_makes_no_colored_query(monkeypatch):
    # the leaves come from Schreier stabilizers and their images from the
    # full group's generators, so listing asks the context nothing
    from symlab import build_family
    calls = []
    monkeypatch.setattr(AutContext, "first_nontrivial", lambda self, colors: calls.append(colors))
    for spec in ("friendship:7", "hypercube:4", "corona:(path:4),(complete:3)"):
        g = build_family(spec)
        sets, truncated = minimum_determining_sets(g, cap=10**6)
        assert sets and not truncated
    assert calls == []


def test_the_context_derives_each_prefix_stabilizer_once(monkeypatch):
    # the context keeps each prefix's pointwise stabilizer: a second walk
    # spends no node and yields the same leaves in the same order, and
    # determining_number then minimum_determining_sets form each Schreier
    # generator once, exactly those the listing alone forms.  The first leaf
    # still comes without the others: on Q5 it costs 30 nodes, all 34
    # leaves 87
    from symlab import aut, build_family
    formed = []
    point_stabilizer = aut.point_stabilizer

    def recorded(n, gens, order, v, budget):
        formed.append((tuple(gens), v))
        return point_stabilizer(n, gens, order, v, budget)

    monkeypatch.setattr(aut, "point_stabilizer", recorded)
    for spec in ("hypercube:5", "hypercube:6", "friendship:5", "cycle:12",
                 "corona:(path:4),(complete:3)"):
        g = build_family(spec)
        ctx = AutContext(g)
        setup = ctx.budget.used
        next(ctx.minimum_bases())
        first = ctx.budget.used - setup
        leaves = list(ctx.minimum_bases())
        walked = ctx.budget.used
        assert list(ctx.minimum_bases()) == leaves and ctx.budget.used == walked
        if spec == "hypercube:5":
            assert (first, walked - setup, len(leaves)) == (30, 87, 34)
        formed.clear()
        ctx = AutContext(g)
        alone = minimum_determining_sets(g, ctx=ctx)
        listing, spent = list(formed), ctx.budget.used
        formed.clear()
        ctx = AutContext(g)
        determining_number(g, ctx=ctx)
        assert minimum_determining_sets(g, ctx=ctx) == alone
        assert sorted(formed) == sorted(listing) and ctx.budget.used == spent, spec


def test_stabilizer_chain_equals_the_colored_group(rng):
    # the pointwise stabilizer of a sorted prefix, derived from the full group
    # one point at a time by Schreier's lemma, has the order and the orbits of
    # the colored group search on the coloring that individualizes the
    # prefix, and through order 8 those of the brute-force automorphisms
    # that fix the prefix
    from symlab import build_family
    from symlab.aut import orbit_partition, point_stabilizer, pointwise_colors
    graphs = [_oracles.random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
              for _ in range(200)]
    golden_file = Path(__file__).resolve().parent.parent / "perfbench/golden/symmetric-panel.json"
    graphs += [build_family(spec) for spec in json.loads(golden_file.read_text())]
    for g in graphs:
        elements = _oracles.brute_aut(g) if g.n <= 8 else None
        for key in range(2):
            sigma = list(range(g.n))
            random.Random(key).shuffle(sigma)
            h = _oracles.relabeled(g, sigma)
            unsigma = sorted(range(g.n), key=sigma.__getitem__)
            ctx = AutContext(h)
            for _ in range(3):
                prefix = sorted(rng.sample(range(h.n), rng.randint(0, min(h.n, 5))))
                gens, order = ctx.full.generators, ctx.full.order
                for v in prefix:
                    gens, order = point_stabilizer(h.n, gens, order, v, ctx.budget)
                group = ctx.group(pointwise_colors(h.n, prefix))
                assert (order, orbit_partition(h.n, gens)) == (group.order, group.orbits)
                if elements is not None:
                    # h's automorphisms are sigma p sigma^-1 for those p of g
                    fixing = [q for q in (tuple(sigma[p[u]] for u in unsigma) for p in elements)
                              if all(q[v] == v for v in prefix)]
                    assert order == len(fixing)
                    assert orbit_partition(h.n, fixing) == group.orbits


def test_determining_number_equals_the_colored_search(rng):
    # det and its witness are those of the search that took each prefix's
    # stabilizer from a colored group search
    for g in _prune_corpus(rng):
        assert determining_number(g) == _oracles.colored_determining_number(g, AutContext(g))


def test_budget_bounds_the_schreier_work():
    # every Schreier generator formed spends one node.  star:100's context
    # set-up spends 100 nodes and its det search 4,949 more, all of them
    # Schreier generators; a budget of 2,500, or one that admits the set-up
    # and 2,000 more, stops that search, within a few seconds
    g = star(100)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        determining_number(g, ctx=AutContext(g, Budget(2_500)))
    budget = Budget()
    ctx = AutContext(g, budget)
    budget.cap = budget.used + 2_000
    with pytest.raises(BudgetExceededError):
        determining_number(g, ctx=ctx)
    assert time.perf_counter() - start < 5


def _complete_tree(arity: int, depth: int):
    from symlab import from_edge_list
    n = (arity ** (depth + 1) - 1) // (arity - 1)
    return from_edge_list(n, [(i, arity * i + j) for i in range(n) for j in range(1, arity + 1)
                              if arity * i + j < n])


@pytest.mark.parametrize("name, det, nodes", [
    ("hypercube:6", 4, 79), ("binary tree, depth 4", 8, 3_291), ("star:60", 59, 1_769)])
def test_large_det_effort_is_pinned(name, det, nodes):
    # the nodes the det search itself spends, context set-up excluded: a
    # change that bloats the Schreier work fails here with no wall clock
    from symlab import build_family
    g = _complete_tree(2, 4) if name.startswith("binary") else build_family(name)
    budget = Budget()
    ctx = AutContext(g, budget)
    setup = budget.used
    assert determining_number(g, ctx=ctx)[0] == det
    assert budget.used - setup == nodes


@pytest.mark.parametrize("arity, depth, d, nodes", [(2, 4, 2, 232), (4, 2, 4, 307)])
def test_public_distinguishing_effort_is_pinned(arity, depth, d, nodes):
    # public D keeps its labeling, so each pool is searched once, in index
    # order, and the witness is that search's first labeling.  The nodes
    # are pinned with the context set-up included
    from symlab.invariants import _search
    g = _complete_tree(arity, depth)
    budget = Budget()
    got = distinguishing_number(g, ctx=AutContext(g, budget))
    assert budget.used == nodes
    assert got == (d, tuple(_search(AutContext(g), d)))


# ---------------------------------------------------------------------------
# subset distinguishability
# ---------------------------------------------------------------------------

def test_subset_examples():
    assert subset_is_d_distinguishable(path(3), [0], {0: 1})
    assert not subset_is_d_distinguishable(cycle(4), [0, 2], {0: 1, 2: 1})
    assert subset_distinguishing_witness(path(3), []) == (1, {})
    assert subset_distinguishing_witness(friendship(2), [1, 3])[0] == 2
    assert subset_distinguishing_witness(complete(3), [0, 1])[0] == 2
    with pytest.raises(ValueError):
        subset_is_d_distinguishable(path(3), [0, 1], {0: 1})


def test_subset_full_set_matches_rigidity(rng):
    for _ in range(20):
        g = _oracles.random_graph(rng, rng.randint(2, 5))
        labels = [rng.randint(1, 2) for _ in range(g.n)]
        labeling = {v: labels[v] for v in range(g.n)}
        assert (subset_is_d_distinguishable(g, range(g.n), labeling)
                == automorphisms(g, labels).is_trivial)


def test_subset_distinguishing_matches_brute(rng):
    for _ in range(25):
        g = _oracles.random_graph(rng, rng.randint(2, 5))
        w = [v for v in range(g.n) if rng.random() < 0.6]
        d, labeling = subset_distinguishing_witness(g, w)
        assert d == _oracles.brute_subset_distinguishing(g, w)
        assert subset_is_d_distinguishable(g, w, labeling)


def test_subset_upto_cutoff():
    # the cycle pair needs 2 labels, so a cutoff of 1 reports None
    assert subset_distinguishing_witness(cycle(4), [0, 2], upto=1) is None


def _group_route_witness(g, w, upto):
    # subset_is_d_distinguishable on every labeling, in the same order
    from symlab.invariants import _partitions_into
    ws = sorted(set(w))
    if not ws:
        return (1, {})
    ctx = AutContext(g)
    for d in range(1, (len(ws) if upto is None else min(upto, len(ws))) + 1):
        for labeling in _partitions_into(ws, d):
            if subset_is_d_distinguishable(g, ws, labeling, ctx=ctx):
                return d, labeling
    return None


def test_determining_subsets_take_the_rigidity_route(rng, monkeypatch):
    # a determining w is tested by one rigidity query per labeling and no
    # colored group; every w gets the witness of the group route
    # (notes/decisions.md, "Subset distinguishability of a determining set
    # is rigidity")
    groups = [0]
    group = AutContext.group

    def counted(self, colors):
        groups[0] += 1
        return group(self, colors)

    monkeypatch.setattr(AutContext, "group", counted)
    seen = {True: 0, False: 0}
    for _ in range(60):
        g = _oracles.random_graph(rng, rng.randint(1, 7), rng.choice((0.3, 0.5)))
        _, base = determining_number(g)
        extra = [v for v in range(g.n) if rng.random() < 0.3]
        for w in (base, sorted(set(base) | set(extra)), extra,
                  [v for v in range(g.n) if rng.random() < 0.5]):
            determines = is_determining_set(g, w)
            seen[determines] += 1
            for upto in (None, 1, 2):
                want = _group_route_witness(g, w, upto)
                groups[0] = 0
                assert subset_distinguishing_witness(g, w, upto) == want, (g.adj, w, upto)
                if determines:
                    assert groups[0] == 0
    assert min(seen.values()) > 20  # both routes were taken
    # the adjacent pair of the 4-cycle determines, yet needs 2 labels
    assert subset_distinguishing_witness(cycle(4), [0, 1], upto=1) is None
    assert subset_distinguishing_witness(cycle(4), [0, 2], upto=1) is None


# ---------------------------------------------------------------------------
# the searches agree with brute force on an exhaustive small corpus
# ---------------------------------------------------------------------------

def test_invariants_match_brute_force_exhaustively():
    for n in range(1, 5):
        for g in _oracles.connected_graphs(n):
            elements = _oracles.brute_aut(g)
            ctx = AutContext(g)
            d, _ = distinguishing_number(g, ctx=ctx)
            assert d == _oracles.brute_distinguishing(g, elements)
            assert cost(g, d=d, ctx=ctx)[0] == _oracles.brute_cost(g, d, elements)
            assert determining_number(g, ctx=ctx) == _oracles.brute_determining(g, elements)


def test_invariants_match_brute_force_sampled_order5(rng):
    graphs = list(_oracles.connected_graphs(5))
    for i in range(0, len(graphs), 36):
        g = graphs[i]
        elements = _oracles.brute_aut(g)
        ctx = AutContext(g)
        d, _ = distinguishing_number(g, ctx=ctx)
        assert d == _oracles.brute_distinguishing(g, elements)
        assert cost(g, d=d, ctx=ctx)[0] == _oracles.brute_cost(g, d, elements)
        assert determining_number(g, ctx=ctx) == _oracles.brute_determining(g, elements)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_schema_is_exact():
    rep = invariant_report(path(5))
    data = rep.to_dict()
    assert list(data) == ["graph6", "n", "aut_order", "D", "rho", "det",
                          "witness_labeling", "witness_det_set", "class_sizes"]
    assert data["D"] == 2 and data["rho"] == 1 and data["det"] == 1
    # JSON round trip preserves everything
    again = InvariantReport.from_dict(json.loads(json.dumps(data)))
    assert again == rep


def test_report_witnesses_reverify(rng):
    graphs = [path(4), cycle(5), friendship(2), star(3), complete(4)]
    graphs += [_oracles.random_graph(rng, 5) for _ in range(5)]
    for g in graphs:
        rep = invariant_report(g)
        assert check_witnesses(g, rep) == []
        assert rep.class_sizes[0] == rep.cost
        assert sum(rep.class_sizes) == g.n


def test_check_witnesses_catches_tampering():
    g = path(5)  # the center vertex is fixed by the flip, so {2} cannot determine
    rep = invariant_report(g)
    bad = InvariantReport.from_dict({**rep.to_dict(), "witness_det_set": [2]})
    assert any("determine" in p for p in check_witnesses(g, bad))
    bad = InvariantReport.from_dict({**rep.to_dict(), "witness_labeling": [1] * 5,
                                     "class_sizes": [5]})
    assert check_witnesses(g, bad)
    # an outside report's labels must still be 1..d
    bad = InvariantReport.from_dict({**rep.to_dict(), "witness_labeling": [1, 3, 1, 3, 1]})
    assert any(p.startswith("witness labeling invalid") for p in check_witnesses(g, bad))
    with pytest.raises(ValueError, match="missing"):
        InvariantReport.from_dict({"graph6": "Cx"})


def test_disconnected_graphs_are_accepted():
    from symlab import from_edge_list
    g = from_edge_list(4, [(0, 1), (2, 3)])  # two disjoint edges
    elements = _oracles.brute_aut(g)
    ctx = AutContext(g)
    d, witness = distinguishing_number(g, ctx=ctx)
    assert d == _oracles.brute_distinguishing(g, elements) == 3
    assert automorphisms(g, witness).is_trivial
    assert cost(g, d=d, ctx=ctx)[0] == _oracles.brute_cost(g, d, elements)
    assert determining_number(g, ctx=ctx) == _oracles.brute_determining(g, elements)


def test_friendship_formulas_match_search_through_eight():
    from symlab import (friendship_cost, friendship_determining_number,
                        friendship_distinguishing_number)
    for n in range(2, 9):
        g = friendship(n)
        ctx = AutContext(g)
        d, _ = distinguishing_number(g, ctx=ctx)
        assert d == friendship_distinguishing_number(n)
        assert cost(g, d=d, ctx=ctx)[0] == friendship_cost(n)
        assert determining_number(g, ctx=ctx)[0] == friendship_determining_number(n)


def test_friendship_reports_match_the_closed_forms():
    # the lower sides of Thm3.1 and Thm3.3 rest on the block prune's
    # counting (notes/decisions.md, "Interchangeable blocks"): every report
    # through 14 triangles matches the closed forms, witnesses re-checked
    from symlab import (friendship_cost, friendship_determining_number,
                        friendship_distinguishing_number)
    for n in range(2, 15):
        g = friendship(n)
        report = invariant_report(g)
        assert (report.distinguishing_number, report.cost, report.determining_number) == (
            friendship_distinguishing_number(n), friendship_cost(n),
            friendship_determining_number(n)), n
        assert check_witnesses(g, report) == [], n


def test_petersen_invariants():
    # outer 5-cycle, inner pentagram, spokes; classic reference values
    from symlab import from_edge_list
    edges = ([(i, (i + 1) % 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
             + [(i, 5 + i) for i in range(5)])
    pet = from_edge_list(10, edges)
    ctx = AutContext(pet)
    assert ctx.full.order == 120
    assert distinguishing_number(pet, ctx=ctx)[0] == 3
    assert determining_number(pet, ctx=ctx)[0] == 3


def test_larger_structured_graphs():
    from math import factorial
    from symlab import complete_bipartite
    assert distinguishing_number(cycle(30))[0] == 2
    k99 = complete_bipartite(9, 9)
    ctx = AutContext(k99)
    assert ctx.full.order == 2 * factorial(9) ** 2
    assert distinguishing_number(k99, ctx=ctx)[0] == 10
    big_star = star(25)
    ctx = AutContext(big_star)
    assert ctx.full.order == factorial(25)
    assert distinguishing_number(big_star, ctx=ctx)[0] == 25
    assert distinguishing_number(hypercube(5))[0] == 2


def test_cost_det_hint_never_cuts():
    for g in [path(5), friendship(3), cycle(6), complete(4)]:
        ctx = AutContext(g)
        d, _ = distinguishing_number(g, ctx=ctx)
        det, _ = determining_number(g, ctx=ctx)
        plain = cost(g, d=d, ctx=ctx)[0]
        hinted = cost(g, d=d, ctx=ctx, det_hint=det)[0]
        assert plain == hinted


def _searches(g):
    # D, rho and det with their witnesses, and the budget they spent
    budget = Budget()
    ctx = AutContext(g, budget)
    d, witness = distinguishing_number(g, ctx=ctx)
    return (d, witness, cost(g, d=d, ctx=ctx), determining_number(g, ctx=ctx)), budget.used


class _Forgetful(list):
    """A context's memory of found automorphisms or rigid partitions that
    keeps nothing."""

    def append(self, item):
        pass

    add = append


def _two_branch_tree():
    # a tree whose root holds two isomorphic 3-vertex branches, each a star
    # rooted at its middle vertex, and one 2-vertex path
    from symlab import from_edge_list
    return from_edge_list(9, [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6), (0, 7), (7, 8)])


def _prune_corpus(rng):
    # 300 random graphs of order <= 8, and six symmetric graphs, each as
    # built and under five relabelings
    graphs = [_oracles.random_graph(rng, rng.randint(1, 8), rng.choice((0.3, 0.5, 0.7)))
              for _ in range(300)]
    for g in (friendship(4), friendship(5), hypercube(3), star(6),
              corona(path(3), complete(2)), _two_branch_tree()):
        graphs.append(g)
        for key in range(5):
            sigma = list(range(g.n))
            random.Random(key).shuffle(sigma)
            graphs.append(_oracles.relabeled(g, sigma))
    return graphs


def test_labeling_witnesses_do_not_depend_on_the_prunes(rng, monkeypatch):
    # the coset-table orbit prune, the twin and swap tests, the block prune,
    # the context's known automorphisms and rigid partitions and the
    # swap-class bounds only skip work: with no tables, no swap classes, no
    # block families and an engine query at every node, D, rho, det and
    # their witnesses are the same (notes/decisions.md, "Coset tables, twins,
    # swaps and known automorphisms", "Swap classes bound D, det and ρ" and
    # "Interchangeable blocks")
    from symlab import Graph, aut, invariants
    graphs = _prune_corpus(rng)
    assert any(g.block_families for g in graphs)
    pruned = [_searches(g) for g in graphs]
    monkeypatch.setattr(invariants, "_lex_tables", lambda ctx, fixed: [])
    monkeypatch.setattr(invariants._LabelSearch, "_has_twin", lambda self, i: True)
    monkeypatch.setattr(Graph, "swap_classes", ())
    monkeypatch.setattr(Graph, "block_families", ())
    init = aut.AutContext.__init__

    def forgetful_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._known = _Forgetful()
        self._rigid = _Forgetful()

    monkeypatch.setattr(aut.AutContext, "__init__", forgetful_init)
    # copies, as the graphs above keep the swap classes they computed
    unpruned = [_searches(Graph(g.n, g.adj)) for g in graphs]
    assert [got for got, _ in unpruned] == [got for got, _ in pruned]
    # the prunes were in force
    assert sum(used for _, used in unpruned) > sum(used for _, used in pruned)


def test_block_prune_matches_brute_force_through_order_7():
    # every connected graph of order <= 7 with a family of interchangeable
    # blocks, one per isomorphism class: D and rho equal the brute-force
    # values, which use neither the engine nor the prune (notes/decisions.md,
    # "Interchangeable blocks")
    from symlab import brute_force_automorphisms
    from symlab.verifier import _OrbitMarks
    checked = 0
    for n in range(1, 8):
        for _, g in _OrbitMarks(n).stream():
            if g is None or not g.block_families:
                continue
            elements = brute_force_automorphisms(g)
            ctx = AutContext(g)
            d, _ = distinguishing_number(g, ctx=ctx)
            assert d == _oracles.brute_distinguishing(g, elements), g.adj
            assert cost(g, d=d, ctx=ctx)[0] == _oracles.brute_cost(g, d, elements), g.adj
            checked += 1
    # 2 of order 5, 2 of order 6 and 14 of order 7
    assert checked == 18


def _report_used(g):
    budget = Budget()
    report = invariant_report(g, AutContext(g, budget))
    return report, budget.used


def test_block_families_make_no_engine_query(monkeypatch):
    # families come from the graph's edges alone: finding them refines
    # nothing, so a graph without one is searched node for node as with the
    # prune off, and a graph with one spends less
    from symlab import Graph, aut
    graphs = [friendship(5), corona(path(3), complete(2)), _two_branch_tree(),
              hypercube(3), cycle(8), star(6), corona(path(4), complete(3))]

    def refuse(*args, **kwargs):
        raise AssertionError("queried the engine")

    with monkeypatch.context() as m:
        m.setattr(aut._Engine, "refine", refuse)
        assert [len(g.block_families) for g in graphs] == [1, 1, 1, 0, 0, 0, 0]
    pruned = [_report_used(g) for g in graphs]
    monkeypatch.setattr(Graph, "block_families", ())
    plain = [_report_used(Graph(g.n, g.adj)) for g in graphs]
    assert [report for report, _ in pruned] == [report for report, _ in plain]
    assert [used for _, used in pruned[3:]] == [used for _, used in plain[3:]]
    assert all(p < q for (_, p), (_, q) in zip(pruned[:3], plain[:3]))


def test_blocks_beyond_the_limit_are_searched_as_before(monkeypatch):
    # two 4-vertex paths hang from vertex 0: interchangeable, but beyond
    # BLOCK_LIMIT, so the graph has no family and spends what it spends with
    # the prune off; with the limit raised the prune would cut
    from symlab import Graph, from_edge_list, graphs
    g = from_edge_list(9, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)])
    assert g.block_families == ()
    as_built = _report_used(g)
    with monkeypatch.context() as m:
        m.setattr(Graph, "block_families", ())
        assert _report_used(Graph(g.n, g.adj)) == as_built
    monkeypatch.setattr(graphs, "BLOCK_LIMIT", 4)
    wider = Graph(g.n, g.adj)
    assert len(wider.block_families) == 1
    report, used = _report_used(wider)
    assert report == as_built[0] and used < as_built[1]


def test_chain_order_decides_as_index_order_does(rng, monkeypatch):
    # a D pool fails in the group's base order exactly when it fails in
    # index order, so D alone, searched in base order, takes every pool
    # verdict of the index-order search that keeps its witness.  Where a
    # labeling is kept, each D pool and each cost class searched is decided
    # by one search, in index order (notes/decisions.md, "Kept labelings are
    # searched in index order; D alone in base order")
    from symlab import invariants
    graphs = _prune_corpus(rng)
    # each search's pool, class, whether it ran in index order and whether
    # it found a labeling, and each cost class tried
    calls: list = []
    candidates: list = []
    search, class_candidates = invariants._search, invariants._class_candidates

    def logged_search(ctx, pool, cls=(), rest=None):
        got = search(ctx, pool, cls, rest)
        calls.append((pool, tuple(cls), rest is None, got is not None))
        return got

    def logged_candidates(ctx, k, d):
        for cls, orbit in class_candidates(ctx, k, d):
            candidates.append(cls)
            yield cls, orbit

    monkeypatch.setattr(invariants, "_search", logged_search)
    monkeypatch.setattr(invariants, "_class_candidates", logged_candidates)
    reordered = 0
    for g in graphs:
        ctx = AutContext(g)
        reordered += ctx.full.base_order != tuple(range(g.n))
        calls.clear()
        d_alone = invariants._distinguishing(ctx, witness=False)[0]
        alone = list(calls)
        calls.clear()
        d, witness = distinguishing_number(g, ctx=ctx)
        assert d == d_alone and max(witness) == d
        assert [(pool, found) for pool, _, _, found in calls] == [
            (pool, found) for pool, _, _, found in alone]
        assert all(index for _, _, index, _ in calls)
        assert not any(index for _, _, index, _ in alone)
        # one search per pool, the last one found
        assert [found for _, _, _, found in calls] == [False] * (len(calls) - 1) + [True] * bool(calls)
        calls.clear()
        candidates.clear()
        cost(g, d=d, ctx=ctx)
        if d > 2:
            assert calls == [(d - 1, cls, True, cls == candidates[-1]) for cls in candidates]
        else:
            assert calls == []
    # the base order differed from index order on 184 of the 336 graphs
    assert reordered > 100


def test_lex_buckets_reject_what_the_full_scan_rejects(rng, monkeypatch):
    # rescanning only the tables a new label can change rejects the same
    # nodes as scanning every live table, so D, rho, both witnesses and the
    # budget spent are the same (notes/decisions.md, "Coset tables, twins,
    # swaps and known automorphisms")
    from symlab import invariants
    graphs = _prune_corpus(rng)
    bucketed = [_searches(g) for g in graphs]
    tables = []

    def full_scan(order, start, ts):
        tables.extend(ts)
        return _oracles.FullScanLex(order, start, ts)

    monkeypatch.setattr(invariants, "_LexBuckets", full_scan)
    assert [_searches(g) for g in graphs] == bucketed
    assert tables  # the full scan was in force


def _scan_det_sets(g, ctx, stop: int = 1000) -> None:
    # a pointwise query on each det-set in lexicographic order, until stop + 1
    # of them determine: a source of many colored queries on one context
    k = determining_number(g, ctx=ctx)[0]
    found = 0
    for s in itertools.combinations(range(g.n), k):
        found += ctx.pointwise_trivial(s)
        if found > stop:
            return


def test_context_never_refinds_an_automorphism(monkeypatch):
    # D, rho, det and a scan of the det-sets share one context's known
    # automorphisms, the full group's generators first, so the engine never
    # returns a generator of the full group nor one it returned before.  On
    # these vertex-transitive graphs, with no swap class or block family, the
    # colored queries still find some
    from symlab import aut
    found: list = []
    engine_first = aut._Engine.first_nontrivial

    def first_nontrivial(self):
        sigma = engine_first(self)
        if sigma is not None:
            found.append(sigma)
        return sigma

    monkeypatch.setattr(aut._Engine, "first_nontrivial", first_nontrivial)
    for g in (cycle(12), hypercube(3)):
        sigma = list(range(g.n))
        random.Random(1).shuffle(sigma)
        for h in (g, _oracles.relabeled(g, sigma)):
            found.clear()
            ctx = AutContext(h)
            invariant_report(h, ctx=ctx)
            _scan_det_sets(h, ctx)
            assert found and len(set(found)) == len(found)
            assert not set(found) & set(ctx.full.generators)


def test_remembered_answers_spend_the_budget(monkeypatch):
    # a query answered by an automorphism the context found spends one node,
    # so the budget bounds the number of queries, not only the searches: the
    # scan of hypercube:5's det-sets makes 4,054 queries, and its set-up and
    # scan spend 4,117 nodes, of which 1,040 are refinements
    from symlab import aut
    calls = [0]
    first_nontrivial = AutContext.first_nontrivial

    def counted(self, colors):
        calls[0] += 1
        return first_nontrivial(self, colors)

    monkeypatch.setattr(AutContext, "first_nontrivial", counted)
    g = hypercube(5)
    budget = Budget()
    ctx = AutContext(g, budget)
    setup = budget.used
    _scan_det_sets(g, ctx)
    assert calls[0] <= budget.used - setup
    with pytest.raises(aut.BudgetExceededError):
        _scan_det_sets(g, AutContext(g, Budget(2_000)))


# ---------------------------------------------------------------------------
# search size and the benchmark panel
# ---------------------------------------------------------------------------

def test_symmetric_reports_fit_small_budgets():
    # with stabilizer-orbit pruning these reports take 863 and 6,671 nodes;
    # scanning every k-subset for the determining set takes over 280,000
    g, h = friendship(8), corona(path(4), complete(3))
    assert invariant_report(g, ctx=AutContext(g, Budget(10_000))).determining_number == 8
    assert invariant_report(h, ctx=AutContext(h, Budget(40_000))).cost == 4


def test_panel_reports_match_golden():
    from symlab import build_family
    golden_file = Path(__file__).resolve().parent.parent / "perfbench/golden/symmetric-panel.json"
    golden = json.loads(golden_file.read_text())
    assert len(golden) == 11
    for spec, want in golden.items():
        got = invariant_report(build_family(spec)).to_dict()
        assert json.dumps(got) == json.dumps(want), spec
