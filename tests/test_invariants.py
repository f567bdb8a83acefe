import json
from pathlib import Path

import pytest

import _oracles
from symlab import (AutContext, Budget, Coloring, InvariantReport, automorphisms,
                    check_witnesses, complete, corona, cost, cycle, determining_number,
                    distinguishing_number, friendship, invariant_report, is_determining_set,
                    minimum_determining_sets, path, star, subset_distinguishing_witness,
                    subset_is_d_distinguishable)


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
        assert witness.num_labels == d
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
        assert witness.num_labels == d
        assert min(witness.class_sizes()) == rho
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
        raw = [rng.randint(1, 2) for _ in range(g.n)]
        lut = {}
        labels = tuple(lut.setdefault(x, len(lut) + 1) for x in raw)
        labeling = {v: labels[v] for v in range(g.n)}
        assert (subset_is_d_distinguishable(g, range(g.n), labeling)
                == automorphisms(g, Coloring(labels)).is_trivial)


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
    from symlab import complete_bipartite, hypercube
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


# ---------------------------------------------------------------------------
# search size and the benchmark panel
# ---------------------------------------------------------------------------

def test_symmetric_reports_fit_small_budgets():
    # with stabilizer-orbit pruning these reports take 3,345 and 16,175 nodes;
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
