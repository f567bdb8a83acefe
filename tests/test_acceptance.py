"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 5 checks the corona determining number against its proven closed
form (engine, n!-filter brute force and formula must agree) and keeps the
refutation of the stated equality det(G) + n*det(H) pinned: the stated value
must stay strictly above the brute-force value on each checked pair.
Criterion 9 is informative by its own terms: the dimension-3 containment is
asserted, the dimension-4 violation is reported without gating.
"""

import random

import _oracles
from symlab import (AutContext, complete, corona, cost, cycle, determining_number,
                    distinguishing_number, enumerate_elements, friendship,
                    friendship_cost, friendship_distinguishing_number, friendship_gap,
                    friendship_threshold, hypercube, is_determining_set, path, run_suite)
from symlab.aut import automorphisms


def _line(num: int, ok: bool, detail: str, informative: bool = False) -> None:
    tag = "INFORMATIVE" if informative else ("PASS" if ok else "FAIL")
    print(f"ACCEPTANCE {num:>2}: {tag} - {detail}")


def test_criterion_01_friendship_distinguishing_numbers():
    got = {}
    for n in range(2, 9):
        got[n] = distinguishing_number(friendship(n))[0]
    want = {n: friendship_distinguishing_number(n) for n in range(2, 9)}
    ok = got == want
    _line(1, ok, f"computed friendship distinguishing numbers {got}")
    assert got == want


def test_criterion_02_friendship_cost():
    got = {}
    for n in range(2, 7):
        ctx = AutContext(friendship(n))
        d, _ = distinguishing_number(friendship(n), ctx=ctx)
        got[n] = cost(friendship(n), d=d, ctx=ctx)[0]
    want = {n: friendship_cost(n) for n in range(2, 7)}
    ok = got == want
    _line(2, ok, f"computed friendship costs {got} (offset+1 form)")
    assert got == want


def test_criterion_03_friendship_determining():
    ok = True
    values = {}
    for n in range(2, 7):
        g = friendship(n)
        ctx = AutContext(g)
        det, _ = determining_number(g, ctx=ctx)
        values[n] = det
        witness = tuple(range(1, 2 * n, 2))  # one outer vertex per triangle
        ok = ok and det == n and is_determining_set(g, witness, ctx=ctx)
    _line(3, ok, f"friendship determining numbers {values}, odd-vertex witness verified")
    assert ok


def test_criterion_04_friendship_thresholds():
    computed = {n: distinguishing_number(friendship(n))[0] for n in range(2, 8)}
    ok = True
    for j in (3, 4):
        first = min(n for n, d in computed.items() if d == j)
        ok = ok and first == friendship_threshold(j)
        ok = ok and computed[friendship_threshold(j) + j - 1] == j + 1
    _line(4, ok, f"searched label counts {computed}; thresholds and jumps match for j=3,4")
    assert ok


def _proven_corona_determining_number(det_g: int, n: int, det_h: int) -> int:
    """Det(G o H) for G connected of order n >= 2 and any H.

    A base vertex v has degree deg_G(v) + |H| > |H|, above every copy vertex,
    so Aut(G o H) is the wreath product Aut(H) wr Aut(G) (Frucht & Harary,
    "On the corona of two graphs", Aequationes Math. 4, 1970): it permutes the
    base by an automorphism of G and carries the copy H_v onto H_sigma(v).
    The automorphisms that move only the inside of one copy form Aut(H), so a
    determining set (Boutin, EJC 13, 2006, R78) meets every copy in a
    determining set of H, which gives at least n*det(H) vertices.
    * det(H) >= 1: that many suffice.  A fixed vertex of H_v pins v, so the
      whole base is fixed and every copy with it.
    * det(H) = 0 (H rigid, K_1 included): an automorphism is fixed by its
      action on the base, and fixing a copy vertex pins no more than its base
      vertex does.  So a determining set projects onto one of G, and a
      minimum determining set of G is one of G o H: the size is det(G).
    """
    return n * det_h if det_h >= 1 else det_g


def test_criterion_05_corona_determining_equality():
    # pendant part first: Det(G o K_1) = Det(G) for P_3, C_4, K_3
    det_k1 = determining_number(complete(1))[0]
    pendant_ok = True
    pendant = {}
    for name, g in [("path:3", path(3)), ("cycle:4", cycle(4)), ("complete:3", complete(3))]:
        det_g = determining_number(g)[0]
        prod = corona(g, complete(1))
        det_prod = determining_number(prod)[0]
        brute = _oracles.brute_determining(prod)[0]
        proven = _proven_corona_determining_number(det_g, g.n, det_k1)
        pendant[name] = (det_g, det_prod, brute, proven)
        pendant_ok = pendant_ok and det_prod == det_g == brute == proven
    assert pendant_ok, f"pendant corona results (det G, engine, brute, proven): {pendant}"

    # general part: engine == brute == proven closed form, while the stated
    # equality Det(G o H) = Det(G) + n * Det(H) stays strictly above the truth
    results, wrong, not_refuted = [], [], []
    for gname, g, hname, h in [("path:3", path(3), "complete:2", complete(2)),
                               ("path:2", path(2), "complete:2", complete(2)),
                               ("path:3", path(3), "path:2", path(2))]:
        prod = corona(g, h)
        det_g = determining_number(g)[0]
        det_h = determining_number(h)[0]
        computed = determining_number(prod)[0]
        brute = _oracles.brute_determining(prod)[0]
        proven = _proven_corona_determining_number(det_g, g.n, det_h)
        stated = det_g + g.n * det_h
        row = (gname, hname, computed, brute, proven, stated)
        results.append(row)
        if not computed == brute == proven:
            wrong.append(row)
        if not stated > brute:
            not_refuted.append(row)
    ok = not wrong and not not_refuted
    _line(5, ok, f"(pair, computed, brute, proven, stated): {results}; "
                 f"stated det(G) + n*det(H) above brute force on every pair: "
                 f"{not not_refuted}")
    assert not wrong, (
        "corrected corona determining number fails: engine, independent brute force "
        "over all permutations and the proven n*det(H) (det(G) when H is rigid) "
        f"disagree on (pair, computed, brute, proven, stated) {wrong} "
        "(see notes/decisions.md)"
    )
    assert not not_refuted, (
        "pinned refutation fails: the stated det(G) + n*det(H) is no longer strictly "
        "above the brute-force determining number on (pair, computed, brute, proven, "
        f"stated) {not_refuted}; the equality was refuted on all three pairs "
        "(see notes/decisions.md)"
    )


def test_criterion_06_corona_cost_bound():
    g, h = path(3), complete(2)
    prod = corona(g, h)
    gctx, hctx, pctx = AutContext(g), AutContext(h), AutContext(prod)
    d_g = distinguishing_number(g, ctx=gctx)[0]
    d_h = distinguishing_number(h, ctx=hctx)[0]
    d_prod = distinguishing_number(prod, ctx=pctx)[0]
    hypothesis = d_prod == max(d_g, d_h)
    rho_prod = cost(prod, d=d_prod, ctx=pctx)[0]
    bound = cost(g, d=d_g, ctx=gctx)[0] + g.n * cost(h, d=d_h, ctx=hctx)[0]
    ok = hypothesis and rho_prod <= bound and bound <= 4
    _line(6, ok, f"label counts agree ({d_prod} = max({d_g},{d_h})); "
                 f"corona cost {rho_prod} <= bound {bound} <= 4")
    assert ok


def test_criterion_07_bound_suite_order_six():
    ids = ["Prop2.2", "Prop2.3", "Prop2.4", "Prop2.5", "Cor2.7", "Thm1.1", "EngineOracle"]
    reports = run_suite(ids, corpus_override="all-connected:<=6", jobs=2)
    statuses = {r.theorem_id: r.status for r in reports}
    counterexamples = [r.theorem_id for r in reports if r.status == "counterexample"]
    ok = not counterexamples and all(s == "verified" for s in statuses.values())
    _line(7, ok, f"{reports[0].graphs_checked} connected graphs of order <= 6; "
                 f"statuses {statuses}")
    assert not counterexamples, f"counterexamples from {counterexamples}"
    assert ok


def test_criterion_08_engine_oracle_equivalence():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 7)
        g = _oracles.random_graph(rng, n, p=rng.choice([0.3, 0.5, 0.7]))
        plain = _oracles.brute_aut(g)
        grp = automorphisms(g)
        assert set(enumerate_elements(grp)) == set(plain)
        for _ in range(3):
            colors = [rng.randint(1, 3) for _ in range(n)]
            want = {s for s in plain
                    if all(colors[s[v]] == colors[v] for v in range(n))}
            got = automorphisms(g, colors)
            assert set(enumerate_elements(got)) == want
        checked += 1
    _line(8, True, f"{checked} random graphs of order <= 7, all-1 plus 3 colorings each, "
                   f"engine group == n!-filter group")
    assert checked == 200


def test_criterion_09_hypercube_cost_informative():
    values = {}
    for k in (3, 4):
        g = hypercube(k)
        ctx = AutContext(g)
        d, _ = distinguishing_number(g, ctx=ctx)
        values[k] = cost(g, d=d, ctx=ctx)[0]
    lo, hi = 1, 3  # ceil(log2 k) -/+ 1 for k = 3, 4
    q3_ok = lo <= values[3] <= hi
    q4_ok = lo <= values[4] <= hi
    _line(9, q3_ok,
          f"cost(Q_3) = {values[3]} in [1,3]: {q3_ok}; cost(Q_4) = {values[4]} in [1,3]: "
          f"{q4_ok} (quoted interval does not cover dimension 4; independently "
          f"confirmed, see notes/decisions.md)", informative=True)
    assert q3_ok
    # dimension 4 lands outside the quoted interval; the criterion marks this
    # check informative/skippable, so the violation is reported, not asserted


def test_criterion_10_gap_report():
    gaps = {n: friendship_gap(n) for n in range(2, 13)}
    achieved = sorted(set(gaps.values()))
    predicted = sorted({friendship_threshold(friendship_distinguishing_number(n)) - 1
                        for n in range(2, 13)})
    triangular = [j * (j + 1) // 2 for j in range(1, 5)]
    ok = achieved == predicted and all(v in triangular for v in achieved)
    # search cross-check at the small end
    for n in (2, 3, 4):
        g = friendship(n)
        ctx = AutContext(g)
        d, _ = distinguishing_number(g, ctx=ctx)
        searched = abs(determining_number(g, ctx=ctx)[0] - cost(g, d=d, ctx=ctx)[0])
        ok = ok and searched == gaps[n]
    _line(10, ok, f"achieved gap set {achieved} = thresholds-minus-one; only triangular "
                  f"numbers appear ({{1,3,6}} is the n<=10 slice; 10 enters at n=11)")
    assert ok


def test_witnesses_replay_through_check_witness():
    # every reported witness re-verifies, sampled across the corpus kinds
    from symlab import check_witnesses, invariant_report
    graphs = [path(5), cycle(6), friendship(3), corona(path(3), complete(2)), hypercube(3)]
    for g in graphs:
        rep = invariant_report(g)
        assert check_witnesses(g, rep) == []
