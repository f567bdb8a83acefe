import gc
import json
import weakref
from pathlib import Path

import pytest

import _oracles
from symlab import corpus, exit_code_for, registered_checks, run_check, run_suite
from symlab.verifier import CorpusError, TheoremReport, UnknownCheckError


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def test_connected_corpus_counts():
    # labeled connected graph counts: 1, 1, 4, 38, 728 for n = 1..5
    assert sum(1 for _ in corpus("all-connected:4")) == 38
    assert sum(1 for _ in corpus("all-connected:<=4")) == 1 + 1 + 4 + 38
    assert sum(1 for _ in corpus("all-connected:5")) == 728
    for g in corpus("all-connected:<=4"):
        assert g.is_connected()


def test_friendship_corpus():
    graphs = list(corpus("friendship:2..3"))
    assert [g.n for g in graphs] == [5, 7]
    with pytest.raises(CorpusError):
        list(corpus("friendship:1..3"))


def test_corona_corpus():
    graphs = list(corpus("corona-pairs:(path:3),(complete:2)"))
    assert [g.n for g in graphs] == [9]
    graphs = list(corpus("corona-pairs:(path:2),(complete:1);(path:3),(complete:1)"))
    assert [g.n for g in graphs] == [4, 6]


def test_file_corpus(tmp_path):
    p = tmp_path / "graphs.g6"
    p.write_text(">>graph6<<\nBg\nA_\n")
    graphs = list(corpus(f"file:{p}"))
    assert [g.n for g in graphs] == [3, 2]
    with pytest.raises(CorpusError):
        list(corpus("file:/no/such/file"))
    with pytest.raises(CorpusError):
        list(corpus("bogus:1"))


# ---------------------------------------------------------------------------
# single checks
# ---------------------------------------------------------------------------

def test_thm34_on_small_range():
    rep = run_check("Thm3.4", "friendship:2..4")
    assert rep.status == "verified"
    assert rep.graphs_checked == 3 and rep.hypothesis_met == 3


def test_prop25_small_corpus():
    rep = run_check("Prop2.5", "all-connected:<=4")
    assert rep.status == "verified"
    assert rep.graphs_checked == 44


def test_unknown_check_id():
    with pytest.raises(UnknownCheckError):
        run_check("Thm9.9")


def test_hypothesis_never_met():
    # the only connected graph of order 1 is rigid, so the gate never opens
    rep = run_check("Cor2.6", "all-connected:1")
    assert rep.status == "hypothesis-never-met"


def test_corona_equality_counterexample_is_reported():
    # the corona determining equality genuinely fails: the computed value on
    # (path:3),(complete:2) is 3 while the claimed formula gives 4
    rep = run_check("Thm4.1", "corona-pairs:(path:3),(complete:2)")
    assert rep.status == "counterexample"
    assert rep.counterexample["computed"] == 3
    assert rep.counterexample["formula"] == 4
    assert rep.counterexample["graph6"]  # replayable payload
    assert exit_code_for([rep]) == 1


def test_pendant_corona_verifies():
    rep = run_check("Thm4.2")
    assert rep.status == "verified" and rep.hypothesis_met == 3


def test_cost_bound_check():
    rep = run_check("Thm4.3")
    assert rep.status == "verified"


def test_corona_degree_check():
    rep = run_check("CoronaDegree")
    assert rep.status == "verified"


def test_hypercube_check_is_informative():
    rep = run_check("HypercubeCost")
    assert rep.informative
    # dimension 4 genuinely lands outside the quoted interval
    assert rep.status == "counterexample"
    assert rep.counterexample["dim"] == 4 and rep.counterexample["rho"] == 5
    assert exit_code_for([rep]) == 0  # informative checks never gate


def test_gap_report():
    rep = run_check("Thm2.8", "friendship:2..12")
    assert rep.status == "verified"
    assert "[1, 3, 6, 10]" in rep.notes


def test_friendship_threshold_check():
    rep = run_check("Rem3.2", "friendship:2..7")
    assert rep.status == "verified"
    with pytest.raises(CorpusError):
        run_check("Rem3.2", "friendship:3..7")


def test_corpus_kind_mismatch_rejected():
    with pytest.raises(CorpusError):
        run_check("Thm3.1", "all-connected:4")
    with pytest.raises(CorpusError):
        run_check("Thm4.1", "friendship:2..3")
    with pytest.raises(CorpusError):
        run_check("HypercubeCost", "all-connected:4")
    with pytest.raises(CorpusError, match="second factor to be complete:1"):
        run_check("Thm4.2", "corona-pairs:(path:3),(path:2)")
    with pytest.raises(CorpusError, match="start at n=2"):
        run_check("Thm3.1", "friendship:1..3")


def test_check_corpus_rules_hold_before_any_search(no_search):
    # Rem3.2's and Thm4.2's own corpus rules are part of their kinds' parsers,
    # so a suite that breaks one exits before the bound pass searches a graph
    with pytest.raises(CorpusError, match="start at 2"):
        run_suite(["Prop2.2", "Rem3.2"], corpus_override="friendship:3..7")
    with pytest.raises(CorpusError, match="second factor to be complete:1"):
        run_suite(["Prop2.2", "Thm4.2"],
                  corpus_override="corona-pairs:(path:3),(complete:1);(path:3),(path:2)")


def test_budget_exceeded_status():
    rep = run_check("Prop2.2", "all-connected:4", budget=3)
    assert rep.status == "budget-exceeded"
    assert exit_code_for([rep]) == 3


# ---------------------------------------------------------------------------
# suite plumbing
# ---------------------------------------------------------------------------

def test_bound_checks_share_one_corpus_pass():
    reports = run_suite(["Prop2.2", "Prop2.5", "Cor2.7"], corpus_override="all-connected:<=4")
    assert [r.theorem_id for r in reports] == ["Prop2.2", "Prop2.5", "Cor2.7"]
    assert all(r.status == "verified" for r in reports)
    assert all(r.graphs_checked == 44 for r in reports)


def test_repeated_check_id_counts_each_graph_once():
    reports = run_suite(["Prop2.2", "Prop2.2"], corpus_override="all-connected:3")
    assert [(r.graphs_checked, r.hypothesis_met) for r in reports] == [(4, 4), (4, 4)]


_BOUND_CHECKS = ["Thm1.1", "Prop2.2", "Prop2.3", "Prop2.4", "Prop2.5",
                 "Cor2.6", "Cor2.7", "EngineOracle"]


def test_jobs_do_not_change_reports():
    # Cor2.6 memoizes induced subgraphs per run: serially in one dict, in the
    # pool once per worker
    one = run_suite(_BOUND_CHECKS, corpus_override="all-connected:<=5", jobs=1)
    two = run_suite(_BOUND_CHECKS, corpus_override="all-connected:<=5", jobs=2)
    assert [r.to_dict() for r in one] == [r.to_dict() for r in two]
    assert [r.theorem_id for r in one] == _BOUND_CHECKS
    assert all(r.graphs_checked == 772 for r in one)


def _count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_all_connected_pass_searches_each_class_once(monkeypatch):
    # the 772 graphs of order <= 5 fall into 31 classes; every later labeled
    # copy reads its class's row from the orbit marks
    import symlab.verifier as verifier
    judged = _count_calls(monkeypatch, verifier, "invariant_report")
    [report] = run_suite(["Prop2.2"], corpus_override="all-connected:<=5")
    assert (report.status, report.graphs_checked) == ("verified", 772)
    assert len(judged) == 31


def test_orbit_marks_match_canonical_form():
    # streaming every edge mask of order n <= 5 marks every mask; two
    # connected masks share a slot iff their brute-force canonical forms
    # agree, and each order's slots cover exactly its labeled connected graphs
    # (disconnected orbits get the sentinel)
    import symlab.verifier as verifier
    pairs, marked = set(), {}
    for n in range(1, 6):
        marks = verifier._OrbitMarks(n)
        pairs |= {(_oracles.brute_canonical(verifier._mask_graph(n, mask)), (n, marks.table[mask]))
                  for mask, _ in marks.stream()}
        assert all(marks.table)
        marked[n] = sum(1 for slot in marks.table if slot != verifier._DISCONNECTED)
        assert sum(marks.sizes) == marked[n]
    assert len(pairs) == len({key for key, _ in pairs}) == len({o for _, o in pairs}) == 31
    assert marked == {1: 1, 2: 1, 3: 4, 4: 38, 5: 728}


def test_all_connected_pass_builds_graphs_per_class_and_sample(monkeypatch):
    # a serial pass over the 1,099 edge masks of order <= 5 builds a graph
    # for the first mask of each of the 52 orbits (31 connected) and for each
    # of the 8 EngineOracle samples, and for no other mask
    import symlab.verifier as verifier
    built = _count_calls(monkeypatch, verifier, "from_edge_list")
    reports = run_suite(_BOUND_CHECKS, corpus_override="all-connected:<=5")
    assert all(r.graphs_checked == 772 for r in reports)
    assert len(built) <= 52 + 8


def test_file_corpus_searches_every_graph(monkeypatch, tmp_path):
    # a file need not hold every relabeling, so each graph is judged on its
    # own, a relabeled copy of an earlier graph included
    import symlab.verifier as verifier
    from symlab.graphs import emit_graph6, path
    g = path(4)
    copy = _oracles.relabeled(g, (1, 0, 3, 2))
    assert copy != g
    f = tmp_path / "two.g6"
    f.write_text(f"{emit_graph6(g)}\n{emit_graph6(copy)}\n")
    judged = _count_calls(monkeypatch, verifier, "invariant_report")
    [report] = run_suite(["Prop2.2"], corpus_override=f"file:{f}")
    assert (report.status, report.graphs_checked) == ("verified", 2)
    assert judged == [g, copy]


def test_bound_pass_builds_one_context_per_distinct_subgraph(monkeypatch):
    # The 772 graphs fall into 31 isomorphism classes; a class judged once
    # reuses its verdicts, so a run builds one context per class, one per
    # distinct labeled Cor2.6 subgraph, and at most one per sampled
    # EngineOracle index (8 of them).  An identical second run builds as many
    # again: neither cache outlives a run.
    import symlab.verifier as verifier

    built = []

    class CountingContext(verifier.AutContext):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(verifier, "AutContext", CountingContext)
    counts = []
    for _ in range(2):
        built.clear()
        run_suite(_BOUND_CHECKS, corpus_override="all-connected:<=5")
        counts.append(len(built))
    assert 31 <= counts[0] <= 60
    assert counts[1] == counts[0]


def test_non_bound_checks_build_one_context_per_distinct_graph(monkeypatch):
    # one run keeps one context per labeled graph its checks search: the
    # corona checks search 9 distinct graphs over their 7 pairs (P3, K2 and
    # P3∘K2 recur), the friendship checks friendship:2..8 once each
    import symlab.verifier as verifier

    built = []

    class CountingContext(verifier.AutContext):
        def __init__(self, graph, *args, **kwargs):
            built.append(graph)
            super().__init__(graph, *args, **kwargs)

    monkeypatch.setattr(verifier, "AutContext", CountingContext)
    reports = run_suite(["Thm4.1", "Thm4.2", "Thm4.3"])
    assert [r.status for r in reports] == ["counterexample", "verified", "verified"]
    assert len(built) == len(set(built)) == 9
    built.clear()
    reports = run_suite(["Thm3.1", "Rem3.2", "Thm3.3", "Thm3.4", "Thm2.8"])
    assert all(r.status == "verified" for r in reports)
    assert len(built) == len(set(built)) == 7


def test_run_frees_every_context_it_built(monkeypatch):
    # with the cyclic collector off, reference counting alone must free every
    # context a run searched once the run returns
    import symlab.aut as aut

    built = []
    init = aut.AutContext.__init__

    def tracked(self, *args, **kwargs):
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(aut.AutContext, "__init__", tracked)
    gc.collect()
    gc.disable()
    try:
        for ids, spec in ((["Prop2.2", "Cor2.6"], "all-connected:<=4"),
                          (["Thm3.4", "Thm4.1", "Thm4.3"], None)):
            built.clear()
            run_suite(ids, corpus_override=spec)
            assert built and [r for r in built if r() is not None] == [], ids
    finally:
        gc.enable()


def test_pool_has_at_most_one_worker_per_cpu(monkeypatch):
    # an in-process stand-in records the pool size; no process is started
    import symlab.verifier as verifier

    sizes = []

    class FakePool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, func, tasks, chunksize):
            return map(func, tasks)

    monkeypatch.setattr(verifier.multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(verifier, "_worker_facts", None)
    serial = run_suite(["Prop2.2", "Cor2.6"], corpus_override="all-connected:<=4")
    assert sizes == []
    pooled = run_suite(["Prop2.2", "Cor2.6"], corpus_override="all-connected:<=4", jobs=10_000)
    assert sizes == [3]
    assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]
    # under a tight budget some classes overrun, and that overrun stands for
    # their copies in both paths; 30 nodes is well under the 50 that the
    # costliest graph needs
    serial = run_suite(_BOUND_CHECKS, corpus_override="all-connected:<=5", budget=30)
    pooled = run_suite(_BOUND_CHECKS, corpus_override="all-connected:<=5", budget=30, jobs=2)
    assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]
    assert all(r.status == "budget-exceeded" for r in serial)


def test_cached_verdicts_equal_uncached(tmp_path):
    # Each bound verdict is an isomorphism invariant, so the all-connected
    # pass, which judges each class once, reports what a file of the same
    # graphs in the same order reports when each graph is judged on its own,
    # EngineOracle's sampled indices included
    import symlab as sl
    spec = "all-connected:<=5"
    f = tmp_path / "le5.g6"
    f.write_text("".join(sl.emit_graph6(g) + "\n" for g in corpus(spec)))
    cached = run_suite(_BOUND_CHECKS, corpus_override=spec)
    uncached = run_suite(_BOUND_CHECKS, corpus_override=f"file:{f}")

    def fields(reports):
        return [{**r.to_dict(), "corpus": None} for r in reports]

    assert fields(cached) == fields(uncached)
    assert all(r.graphs_checked == 772 for r in cached)


def test_thm11_widening_is_used(tmp_path, monkeypatch):
    # a double star: every minimum determining set (one leaf per side) is
    # swapped setwise by the central flip, so the check must fall back to the
    # constructive witness and still verify
    p = tmp_path / "doublestar.g6"
    p.write_text("Eia?\n")
    rep = run_check("Thm1.1", f"file:{p}")
    assert rep.status == "verified"
    assert rep.notes and "constructive witness" in rep.notes
    # the fallback's witness set determines, so one rigidity query tells
    # whether its labeling distinguishes it: no colored group is built
    import symlab as sl
    import symlab.verifier as verifier
    g = sl.parse_graph6("Eia?")
    facts = verifier._Facts(verifier.DEFAULT_NODE_BUDGET)
    ctx = sl.AutContext(g, sl.Budget())
    case = verifier._Case(0, ctx, sl.invariant_report(g, ctx=ctx), facts)
    groups = _count_calls(monkeypatch, sl.AutContext, "group")
    assert verifier._check_thm11(case) == (True, "widened", None)
    assert groups == []


def test_thm11_and_cor26_judge_the_leaves_as_every_minimum_set():
    # the det base search's leaves hold the lex-least set of each orbit of
    # minimum determining sets, so Thm1.1 and Cor2.6, whose verdicts hold for
    # the images of a set too, give from the leaves the verdicts they give
    # from every det-set that determines, handed in as the context's
    # minimum_bases: on a graph of each class of order <= 5, the double
    # star, and relabeled friendship:4, Q3, C6 and P3 o K2
    import itertools
    import random
    import symlab as sl
    import symlab.verifier as verifier
    graphs = {_oracles.brute_canonical(g): g for g in corpus("all-connected:<=5")}
    graphs = [*graphs.values(), sl.parse_graph6("Eia?")]  # the double star widens Thm1.1
    assert len(graphs) == 32
    for spec in ("friendship:4", "hypercube:3", "cycle:6", "corona:(path:3),(complete:2)"):
        g = sl.build_family(spec)
        sigma = list(range(g.n))
        random.Random(g.n).shuffle(sigma)
        graphs.append(_oracles.relabeled(g, sigma))
    facts = verifier._Facts(verifier.DEFAULT_NODE_BUDGET)
    for g in graphs:
        ctx = sl.AutContext(g)
        rep = sl.invariant_report(g, ctx=ctx)
        leaves = list(ctx.minimum_bases())
        every = [s for s in itertools.combinations(range(g.n), rep.determining_number)
                 if ctx.pointwise_trivial(s)]
        assert set(leaves) <= set(every)
        elements = list(sl.enumerate_elements(ctx.full))
        assert {min(tuple(sorted(p[v] for v in s)) for p in elements)
                for s in every} <= set(leaves), g.adj
        case = verifier._Case(0, ctx, rep, facts)
        for check in (verifier._check_thm11, verifier._check_cor26):
            from_leaves = check(case)
            ctx.minimum_bases = lambda: iter(every)
            from_every = check(case)
            del ctx.minimum_bases
            assert from_leaves == from_every, (g.adj, check)


def test_the_bound_pass_forms_each_schreier_generator_once(monkeypatch):
    # a context keeps the det base search's stabilizers, so Thm1.1 and
    # Cor2.6 walk on from the first leaf that the report's det took, and
    # form none of its Schreier generators again.  Over the 157 contexts of
    # the 8 bound checks on order <= 6 at the default budget the pass spends
    # 3,203 nodes; forgetting the stabilizers after each report costs 312
    # more, those of the first walks, and keeping them raises no context's
    # count
    import symlab.aut as aut
    import symlab.verifier as verifier
    contexts = []
    init = aut.AutContext.__init__

    def recorded(self, g, budget=None):
        init(self, g, budget)
        contexts.append(self)

    def bound_pass():
        contexts.clear()
        reports = run_suite(_BOUND_CHECKS, corpus_override="all-connected:<=6")
        return [r.to_dict() for r in reports], [c.budget.used for c in contexts]

    monkeypatch.setattr(aut.AutContext, "__init__", recorded)
    kept, kept_used = bound_pass()
    report = verifier.invariant_report

    def forgetting(g, ctx):
        rep = report(g, ctx=ctx)
        ctx._branches.clear()
        return rep

    monkeypatch.setattr(verifier, "invariant_report", forgetting)
    forgot, forgot_used = bound_pass()
    assert kept == forgot
    assert len(kept_used) == len(forgot_used) == 157
    assert (sum(kept_used), sum(forgot_used)) == (3_203, 3_515)
    assert all(a <= b for a, b in zip(kept_used, forgot_used))


def test_report_dict_shape():
    rep = run_check("Thm3.3", "friendship:2..3")
    data = rep.to_dict()
    assert set(data) == {"theorem_id", "corpus", "graphs_checked", "hypothesis_met",
                         "status", "counterexample", "notes", "informative"}


def test_registry_lists_all_checks():
    ids = [c.theorem_id for c in registered_checks()]
    assert "Thm1.1" in ids and "Thm4.3" in ids and "EngineOracle" in ids
    assert len(ids) == len(set(ids))


def test_every_default_corpus_parses_without_search(no_search):
    # each non-bound kind has one parser, and each default corpus parses,
    # with no search, into as many items as the default suite reports checked
    import symlab.verifier as verifier
    golden = json.loads((Path(__file__).parent / "data" / "verify_default.json").read_text())
    checked = {r["theorem_id"]: r["graphs_checked"] for r in golden}
    sizes = [len(verifier._ITEMS[c.kind](c.default_corpus))
             for c in registered_checks() if c.kind != "bound"]
    assert sizes == [checked[c.theorem_id] for c in registered_checks() if c.kind != "bound"]


def test_bound_checks_on_spot_graphs_order_7_to_9(tmp_path):
    # fixed spot checks above the exhaustive corpus ceiling
    import symlab as sl
    spots = [
        sl.cycle(7),
        sl.complete_bipartite(3, 4),
        sl.hypercube(3),
        sl.star(7),
        sl.friendship(4),
        sl.corona(sl.path(3), sl.complete(2)),
        sl.from_edge_list(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                              (6, 7), (7, 4), (0, 4), (2, 6)]),
        sl.from_edge_list(9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 3), (3, 6)]),
    ]
    p = tmp_path / "spots.g6"
    p.write_text("\n".join(sl.emit_graph6(g) for g in spots) + "\n")
    ids = ["Prop2.2", "Prop2.3", "Prop2.4", "Prop2.5", "Cor2.7", "Thm1.1"]
    reports = run_suite(ids, corpus_override=f"file:{p}")
    assert all(r.status == "verified" for r in reports), [
        (r.theorem_id, r.status) for r in reports]
    assert all(r.graphs_checked == len(spots) for r in reports)


@pytest.mark.parametrize("jobs", [1, 2])
def test_default_suite_end_to_end(jobs):
    # the complete registered suite over its default corpora: everything
    # verifies except the two genuine findings (corona equality fails hard,
    # hypercube cost fails informatively)
    reports = run_suite(jobs=jobs)
    # every field of every report is pinned by the checked-in output of
    # `symlab verify --suite default --json`
    golden = json.loads((Path(__file__).parent / "data" / "verify_default.json").read_text())
    assert [r.to_dict() for r in reports] == golden
    by_id = {r.theorem_id: r for r in reports}
    assert len(reports) == len(registered_checks())
    assert by_id["Thm4.1"].status == "counterexample"
    assert by_id["HypercubeCost"].status == "counterexample"
    assert by_id["HypercubeCost"].informative
    for r in reports:
        if r.theorem_id not in ("Thm4.1", "HypercubeCost"):
            assert r.status == "verified", (r.theorem_id, r.status)
    assert exit_code_for(reports) == 1


def test_exit_code_priorities():
    cex = TheoremReport("x", "c", 1, 1, "counterexample")
    budget = TheoremReport("y", "c", 1, 1, "budget-exceeded")
    ok = TheoremReport("z", "c", 1, 1, "verified")
    assert exit_code_for([ok]) == 0
    assert exit_code_for([ok, budget]) == 3
    assert exit_code_for([ok, budget, cex]) == 1
