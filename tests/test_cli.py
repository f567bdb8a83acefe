import json
import os
import subprocess
import sys
from pathlib import Path

from symlab import AutContext, Budget, cost, hypercube
from symlab.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def test_compute_friendship_distinguishing(capsys):
    code, out, _ = run(capsys, "compute", "--family", "friendship:15", "--invariant", "D")
    assert code == 0
    assert "D: 6" in out


def test_compute_all_json(capsys):
    code, out, _ = run(capsys, "compute", "--family", "path:5", "--invariant", "all", "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["graph6", "n", "aut_order", "D", "rho", "det",
                          "witness_labeling", "witness_det_set", "class_sizes"]
    assert (data["D"], data["rho"], data["det"]) == (2, 1, 1)


def test_compute_rho_alone(capsys):
    # rho alone reports D, which its search needs, and no witness
    from symlab import families
    code, out, _ = run(capsys, "compute", "--family", "friendship:5", "--invariant", "rho",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == ["graph6", "n", "aut_order", "D", "rho"]
    assert (data["n"], data["aut_order"]) == (11, 2 ** 5 * 120)
    assert (data["D"], data["rho"]) == (families.friendship_distinguishing_number(5),
                                        families.friendship_cost(5))


def test_compute_single_vertex(capsys):
    code, out, _ = run(capsys, "compute", "--g6", "@", "--invariant", "all", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["D"], data["rho"], data["det"]) == (1, 1, 0)


def test_compute_g6_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
    code, out, _ = run(capsys, "compute", "--g6", "-", "--invariant", "det", "--json")
    assert code == 0
    assert json.loads(out)["det"] == 1


def test_compute_requires_one_source(capsys):
    code, _, err = run(capsys, "compute", "--invariant", "D")
    assert code == 2 and "input source" in err
    code, _, err = run(capsys, "compute", "--family", "path:3", "--g6", "@")
    assert code == 2


def test_compute_bad_family(capsys):
    code, _, err = run(capsys, "compute", "--family", "friendship:1")
    assert code == 2


def test_compute_budget_exceeded(capsys):
    code, _, err = run(capsys, "compute", "--family", "friendship:8",
                       "--invariant", "D", "--budget", "5")
    assert code == 3 and "budget" in err


def test_compute_budget_bounds_every_colored_query(capsys):
    # Q_4's full group costs 21 nodes; the D, rho and det queries on it must
    # spend the budget too
    code, out, err = run(capsys, "compute", "--family", "hypercube:4", "--budget", "30", "--json")
    assert code == 3 and out == ""
    assert "budget of 30 nodes exhausted" in err and "Traceback" not in err


def test_deep_search_is_an_error_not_a_traceback(capsys, tmp_path):
    # the group search recurses once per vertex it individualizes, so on
    # star:1000 it passes Python's frame limit before the budget runs out
    from symlab.graphs import emit_graph6, star
    corpus = tmp_path / "star.g6"
    corpus.write_text(emit_graph6(star(1000)) + "\n")
    for argv in (("compute", "--family", "star:1000"),
                 ("verify", "--suite", "Prop2.2", "--corpus", f"file:{corpus}")):
        code, out, err = run(capsys, *argv, "--budget", "5000")
        assert code == 3 and out == ""
        assert err.startswith("error: search too deep") and "Traceback" not in err


def test_compute_rejects_family_orders_above_the_cap(capsys):
    # the order comes from the spec's parameters, before anything is built
    for spec in ("hypercube:11", "corona:(complete:40),(complete:40)"):
        code, out, err = run(capsys, "compute", "--family", spec, "--budget", "5")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "1024" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv("SYMLAB_BUDGET", "5")
    code, _, _ = run(capsys, "compute", "--family", "friendship:8", "--invariant", "D")
    assert code == 3
    monkeypatch.setenv("SYMLAB_BUDGET", "bogus")
    code, _, err = run(capsys, "compute", "--family", "path:3")
    assert code == 2 and "SYMLAB_BUDGET" in err


def test_compute_rejects_budget_below_one(capsys, monkeypatch):
    # a bad budget is a usage error whether it comes from the flag or the
    # environment, not an exhausted search
    for budget in ("0", "-1"):
        code, out, err = run(capsys, "compute", "--family", "path:3", "--budget", budget)
        assert code == 2 and out == ""
        assert "--budget" in err and "exhausted" not in err
    monkeypatch.setenv("SYMLAB_BUDGET", "0")
    code, _, err = run(capsys, "compute", "--family", "path:3")
    assert code == 2 and "SYMLAB_BUDGET" in err


def test_check_witness_round_trip(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "compute", "--family", "friendship:3", "--json",
                     "--output", str(report))
    assert code == 0
    code, out, _ = run(capsys, "compute", "--check-witness", str(report))
    assert code == 0 and "passed" in out

    data = json.loads(report.read_text())
    data["witness_det_set"] = data["witness_det_set"][:-1]
    data["det"] -= 1
    report.write_text(json.dumps(data))
    code, _, err = run(capsys, "compute", "--check-witness", str(report))
    assert code == 1 and "witness check failed" in err


def test_check_witness_rejects_repeated_det_vertex(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "compute", "--family", "path:3", "--json", "--output", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    report.write_text(json.dumps({**data, "det": 2, "witness_det_set": [0, 0]}))
    code, out, err = run(capsys, "compute", "--check-witness", str(report))
    assert code == 1 and "passed" not in out
    assert "witness check failed: witness determining set repeats a vertex" in err


def test_check_witness_rejects_redundant_det_set(capsys, tmp_path):
    # [0] alone determines P3, so [0, 1] is no minimum determining set
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "compute", "--family", "path:3", "--json", "--output", str(report))
    assert code == 0
    data = json.loads(report.read_text())
    report.write_text(json.dumps({**data, "det": 2, "witness_det_set": [0, 1]}))
    code, out, err = run(capsys, "compute", "--check-witness", str(report))
    assert code == 1 and "passed" not in out
    assert "witness check failed: witness determining set stays determining" in err


def test_check_witness_rejects_malformed_witnesses(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "compute", "--family", "path:4", "--json", "--output", str(report))
    assert code == 0
    good = json.loads(report.read_text())
    for key, value in [("witness_det_set", [99]), ("witness_det_set", [-1]),
                       ("witness_det_set", ["0"]), ("witness_det_set", [True]),
                       ("witness_labeling", [1, 2, 1]), ("witness_labeling", [2, 1, 1, 2.0]),
                       ("witness_labeling", [True, 2, 2, 1]), ("n", "4"), ("graph6", 5),
                       ("class_sizes", 5), ("aut_order", "2")]:
        report.write_text(json.dumps({**good, key: value}))
        code, _, err = run(capsys, "compute", "--check-witness", str(report))
        assert code == 2 and "cannot load report" in err, (key, value)
    report.write_text("[]")
    code, _, err = run(capsys, "compute", "--check-witness", str(report))
    assert code == 2 and "cannot load report" in err


def test_check_witness_rejects_extra_source(capsys, tmp_path):
    report = tmp_path / "report.json"
    report.write_text("{}")
    code, _, err = run(capsys, "compute", "--check-witness", str(report), "--g6", "@")
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "Thm4.2")
    assert code == 0 and "verified" in out


def test_verify_corpus_override_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "Thm3.4,Thm3.3",
                       "--corpus", "friendship:2..3", "--json")
    assert code == 0
    data = json.loads(out)
    assert [r["theorem_id"] for r in data] == ["Thm3.4", "Thm3.3"]
    assert all(r["status"] == "verified" for r in data)


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "Thm1.2")
    assert code == 2 and "unknown check id" in err


def test_verify_reports_real_counterexample(capsys):
    # the corona determining equality fails on its default corpus; the CLI
    # must print a replay command and exit 1
    code, out, _ = run(capsys, "verify", "--suite", "Thm4.1")
    assert code == 1
    assert "counterexample" in out and "replay" in out


def test_verify_informative_does_not_gate(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "HypercubeCost")
    assert code == 0 and "informative" in out


def test_verify_budget_exit(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "Prop2.2",
                     "--corpus", "all-connected:4", "--budget", "3")
    assert code == 3


def test_verify_rejudges_a_sample_whose_class_row_came_late(capsys, monkeypatch):
    # at 10 nodes some classes overrun on their first graph, so their later
    # copies are judged in index order until one stores a row; a sampled
    # copy of a class whose row came that late is judged for EngineOracle
    # again, once the row is there.  Pooled and serial runs print the same
    import hashlib
    import symlab.verifier as verifier
    argv = ("verify", "--suite", "Prop2.2,EngineOracle", "--corpus", "all-connected:<=5",
            "--budget", "10", "--json")
    code, pooled, _ = run(capsys, *argv, "--jobs", "2")
    assert code == 3
    oracle_only = []
    judge = verifier._verdicts

    def counted(index, g, ids, facts, only=False):
        if only:
            oracle_only.append(index)
        return judge(index, g, ids, facts, only)

    monkeypatch.setattr(verifier, "_verdicts", counted)
    code, serial, _ = run(capsys, *argv, "--jobs", "1")
    assert code == 3 and serial == pooled
    assert hashlib.sha256(serial.encode()).hexdigest().startswith("e1e4262f91ca746d")
    assert [(r["status"], r["hypothesis_met"], r["graphs_checked"])
            for r in json.loads(serial)] == [("budget-exceeded", 524, 772),
                                             ("budget-exceeded", 8, 772)]
    assert oracle_only == [100, 200, 300, 400, 500, 600, 700, 600]


def test_verify_budget_exceeded_outside_bound_pass(capsys):
    # a friendship check that runs out of budget reports it, and the
    # remaining checks still run
    code, out, _ = run(capsys, "verify", "--suite", "Thm3.1,Prop2.2",
                       "--corpus", "friendship:2..4", "--budget", "5", "--json")
    assert code == 3
    assert [(r["theorem_id"], r["status"], r["hypothesis_met"]) for r in json.loads(out)] == [
        ("Thm3.1", "budget-exceeded", 0), ("Prop2.2", "budget-exceeded", 0)]
    # each friendship order is judged on its own: an overrun at a large n
    # keeps the verdicts of the orders that fit, those that fit when run
    # alone.  20 nodes is about twice what friendship:2 needs and far below
    # what friendship:30 needs
    code, out, _ = run(capsys, "verify", "--suite", "Thm3.1", "--corpus", "friendship:2..30",
                       "--budget", "20", "--json")
    assert code == 3
    [report] = json.loads(out)
    fit = [n for n in range(2, 31) if run(capsys, "verify", "--suite", "Thm3.1", "--corpus",
                                          f"friendship:{n}", "--budget", "20")[0] == 0]
    assert 2 in fit and 30 not in fit
    assert report["status"] == "budget-exceeded" and report["hypothesis_met"] == len(fit)
    # a corona pair that runs out of budget does not hide another pair's
    # counterexample
    code, out, _ = run(capsys, "verify", "--suite", "Thm4.1", "--corpus",
                       "corona-pairs:(path:3),(complete:2);(cycle:6),(complete:4)",
                       "--budget", "200", "--json")
    assert code == 1 and json.loads(out)[0]["status"] == "counterexample"
    # an informative check reports the overrun without setting the exit code
    code, out, _ = run(capsys, "verify", "--suite", "HypercubeCost", "--budget", "5", "--json")
    assert code == 0
    [report] = json.loads(out)
    assert report["status"] == "budget-exceeded" and report["informative"]
    # a check that reads its whole range at once overruns as a whole
    for check in ("Rem3.2", "Thm2.8"):
        code, out, _ = run(capsys, "verify", "--suite", check, "--budget", "5", "--json")
        assert code == 3
        [report] = json.loads(out)
        assert (report["status"], report["hypothesis_met"]) == ("budget-exceeded", 0)


def test_verify_hypercube_dimensions_are_judged_one_by_one(capsys):
    # a budget halfway between the nodes Q3's cost needs and those Q4's
    # needs: the overrun on Q4 keeps Q3's verdict
    def needs(k):
        g = hypercube(k)
        budget = Budget()
        cost(g, ctx=AutContext(g, budget))
        return budget.used
    q3, q4 = needs(3), needs(4)
    assert q3 < q4
    code, out, _ = run(capsys, "verify", "--suite", "HypercubeCost", "--budget",
                       str((q3 + q4) // 2), "--json")
    assert code == 0
    [report] = json.loads(out)
    assert (report["status"], report["hypothesis_met"]) == ("budget-exceeded", 1)
    assert report["notes"] == "computed costs {3: 1} (informative check)"


def test_verify_rejects_a_wrong_corpus_kind_before_any_search(capsys, no_search):
    # a non-bound check whose corpus has the wrong kind fails before the
    # bound pass starts, not after it
    for suite in ("Prop2.2,Thm3.1", "Prop2.2,HypercubeCost", "Prop2.2,Thm4.1"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--corpus", "all-connected:<=4")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "corpus" in err


def test_verify_rejects_all_connected_above_order_7(capsys, no_search):
    # order 8 alone has 251,548,592 labeled connected graphs; its orbit marks
    # would take 2**28 entries, so the order is an input error before any search
    code, out, err = run(capsys, "verify", "--suite", "Prop2.2", "--corpus", "all-connected:8")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "order" in err and "file:" in err
    # a friendship range is capped like a family spec: friendship:B has order
    # 2B + 1, and the range is not built when B is past the cap
    for suite, corpus in (("Thm3.1", "friendship:2..600"),
                          ("Thm2.8", "friendship:2..1000000000")):
        code, out, err = run(capsys, "verify", "--suite", suite, "--corpus", corpus)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "order above the cap" in err
    # so is a corona pair: path:40 and complete:40 are each under the cap,
    # their corona of order 1,640 is not, and nothing is built
    code, out, err = run(capsys, "verify", "--suite", "Thm4.1", "--corpus",
                         "corona-pairs:(path:40),(complete:40)")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "order above the cap" in err


def test_verify_malformed_corpus_file_is_usage_error(capsys, tmp_path, no_search):
    # every line is parsed before the first graph is searched
    bad = tmp_path / "bad.g6"
    bad.write_text("Bg\n!!!\nA_\n")
    for jobs in ("1", "2"):
        code, _, err = run(capsys, "verify", "--suite", "Prop2.2",
                           "--corpus", f"file:{bad}", "--jobs", jobs)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "bad.g6" in err and "line 2" in err


def test_verify_non_ascii_corpus_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "latin.g6"
    bad.write_bytes(b"Bg\n\xff\n")
    for jobs in ("1", "2"):
        code, _, err = run(capsys, "verify", "--suite", "Prop2.2",
                           "--corpus", f"file:{bad}", "--jobs", jobs)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "latin.g6" in err


def test_non_utf8_input_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "latin.txt"
    bad.write_bytes(b"0 1\n\xe9\n")
    for argv in (("compute", "--edgelist", str(bad)),
                 ("convert", "--from", "edgelist", "--to", "g6", str(bad))):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--suite", "Prop2.2",
                             "--corpus", "all-connected:3", "--jobs", jobs)
        assert code == 2 and out == ""
        assert "--jobs" in err


def test_verify_rejects_budget_below_one(capsys):
    for budget in ("0", "-1"):
        code, out, err = run(capsys, "verify", "--suite", "Prop2.2",
                             "--corpus", "all-connected:3", "--budget", budget)
        assert code == 2 and out == ""
        assert "--budget" in err and "exhausted" not in err


def test_verify_empty_suite_is_usage_error(capsys):
    # a selection that names no check must not read as a clean pass
    for suite in (",", " , "):
        code, out, err = run(capsys, "verify", "--suite", suite, "--json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--suite" in err


def _run_with_closed_stdout(*argv):
    # the reader of stdout is gone before symlab writes anything
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    try:
        return subprocess.run(
            [sys.executable, "-c", "import sys; from symlab.cli import main; sys.exit(main())",
             *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)


def test_closed_stdout_is_quiet(tmp_path):
    proc = _run_with_closed_stdout("compute", "--family", "path:3")
    assert (proc.returncode, proc.stderr) == (0, b"")
    report = tmp_path / "report.json"
    assert main(["compute", "--family", "path:3", "--json", "--output", str(report)]) == 0
    proc = _run_with_closed_stdout("compute", "--check-witness", str(report))
    assert (proc.returncode, proc.stderr) == (0, b"")
    # the command's own exit code survives the lost output
    proc = _run_with_closed_stdout("verify", "--suite", "Thm4.1", "--json")
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_verify_malformed_corona_pair_is_usage_error(capsys):
    for pairs in ("(bogus:1),(path:2)", "(path:0),(path:2)", "(path:3)"):
        code, out, err = run(capsys, "verify", "--suite", "Thm4.1",
                             "--corpus", f"corona-pairs:{pairs}")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "corona pair" in err


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    src = tmp_path / "g.g6"
    src.write_text("Bg\n")
    commands = [("compute", "--family", "path:3"),
                ("verify", "--suite", "Thm3.4", "--corpus", "friendship:2..3"),
                ("convert", "--from", "g6", "--to", "edgelist", str(src))]
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        for argv in commands:
            code, out, err = run(capsys, *argv, "--output", str(target))
            assert code == 2 and out == "", argv
            assert err.startswith("error: ") and "--output" in err, argv


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def test_convert_edgelist_to_g6(capsys, tmp_path):
    src = tmp_path / "p3.txt"
    src.write_text("# a path\n3 2\n0 1\n1 2\n")
    code, out, _ = run(capsys, "convert", "--from", "edgelist", "--to", "g6", str(src))
    assert code == 0 and out.strip() == "Bg"


def test_convert_g6_to_edgelist_and_back(capsys, tmp_path):
    src = tmp_path / "g.g6"
    src.write_text("Bg\n")
    code, out, _ = run(capsys, "convert", "--from", "g6", "--to", "edgelist", str(src))
    assert code == 0
    back = tmp_path / "back.txt"
    back.write_text(out)
    code, out2, _ = run(capsys, "convert", "--from", "edgelist", "--to", "g6", str(back))
    assert code == 0 and out2.strip() == "Bg"


def test_convert_malformed_input_reports_line(capsys, tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("3 2\n0 1\n1 x\n")
    code, _, err = run(capsys, "convert", "--from", "edgelist", "--to", "g6", str(src))
    assert code == 2 and "line 3" in err


def test_convert_same_formats_rejected(capsys, tmp_path):
    src = tmp_path / "g.g6"
    src.write_text("Bg\n")
    code, _, err = run(capsys, "convert", "--from", "g6", "--to", "g6", str(src))
    assert code == 2
