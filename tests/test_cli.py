import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_check_witness_rejects_malformed_witnesses(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "compute", "--family", "path:4", "--json", "--output", str(report))
    assert code == 0
    good = json.loads(report.read_text())
    for key, value in [("witness_det_set", [99]), ("witness_det_set", [-1]),
                       ("witness_det_set", ["0"]), ("witness_det_set", [True]),
                       ("witness_labeling", [1, 2, 1]), ("n", "4"), ("graph6", 5),
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


def test_verify_budget_exceeded_outside_bound_pass(capsys):
    # a friendship check that runs out of budget reports it, and the
    # remaining checks still run
    code, out, _ = run(capsys, "verify", "--suite", "Thm3.1,Prop2.2",
                       "--corpus", "friendship:2..4", "--budget", "5", "--json")
    assert code == 3
    assert [(r["theorem_id"], r["status"]) for r in json.loads(out)] == [
        ("Thm3.1", "budget-exceeded"), ("Prop2.2", "budget-exceeded")]
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


def test_verify_malformed_corpus_file_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text("Bg\n!!!\nA_\n")
    for jobs in ("1", "2"):
        code, _, err = run(capsys, "verify", "--suite", "Prop2.2",
                           "--corpus", f"file:{bad}", "--jobs", jobs)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert "bad.g6" in err and "line 2" in err


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
