"""Command-line front end: compute invariants, verify the check suite,
convert between graph formats.

Exit codes: 0 success, 1 verification/witness failure (counterexample),
2 usage or input error, 3 search budget exceeded or search too deep.
``SYMLAB_BUDGET`` sets the default node budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .aut import AutContext, Budget, BudgetExceededError, DEFAULT_NODE_BUDGET
from .graphs import (EdgeListError, FamilySpecError, Graph, Graph6Error, GraphError,
                     build_family, emit_edge_list, emit_graph6, parse_edge_list,
                     parse_graph6)
from .invariants import (InvariantReport, _distinguishing, check_witnesses, cost,
                         determining_number, invariant_report)
from .verifier import (CorpusError, UnknownCheckError, exit_code_for,
                       registered_checks, run_suite)

USAGE_ERROR = 2
BUDGET_ERROR = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = USAGE_ERROR):
        super().__init__(message)
        self.code = code


def _budget(args: argparse.Namespace) -> int:
    """The node budget: ``--budget``, else ``SYMLAB_BUDGET``, else the default.
    A value below 1 from either source is a usage error."""
    raw = os.environ.get("SYMLAB_BUDGET") if args.budget is None else args.budget
    if raw is None:
        return DEFAULT_NODE_BUDGET
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
        return value
    except ValueError:
        source = "SYMLAB_BUDGET" if args.budget is None else "--budget"
        raise _CliError(f"{source} must be a positive integer, got {raw!r}") from None


def _load_graph(args: argparse.Namespace) -> Graph:
    sources = [s for s in ("family", "g6", "edgelist") if getattr(args, s, None)]
    if len(sources) != 1:
        raise _CliError("exactly one input source required: --family, --g6, or --edgelist")
    try:
        if args.family:
            return build_family(args.family)
        if args.g6:
            text = sys.stdin.read() if args.g6 == "-" else args.g6
            return parse_graph6(text)
        with open(args.edgelist, "r", encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    except (GraphError, Graph6Error, EdgeListError, FamilySpecError, OSError,
            UnicodeDecodeError) as exc:
        raise _CliError(str(exc)) from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise _CliError(f"cannot write --output: {exc}") from exc
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader is gone: send the rest, and the flush at exit, nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _format_table(data: dict) -> str:
    return "\n".join(f"{key}: {data[key]}" for key in data)


def _cmd_compute(args: argparse.Namespace) -> int:
    budget = _budget(args)
    if args.check_witness:
        if any(getattr(args, s, None) for s in ("family", "g6", "edgelist")):
            raise _CliError("--check-witness reads the graph from the report itself")
        try:
            with open(args.check_witness, "r", encoding="utf-8") as fh:
                report = InvariantReport.from_dict(json.load(fh))
            g = parse_graph6(report.graph6)
        except (OSError, ValueError) as exc:
            raise _CliError(f"cannot load report: {exc}") from exc
        problems = check_witnesses(g, report, ctx=AutContext(g, Budget(budget)))
        if problems:
            for p in problems:
                print(f"witness check failed: {p}", file=sys.stderr)
            return 1
        _emit(args, "witness check passed")
        return 0

    g = _load_graph(args)
    ctx = AutContext(g, Budget(budget))
    data: dict = {"graph6": emit_graph6(g), "n": g.n, "aut_order": ctx.full.order}
    if args.invariant == "all":
        rep = invariant_report(g, ctx=ctx)
        data = rep.to_dict()
    elif args.invariant == "D":
        data["D"] = _distinguishing(ctx, witness=False)[0]
    elif args.invariant == "rho":
        d = _distinguishing(ctx, witness=False)[0]
        data["D"] = d
        data["rho"] = cost(g, d=d, ctx=ctx)[0]
    elif args.invariant == "det":
        det, witness = determining_number(g, ctx=ctx)
        data["det"] = det
        data["witness_det_set"] = list(witness)
    _emit(args, json.dumps(data) if args.json else _format_table(data))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args: argparse.Namespace) -> int:
    budget = _budget(args)
    if args.jobs < 1:
        raise _CliError(f"--jobs must be at least 1, got {args.jobs}")
    ids = None if args.suite == "default" else [s.strip() for s in args.suite.split(",") if s.strip()]
    if ids == []:
        raise _CliError(f"--suite names no check: {args.suite!r}")
    repeated = next((s for i, s in enumerate(ids or ()) if s in ids[:i]), None)
    if repeated is not None:
        raise _CliError(f"--suite names {repeated!r} more than once")
    try:
        reports = run_suite(ids, corpus_override=args.corpus, budget=budget, jobs=args.jobs)
    except (UnknownCheckError, CorpusError) as exc:
        raise _CliError(str(exc)) from exc
    if args.json:
        _emit(args, json.dumps([r.to_dict() for r in reports]))
    else:
        lines = []
        for r in reports:
            line = (f"{r.theorem_id:<14} {r.status:<22} corpus={r.corpus} "
                    f"checked={r.graphs_checked} hypothesis_met={r.hypothesis_met}")
            if r.counterexample:
                line += f"\n    counterexample: {json.dumps(r.counterexample)}"
                line += (f"\n    replay: symlab compute --g6 "
                         f"'{r.counterexample.get('graph6', '?')}' --invariant all")
            if r.notes:
                line += f"\n    note: {r.notes}"
            lines.append(line)
        _emit(args, "\n".join(lines))
    return exit_code_for(reports)


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def _cmd_convert(args: argparse.Namespace) -> int:
    if args.src == args.dst:
        raise _CliError("--from and --to must differ")
    try:
        if args.path == "-":
            text = sys.stdin.read()
        else:
            with open(args.path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _CliError(str(exc)) from exc
    try:
        if args.src == "edgelist":
            out = emit_graph6(parse_edge_list(text))
        else:
            blocks = []
            for line in text.splitlines():
                line = line.strip()
                if line and line != ">>graph6<<":
                    blocks.append(emit_edge_list(parse_graph6(line)))
            if not blocks:
                raise _CliError("no graphs in input")
            out = "\n".join(blocks)
    except (EdgeListError, Graph6Error, GraphError) as exc:
        raise _CliError(str(exc)) from exc
    _emit(args, out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symlab",
        description="Symmetry-breaking invariants of finite graphs and a theorem check suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute invariants of one graph")
    pc.add_argument("--family", help="family spec, e.g. friendship:5 or corona:(path:3),(complete:2)")
    pc.add_argument("--g6", help="graph6 string ('-' reads stdin)")
    pc.add_argument("--edgelist", help="path to an edge-list file")
    pc.add_argument("--invariant", choices=["D", "rho", "det", "all"], default="all")
    pc.add_argument("--budget", type=int, default=None, help="search node budget")
    pc.add_argument("--json", action="store_true", help="machine-readable output")
    pc.add_argument("--output", help="write output to a file instead of stdout")
    pc.add_argument("--check-witness", metavar="REPORT",
                    help="re-verify the witnesses of a previously emitted JSON report")
    pc.set_defaults(func=_cmd_compute)

    pv = sub.add_parser("verify", help="run registered theorem checks")
    pv.add_argument("--suite", default="default",
                    help="'default' or comma-separated check ids "
                         f"({', '.join(c.theorem_id for c in registered_checks())})")
    pv.add_argument("--corpus", default=None, help="corpus override for the selected checks")
    pv.add_argument("--budget", type=int, default=None)
    pv.add_argument("--jobs", type=int, default=1, help="parallel workers for corpus checks")
    pv.add_argument("--json", action="store_true")
    pv.add_argument("--output", help="write output to a file instead of stdout")
    pv.set_defaults(func=_cmd_verify)

    pt = sub.add_parser("convert", help="convert between edge-list and graph6")
    pt.add_argument("--from", dest="src", choices=["edgelist", "g6"], required=True)
    pt.add_argument("--to", dest="dst", choices=["edgelist", "g6"], required=True)
    pt.add_argument("path", help="input file ('-' reads stdin)")
    pt.add_argument("--output", help="write output to a file instead of stdout")
    pt.set_defaults(func=_cmd_convert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BUDGET_ERROR
    except RecursionError:
        # the searches recurse once per individualized vertex
        print(f"error: search too deep: it passed Python's limit of "
              f"{sys.getrecursionlimit()} frames", file=sys.stderr)
        return BUDGET_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
