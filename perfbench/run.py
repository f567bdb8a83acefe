"""symlab benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload bound-corpus6 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports symlab from ``src/`` there.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written under ``.perfbench_out/``).
Human-readable notes go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Exits 2 without a result when the checkout holds no symlab sources.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, build inputs, load goldens, then exit (used to time set-up)")
    return p.parse_args(argv)


def _import_symlab(root: Path) -> bool:
    src = root / "src"
    if not (src / "symlab" / "__init__.py").is_file():
        print(f"error: no symlab sources under {src}", file=sys.stderr)
        return False
    sys.path.insert(0, str(src))
    import symlab
    if Path(symlab.__file__).resolve().parent != (src / "symlab").resolve():
        print(f"error: imported symlab from {symlab.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def _setup_probe(args: argparse.Namespace, root: Path) -> float:
    """Wall time of a fresh interpreter doing the whole set-up."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-only"]
    t = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run(argv, cwd=root, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    if not _import_symlab(root):
        return 2
    sys.path.insert(0, str(HERE))
    import harness
    import workloads

    try:
        copies = workloads.make(args.workload, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0
    if args.trace:
        dump_to = root / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}"
        result, notes = harness.traced_result(copies[0], dump_to)
    else:
        result, notes = harness.timed_result(copies, args.seconds,
                                             lambda: _setup_probe(args, root))
    for line in notes:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
