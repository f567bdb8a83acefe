"""Regenerate the golden answers under ``perfbench/golden/``.

    python3 perfbench/make_golden.py

Run from the root of a checkout.  The checked-in goldens were taken from the
commit that introduced this benchmark; regenerate them only on purpose,
since every later run is judged against them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    import contextlib
    import io

    import symlab.cli
    from symlab.graphs import build_family
    from symlab.invariants import invariant_report

    import workloads

    out = workloads.GOLDEN_DIR
    out.mkdir(exist_ok=True)

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = symlab.cli.main(list(workloads.CORPUS_ARGS))
    (out / f"{workloads.CorpusWorkload.name}.json").write_text(json.dumps(
        {"argv": list(workloads.CORPUS_ARGS), "exit_code": code, "stdout": buf.getvalue()},
        indent=1) + "\n")

    panel = {spec: invariant_report(build_family(spec)).to_dict()
             for spec in workloads.PANEL_SPECS}
    (out / f"{workloads.PanelWorkload.name}.json").write_text(json.dumps(panel, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
