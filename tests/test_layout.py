"""The package holds no dead code: every module-level function and class of
``src/symlab`` is used somewhere in the package or exported.  Importing it
does no work beyond defining its names.  Every section of the decisions
notes that the code or the docs cite by title exists."""

import ast
import re
from pathlib import Path

import symlab

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "symlab"


def test_every_module_level_definition_is_used_or_exported():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    kept = used | set(symlab.__all__) | {"main"}
    unused = [f"{name[:-3]}.{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in kept]
    assert unused == []


# the calls allowed to run when the package is imported: class declarations
# (``dataclass``, ``dataclasses.field``), the check registry (``CheckDef``,
# ``functools.partial``) and the text of one constant (``list``)
_IMPORT_TIME_CALLS = {"dataclass", "dataclasses.field", "CheckDef", "functools.partial", "list"}


def _import_time_calls(node: ast.AST):
    """The calls under ``node`` that run when its module is imported: all but
    those in function and lambda bodies and under the ``__main__`` guard.
    Decorators and default values run at import, so they are included."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        for sub in [*node.decorator_list, *node.args.defaults, *node.args.kw_defaults]:
            if sub is not None:
                yield from _import_time_calls(sub)
        return
    if isinstance(node, ast.Lambda):
        for sub in [*node.args.defaults, *node.args.kw_defaults]:
            if sub is not None:
                yield from _import_time_calls(sub)
        return
    if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
        yield from (c for sub in node.orelse for c in _import_time_calls(sub))
        return
    if isinstance(node, ast.Call):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _import_time_calls(child)


def test_importing_the_package_does_no_work():
    # importing symlab and building graphs run no search and no set-up: a
    # module-level call outside the list above is work at import time
    found = [f"{p.name}:{call.lineno}: {ast.unparse(call.func)}"
             for p in sorted(SRC.glob("*.py"))
             for call in _import_time_calls(ast.parse(p.read_text(encoding="utf-8")))
             if ast.unparse(call.func) not in _IMPORT_TIME_CALLS]
    assert found == []


def test_every_cited_decision_title_is_a_heading():
    # the double-quoted titles right after a mention of the decisions notes,
    # read across line breaks and ``#`` comment continuations, each name a
    # ``## `` heading of those notes
    notes = (ROOT / "notes" / "decisions.md").read_text(encoding="utf-8")
    headings = {line[3:].strip() for line in notes.splitlines() if line.startswith("## ")}
    files = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
             ROOT / "README.md", ROOT / "ROADMAP.md"]
    cited = []
    for p in files:
        text = re.sub(r"\s*\n\s*(?:#\s*)?", " ", p.read_text(encoding="utf-8"))
        for m in re.finditer(r'notes/decisions\.md`*,\s*("[^"]*"(?:\s+and\s+"[^"]*")*)', text):
            cited += [(p.name, title) for title in re.findall(r'"([^"]*)"', m.group(1))]
    assert cited
    assert [(name, title) for name, title in cited if title not in headings] == []
