"""The package holds no dead code: every module-level function and class of
``src/symlab`` is used somewhere in the package or exported."""

import ast
from pathlib import Path

import symlab

SRC = Path(__file__).resolve().parents[1] / "src" / "symlab"


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
