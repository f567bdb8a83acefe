"""The README's library quick tour runs, and its comments state the values
the library returns."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# expression evaluated after the tour -> the value its comment must state
STATED = {"d": 4, "rho": 1, "det": 4, "dset": (1, 3, 5, 7), "grp.order": 384}


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_runs_and_states_its_values():
    code = _quick_tour()
    namespace: dict = {}
    exec(compile(code, "README.md quick tour", "exec"), namespace)
    comments = "\n".join(line.partition("#")[2] for line in code.splitlines())
    for expr, value in STATED.items():
        assert eval(expr, namespace) == value, expr
        assert f"{expr} = {value!r}" in comments, expr
