"""The library adds floats in one order on every Python it supports.

From Python 3.12 the built-in ``sum`` compensates the rounding of a float
sum (Neumaier), so a float ``sum`` of three terms or more can end in other
bits than it does on 3.10 and 3.11. The library adds floats in explicit
left-to-right loops from 0.0 instead, the order ``sum`` used up to 3.11.
The check parses each ``src/edcarb/*.py`` file with ``ast`` and allows a
call of the bare name ``sum`` only where the list below says why its
order cannot matter.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edcarb"

# (module, enclosing definition, the call as ast.unparse writes it) -> why it is exact
ALLOWED_SUMS = {
    ("edc_scheduler.py", "_candidate_plans", "sum((count * len(choices) ** (k + 1) for k, count in enumerate(counts)))"):
        "integers",
    ("edc_scheduler.py", "_candidate_plans", "sum(counts)"): "integers",
    ("edc_scheduler.py", "prepare_mapping", "sum(_cut_counts(n_layers, params.max_segments))"): "integers",
    ("edc_scheduler.py", "prepare_mapping", "sum(entry[0], ())"): "tuples",
    ("runtime_sim.py", "_FlowStep.adapt", "sum(map(len, solution.plans))"): "integers",
}


def bare_sums(module: str, source: str) -> list[tuple[str, str, str]]:
    """(module, enclosing definition, call) of each call of the name ``sum`` in ``source``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "sum":
                found.append((module, inner, ast.unparse(child)))
            visit(child, inner)

    visit(ast.parse(source), "")
    return found


def test_the_library_calls_sum_only_where_its_order_cannot_matter():
    found = [call for path in sorted(SRC.glob("*.py")) for call in bare_sums(path.name, path.read_text())]
    assert sorted(found) == sorted(ALLOWED_SUMS)


def test_sum_check_finds_calls_in_nested_definitions():
    source = (
        "def mean(xs):\n    return sum(xs) / len(xs)\n"
        "class Step:\n    def run(self, parts):\n        return [sum(p) for p in parts]\n"
        "total = math.fsum(values) + sum([1, 2])\n"
    )
    assert bare_sums("m.py", source) == [
        ("m.py", "mean", "sum(xs)"),
        ("m.py", "Step.run", "sum(p)"),
        ("m.py", "", "sum([1, 2])"),
    ]
