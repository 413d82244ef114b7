"""Every name that the benchmark's tracer wraps exists in the library.

``perfbench/tracing.py`` lists ``(module, attribute, metric, kind)`` targets,
and its ``Tracer.install`` looks each one up: ``getattr`` on the module, or
the class's own ``__dict__`` for a ``Class.method`` attribute. A renamed
function therefore breaks only the traced benchmark run, which tier-1 does
not run. The targets are read from the file with ``ast``, so this check does
not import the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_targets(source: str) -> list[tuple[str, str]]:
    """The (module, attribute) pair of each entry of the TARGETS tuple in `source`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no TARGETS assignment")


def unresolved(targets: list[tuple[str, str]]) -> list[str]:
    """`module:attribute` of each target that the tracer could not look up."""
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        *classes, name = attr.split(".")
        for cls in classes:
            owner = getattr(owner, cls, None)
        found = name in vars(owner) if classes and owner is not None else hasattr(owner, name)
        if not found:
            missing.append(f"{module_name}:{attr}")
    return missing


def test_every_traced_target_resolves_in_the_library():
    targets = traced_targets(TRACING.read_text())
    assert len(targets) >= 18
    assert {
        ("edcarb.accelerator_model", "estimate_area"),
        ("edcarb.accelerator_model", "accelerator_embodied"),
        ("edcarb.runtime_sim", "CiTrace.ci_at"),
    } <= set(targets)
    assert unresolved(targets) == []


def test_a_renamed_target_is_unresolved():
    targets = [
        ("edcarb.accelerator_model", "estimate_area"),
        ("edcarb.accelerator_model", "estimate_area_of"),
        ("edcarb.runtime_sim", "CiTrace.ci_at"),
        ("edcarb.runtime_sim", "CiTrace.ci_of"),
        ("edcarb.runtime_sim", "Trace.ci_at"),
    ]
    assert unresolved(targets) == [
        "edcarb.accelerator_model:estimate_area_of",
        "edcarb.runtime_sim:CiTrace.ci_of",
        "edcarb.runtime_sim:Trace.ci_at",
    ]
