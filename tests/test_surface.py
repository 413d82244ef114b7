"""Every public module-level function and class, and every class field and
public method, of the library is read by the library.

A name that only tests read is surface no CLI verb, config key or benchmark
reaches. The checks parse each ``src/edcarb/*.py`` file with ``ast`` and
match by name only. A module-level name counts as read when it occurs as an
``ast.Name`` or ``ast.Attribute`` anywhere in the package. An annotated
class field counts as read when its name occurs as an attribute that is
loaded, or as a string constant (``getattr`` by name, which is how
``DesignSpace`` reads its genes). Writing a field does not read it. A public
method counts as read the same way, so a method called only by tests, or by
nothing, is caught.

A ``ToolkitError`` subclass is surface too unless it is one of the three
exit-code bases, the library names it in an ``except`` clause or an
``isinstance`` call, or it defines ``__init__`` to carry data: any other
refusal raises its base class, and its message tells it apart.

Matching by name lets a method pass because the library reads another
class's member of that name. So a public method whose name another class
also defines, as a method or as a ``self.`` attribute, is reported unless
``SHARED_METHODS`` lists the name with the reason the library reads it on
each class that defines it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edcarb"

# Reference implementations that tests compare the library against.
REFERENCES = {
    "exhaustive_search": "the c03 oracle the GA is checked against",
    "system_estimate": "the pipeline model the mapping search's estimates must equal",
}


# The base class of each CLI exit code: 2, 3 and 4.
EXIT_CODE_BASES = ("ValidationFailure", "InfeasibleError", "IoFailure")


# Public method names that two classes define, with the reason the library
# reads the name on each of them.
SHARED_METHODS = {
    "adapt": "the step protocol: run_simulation calls it on _QueueStep or _FlowStep at each threshold change",
    "run": "the step protocol: run_simulation calls it on _QueueStep or _FlowStep at each clock step",
    "counts": "the step protocol: run_simulation reads the report's counts from _QueueStep or _FlowStep",
    "columns": "the arrival protocol: _QueueStep reads TraceArrivals or PoissonArrivals as two columns",
}


# Public methods that nothing in the library reads but that stay, with the reason.
UNREAD_METHODS = {
    "PoissonArrivals.materialize": (
        "perfbench's SimLoad.setup and tracing._simulation_after count arrivals with it (ROADMAP item 7)"
    ),
}


# Fields that nothing in the library reads but that stay, with the reason.
UNREAD_FIELDS = {
    "EvaluatedDesign.infeasibility_reason": "kept for counting infeasible designs by reason (ROADMAP item 6)",
    "StepSample.energy_kwh": "timeseries_rows writes every field of a sample by position, as list(sample)",
    "StepSample.threshold_w": "timeseries_rows writes every field of a sample by position, as list(sample)",
}


def unread_public_names(sources: list[str]) -> list[str]:
    """Public module-level def/class names of ``sources`` that none of them reads."""
    trees = [ast.parse(source) for source in sources]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    return sorted(defined - read)


def _unread_members(sources: list[str], member_name) -> list[str]:
    """``Class.name`` of each class-body statement of ``sources`` that
    ``member_name`` names, when none of them loads that name as an attribute
    or holds it as a string constant."""
    trees = [ast.parse(source) for source in sources]
    members = {
        f"{node.name}.{name}"
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if (name := member_name(item))
    }
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(m for m in members if m.split(".", 1)[1] not in read)


def _field_name(item: ast.stmt) -> str | None:
    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
        return item.target.id
    return None


def _public_method_name(item: ast.stmt) -> str | None:
    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
        return item.name
    return None


def shared_methods(sources: list[str]) -> list[str]:
    """``Class.method`` of each public method of ``sources`` whose name
    another class also defines, as a method or as a ``self.`` attribute."""
    classes = [node for source in sources for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    definers: dict[str, set[str]] = {}
    for cls in classes:
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                definers.setdefault(item.name, set()).add(cls.name)
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                definers.setdefault(node.attr, set()).add(cls.name)
    return sorted(
        f"{cls.name}.{name}"
        for cls in classes
        for item in cls.body
        if (name := _public_method_name(item)) and definers[name] - {cls.name}
    )


def unread_fields(sources: list[str]) -> list[str]:
    """``Class.field`` of each annotated class field that the sources never read."""
    return _unread_members(sources, _field_name)


def unread_methods(sources: list[str]) -> list[str]:
    """``Class.method`` of each public method that the sources never read."""
    return _unread_members(sources, _public_method_name)


def _names(node: ast.expr | None) -> list[str]:
    """The class names an ``except`` type or an ``isinstance`` class argument holds."""
    if isinstance(node, ast.Tuple):
        return [name for element in node.elts for name in _names(element)]
    if isinstance(node, ast.Name):
        return [node.id]
    return [node.attr] if isinstance(node, ast.Attribute) else []


def uncaught_failure_classes(sources: list[str]) -> list[str]:
    """``ToolkitError`` subclasses of ``sources`` besides the exit-code bases
    that no ``except`` clause or ``isinstance`` call names and that define no
    ``__init__``."""
    trees = [ast.parse(source) for source in sources]
    classes = {node.name: node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)}
    bases = {name: {base for node in cls.bases for base in _names(node)} for name, cls in classes.items()}
    failures = {"ToolkitError"}
    while subclasses := {name for name in classes.keys() - failures if bases[name] & failures}:
        failures |= subclasses
    named = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                named.update(_names(node.type))
            elif isinstance(node, ast.Call) and _names(node.func) == ["isinstance"] and len(node.args) == 2:
                named.update(_names(node.args[1]))
    return sorted(
        name
        for name in failures - {"ToolkitError", *EXIT_CODE_BASES} - named
        if not any(isinstance(item, ast.FunctionDef) and item.name == "__init__" for item in classes[name].body)
    )


def test_every_failure_class_is_a_base_caught_or_carries_data():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert uncaught_failure_classes(sources) == []


def test_failure_class_check_flags_only_bare_uncaught_subclasses():
    a = (
        "class ToolkitError(Exception): pass\nclass ValidationFailure(ToolkitError): pass\n"
        "class Caught(ValidationFailure): pass\nclass Checked(errors.ToolkitError): pass\n"
        "class Carrier(Caught):\n    def __init__(self, data):\n        self.data = data\n"
        "class Bare(ValidationFailure): pass\nclass Deeper(Bare): pass\nclass Other(Exception): pass\n"
    )
    b = (
        "try:\n    f()\nexcept (KeyError, Caught):\n    g(isinstance(e, (int, errors.Checked)))\n"
        "except Other:\n    pass\n"
    )
    assert uncaught_failure_classes([a, b]) == ["Bare", "Deeper"]


def test_every_public_definition_is_read_by_the_library():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_public_names(sources) == sorted(REFERENCES)


def test_surface_check_flags_only_unread_public_definitions():
    a = "class Used: pass\ndef unused(): pass\ndef _private(): pass\ndef by_attribute(): pass\n"
    b = "import a\nx = Used()\na.by_attribute()\nclass Lonely:\n    def method(self): pass\n"
    assert unread_public_names([a, b]) == ["Lonely", "unused"]


def test_every_class_field_is_read_by_the_library():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_fields(sources) == sorted(UNREAD_FIELDS)


def test_field_check_flags_only_unread_fields():
    a = (
        "class Point:\n    x: int\n    y: int\n    label: str = ''\n    written: int = 0\n"
        "class Box:\n    x: int\n    def grow(self):\n        self.written = 1\n        return self.x\n"
    )
    b = "def gene(p):\n    return getattr(p, 'y')\nclass Lonely:\n    size: float\n    CONSTANT = 3\n"
    assert unread_fields([a, b]) == ["Lonely.size", "Point.label", "Point.written"]


def test_every_public_method_is_read_by_the_library():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_methods(sources) == sorted(UNREAD_METHODS)


def test_every_shared_method_name_is_listed():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    shared = shared_methods(sources)
    assert sorted({member.split(".", 1)[1] for member in shared}) == sorted(SHARED_METHODS), shared


def test_shared_method_check_flags_names_that_another_class_defines():
    a = (
        "class Queue:\n    def run(self): pass\n    def energy(self): pass\n    def alone(self): pass\n"
        "    def _hidden(self): pass\n"
    )
    b = (
        "class Flow:\n    def run(self): pass\n    def _hidden(self): pass\n"
        "    def step(self, other):\n        self.energy, self.total = 0.0, 0\n        other.alone = 1\n"
    )
    assert shared_methods([a, b]) == ["Flow.run", "Queue.energy", "Queue.run"]


def test_method_check_flags_only_unread_public_methods():
    a = (
        "class Node:\n    def by_id(self): pass\n    def called(self): pass\n    def _private(self): pass\n"
        "    @property\n    def size(self): return 1\n    def named(self): pass\n    def written(self): pass\n"
    )
    b = "def use(n):\n    n.written = 0\n    return n.called(), n.size, getattr(n, 'named')\n"
    assert unread_methods([a, b]) == ["Node.by_id", "Node.written"]
