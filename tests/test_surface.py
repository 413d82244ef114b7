"""Every public module-level function and class, and every class field, of
the library is read by the library.

A name that only tests read is surface no CLI verb, config key or benchmark
reaches. The checks parse each ``src/edcarb/*.py`` file with ``ast`` and
match by name only. A module-level name counts as read when it occurs as an
``ast.Name`` or ``ast.Attribute`` anywhere in the package. An annotated
class field counts as read when its name occurs as an attribute that is
loaded, or as a string constant (``getattr`` by name, which is how
``DesignSpace`` reads its genes). Writing a field does not read it. Unread
methods are not caught.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "edcarb"

# Reference implementations that tests compare the library against.
REFERENCES = {
    "exhaustive_search": "the c03 oracle the GA is checked against",
    "system_estimate": "the pipeline model the mapping search's estimates must equal",
    "operational_carbon": "the operational-carbon equation c01 checks",
}


# Fields that nothing in the library reads but that stay, with the reason.
UNREAD_FIELDS = {
    "EvaluatedDesign.infeasibility_reason": "kept for counting infeasible designs by reason (ROADMAP item 6)",
    "MappingPlan.dnn": "part of every mapping result's repr; removing it moves every mapping digest",
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


def unread_fields(sources: list[str]) -> list[str]:
    """``Class.field`` of each annotated field of a class in ``sources`` whose
    name none of them loads as an attribute or holds as a string constant."""
    trees = [ast.parse(source) for source in sources]
    fields = {
        f"{node.name}.{item.target.id}"
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return sorted(f for f in fields if f.split(".", 1)[1] not in read)


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
