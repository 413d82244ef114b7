"""Every public module-level function and class of the library is read by the library.

A name that only tests read is surface no CLI verb, config key or benchmark
reaches. The check parses each ``src/edcarb/*.py`` file with ``ast`` and
matches by name only: a name counts as read when it occurs as an
``ast.Name`` or ``ast.Attribute`` anywhere in the package. It does not catch
unread dataclass fields or methods.
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


def test_every_public_definition_is_read_by_the_library():
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unread_public_names(sources) == sorted(REFERENCES)


def test_surface_check_flags_only_unread_public_definitions():
    a = "class Used: pass\ndef unused(): pass\ndef _private(): pass\ndef by_attribute(): pass\n"
    b = "import a\nx = Used()\na.by_attribute()\nclass Lonely:\n    def method(self): pass\n"
    assert unread_public_names([a, b]) == ["Lonely", "unused"]
