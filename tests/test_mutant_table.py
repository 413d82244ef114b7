"""The mutant table of tools/mutants.py fits this tree: each entry's old text
occurs exactly once in its file and each test it names exists. No mutant
runs here; ``python3 tools/mutants.py .`` runs them."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

TABLE = mutants.load_table()


@pytest.mark.parametrize("mutant", TABLE, ids=[mutant["name"] for mutant in TABLE])
def test_each_mutant_applies_once_and_names_tests_that_exist(mutant):
    assert mutant["new"] != mutant["old"]
    assert not mutants.stale(ROOT, mutant)
    assert mutant["tests"] and mutants.missing_tests(ROOT, mutant) == []


def test_no_two_mutants_share_a_name_or_a_text():
    # kill sets are compared by name, and each source text is mutated by one entry
    for key in (lambda mutant: mutant["name"], lambda mutant: (mutant["file"], mutant["old"])):
        assert [k for k, n in Counter(map(key, TABLE)).items() if n > 1] == []


def test_table_check_flags_stale_texts_and_missing_tests(tmp_path):
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text("def test_x(): pass\nclass TestB:\n    def test_y(self): pass\n")
    (tmp_path / "code.py").write_text("a = 1\nb = 1\n")
    entry = {"file": "code.py", "old": "a = 1", "new": "a = 2"}
    assert not mutants.stale(tmp_path, entry)
    assert mutants.stale(tmp_path, {**entry, "old": "= 1"})
    assert mutants.stale(tmp_path, {**entry, "file": "gone.py"})
    tests = [
        "tests/test_a.py::test_x",
        "tests/test_a.py::test_x[case]",
        "tests/test_a.py::TestB::test_y",
        "tests/test_a.py::test_z",
        "tests/test_a.py::TestB::test_x",
        "tests/test_gone.py::test_x",
    ]
    assert mutants.missing_tests(tmp_path, {**entry, "tests": tests}) == tests[3:]
