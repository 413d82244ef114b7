"""Run the checked-in mutant table against one source tree and print what the tests catch.

Usage: python3 tools/mutants.py TREE

TREE is a checkout of this repository. The table is this checkout's
``tools/mutants.json``: a list of mutants, each with a ``name``, a
``file`` under the tree, an ``old`` text, the ``new`` text that replaces
it, and the ``tests`` expected to kill it, as pytest node ids
(``tests/test_x.py::test_name``, which runs every parametrization).

TREE is copied into a temporary directory once. For each mutant, the
copy's file has its old text replaced, the mutant's tests run there under
``python -m pytest`` (this interpreter, with ``src`` on the path), and the
file is restored. A run with a failing test kills the mutant, and so does
one that outlasts `TIME_LIMIT_S` (a run that kills nothing takes a second
or two): then its whole process group is killed. Hypothesis draws with
``--hypothesis-seed=0``, and its example database is removed after each
run, so each result repeats and no mutant sees the examples that failed
another.

An entry whose old text does not occur exactly once in its file is
``stale`` and runs no tests; a run that pytest cannot start (a test that
does not exist, exit code 3-5) is an ``error``. One line is printed per
mutant: its verdict (``killed``, ``survived``, ``stale`` or ``error``),
the seconds taken and its name, marked ``(time limit)`` for a kill by the
time limit. The exit code is 0 when every mutant is killed, and 1
otherwise. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tools" / "mutants.json"
# Each mutant's test run is stopped after this many seconds, which counts as a kill.
TIME_LIMIT_S = 60.0


def load_table() -> list[dict]:
    return json.loads(TABLE.read_text())


def stale(tree: Path, mutant: dict) -> bool:
    """Whether the mutant's old text does not occur exactly once in its file of `tree`."""
    path = tree / mutant["file"]
    return not path.is_file() or path.read_text().count(mutant["old"]) != 1


def missing_tests(tree: Path, mutant: dict) -> list[str]:
    """The mutant's test node ids that name no file, or no function or class
    in it, of `tree`."""
    missing = []
    for node_id in mutant["tests"]:
        file, *names = node_id.split("[", 1)[0].split("::")
        path = tree / file
        found = path.is_file()
        scope = ast.parse(path.read_text()).body if found else []
        for name in names:
            nodes = [node for node in scope if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name]
            found = found and bool(nodes)
            scope = nodes[0].body if nodes else []
        if not found:
            missing.append(node_id)
    return missing


def _run_tests(copy: Path, tests: list[str]) -> str:
    """The verdict of one run of `tests` in `copy`: ``killed``, ``timed out``
    (a kill too), ``survived`` or ``error``."""
    args = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    if importlib.util.find_spec("hypothesis") is not None:
        args.append("--hypothesis-seed=0")
    # no bytecode: a mutant of the same size and mtime could reuse another's
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(
        args, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        code = proc.wait(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out"
    finally:
        shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    # 1: a test failed; 2: collection failed, as when the mutant breaks an import
    return {0: "survived", 1: "killed", 2: "killed"}.get(code, "error")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].removeprefix("Usage: "))
    parser.add_argument("tree", type=Path)
    args = parser.parse_args(argv)
    all_killed = True
    with tempfile.TemporaryDirectory(prefix="edcarb-mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(args.tree, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis"))
        for mutant in load_table():
            start = time.perf_counter()
            if stale(copy, mutant):
                verdict = "stale"
            else:
                path = copy / mutant["file"]
                original = path.read_text()
                path.write_text(original.replace(mutant["old"], mutant["new"]))
                try:
                    verdict = _run_tests(copy, mutant["tests"])
                finally:
                    path.write_text(original)
            note = "  (time limit)" if verdict == "timed out" else ""
            verdict = "killed" if note else verdict
            all_killed = all_killed and verdict == "killed"
            print(f"{verdict:<9} {time.perf_counter() - start:7.2f} s  {mutant['name']}{note}", flush=True)
    return 0 if all_killed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
