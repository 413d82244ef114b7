"""Check that the working tree behaves as a git revision does on the equivalence scripts.

Usage: python3 tools/equivalence.py [REV] [--python PY ...]

REV (default ``HEAD``) is exported with ``git archive`` into a temporary
directory. This checkout's ``tools/demo_matrix.py`` and
``tools/library_digest.py`` run on that tree under the first PY (default:
the interpreter running this script), and their output is the reference.
They then run on the working tree of this checkout under each PY in turn,
and a unified diff of each output against the reference is printed,
followed by one verdict line per script and interpreter. The exit code is
1 if any output differs and 0 if all are equal; a script that fails stops
the check with its error. The runs are sequential and take about a minute
each per interpreter on a 2-core host (Python 3.11). Only the standard
library is used, besides the ``git`` command, and the interpreters need
nothing installed besides their own.

Last, the line count of each ``src/edcarb/*.py`` module is printed for
REV and for the working tree, with the totals, so a change can quote its
line delta; the counts do not affect the exit code.
"""

from __future__ import annotations

import argparse
import difflib
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ("demo_matrix.py", "library_digest.py")


def _export(rev: str, target: Path) -> None:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where this Python has it, keeps every member inside target
        tar.extractall(target, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _output(python: str, tool: str, tree: Path, scratch: Path) -> str:
    args = [python, str(ROOT / "tools" / tool), str(tree)]
    if tool == "demo_matrix.py":
        args.append(str(scratch))
    return subprocess.run(args, check=True, capture_output=True, text=True, cwd=ROOT).stdout


def _version(python: str) -> str:
    return subprocess.run([python, "--version"], check=True, capture_output=True, text=True).stdout.strip()


def _print_line_counts(rev: str, base: Path) -> None:
    before, after = (
        {path.name: path.read_bytes().count(b"\n") for path in (tree / "src" / "edcarb").glob("*.py")}
        for tree in (base, ROOT)
    )
    print(f"src/edcarb lines ({rev} -> working tree):")
    for name in sorted(before.keys() | after.keys()):
        print(f"  {name}: {before.get(name, '-')} -> {after.get(name, '-')}")
    print(f"  total: {sum(before.values())} -> {sum(after.values())}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(usage=__doc__.split("\n\n")[1].removeprefix("Usage: "))
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--python", nargs="+", default=[sys.executable], metavar="PY")
    args = parser.parse_args(argv)
    names = {python: f"{python} ({_version(python)})" for python in args.python}
    reference = f"{args.rev} under {names[args.python[0]]}"
    differs = False
    with tempfile.TemporaryDirectory(prefix="edcarb-equivalence-") as tmp:
        base = Path(tmp) / "tree"
        base.mkdir()
        _export(args.rev, base)
        for tool in TOOLS:
            before = _output(args.python[0], tool, base, Path(tmp) / f"{tool}.base")
            for i, python in enumerate(args.python):
                after = _output(python, tool, ROOT, Path(tmp) / f"{tool}.{i}")
                diff = list(
                    difflib.unified_diff(
                        before.splitlines(keepends=True),
                        after.splitlines(keepends=True),
                        fromfile=f"{reference}: {tool}",
                        tofile=f"working tree under {names[python]}: {tool}",
                    )
                )
                sys.stdout.writelines(diff)
                verdict = "differs" if diff else "same"
                print(f"{tool} under {names[python]}: {verdict} ({len(before.splitlines())} lines at {reference})")
                differs = differs or bool(diff)
        _print_line_counts(args.rev, base)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
