"""Check that the working tree behaves as a git revision does on the equivalence scripts.

Usage: python3 tools/equivalence.py [REV]

REV (default ``HEAD``) is exported with ``git archive`` into a temporary
directory. This checkout's ``tools/demo_matrix.py`` and
``tools/library_digest.py`` then run on that tree and on the working tree
of this checkout, and a unified diff of each script's output, REV's
against the working tree's, is printed. The exit code is 1 if either
output differs and 0 if both are equal; a script that fails stops the
check with its error. The four runs are sequential and take about a
minute on a 2-core host (Python 3.11). Only the standard library is
used, besides the ``git`` command.

Last, the line count of each ``src/edcarb/*.py`` module is printed for
REV and for the working tree, with the totals, so a change can quote its
line delta; the counts do not affect the exit code.
"""

from __future__ import annotations

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


def _output(tool: str, tree: Path, scratch: Path) -> str:
    args = [sys.executable, str(ROOT / "tools" / tool), str(tree)]
    if tool == "demo_matrix.py":
        args.append(str(scratch))
    return subprocess.run(args, check=True, capture_output=True, text=True, cwd=ROOT).stdout


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
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    differs = False
    with tempfile.TemporaryDirectory(prefix="edcarb-equivalence-") as tmp:
        base = Path(tmp) / "tree"
        base.mkdir()
        _export(rev, base)
        for tool in TOOLS:
            before = _output(tool, base, Path(tmp) / f"{tool}.base")
            after = _output(tool, ROOT, Path(tmp) / f"{tool}.work")
            diff = list(
                difflib.unified_diff(
                    before.splitlines(keepends=True),
                    after.splitlines(keepends=True),
                    fromfile=f"{rev}: {tool}",
                    tofile=f"working tree: {tool}",
                )
            )
            sys.stdout.writelines(diff)
            verdict = "differs" if diff else "same"
            print(f"{tool}: {verdict} ({len(before.splitlines())} lines at {rev})")
            differs = differs or bool(diff)
        _print_line_counts(rev, base)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
