"""Check that the equivalence scripts print the same lines under several Python interpreters.

Usage: python3 tools/version_matrix.py PYTHON...

Each PYTHON is the path of an interpreter. This checkout's
``tools/demo_matrix.py`` and ``tools/library_digest.py`` run on this
checkout under each interpreter in turn, and a unified diff of each
script's output, the first interpreter's against each other one's, is
printed, followed by one verdict line per script and interpreter. The exit
code is 1 if any output differs and 0 if all are equal; a script that fails
stops the check with its error. The runs are sequential and take about a
minute per interpreter on a 2-core host. Only the standard library is
used, and the interpreters need nothing installed besides their own.
"""

from __future__ import annotations

import difflib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ("demo_matrix.py", "library_digest.py")


def _output(python: str, tool: str, scratch: Path) -> str:
    args = [python, str(ROOT / "tools" / tool), str(ROOT)]
    if tool == "demo_matrix.py":
        args.append(str(scratch))
    return subprocess.run(args, check=True, capture_output=True, text=True, cwd=ROOT).stdout


def _version(python: str) -> str:
    return subprocess.run([python, "--version"], check=True, capture_output=True, text=True).stdout.strip()


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    names = {python: f"{python} ({_version(python)})" for python in argv}
    differs = False
    with tempfile.TemporaryDirectory(prefix="edcarb-versions-") as tmp:
        for tool in TOOLS:
            outputs = [_output(python, tool, Path(tmp) / f"{tool}.{i}") for i, python in enumerate(argv)]
            first = outputs[0].splitlines(keepends=True)
            for python, output in zip(argv[1:], outputs[1:]):
                diff = list(
                    difflib.unified_diff(
                        first, output.splitlines(keepends=True), fromfile=f"{names[argv[0]]}: {tool}",
                        tofile=f"{names[python]}: {tool}",
                    )
                )
                sys.stdout.writelines(diff)
                verdict = "differs from" if diff else "same as"
                print(f"{tool}: {names[python]} {verdict} {names[argv[0]]} ({len(first)} lines)")
                differs = differs or bool(diff)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
