"""Run one edcarb CLI verb with the benchmark's tracer installed.

    python3 perfbench/traced_cli.py DUMP.json VERB [ARGS...]

with `src` on PYTHONPATH. When the verb ends, its per-layer counters and
spans are written to DUMP.json; the exit code is the verb's.
"""

from __future__ import annotations

import json
import os
import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    dump, cli_args = argv[0], argv[1:]
    import edcarb.cli

    tracer = Tracer()
    tracer.install()
    try:
        return edcarb.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(dump, "w") as fh:
            json.dump({"counters": tracer.snapshot(), "spans": tracer.span_records(os.getpid())}, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
