"""Run the demo matrix against one source tree and print a digest per artifact.

Usage: python3 tools/demo_matrix.py TREE OUT

TREE is a checkout of this repository (its ``src`` and ``configs/demo`` are
used); OUT is an empty or missing scratch directory. Each CLI verb runs as a
subprocess with ``PYTHONPATH=TREE/src``:

- explore: plain, ``--appx``, and ``--appx --fitness delay --stacking 3d``;
- schedule: ``--ci-now 250`` and ``--ci-now 40``, then ``--ci-now 250`` on
  the demo with a renamed copy of its model family added, once at the
  demo's ``latency_constraint_ms`` (40 ms) and once at 10 ms, where the
  two models' joint plan decides which variants are chosen;
- simulate: ``sim.mode`` batch/llm/mapping x arrivals ``poisson``,
  ``poisson:20`` and ``arrivals.csv`` x policy adaptive/static;
- report over every run above;
- last, so that the lines of the runs above stay put, simulate in batch
  mode under the adaptive policy on ``arrivals_two_kinds.csv``: each time
  of the demo's ``arrivals.csv`` three times, of kinds ``a``, ``b`` and
  ``a``. Its queues hold two kinds and more requests than one batch takes,
  so its log has dispatches of two groups on two streams, which the demo's
  one-kind arrivals never make.

For each run it prints the exit code and the first stderr line, then one
SHA-256 per artifact, taken with the ``generated_at`` line removed and OUT
replaced by a fixed token. Two trees behave the same on the demo when the
outputs of

    python3 tools/demo_matrix.py PARENT_TREE /tmp/a > a.txt
    python3 tools/demo_matrix.py CHANGED_TREE /tmp/b > b.txt

are equal (``diff a.txt b.txt``). The configs the runs need besides the
demo's own, and the two-kind arrivals, are written into ``OUT/demo``.
The 27 runs are sequential and take about half a minute on a 2-core host
(Python 3.11), most of it in the 19 simulations over the demo's full
7,200 s horizon. Only the standard library is used.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path


def _runs(demo: Path, out: Path) -> list[tuple[str, list[str]]]:
    config = str(demo / "demo.json")
    runs = [
        ("explore", ["explore", "--config", config]),
        ("explore-appx", ["explore", "--config", config, "--appx"]),
        ("explore-appx-delay-3d", ["explore", "--config", config, "--appx", "--fitness", "delay", "--stacking", "3d"]),
        ("schedule-250", ["schedule", "--config", config, "--ci-now", "250"]),
        ("schedule-40", ["schedule", "--config", config, "--ci-now", "40"]),
    ]
    families = json.loads((demo / "variants.json").read_text())
    copy = json.loads(json.dumps(families[0]))
    copy["model"] = "b_" + copy["model"]
    for variant in copy["variants"]:
        variant["name"] = "b_" + variant["name"]
    (demo / "variants_two_families.json").write_text(json.dumps(families + [copy], indent=2))
    raw = json.loads((demo / "demo.json").read_text())
    for constraint_ms in (raw["policy"]["latency_constraint_ms"], 10.0):
        two = json.loads(json.dumps(raw))
        two["variants_file"] = "variants_two_families.json"
        two["policy"]["latency_constraint_ms"] = constraint_ms
        two_config = demo / f"demo_two_families_{constraint_ms:g}ms.json"
        two_config.write_text(json.dumps(two, indent=2))
        runs.append((
            f"schedule-250-two-families-{constraint_ms:g}ms",
            ["schedule", "--config", str(two_config), "--ci-now", "250"],
        ))
    for mode in ("batch", "llm", "mapping"):
        raw["sim"]["mode"] = mode
        mode_config = demo / f"demo_{mode}.json"
        mode_config.write_text(json.dumps(raw, indent=2))
        for arrivals in ("poisson", "poisson:20", str(demo / "arrivals.csv")):
            label = Path(arrivals).stem if arrivals.endswith(".csv") else arrivals.replace(":", "")
            for policy in ("adaptive", "static"):
                runs.append((
                    f"simulate-{mode}-{label}-{policy}",
                    ["simulate", "--config", str(mode_config), "--trace", str(demo / "ci_trace.csv"),
                     "--arrivals", arrivals, "--policy", policy],
                ))
    runs.append(("report", ["report", "--in", *(str(out / name) for name, _ in runs)]))
    two_kinds = demo / "arrivals_two_kinds.csv"
    times = [row.split(",")[0] for row in (demo / "arrivals.csv").read_text().splitlines()[1:]]
    two_kinds.write_text("time_s,kind\n" + "".join(f"{t},{kind}\n" for t in times for kind in "aba"))
    runs.append((
        "simulate-batch-two-kinds-adaptive",
        ["simulate", "--config", str(demo / "demo_batch.json"), "--trace", str(demo / "ci_trace.csv"),
         "--arrivals", str(two_kinds), "--policy", "adaptive"],
    ))
    return runs


def _digest(path: Path, out: Path) -> str:
    lines = [ln for ln in path.read_text().splitlines(keepends=True) if "generated_at" not in ln]
    return hashlib.sha256("".join(lines).replace(str(out), "<OUT>").encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    tree, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    demo = out / "demo"
    shutil.copytree(tree / "configs" / "demo", demo)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("EDCARB_LOG", None)
    for name, args in _runs(demo, out):
        target = out / name
        proc = subprocess.run(
            [sys.executable, "-m", "edcarb.cli", *args, "--out", str(target)],
            env=env, capture_output=True, text=True, check=False,
        )
        first = proc.stderr.splitlines()[0].replace(str(out), "<OUT>") if proc.stderr else ""
        print(f"{name} exit={proc.returncode} stderr={first!r}")
        if target.is_dir():
            for artifact in sorted(target.iterdir()):
                print(f"  {_digest(artifact, out)}  {artifact.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
