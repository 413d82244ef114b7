"""Run the benchmark on two source trees in alternating pairs and summarize the end-to-end metrics.

Usage: python3 tools/bench_pairs.py PARENT_TREE CHANGED_TREE --workload W --pairs N [--seconds S] [--seed N]

Each tree is a checkout of this repository, for example a ``git archive``
copy of a parent commit. Both are copied into one temporary directory, as
``parent`` and ``change``, so the two paths have the same length (the name
of a checkout moves ``peak_rss_mb`` by a fraction of a MB), and each copy
is byte-compiled before the first run, so no run compiles stale or missing
bytecode. Then each pair runs the copy's own ``perfbench/run.py
--workload W --seconds S --seed N --trace 0`` once per tree, the parent
first in even pairs and the change first in odd ones.

For each end-to-end metric that this checkout's ``BENCHMARK.json``
declares, the summary prints each side's median and interquartile range
over the runs and in how many pairs the change read better (an equal
reading counts for neither side). It also prints whether the claim rule
holds: at least 10 pairs ran, the change read better in at least 9 of 10
of them, and its median is better than the parent's by more than the
parent's interquartile range.
The same columns, without the claim, follow for each of the workload's own
``metric NAME VALUE UNIT`` lines (``sim_day_s``, ``simulate_s``, ...); of
those, a rate (a unit ending in ``/s``) is better higher and every other
metric lower. Last it prints, per side, how many runs were ``correct`` and
how many checks ``failed`` in all. ``--seconds`` defaults to the
``run_seconds`` of ``BENCHMARK.json``. Only the standard library is used;
nothing under ``perfbench/`` is imported or written.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".perfbench_tmp", ".pytest_cache", ".hypothesis")


def result_of(stdout: str) -> dict:
    """The final JSON line of one ``perfbench/run.py`` run, with the run's
    ``metric NAME VALUE UNIT`` lines as ``printed``: NAME -> (VALUE, UNIT)."""
    *lines, last = stdout.strip().splitlines()
    result = json.loads(last)
    printed = (line.split() for line in lines if line.startswith("metric "))
    result["printed"] = {name: (float(value), unit) for _, name, value, unit in printed}
    return result


def _spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range) of `values`."""
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def _row(name: str, parent: list[float], change: list[float], better: str, claim: bool) -> str:
    sign = 1 if better == "lower" else -1
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    (p_median, p_iqr), (c_median, c_iqr) = _spread(parent), _spread(change)
    row = f"{name:<22}{f'{p_median:.4g} ({p_iqr:.2g})':>22}{f'{c_median:.4g} ({c_iqr:.2g})':>22}  {f'{won}/{len(parent)}':>10}"
    if claim:
        holds = len(parent) >= 10 and won * 10 >= 9 * len(parent) and sign * (p_median - c_median) > p_iqr
        row += "  holds" if holds else "  not met"
    return row


def summarize(pairs: list[tuple[dict, dict]], metrics: list[tuple[str, str]]) -> list[str]:
    """Summary lines of `pairs` of (parent, change) results: one per
    end-to-end (metric name, "lower" or "higher" is better) in `metrics`,
    then one per other metric that every run printed."""
    lines = [f"{'metric':<22}{'parent median (IQR)':>22}{'change median (IQR)':>22}  change won  claim"]
    for name, better in metrics:
        parent, change = ([side["metrics"][name]["value"] for side in sides] for sides in zip(*pairs))
        lines.append(_row(name, parent, change, better, claim=True))
    results = [result for pair in pairs for result in pair]
    shown = {name for name, _ in metrics}
    for name, (_, unit) in results[0]["printed"].items():
        if name in shown or not all(name in result["printed"] for result in results):
            continue
        parent, change = ([side["printed"][name][0] for side in sides] for sides in zip(*pairs))
        lines.append(_row(name, parent, change, "higher" if unit.endswith("/s") else "lower", claim=False))
    for side, results in zip(SIDES, zip(*pairs)):
        correct = sum(r["correct"] is True for r in results)
        failed = sum(r["failed"] for r in results)
        lines.append(f"{side}: {correct}/{len(results)} runs correct, {failed} failed")
    return lines


def _run(tree: Path, args) -> dict:
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--seed", str(args.seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    try:
        return result_of(proc.stdout)
    except ValueError:  # no lines, or a last line that is not JSON
        raise SystemExit(f"{tree.name}: perfbench exited {proc.returncode} without a result:\n{proc.stderr}")


def main(argv: list[str]) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(prog="tools/bench_pairs.py", description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in benchmark["workloads"]])
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    metrics = [(m["name"], m["better"]) for m in benchmark["end_to_end"]]
    with tempfile.TemporaryDirectory(prefix="edcarb-pairs-") as tmp:
        copies = []
        for side, tree in zip(SIDES, (args.parent, args.change)):
            copy = Path(tmp) / side
            shutil.copytree(tree, copy, ignore=_NOT_COPIED)
            if not compileall.compile_dir(copy, quiet=1):
                raise SystemExit(f"{tree}: byte-compiling failed")
            copies.append(copy)
        pairs = []
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = {k: _run(copies[k], args) for k in order}
            pairs.append((results[0], results[1]))
            readings = ", ".join(f"{SIDES[k]} {results[k]['metrics']['wall_s']['value']:.4g}" for k in order)
            print(f"pair {i + 1}/{args.pairs}: wall_s {readings}", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s runs")
    print("\n".join(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
