"""Smoke test of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Checks that every catalogued metric is printed on every workload it
applies to, that BENCHMARK.json matches the catalogue, that a wrong pinned
scalar is counted as a failed operation, and that a directory without the
edcarb sources is refused.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
from metrics import E2E, PER_LAYER, REPORTED, WORKLOADS  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_every_metric_is_printed_on_every_workload():
    proc = _bench("--workload", "all", "--smoke", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    printed = set()
    workload = None
    for line in proc.stdout.splitlines():
        if line.startswith("# workload="):
            workload = line.split()[1].split("=", 1)[1]
        elif line.startswith("metric "):
            printed.add((workload, line.split()[1]))
    missing = [(w, m.name) for m in E2E for w in m.workloads if (w, m.name) not in printed]
    missing += [(w, name) for name, _, _ in PER_LAYER for w in WORKLOADS if (w, name) not in printed]
    assert not missing
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] > 0


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert sorted(m["name"] for m in doc["end_to_end"]) == sorted(REPORTED)
    units = {m.name: (m.unit, m.better) for m in E2E}
    assert all(units[m["name"]] == (m["unit"], m["better"]) for m in doc["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == list(PER_LAYER)


def test_corrupted_expected_scalar_raises_error_rate():
    expected = json.loads((HERE / "expected.json").read_text())
    args = bench.parse_args(["--workload", "search", "--smoke", "--seconds", "0"])
    assert bench.run_workload(args, expected)["failed"] == 0
    expected["search"]["smoke"]["pareto_size"] += 1
    result = bench.run_workload(args, expected)
    assert result["failed"] > 0 and not result["correct"]


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench(
        "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0 and proc.stdout == ""
