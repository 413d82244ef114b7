"""Summary of tools/bench_pairs.py on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _stdout(wall_s: float, rss: float, correct: bool = True, failed: int = 0, **printed: tuple[float, str]) -> str:
    """What one perfbench run prints: metric lines, then the result line."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    result = {"correct": correct, "attempted": 76, "failed": failed, "metrics": metrics}
    lines = [f"metric wall_s {wall_s} s", f"metric peak_rss_mb {rss} MB"]
    lines += [f"metric {name} {value} {unit}" for name, (value, unit) in printed.items()]
    return "\n".join([*lines, json.dumps(result)]) + "\n"


def _pairs(parent: list[str], change: list[str]) -> list[tuple[dict, dict]]:
    return [(bench_pairs.result_of(p), bench_pairs.result_of(c)) for p, c in zip(parent, change)]


def test_summary_gives_medians_spreads_wins_and_correctness():
    parent = [_stdout(w, 30.0) for w in (0.10, 0.12, 0.11, 0.13, 0.14)]
    # the change reads lower wall_s in four pairs and equal in the fifth, and higher rss in all
    change = [_stdout(w, 31.0) for w in (0.09, 0.11, 0.11, 0.12, 0.10)]
    change[2] = _stdout(0.11, 31.0, correct=False, failed=2)
    lines = bench_pairs.summarize(_pairs(parent, change), [("wall_s", "lower"), ("peak_rss_mb", "lower")])
    assert lines[1].split() == ["wall_s", "0.12", "(0.02)", "0.11", "(0.01)", "4/5", "not", "met"]
    assert lines[2].split() == ["peak_rss_mb", "30", "(0)", "31", "(0)", "0/5", "not", "met"]
    assert lines[3:] == ["parent: 5/5 runs correct, 0 failed", "change: 4/5 runs correct, 2 failed"]


@pytest.mark.parametrize("better, won", [("lower", "0/1"), ("higher", "1/1")])
def test_summary_counts_a_win_in_the_metric_s_direction(better, won):
    (line,) = bench_pairs.summarize(_pairs([_stdout(1.0, 10.0)], [_stdout(2.0, 10.0)]), [("wall_s", better)])[1:2]
    assert line.split()[:6] == ["wall_s", "1", "(0)", "2", "(0)", won]


@pytest.mark.parametrize(
    "change, verdict",
    [
        # better in 9 of 10 pairs, and the 0.725 median gap is wider than the parent's IQR (0.225)
        ([0.5] * 9 + [9.0], "holds"),
        # better in 8 of 10 pairs
        ([0.5] * 8 + [9.0, 9.0], "not met"),
        # better in every pair, by 0.1
        ([0.9 + 0.05 * i for i in range(10)], "not met"),
        # better in every pair by far, in fewer than 10 pairs
        ([0.5] * 9, "not met"),
    ],
    ids=["holds", "8-of-10", "gap-within-iqr", "9-pairs"],
)
def test_summary_applies_the_claim_rule_to_end_to_end_metrics(change, verdict):
    parent = [_stdout(1.0 + 0.05 * i, 30.0) for i in range(len(change))]
    lines = bench_pairs.summarize(_pairs(parent, [_stdout(w, 30.0) for w in change]), [("wall_s", "lower")])
    assert lines[1].endswith(f"  {verdict}")


def test_summary_adds_the_workload_s_own_metrics_without_a_claim():
    def run(day_s: float, per_s: float) -> str:
        return _stdout(0.3, 60.0, sim_day_s=(day_s, "s"), mapping_instances_per_s=(per_s, "1/s"))

    # the change is faster on the day run in both pairs, and solves fewer instances per second in one
    pairs = _pairs([run(0.25, 100.0), run(0.27, 100.0)], [run(0.2, 90.0), run(0.22, 100.0)])
    lines = bench_pairs.summarize(pairs, [("wall_s", "lower"), ("peak_rss_mb", "lower")])
    assert [line.split() for line in lines[3:5]] == [
        ["sim_day_s", "0.26", "(0.01)", "0.21", "(0.01)", "2/2"],
        ["mapping_instances_per_s", "100", "(0)", "95", "(5)", "0/2"],
    ]
    assert lines[5:] == ["parent: 2/2 runs correct, 0 failed", "change: 2/2 runs correct, 0 failed"]
