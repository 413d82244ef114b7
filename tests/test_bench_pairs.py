"""Summary of tools/bench_pairs.py on canned benchmark result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _stdout(wall_s: float, rss: float, correct: bool = True, failed: int = 0) -> str:
    """What one perfbench run prints: metric lines, then the result line."""
    metrics = {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    result = {"correct": correct, "attempted": 76, "failed": failed, "metrics": metrics}
    return f"metric wall_s {wall_s} s\nmetric peak_rss_mb {rss} MB\n{json.dumps(result)}\n"


def test_summary_gives_medians_spreads_wins_and_correctness():
    parent = [_stdout(w, 30.0) for w in (0.10, 0.12, 0.11, 0.13, 0.14)]
    # the change reads lower wall_s in four pairs and equal in the fifth, and higher rss in all
    change = [_stdout(w, 31.0) for w in (0.09, 0.11, 0.11, 0.12, 0.10)]
    change[2] = _stdout(0.11, 31.0, correct=False, failed=2)
    pairs = [(bench_pairs.result_of(p), bench_pairs.result_of(c)) for p, c in zip(parent, change)]
    lines = bench_pairs.summarize(pairs, [("wall_s", "lower"), ("peak_rss_mb", "lower")])
    assert lines[1].split() == ["wall_s", "0.12", "(0.02)", "0.11", "(0.01)", "4/5"]
    assert lines[2].split() == ["peak_rss_mb", "30", "(0)", "31", "(0)", "0/5"]
    assert lines[3:] == ["parent: 5/5 runs correct, 0 failed", "change: 4/5 runs correct, 2 failed"]


@pytest.mark.parametrize("better, won", [("lower", "0/1"), ("higher", "1/1")])
def test_summary_counts_a_win_in_the_metric_s_direction(better, won):
    pairs = [(bench_pairs.result_of(_stdout(1.0, 10.0)), bench_pairs.result_of(_stdout(2.0, 10.0)))]
    (line,) = bench_pairs.summarize(pairs, [("wall_s", better)])[1:2]
    assert line.split() == ["wall_s", "1", "(0)", "2", "(0)", won]
