"""Property test: every line of ``decision_log.jsonl`` is the bytes that
``json.dumps`` writes for its event, whichever way the sink writes it.

Events of each shape the simulator emits are drawn with numbers from a small
pool of values that look alike to a value cache (``0.0`` and ``-0.0``;
``1.0``, ``1`` and ``True``) mixed with any finite float. Most events hold
floats in their float fields and ints in their int fields, as the
simulator's do; one in four may hold an int or a bool in any of them. So
one run of the sink sees equal numbers of different types and signs one
after another, on both of its paths."""

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from edcarb import cli_io  # noqa: E402
from edcarb.runtime_sim import LogEvent  # noqa: E402

plain_floats = st.sampled_from((0.0, -0.0, 1.0, 1e-07, 1e16, 0.1, 2.5, 320.0)) | st.floats(
    allow_nan=False, allow_infinity=False
)
plain_ints = st.sampled_from((0, 1, 2)) | st.integers(-(2**70), 2**70)
look_alikes = st.sampled_from((0, 1, True, False))
names = st.sampled_from(("q8", 'say "hi"', "back\\slash", "llm_info", "naïve", "模型")) | st.text(max_size=8)


@st.composite
def events(draw):
    if draw(st.integers(0, 3)):
        floats, ints = plain_floats, plain_ints
    else:
        floats, ints = plain_floats | look_alikes, plain_ints | look_alikes
    t_s = draw(floats)
    # a dispatch's arrivals: its own start time alone, as a dispatch of one
    # request to an idle device logs them, or any list of numbers
    arrivals = st.just([t_s]) | st.lists(floats, max_size=4)
    shape = draw(st.sampled_from(("adapt", "llm_select", "remap", "power", "power_gated", "batch", "llm", "idle")))
    if shape in ("batch", "llm"):
        if shape == "batch":
            head = {"batches": draw(st.lists(ints, min_size=1, max_size=4)), "streams": draw(ints)}
            head["freq_idx"] = draw(ints)
        else:
            head = {"variant": draw(names), "freq_idx": draw(ints), "tokens": draw(ints)}
        detail = {
            **head,
            "duration_s": draw(floats),
            "energy_j": draw(floats),
            "power_w": draw(floats),
            "completion_s": draw(floats),
            "misses": draw(ints),
            "arrivals": draw(arrivals),
            "ci": draw(floats),
        }
        return LogEvent(t_s, "dispatch", detail)
    detail = {
        "adapt": lambda: {
            "threshold_w": draw(floats),
            "ci": draw(floats),
            "cause": draw(st.sampled_from(("initial", "ci_change"))),
        },
        "llm_select": lambda: {
            "variant": draw(names),
            "freq_idx": draw(ints),
            "ci_level": draw(st.sampled_from(("low", "mid", "high"))),
            "tps_violated": draw(st.booleans()),
        },
        "remap": lambda: {"power_w": draw(floats), "throughput": draw(floats), "segments": draw(ints)},
        "power": lambda: {"energy_j": draw(floats), "power_w": draw(floats), "ci": draw(floats)},
        "power_gated": lambda: {"threshold_w": draw(floats), "ci": draw(floats)},
        "idle": lambda: {"idle_s": draw(floats), "energy_j": draw(floats), "ci": draw(floats)},
    }[shape]()
    return LogEvent(t_s, shape, detail)


def dumped(ev: LogEvent) -> str:
    return json.dumps({"t_s": ev.t_s, "kind": ev.kind, **ev.detail}, separators=(",", ":"), allow_nan=False) + "\n"


def logged(sequence) -> str:
    with tempfile.TemporaryDirectory() as folder:
        with cli_io.decision_log(folder) as emit:
            for ev in sequence:
                emit(ev)
        return (Path(folder) / cli_io.DECISION_LOG_FILE).read_text()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sequence=st.lists(events(), min_size=1, max_size=20))
def test_each_log_line_is_what_json_dumps_writes(sequence):
    assert logged(sequence) == "".join(map(dumped, sequence))


def test_equal_numbers_of_another_type_or_sign_keep_their_own_text():
    dispatch = {"batches": [1], "streams": 1, "freq_idx": 0, "duration_s": 0.08, "energy_j": 0.4, "power_w": 5.0}
    tail = {"completion_s": 0.5, "misses": 0, "arrivals": [0.3], "ci": 320.0}
    swapped = {"batches": [1], "streams": 1, "freq_idx": 0, "energy_j": 0.4, "duration_s": 0.08, "power_w": 5.0}
    sequence = [
        LogEvent(0.3, "dispatch", {**dispatch, **tail}),
        LogEvent(0.5, "dispatch", {**dispatch, "power_w": 5, **tail}),
        LogEvent(0.5, "dispatch", {**dispatch, "power_w": True, **tail}),
        LogEvent(0.5, "dispatch", {**dispatch, **tail, "misses": False}),
        LogEvent(1.0, "idle", {"idle_s": 0.5, "energy_j": 0.0, "ci": 320.0}),
        LogEvent(2.0, "idle", {"idle_s": 0.5, "energy_j": -0.0, "ci": 320.0}),
        LogEvent(2.5, "idle", {"idle_s": 0.5, "energy_j": 0.25, "ci": 320}),
        LogEvent(3.0, "dispatch", {**dispatch, "batches": [True, 1], **tail}),
        # an arrival equal to the start time, but not the same float
        LogEvent(0.0, "dispatch", {**dispatch, **tail, "arrivals": [-0.0]}),
        LogEvent(1.0, "dispatch", {**dispatch, **tail, "arrivals": [1]}),
        # the keys of a dispatch or an idle step, but not all of them or not in order
        LogEvent(1.25, "dispatch", {"batches": [2, 1], "misses": 0, "arrivals": [0.1, 1e-07]}),
        LogEvent(1.5, "dispatch", {**tail, **dispatch}),
        LogEvent(1.5, "dispatch", {**swapped, **tail}),
        LogEvent(4.0, "idle", {"energy_j": 0.25, "idle_s": 0.5, "ci": 320.0}),
    ]
    text = logged(sequence)
    assert text == "".join(map(dumped, sequence))
    assert '"power_w":5,' in text and '"power_w":true,' in text and '"energy_j":-0.0,' in text
