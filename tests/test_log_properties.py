"""Property test: every line of ``decision_log.jsonl`` is the bytes that
``json.dumps`` writes for its event, whichever way the sink writes it.

Records of each shape the simulator emits are drawn with numbers from a small
pool of values that look alike to a value cache (``0.0`` and ``-0.0``;
``1.0``, ``1`` and ``True``) mixed with any finite float. Most records hold
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
from edcarb.runtime_sim import (  # noqa: E402
    Adapt,
    BatchDispatch,
    Idle,
    LlmDispatch,
    LlmSelect,
    LogEvent,
    Power,
    PowerGated,
    Remap,
)

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
    tail = (floats, floats, floats, floats, ints, arrivals, floats)
    # the strategy of each field after t_s, by record type
    fields = {
        Adapt: (floats, floats, st.sampled_from(("initial", "ci_change"))),
        LlmSelect: (names, ints, st.sampled_from(("low", "mid", "high")), st.booleans()),
        Remap: (floats, floats, ints),
        Power: (floats, floats, floats),
        PowerGated: (floats, floats),
        BatchDispatch: (st.lists(ints, min_size=1, max_size=4), ints, ints, *tail),
        LlmDispatch: (names, ints, ints, *tail),
        Idle: (floats, floats, floats),
    }
    record = draw(st.sampled_from(tuple(fields)))
    return record(t_s, *(draw(field) for field in fields[record]))


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
    dispatch = BatchDispatch(0.3, [1], 1, 0, 0.08, 0.4, 5.0, 0.5, 0, [0.3], 320.0)
    sequence = [
        dispatch,
        dispatch._replace(t_s=0.5, power_w=5),
        dispatch._replace(t_s=0.5, power_w=True),
        dispatch._replace(t_s=0.5, misses=False),
        Idle(1.0, 0.5, 0.0, 320.0),
        Idle(2.0, 0.5, -0.0, 320.0),
        Idle(2.5, 0.5, 0.25, 320),
        dispatch._replace(t_s=3.0, batches=[True, 1]),
        # an arrival equal to the start time, but not the same float
        dispatch._replace(t_s=0.0, arrivals=[-0.0]),
        dispatch._replace(t_s=1.0, arrivals=[1]),
    ]
    text = logged(sequence)
    assert text == "".join(map(dumped, sequence))
    assert '"power_w":5,' in text and '"power_w":true,' in text and '"energy_j":-0.0,' in text
