"""Property test: the simulator accounts for every arrival. Each one is
either served or still queued at the horizon, in batch and llm mode, with
and without power gating."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from edcarb.runtime_sim import (  # noqa: E402
    CiTrace,
    SimConfig,
    TraceArrivals,
    run_simulation,
)

from support import LLM_VARIANTS, random_exec_table, reference_poisson_arrivals  # noqa: E402

LLM_FLOOR_W = 5.0  # the lowest power any variant draws


@st.composite
def scenarios(draw):
    mode = draw(st.sampled_from(("batch", "llm")))
    horizon = draw(st.floats(10.0, 40.0))
    ci = draw(st.lists(st.floats(50.0, 600.0), min_size=1, max_size=6))
    span = horizon / len(ci)
    trace = CiTrace(samples=tuple((i * span, c) for i, c in enumerate(ci)), horizon_s=horizon)
    rate, seed = draw(st.floats(0.5, 60.0)), draw(st.integers(0, 2**16))
    kinds = tuple("abc"[: draw(st.integers(1, 3))])
    arrivals = TraceArrivals(*reference_poisson_arrivals(rate, seed, horizon, kinds))
    if mode == "batch":
        table = random_exec_table(random.Random(draw(st.integers(0, 2**16))))
        # the least power any single dispatch can draw; a p_min_w under it
        # power-gates the queue whenever the threshold falls to p_min_w
        floor = min(e * 1000.0 / lat for lat, e in table.entries.values())
        kwargs = {"table": table}
    else:
        floor = LLM_FLOOR_W
        kwargs = {"llm_variants": LLM_VARIANTS}
    # llm mode has no gating: under its floor no variant can be selected
    factors = (0.5, 0.9, 1.1, 2.0) if mode == "batch" else (1.0, 1.6, 2.4)
    p_min = floor * draw(st.sampled_from(factors))
    config = SimConfig(
        mode=mode,
        horizon_s=horizon,
        step_s=draw(st.sampled_from((0.5, 1.0, 2.5))),
        policy=draw(st.sampled_from(("adaptive", "static"))),
        deadline_ms=draw(st.floats(5.0, 5000.0)),
        p_min_w=p_min,
        p_max_w=p_min * draw(st.floats(1.0, 4.0)),
        idle_power_w=draw(st.sampled_from((0.0, 0.3))),
        tokens_per_request=draw(st.sampled_from((16, 64))),
        tps_floor=draw(st.floats(10.0, 60.0)),
    )
    return config, trace, arrivals, kwargs


@settings(max_examples=120, deadline=None)
@given(scenario=scenarios())
def test_every_arrival_is_served_or_queued_at_the_horizon(scenario):
    config, trace, arrivals, kwargs = scenario
    report = run_simulation(config, trace, arrivals, **kwargs)
    assert report.arrivals_total == len(arrivals.times)
    assert report.arrivals_total == report.inferences_done + report.backlog_at_horizon
    served = [a for ev in report.decision_log if ev.kind == "dispatch" for a in ev.detail["arrivals"]]
    assert len(served) == report.inferences_done
    if report.arrivals_total:
        assert 0 <= report.backlog_at_horizon <= report.max_queue_len <= report.arrivals_total
    else:
        assert report.max_queue_len == 0
