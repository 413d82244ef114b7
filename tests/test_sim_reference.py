"""Whole simulation runs against the plain reference simulator.

`support.reference_simulation` re-runs a simulation in one loop and shares
only the tested policy functions with the library. Counts and decision logs
must be equal and every total and step sample bit-equal, on seeded batch,
llm and mapping runs.
"""

import random
from collections import Counter
from dataclasses import replace

import pytest

from edcarb.edc_scheduler import NoFeasiblePlan, SearchParams
from edcarb.runtime_sim import CiTrace, ExecLookupTable, SimConfig, TraceArrivals, run_simulation

from support import LLM_VARIANTS, logged_events, random_queue_scenario, random_scheduler_instance, reference_simulation
from time_limit import time_limit


def assert_same_run(report, expected) -> None:
    counts = ("inferences_done", "deadline_misses", "arrivals_total", "backlog_at_horizon", "max_queue_len")
    assert [getattr(report, name) for name in counts] == [getattr(expected, name) for name in counts]
    assert logged_events(report) == expected.decision_log
    # every total, step sample and logged number bit-equal
    assert repr(replace(report, decision_log=logged_events(report))) == repr(expected)


@pytest.mark.parametrize("mode", ["batch", "llm"])
def test_queue_modes_match_the_reference_simulator(mode):
    rng = random.Random(2)
    seen = Counter()
    for _ in range(30):
        config, trace, columns, kwargs = random_queue_scenario(rng, mode)
        arrivals = TraceArrivals(*columns)
        report = run_simulation(config, trace, arrivals, **kwargs)
        assert_same_run(report, reference_simulation(config, trace, arrivals, **kwargs))
        logged = {ev.kind for ev in report.decision_log}
        seen.update(logged & {"power_gated", "idle"})
        seen[config.policy] += 1
        seen["overloaded"] += report.backlog_at_horizon > report.arrivals_total / 2
        seen["drained"] += report.arrivals_total > 0 and report.backlog_at_horizon == 0
    assert min(seen[k] for k in ("idle", "adaptive", "static", "overloaded", "drained")) >= 5
    assert seen["power_gated"] >= (5 if mode == "batch" else 0)


TIE_TABLE = ExecLookupTable(
    {(1, 0): (40.0, 0.2), (2, 0): (60.0, 0.3), (4, 0): (100.0, 0.4),
     (1, 1): (20.0, 0.3), (2, 1): (30.0, 0.45), (4, 1): (50.0, 0.6)},
    concurrency={1: (1.0, 1.0), 2: (1.6, 1.2)},
)


@pytest.mark.parametrize(
    "mode, kinds",
    [("llm", ("a",)), ("batch", ("a",)), ("batch", ("a", "b"))],
    ids=["llm", "batch-one-kind", "batch-two-kinds"],
)
def test_arrivals_at_one_instant_and_at_a_completion_match_the_reference(mode, kinds):
    # an arrival at time now is queued for a dispatch that starts at now,
    # so arrivals at one instant, at a step's start and at a dispatch's
    # completion all join the queue together
    config = SimConfig(
        mode=mode, horizon_s=4.0, step_s=0.5, deadline_ms=40.0, p_min_w=8.0, p_max_w=20.0,
        tokens_per_request=4, tps_floor=10.0,
    )
    trace = CiTrace(((0.0, 200.0), (2.0, 400.0)), horizon_s=4.0)
    kwargs = {"llm_variants": LLM_VARIANTS} if mode == "llm" else {"table": TIE_TABLE}
    # with two kinds, the first arrival at each instant is the only one of its kind
    instants = (0.25, 0.25, 0.25, 0.25, 1.0, 1.0, 2.5, 2.5, 2.5)
    labels = tuple(kinds[-1] if at not in instants[:i] else kinds[0] for i, at in enumerate(instants))
    # a queue step that never takes in an arrival due now loops: fail it in seconds
    with time_limit(5.0):
        first = run_simulation(config, trace, TraceArrivals(instants, labels), **kwargs)
    completion = next(ev.detail["completion_s"] for ev in first.decision_log if ev.kind == "dispatch")
    tied = sorted(zip(instants + (completion, completion), labels + (kinds[-1], kinds[0])), key=lambda a: a[0])
    arrivals = TraceArrivals(tuple(t for t, _ in tied), tuple(kind for _, kind in tied))
    with time_limit(5.0):
        report = run_simulation(config, trace, arrivals, **kwargs)
    assert_same_run(report, reference_simulation(config, trace, arrivals, **kwargs))
    dispatches = [ev for ev in report.decision_log if ev.kind == "dispatch"]
    assert dispatches[0].detail["completion_s"] == completion
    # the next dispatch starts at that completion, with the arrivals made then queued
    assert dispatches[1].t_s == completion and report.arrivals_total == 11
    assert sum(ev.detail["arrivals"].count(completion) for ev in dispatches) == 2
    if mode == "batch":
        # one batch of two per stream, and a stream per kind queued
        assert dispatches[0].detail["arrivals"] == [0.25] * 2 * len(kinds)
        assert dispatches[0].detail["streams"] == len(kinds)


def test_mapping_mode_matches_the_reference_simulator():
    rng = random.Random(8)
    seen = Counter()
    while seen["runs"] < 6:
        workloads, node = random_scheduler_instance(rng, n_layers=rng.randint(3, 5), n_units=3, n_freqs=2)
        if len(workloads) < 2:
            continue
        params = SearchParams(
            beam_width=rng.choice((1, 4)),
            local_search_moves=rng.choice((0, 20)),
            max_segments=3,
            candidate_cap=16,
            rng_seed=rng.randrange(1000),
        )
        horizon = rng.uniform(20.0, 60.0)
        trace = CiTrace(tuple((k * horizon / 8, rng.uniform(50.0, 550.0)) for k in range(8)), horizon_s=horizon)
        config = SimConfig(
            mode="mapping",
            horizon_s=horizon,
            step_s=rng.choice((0.5, 1.0, 2.5)),
            policy=rng.choice(("adaptive", "static")),
            deadline_ms=rng.uniform(2.0, 20.0),
            p_min_w=rng.uniform(6.0, 10.0),
            p_max_w=rng.uniform(10.0, 16.0),
        )
        run = {"node": node, "workloads": workloads, "search_params": params}
        try:
            expected = reference_simulation(config, trace, None, **run)
        except NoFeasiblePlan:
            with pytest.raises(NoFeasiblePlan):
                run_simulation(config, trace, None, **run)
            seen["infeasible"] += 1
            continue
        assert_same_run(run_simulation(config, trace, None, **run), expected)
        seen["runs"] += 1
        seen["late"] += expected.deadline_misses > 0
        seen["remaps"] += sum(kind == "remap" for _, kind, _ in expected.decision_log)
    assert 0 < seen["late"] < seen["runs"] and seen["remaps"] > 12

