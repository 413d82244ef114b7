"""Whole simulation runs against the plain reference simulator.

`support.reference_simulation` re-runs a simulation in one loop and shares
only the tested policy functions with the library. Counts and decision logs
must be equal and every total and step sample bit-equal, on seeded batch,
llm and mapping runs. The file imports only names that have been stable
across versions of the library, so it also runs against an older tree.
"""

import random
from collections import Counter

import pytest

from edcarb.edc_scheduler import NoFeasiblePlan, SearchParams
from edcarb.runtime_sim import CiTrace, SimConfig, run_simulation

from support import random_queue_scenario, random_scheduler_instance, reference_simulation


def assert_same_run(report, expected) -> None:
    counts = ("inferences_done", "deadline_misses", "arrivals_total", "backlog_at_horizon", "max_queue_len")
    assert [getattr(report, name) for name in counts] == [getattr(expected, name) for name in counts]
    assert report.decision_log == expected.decision_log
    # every total and step sample bit-equal
    assert repr(report) == repr(expected)


@pytest.mark.parametrize("mode", ["batch", "llm"])
def test_queue_modes_match_the_reference_simulator(mode):
    rng = random.Random(2)
    seen = Counter()
    for _ in range(30):
        config, trace, arrivals, kwargs = random_queue_scenario(rng, mode)
        report = run_simulation(config, trace, arrivals, **kwargs)
        assert_same_run(report, reference_simulation(config, trace, arrivals, **kwargs))
        logged = {ev.kind for ev in report.decision_log}
        seen.update(logged & {"power_gated", "idle"})
        seen[config.policy] += 1
        seen["overloaded"] += report.backlog_at_horizon > report.arrivals_total / 2
        seen["drained"] += report.arrivals_total > 0 and report.backlog_at_horizon == 0
    assert min(seen[k] for k in ("idle", "adaptive", "static", "overloaded", "drained")) >= 5
    assert seen["power_gated"] >= (5 if mode == "batch" else 0)


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
        seen["remaps"] += sum(ev.kind == "remap" for ev in expected.decision_log)
    assert 0 < seen["late"] < seen["runs"] and seen["remaps"] > 12

