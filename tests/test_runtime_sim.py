"""Simulator tests: policies vs brute force, accounting conservation, adaptation."""

import dataclasses
import math
import random
import re
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import pytest

from edcarb.cli_io import sim_report_to_dict
from edcarb import cli, runtime_sim
from edcarb.carbon_model import J_PER_KWH, operational_carbon
from edcarb.edc_scheduler import (
    EdgeNode,
    NoFeasiblePlan,
    SearchParams,
    ci_to_threshold,
    hysteresis_update,
    search_mapping,
)
from edcarb.errors import InfeasibleError, ValidationFailure
from edcarb.runtime_sim import (
    Adapt,
    BatchDispatch,
    CiTrace,
    ExecLookupTable,
    Idle,
    LlmDispatch,
    LlmSelect,
    LlmVariant,
    PoissonArrivals,
    Power,
    PowerGated,
    Remap,
    SimConfig,
    SimConfigError,
    StepSample,
    TraceArrivals,
    choose_batch,
    choose_concurrency,
    choose_frequency,
    ci_level_of,
    llm_select,
    run_simulation,
)

from support import (
    LLM_VARIANTS,
    brute_force_batch,
    brute_force_frequency,
    logged_events,
    make_unit,
    make_variant,
    random_exec_table,
    random_queue_scenario,
    random_scheduler_instance,
    reference_poisson_arrivals,
)

DEMO_DIR = Path(__file__).resolve().parent.parent / "configs" / "demo"

TWO_FREQ_TABLE = ExecLookupTable(
    entries={
        (1, 0): (80.0, 0.4),
        (2, 0): (100.0, 0.5),
        (1, 1): (40.0, 0.6),
        (2, 1): (50.0, 0.9),
    },
    concurrency={1: (1.0, 1.0), 2: (1.8, 1.5)},
)


def flat_trace(ci: float, horizon: float) -> CiTrace:
    return CiTrace(samples=((0.0, ci),), horizon_s=horizon)


def two_level_trace(low: float, high: float, horizon: float) -> CiTrace:
    quarter = horizon / 4.0
    return CiTrace(
        samples=((0.0, low), (quarter, high), (2 * quarter, low), (3 * quarter, high)),
        horizon_s=horizon,
    )


def batch_config(**overrides) -> SimConfig:
    values = dict(
        mode="batch",
        horizon_s=60.0,
        step_s=1.0,
        policy="adaptive",
        deadline_ms=60.0,
        p_min_w=8.0,
        p_max_w=20.0,
        idle_power_w=0.5,
    )
    values.update(overrides)
    return SimConfig(**values)


# ---------------------------------------------------------------------------
# traces and arrivals
# ---------------------------------------------------------------------------


def test_ci_trace_step_hold_semantics():
    trace = CiTrace(samples=((0.0, 100.0), (10.0, 300.0)), horizon_s=20.0)
    assert trace.ci_at(0.0) == 100.0
    assert trace.ci_at(9.99) == 100.0
    assert trace.ci_at(10.0) == 300.0
    assert trace.ci_at(19.0) == 300.0
    assert trace.ci_range == 200.0


def linear_ci_at(samples, t_s):
    """The step-hold lookup as a plain scan: the last sample at or before
    t_s, else the first one."""
    value = samples[0][1]
    for ts, ci in samples:
        if ts > t_s:
            break
        value = ci
    return value


def test_ci_at_matches_a_linear_scan_reference():
    rng = random.Random(31)
    for n in [1, 2, 500] + [rng.randint(1, 500) for _ in range(40)]:
        t = rng.uniform(-5.0, 5.0)
        samples = []
        for _ in range(n):
            samples.append((t, rng.choice((0.0, 120.0, rng.uniform(0.0, 800.0)))))
            t += rng.choice((1e-9, rng.uniform(0.01, 30.0)))
        trace = CiTrace(samples=tuple(samples), horizon_s=t)
        times = [ts for ts, _ in samples]
        probes = [times[0] - 1.0, times[-1] + 1.0, trace.horizon_s, *times]
        probes += [(a + b) / 2.0 for a, b in zip(times, times[1:])]
        for probe in probes:
            assert trace.ci_at(probe) == linear_ci_at(samples, probe)
        assert trace.ci_min == min(ci for _, ci in samples)
        assert trace.ci_max == max(ci for _, ci in samples)
        assert trace.ci_range == trace.ci_max - trace.ci_min


def test_poisson_arrivals_deterministic_and_bounded():
    model = PoissonArrivals(rate_per_s=5.0, seed=11)
    times, kinds = model.columns(30.0)
    assert model.columns(30.0) == (times, kinds)
    assert all(0 <= t < 30.0 for t in times)
    assert len(times) > 50  # ~150 expected
    assert kinds == ["default"] * len(times)


@pytest.mark.parametrize("rate, horizon", [(1e6, 7200.0), (1.0, math.inf)])
def test_poisson_refuses_more_expected_arrivals_than_the_cap(rate, horizon):
    # both would build billions of arrivals, or never stop, before the cap
    with pytest.raises(ValidationFailure, match="expects more than"):
        PoissonArrivals(rate_per_s=rate).columns(horizon)


@pytest.mark.parametrize("kinds", [("default",)], ids=["one-kind"])
def test_poisson_draws_match_the_reference_loop(kinds):
    horizon = 90.0
    for seed in (0, 1, 7, 65535):
        for rate in (0.05, 3.0, 41.7):
            model = PoissonArrivals(rate_per_s=rate, seed=seed)
            times, drawn = reference_poisson_arrivals(rate, seed, horizon, kinds)
            # the two columns the simulator reads, from either arrival model
            columns = (list(times), list(drawn))
            assert model.columns(horizon) == columns
            assert TraceArrivals(times, drawn).columns(horizon) == columns
            assert model.materialize(horizon) == list(zip(times, drawn))


def test_trace_arrivals_must_be_sorted():
    with pytest.raises(ValidationFailure):
        TraceArrivals((2.0, 1.0), ("a", "a"))


@pytest.mark.parametrize("first", [-5.0, -1e-300, math.nan])
def test_trace_arrivals_refuse_times_before_the_run(first):
    # an arrival before t=0 would be served as having waited since before
    # the run began
    with pytest.raises(ValidationFailure, match=">= 0"):
        TraceArrivals((first, 1.0, 2.0), ("a", "a", "b"))


@pytest.mark.parametrize("kinds", [("a",), ("a", "b", "c")], ids=["fewer", "more"])
def test_trace_arrivals_refuse_columns_of_unequal_length(kinds):
    with pytest.raises(ValidationFailure, match="2 arrival times but"):
        TraceArrivals((0.5, 1.0), kinds)


def test_trace_arrival_columns_stop_before_the_horizon():
    # arrivals exactly at the horizon are left out, ties included, and so
    # are the ones after it; every one before it is kept
    arrivals = TraceArrivals((0.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0), tuple("abcdefg"))
    assert arrivals.columns(3.0) == ([0.0, 1.0, 2.0, 2.0], ["a", "b", "c", "d"])
    assert arrivals.columns(2.0) == ([0.0, 1.0], ["a", "b"])
    assert arrivals.columns(0.0) == ([], [])
    assert arrivals.columns(2.5) == ([0.0, 1.0, 2.0, 2.0], ["a", "b", "c", "d"])
    assert arrivals.columns(math.inf) == (list(arrivals.times), list(arrivals.kinds))
    # lists, as the dispatch log's arrivals are slices of the times
    assert all(type(column) is list for column in arrivals.columns(3.0))


@pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0, -1.0])
def test_poisson_rate_must_be_finite_and_positive(rate):
    # only the constructor is exercised: materializing an infinite rate
    # would never advance time
    with pytest.raises(ValidationFailure):
        PoissonArrivals(rate_per_s=rate)


NON_FINITE = (math.nan, math.inf, -math.inf)

# one builder per validated number: each puts x into that field of an
# otherwise valid object
FINITE_FIELDS = {
    "CiTrace.timestamp": lambda x: CiTrace(samples=((0.0, 1.0), (x, 2.0)), horizon_s=10.0),
    "CiTrace.ci": lambda x: CiTrace(samples=((0.0, x),), horizon_s=10.0),
    "CiTrace.horizon_s": lambda x: CiTrace(samples=((0.0, 1.0),), horizon_s=x),
    "SimConfig.horizon_s": lambda x: batch_config(horizon_s=x),
    "SimConfig.step_s": lambda x: batch_config(step_s=x),
    "SimConfig.deadline_ms": lambda x: batch_config(deadline_ms=x),
    "SimConfig.p_min_w": lambda x: batch_config(p_min_w=x),
    "SimConfig.p_max_w": lambda x: batch_config(p_min_w=1.0, p_max_w=x),
    "SimConfig.idle_power_w": lambda x: batch_config(idle_power_w=x),
    "ExecLookupTable.latency": lambda x: ExecLookupTable(entries={(1, 0): (x, 1.0)}),
    "ExecLookupTable.energy": lambda x: ExecLookupTable(entries={(1, 0): (5.0, x)}),
    "ExecLookupTable.p_scale": lambda x: ExecLookupTable(
        entries={(1, 0): (5.0, 1.0)}, concurrency={1: (1.0, 1.0), 2: (1.5, x)}
    ),
    "LlmVariant.tokens_per_s": lambda x: LlmVariant("v", 0.9, (x,), (5.0,)),
    "LlmVariant.power_w": lambda x: LlmVariant("v", 0.9, (20.0,), (x,)),
    "LlmVariant.quality_score": lambda x: LlmVariant("v", x, (20.0,), (5.0,)),
}


@pytest.mark.parametrize(
    "field, value",
    [
        (name, value)
        for name in FINITE_FIELDS
        for value in NON_FINITE
        # +inf is the horizon of a one-sample trace, which covers all time
        # (test_cli_io's test_single_sample_trace_covers_everything)
        if (name, value) != ("CiTrace.horizon_s", math.inf)
    ],
)
def test_validators_reject_non_finite_numbers(field, value):
    build = FINITE_FIELDS[field]
    build(1.0)  # the same object with a finite value is valid
    with pytest.raises(ValidationFailure):
        build(value)


def test_sim_config_reports_every_failed_check_in_order():
    with pytest.raises(SimConfigError) as info:
        SimConfig(
            mode="batch", horizon_s=10.0, policy="sometimes", step_s=0.0, tokens_per_request=0, idle_power_w=-1.0
        )
    assert info.value.failures == [
        ("step_s", "must be finite and > 0, got 0.0"),
        ("policy", "unknown policy 'sometimes'"),
        ("idle_power_w", "must be finite and >= 0, got -1.0"),
        ("tokens_per_request", "must be >= 1, got 0"),
    ]
    assert str(info.value) == (
        "step_s: must be finite and > 0, got 0.0; policy: unknown policy 'sometimes'; "
        "idle_power_w: must be finite and >= 0, got -1.0; tokens_per_request: must be >= 1, got 0"
    )


# ---------------------------------------------------------------------------
# lookup table validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: CiTrace(((0.0, 1.0), (0.0, 2.0)), 10.0), "CiTrace timestamps must be strictly increasing",
                     id="trace.repeated_time"),
        pytest.param(lambda: CiTrace(((0.0, -1.0),), 10.0), "carbon intensity must be finite and >= 0",
                     id="trace.negative_ci"),
        pytest.param(lambda: CiTrace(((0.0, 1.0), (50.0, 2.0)), 10.0),
                     "horizon_s must be a number covering the last sample", id="trace.short_horizon"),
        pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0), (2, 0): (4.0, 1.5)}),
                     "latency must be non-decreasing in batch size (freq 0)", id="table.latency"),
        pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0), (2, 0): (6.0, 2.5)}),
                     "energy per inference must be non-increasing in batch size (freq 0)", id="table.energy"),
        pytest.param(lambda: ExecLookupTable({(2, 0): (5.0, 1.0)}), "ExecLookupTable must contain batch size 1",
                     id="table.no_batch_one"),
        pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0), (1, 1): (4.0, 1.2), (2, 0): (6.0, 1.8)}),
                     "table is not rectangular: missing (b=2, f=1)", id="table.not_rectangular"),
        pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0)}, {1: (1.0, 1.0), 2: (2.5, 1.0)}),
                     "throughput scale for k=2 must be in (0, k]", id="concurrency.throughput_scale"),
        pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0)}, {1: (1.0, 1.0), 2: (1.5, 0.8)}),
                     "power scale for k=2 must be finite and >= 1", id="concurrency.power_scale"),
        # a dispatch runs as many streams as the groups it carves, any number up
        # to the one chosen, so each must have its scales
        *(
            pytest.param(lambda counts=counts: ExecLookupTable({(1, 0): (5.0, 1.0)}, dict.fromkeys(counts, (1.0, 1.0))),
                         f"stream counts must run from 1 to K with no gap, got {list(counts)}",
                         id=f"concurrency.streams{list(counts)}")
            for counts in [(1, 3), (2,), (0, 1)]
        ),
    ],
)
def test_a_trace_or_table_refuses_with_its_message(build, message):
    with pytest.raises(ValidationFailure, match=f"^{re.escape(message)}$"):
        build()


# ---------------------------------------------------------------------------
# policy operations
# ---------------------------------------------------------------------------


def test_choose_batch_examples():
    table = ExecLookupTable(entries={(1, 0): (5.0, 1.0), (4, 0): (12.0, 2.0)})
    assert choose_batch(10, table, deadline_ms=1e9, elapsed_wait_ms=0.0, freq_idx=0) == 4
    assert choose_batch(10, table, deadline_ms=10.0, elapsed_wait_ms=0.0, freq_idx=0) == 1
    assert choose_batch(1, table, deadline_ms=1e9, elapsed_wait_ms=0.0, freq_idx=0) == 1
    # nothing feasible still dispatches a single request
    assert choose_batch(10, table, deadline_ms=1.0, elapsed_wait_ms=0.0, freq_idx=0) == 1


def test_choose_frequency_examples():
    table = ExecLookupTable(entries={(1, 0): (10.0, 1.0), (1, 1): (6.0, 1.5)})
    levels = range(table.n_freqs)
    assert choose_frequency(1, table, deadline_ms=8.0, elapsed_wait_ms=0.0, levels=levels) == 1
    assert choose_frequency(1, table, deadline_ms=12.0, elapsed_wait_ms=0.0, levels=levels) == 0
    assert choose_frequency(1, table, deadline_ms=5.0, elapsed_wait_ms=0.0, levels=levels) == 1  # best effort


def test_choose_batch_matches_brute_force_on_random_tables():
    rng = random.Random(23)
    for _ in range(300):
        table = random_exec_table(rng)
        queue_len = rng.randint(1, 12)
        f = rng.randrange(table.n_freqs)
        deadline = rng.uniform(1.0, 40.0)
        wait = rng.uniform(0.0, 10.0)
        assert choose_batch(queue_len, table, deadline, wait, f) == brute_force_batch(
            queue_len, table, deadline, wait, f
        )


def test_choose_frequency_matches_brute_force_on_random_tables():
    rng = random.Random(29)
    for _ in range(300):
        table = random_exec_table(rng)
        b = rng.choice(table.batch_sizes)
        deadline = rng.uniform(1.0, 40.0)
        wait = rng.uniform(0.0, 10.0)
        assert choose_frequency(b, table, deadline, wait, range(table.n_freqs)) == brute_force_frequency(
            b, table, deadline, wait
        )


def test_choose_frequency_matches_brute_force_on_random_level_subsets():
    rng = random.Random(31)
    for _ in range(300):
        table = random_exec_table(rng, n_freqs=rng.randint(1, 5))
        levels = sorted(rng.sample(range(table.n_freqs), rng.randint(1, table.n_freqs)))
        b = rng.choice(table.batch_sizes)
        deadline = rng.uniform(1.0, 40.0)
        wait = rng.uniform(0.0, 10.0)
        meeting = [f for f in levels if table.latency_ms(b, f) + wait <= deadline]
        expected = min(meeting) if meeting else max(levels)
        assert choose_frequency(b, table, deadline, wait, levels) == expected


def test_exec_table_holds_its_stream_counts_and_compares_its_inputs():
    entries = {(1, 0): (5.0, 1.0), (2, 0): (6.0, 1.5)}
    table = ExecLookupTable(entries, {3: (2.0, 1.5), 1: (1.0, 1.0), 2: (1.5, 1.2)})
    assert tuple(sorted(table.concurrency)) == (1, 2, 3)
    assert table.batch_sizes == (1, 2) and table.n_freqs == 1
    assert ExecLookupTable(entries) == ExecLookupTable(dict(entries), {1: (1.0, 1.0)})
    assert ExecLookupTable(entries) != table


def test_choose_concurrency_ratio_rule():
    table = ExecLookupTable(
        entries={(1, 0): (5.0, 1.0)}, concurrency={1: (1.0, 1.0), 2: (1.8, 1.5)}
    )
    assert choose_concurrency(2, table) == 2  # 1.2 beats 1.0
    assert choose_concurrency(1, table) == 1  # single active model
    losing = ExecLookupTable(
        entries={(1, 0): (5.0, 1.0)}, concurrency={1: (1.0, 1.0), 2: (1.2, 1.5)}
    )
    assert choose_concurrency(5, losing) == 1


def test_ci_level_terciles():
    assert ci_level_of(100.0, 100.0, 400.0) == "low"
    assert ci_level_of(250.0, 100.0, 400.0) == "mid"
    assert ci_level_of(390.0, 100.0, 400.0) == "high"
    assert ci_level_of(5.0, 5.0, 5.0) == "low"


def test_llm_select_policy():
    choice = llm_select(LLM_VARIANTS, 20.0, "low", 25.0)
    assert (choice.variant.name, choice.freq_idx, choice.tps_violated) == ("big", 1, False)
    # high grid intensity forbids the top-precision variant
    choice = llm_select(LLM_VARIANTS, 20.0, "high", 25.0)
    assert choice.variant.name == "mid"
    assert not choice.tps_violated
    # unreachable rate floor falls back to the fastest power-feasible option
    choice = llm_select(LLM_VARIANTS, 9.0, "low", 100.0)
    assert choice.tps_violated
    assert choice.variant.power_w[choice.freq_idx] <= 9.0
    with pytest.raises(InfeasibleError, match="no variant runs under 1.0 W at any frequency"):
        llm_select(LLM_VARIANTS, 1.0, "low", 10.0)


def brute_force_llm_select(variants, power_threshold_w, ci_level, tps_floor):
    """First adequate (variant, freq) pair in list order; else the fastest pair
    under the cap, the first of equals; None when no pair fits the cap."""
    allowed = variants[1:] if ci_level == "high" and len(variants) > 1 else variants
    pairs = [(v, f) for v in allowed for f in range(len(v.tokens_per_s))]
    under = [(v, f) for v, f in pairs if v.power_w[f] <= power_threshold_w]
    adequate = [(v, f) for v, f in under if v.tokens_per_s[f] >= tps_floor]
    if adequate:
        return adequate[0] + (False,)
    if not under:
        return None
    return max(under, key=lambda pair: pair[0].tokens_per_s[pair[1]]) + (True,)


def test_llm_select_matches_brute_force_on_random_variant_lists():
    rng = random.Random(47)
    seen = Counter()
    for _ in range(2000):
        n_freqs = rng.randint(1, 3)
        variants = tuple(
            LlmVariant(
                f"v{i}",
                1.0 - 0.1 * i,
                # small value grids, so equal rates and powers are common
                tuple(float(rng.randint(1, 6) * 10) for _ in range(n_freqs)),
                tuple(float(rng.randint(1, 6)) for _ in range(n_freqs)),
            )
            for i in range(rng.randint(1, 4))
        )
        threshold = float(rng.randint(0, 6))
        level = rng.choice(("low", "mid", "high"))
        floor = float(rng.randint(1, 7) * 10)
        expected = brute_force_llm_select(variants, threshold, level, floor)
        if expected is None:
            with pytest.raises(InfeasibleError, match=f"no variant runs under {threshold} W at any frequency"):
                llm_select(variants, threshold, level, floor)
            seen["none"] += 1
            continue
        choice = llm_select(variants, threshold, level, floor)
        assert (choice.variant, choice.freq_idx, choice.tps_violated) == expected
        seen["violated" if choice.tps_violated else "adequate"] += 1
        if choice.tps_violated:
            rates = [
                v.tokens_per_s[f]
                for v in variants[1 if level == "high" and len(variants) > 1 else 0 :]
                for f in range(n_freqs)
                if v.power_w[f] <= threshold
            ]
            seen["tie"] += rates.count(choice.variant.tokens_per_s[choice.freq_idx]) > 1
        if level == "high" and len(variants) > 1:
            seen["excluded"] += brute_force_llm_select(variants, threshold, "low", floor)[0] is variants[0]
    assert all(seen[key] > 50 for key in ("none", "violated", "adequate", "tie", "excluded"))


def test_llm_variant_order_validation():
    with pytest.raises(ValidationFailure):
        llm_select(tuple(reversed(LLM_VARIANTS)), 20.0, "low", 10.0)


# ---------------------------------------------------------------------------
# run_simulation: accounting
# ---------------------------------------------------------------------------


def test_zero_arrivals_zero_idle_power_is_all_zero():
    config = batch_config(idle_power_w=0.0)
    report = run_simulation(
        config, flat_trace(250.0, 120.0), TraceArrivals((), ()), table=TWO_FREQ_TABLE
    )
    assert report.total_energy_kwh == 0.0
    assert report.operational_g == 0.0
    assert report.inferences_done == 0
    assert report.deadline_misses == 0


def test_constant_ci_constant_power_closed_form():
    # idle-only run: constant 2 W for 2 hours at 300 g/kWh -> 300 * 0.002 * 2 g
    config = batch_config(idle_power_w=2.0, horizon_s=7200.0)
    report = run_simulation(
        config, flat_trace(300.0, 7200.0), TraceArrivals((), ()), table=TWO_FREQ_TABLE
    )
    assert report.total_energy_kwh == pytest.approx(2.0 * 7200.0 / J_PER_KWH, rel=1e-9)
    assert report.operational_g == pytest.approx(300.0 * 2.0 * 7200.0 / J_PER_KWH, rel=1e-9)


def test_trace_exhausted():
    config = batch_config(horizon_s=100.0)
    with pytest.raises(ValidationFailure, match="horizon 100.0 s exceeds trace coverage 50.0 s"):
        run_simulation(config, flat_trace(100.0, 50.0), TraceArrivals((), ()), table=TWO_FREQ_TABLE)


def assert_totals_recompute_from_log(report) -> None:
    energy_j = sum(
        ev.detail["energy_j"] for ev in report.decision_log if ev.kind in ("dispatch", "idle", "power")
    )
    grams = sum(
        ev.detail["energy_j"] / J_PER_KWH * ev.detail["ci"]
        for ev in report.decision_log
        if ev.kind in ("dispatch", "idle", "power")
    )
    assert report.total_energy_kwh == pytest.approx(energy_j / J_PER_KWH, rel=1e-9)
    assert report.operational_g == pytest.approx(grams, rel=1e-9)


def test_energy_and_grams_recomputable_from_decision_log():
    config = batch_config()
    arrivals = PoissonArrivals(rate_per_s=3.0, seed=7)
    report = run_simulation(config, two_level_trace(100.0, 500.0, 60.0), arrivals, table=TWO_FREQ_TABLE)
    assert_totals_recompute_from_log(report)


@pytest.mark.parametrize("deadline_ms, groups", [(45.0, 2), (60.0, 1)])
def test_a_power_gated_dispatch_carves_its_queue_once(monkeypatch, deadline_ms, groups):
    # two kinds queued run two streams, and under a 1 W cap neither the carve
    # nor its first group alone fits: the one-stream retry reuses that group,
    # so each group costs one choose_batch call (a 45 ms deadline carves the
    # two requests into two groups of 1, a 60 ms one into a single group of 2)
    calls = []
    monkeypatch.setattr(runtime_sim, "choose_batch", lambda *args: calls.append(args) or choose_batch(*args))
    config = batch_config(horizon_s=1.0, deadline_ms=deadline_ms, policy="static", p_min_w=1.0, p_max_w=1.0)
    arrivals = TraceArrivals((0.0, 0.0), ("a", "b"))
    report = run_simulation(config, flat_trace(100.0, 1.0), arrivals, table=TWO_FREQ_TABLE)
    assert [ev.kind for ev in report.decision_log] == ["adapt", "power_gated", "idle"]
    assert len(calls) == groups


def test_power_gated_requests_stay_queued_until_the_threshold_rises():
    # at high CI the threshold drops to p_min_w = 4 W, under the 5 W that the
    # table draws at its lowest frequency: nothing can dispatch
    config = batch_config(p_min_w=4.0)
    arrivals = PoissonArrivals(rate_per_s=3.0, seed=7)
    report = run_simulation(config, two_level_trace(100.0, 500.0, 60.0), arrivals, table=TWO_FREQ_TABLE)
    gated = [ev for ev in report.decision_log if ev.kind == "power_gated"]
    assert gated
    assert all(ev.detail["threshold_w"] == 4.0 for ev in gated)
    assert all(15.0 <= ev.t_s < 30.0 or ev.t_s >= 45.0 for ev in gated)
    dispatches = [ev for ev in report.decision_log if ev.kind == "dispatch"]
    assert all(ev.t_s < 15.0 or 30.0 <= ev.t_s < 45.0 for ev in dispatches)
    served = [a for ev in dispatches for a in ev.detail["arrivals"]]
    assert len(served) == report.inferences_done
    # requests held through the first high quarter are served once CI falls;
    # those of the last one are still queued at the horizon
    arrived = arrivals.columns(config.horizon_s)[0]
    assert any(15.0 <= a < 30.0 for a in arrived)
    assert sorted(served) == [a for a in arrived if a < 45.0]
    assert_totals_recompute_from_log(report)


def test_report_accounts_for_requests_queued_at_the_horizon():
    # the power-gated scenario above: the last quarter's arrivals stay queued
    config = batch_config(p_min_w=4.0)
    arrivals = PoissonArrivals(rate_per_s=3.0, seed=7)
    report = run_simulation(config, two_level_trace(100.0, 500.0, 60.0), arrivals, table=TWO_FREQ_TABLE)
    arrived = arrivals.columns(config.horizon_s)[0]
    assert report.arrivals_total == len(arrived)
    assert report.backlog_at_horizon == sum(1 for a in arrived if a >= 45.0) > 0
    assert report.arrivals_total == report.inferences_done + report.backlog_at_horizon
    # the queue held through the first gated quarter was longer still
    assert report.max_queue_len > report.backlog_at_horizon
    keys = list(sim_report_to_dict(report))
    assert keys[-4:] == ["arrivals_total", "backlog_at_horizon", "max_queue_len", "decision_log_file"]


@pytest.mark.parametrize("kinds", ["aaaaabaaaaaa", "abababaaaa"], ids=["one-b", "interleaved"])
def test_stream_count_follows_the_queued_kinds(kinds):
    # every request arrives at t=0; two streams beat one in this table
    # (1.8 / 1.5 > 1), but only while two kinds are queued. No batch meets
    # the 30 ms deadline, so each stream serves one request per dispatch.
    arrivals = TraceArrivals((0.0,) * len(kinds), tuple(kinds))
    config = batch_config(idle_power_w=0.0, horizon_s=10.0, deadline_ms=30.0)
    report = run_simulation(config, flat_trace(250.0, 10.0), arrivals, table=TWO_FREQ_TABLE)
    assert report.inferences_done == len(kinds)
    served = 0
    streams = []
    for ev in report.decision_log:
        if ev.kind != "dispatch":
            continue
        queued = set(kinds[served:])
        streams.append(ev.detail["streams"])
        assert ev.detail["streams"] == (2 if queued == {"a", "b"} else 1)
        served += sum(ev.detail["batches"])
    assert streams[0] == 2 and streams[-1] == 1
    assert served == len(kinds)


def test_mapping_mode_has_no_request_queue():
    layers = ("l0", "l1")
    cpu = make_unit("cpu0", "CPU", layers, base_latency_ms=4.0, base_power_w=3.0)
    node = EdgeNode(units=(cpu,), transfer_bytes_per_ms=1e5)
    config = SimConfig(mode="mapping", horizon_s=10.0, p_min_w=1.0, p_max_w=16.0)
    report = run_simulation(
        config, flat_trace(200.0, 10.0), PoissonArrivals(rate_per_s=5.0),
        node=node, workloads=[make_variant("m", layers)], search_params=SearchParams(rng_seed=0),
    )
    assert report.inferences_done > 0
    assert (report.arrivals_total, report.backlog_at_horizon, report.max_queue_len) == (0, 0, 0)


def test_operational_grams_consistent_with_carbon_model():
    config = batch_config()
    arrivals = PoissonArrivals(rate_per_s=3.0, seed=7)
    report = run_simulation(config, two_level_trace(100.0, 500.0, 60.0), arrivals, table=TWO_FREQ_TABLE)
    grams = sum(operational_carbon(s.ci, s.energy_kwh * J_PER_KWH) for s in report.steps)
    assert report.operational_g == pytest.approx(grams, rel=1e-9)


def test_deadline_misses_have_matching_logged_executions():
    config = batch_config(deadline_ms=45.0)
    arrivals = PoissonArrivals(rate_per_s=4.0, seed=13)
    report = run_simulation(config, two_level_trace(100.0, 500.0, 60.0), arrivals, table=TWO_FREQ_TABLE)
    deadline_s = config.deadline_ms / 1000.0
    recomputed = 0
    for ev in report.decision_log:
        if ev.kind != "dispatch":
            continue
        completion = ev.detail["completion_s"]
        late = sum(1 for a in ev.detail["arrivals"] if completion > a + deadline_s)
        assert ev.detail["misses"] == late  # no phantom misses
        recomputed += late
    assert report.deadline_misses == recomputed
    assert report.deadline_misses <= report.inferences_done


@pytest.mark.parametrize("mode, n_requests", [("batch", 1), ("batch", 2), ("llm", 1)])
def test_a_dispatch_done_exactly_at_its_deadline_misses_nothing(mode, n_requests):
    # every dispatch takes 250 ms, exact in binary, and the first starts at
    # the arrivals, at 0.0: a 249 ms deadline is missed by every request (one
    # per dispatch), a 250 ms one by none (all in one dispatch)
    table = ExecLookupTable({(1, 0): (250.0, 1.0), (2, 0): (250.0, 2.0)})
    variants = (LlmVariant("only", 0.9, (16.0,), (2.0,)),)
    kwargs = {"llm_variants": variants} if mode == "llm" else {"table": table}
    arrivals = TraceArrivals((0.0,) * n_requests, ("default",) * n_requests)
    for deadline_ms, misses in ((249.0, n_requests), (250.0, 0)):
        config = SimConfig(
            mode=mode, horizon_s=1.0, policy="static", deadline_ms=deadline_ms, tokens_per_request=4, tps_floor=1.0
        )
        report = run_simulation(config, flat_trace(100.0, 1.0), arrivals, **kwargs)
        dispatches = [ev for ev in report.decision_log if ev.kind == "dispatch"]
        assert {ev.duration_s for ev in dispatches} == {0.25} and report.inferences_done == n_requests
        assert report.deadline_misses == sum(ev.misses for ev in dispatches) == misses


def test_dispatch_power_respects_threshold():
    config = batch_config()
    arrivals = PoissonArrivals(rate_per_s=5.0, seed=19)
    report = run_simulation(config, two_level_trace(100.0, 500.0, 120.0), arrivals, table=TWO_FREQ_TABLE)
    threshold = math.inf
    for ev in report.decision_log:
        if ev.kind == "adapt":
            threshold = ev.detail["threshold_w"]
        elif ev.kind == "dispatch":
            assert ev.detail["power_w"] <= threshold + 1e-9


def reference_capped_frequency(
    table: ExecLookupTable,
    batches: list[int],
    streams: int,
    wait_ms: float,
    deadline_ms: float,
    cap_w: float,
) -> int | None:
    """Lowest frequency whose group power fits the cap and whose first batch
    meets the deadline; else the highest that fits the cap; None if none fits."""
    _, p_scale = table.concurrency[streams]
    fits = [
        f
        for f in range(table.n_freqs)
        if sum(table.entries[(b, f)][1] for b in batches) * 1000.0
        / sum(table.latency_ms(b, f) for b in batches)
        * p_scale
        <= cap_w
    ]
    meets = [f for f in fits if table.latency_ms(batches[0], f) + wait_ms <= deadline_ms]
    return min(meets) if meets else max(fits, default=None)


def test_capped_dispatches_match_the_reference_frequency_on_random_runs():
    rng = random.Random(43)
    dispatches = fallbacks = multi_stream = gated = 0
    for _ in range(40):
        table = random_exec_table(rng, n_freqs=rng.randint(2, 4))
        # shuffled frequency levels: power and latency need not be monotone
        # in the level, so the cap can rule out a level between two that fit
        order = rng.sample(range(table.n_freqs), table.n_freqs)
        table = ExecLookupTable(
            {(b, order[f]): cost for (b, f), cost in table.entries.items()}, table.concurrency
        )
        top = table.n_freqs - 1
        top_powers = [table.entries[(b, top)][1] * 1000.0 / table.latency_ms(b, top) for b in table.batch_sizes]
        # p_max_w lies between the lowest and the highest top-frequency power
        # of one batch, and p_min_w under the lowest: the cap often forces a
        # frequency other than the one the deadline asks for, or gates
        config = batch_config(
            horizon_s=20.0,
            idle_power_w=0.0,
            deadline_ms=rng.uniform(5.0, 60.0),
            p_min_w=rng.uniform(0.5, 1.0) * min(top_powers) / 2,
            p_max_w=rng.uniform(min(top_powers), max(top_powers)),
        )
        times = sorted(rng.sample(range(1, 20), 5))
        trace = CiTrace(
            samples=tuple((float(t), rng.uniform(50.0, 500.0)) for t in [0, *times]), horizon_s=20.0
        )
        rate, seed = rng.uniform(5.0, 40.0), rng.randrange(1000)
        arrivals = TraceArrivals(*reference_poisson_arrivals(rate, seed, config.horizon_s, ("a", "b", "c")))
        arrival_times = arrivals.columns(config.horizon_s)[0]
        report = run_simulation(config, trace, arrivals, table=table)
        threshold = None
        served = 0
        for ev in report.decision_log:
            if ev.kind == "adapt":
                threshold = ev.detail["threshold_w"]
            elif ev.kind == "power_gated":
                # not even one stream serving the head batch fits the cap
                queued = bisect_right(arrival_times, ev.t_s) - served
                wait_ms = (ev.t_s - arrival_times[served]) * 1000.0
                batch = brute_force_batch(queued, table, config.deadline_ms, wait_ms, top)
                assert reference_capped_frequency(
                    table, [batch], 1, wait_ms, config.deadline_ms, threshold
                ) is None
                gated += 1
            elif ev.kind == "dispatch":
                batches, streams = ev.detail["batches"], ev.detail["streams"]
                wait_ms = (ev.t_s - ev.detail["arrivals"][0]) * 1000.0
                expected = reference_capped_frequency(
                    table, batches, streams, wait_ms, config.deadline_ms, threshold
                )
                assert ev.detail["freq_idx"] == expected
                assert ev.detail["power_w"] <= threshold
                assert len(batches) == streams
                served += len(ev.detail["arrivals"])
                dispatches += 1
                multi_stream += streams > 1
                fallbacks += expected != choose_frequency(
                    batches[0], table, config.deadline_ms, wait_ms, range(table.n_freqs)
                )
    # the over-power fallback, multi-stream groups and gating all occur
    assert dispatches > 10_000 and fallbacks > 1000 and multi_stream > 100 and gated > 50


def test_a_sink_gets_in_order_the_events_the_report_would_keep():
    config = batch_config(p_min_w=4.0)
    arrivals = PoissonArrivals(rate_per_s=3.0, seed=7)
    trace = two_level_trace(100.0, 500.0, 60.0)
    kept = run_simulation(config, trace, arrivals, table=TWO_FREQ_TABLE)
    seen = []
    streamed = run_simulation(config, trace, arrivals, table=TWO_FREQ_TABLE, emit=seen.append)
    assert [(ev.t_s, ev.kind, ev.detail) for ev in seen] == logged_events(kept)
    assert {ev.kind for ev in seen} >= {"adapt", "dispatch", "idle", "power_gated"}
    assert streamed.decision_log == []
    assert dataclasses.replace(streamed, decision_log=kept.decision_log) == kept


RECORD_TYPES = (Adapt, Remap, Power, LlmSelect, PowerGated, BatchDispatch, LlmDispatch, Idle, StepSample)


@pytest.mark.parametrize("record", RECORD_TYPES, ids=lambda record: record.__name__)
def test_a_record_made_by_position_is_the_record_its_values_build(record):
    values = tuple(range(len(record._fields)))
    made = record.make(values)
    assert type(made) is record and made == record(*values)


def test_every_record_of_a_run_holds_one_value_per_field(tmp_path, monkeypatch):
    # `make` skips the named tuple's check of the value count, so the records
    # of the demo simulate verb and of seeded queue scenarios are counted here
    records = []

    def kept(*args, emit, **kwargs):
        report = run_simulation(*args, emit=lambda ev: records.append(ev) or emit(ev), **kwargs)
        records.extend(report.steps)
        return report

    monkeypatch.setattr(cli, "run_simulation", kept)
    demo = ["--config", str(DEMO_DIR / "demo.json"), "--trace", str(DEMO_DIR / "ci_trace.csv")]
    assert cli.main(["simulate", *demo, "--arrivals", "poisson", "--out", str(tmp_path / "o")]) == 0
    rng = random.Random(2)
    for mode in ("batch", "llm") * 10:
        config, trace, columns, kwargs = random_queue_scenario(rng, mode)
        report = run_simulation(config, trace, TraceArrivals(*columns), **kwargs)
        records += report.decision_log + report.steps
    assert {type(record) for record in records} == set(RECORD_TYPES) - {Remap, Power}
    assert all(len(record) == len(type(record)._fields) for record in records)


def test_simulation_deterministic():
    config = batch_config()
    arrivals = PoissonArrivals(rate_per_s=3.0, seed=7)
    trace = two_level_trace(100.0, 500.0, 60.0)
    a = run_simulation(config, trace, arrivals, table=TWO_FREQ_TABLE)
    b = run_simulation(config, trace, arrivals, table=TWO_FREQ_TABLE)
    assert logged_events(a) == logged_events(b)
    assert a.steps == b.steps
    assert (a.total_energy_kwh, a.operational_g, a.inferences_done) == (
        b.total_energy_kwh,
        b.operational_g,
        b.inferences_done,
    )


# ---------------------------------------------------------------------------
# run_simulation: adaptation direction
# ---------------------------------------------------------------------------


def test_adaptive_policy_cuts_operational_carbon_on_two_level_trace():
    arrivals = PoissonArrivals(rate_per_s=3.0, seed=7)
    trace = two_level_trace(100.0, 500.0, 120.0)
    adaptive = run_simulation(batch_config(horizon_s=120.0), trace, arrivals, table=TWO_FREQ_TABLE)
    static = run_simulation(
        batch_config(horizon_s=120.0, policy="static"), trace, arrivals, table=TWO_FREQ_TABLE
    )
    assert adaptive.inferences_done == static.inferences_done
    assert adaptive.operational_g < static.operational_g
    assert adaptive.deadline_misses <= 0.7 * adaptive.inferences_done


def test_adaptive_policy_on_sinusoidal_trace():
    samples = tuple(
        (10.0 * i, 300.0 + 200.0 * math.sin(2 * math.pi * i / 12.0)) for i in range(12)
    )
    trace = CiTrace(samples=samples, horizon_s=120.0)
    arrivals = PoissonArrivals(rate_per_s=3.0, seed=5)
    adaptive = run_simulation(batch_config(horizon_s=120.0), trace, arrivals, table=TWO_FREQ_TABLE)
    static = run_simulation(
        batch_config(horizon_s=120.0, policy="static"), trace, arrivals, table=TWO_FREQ_TABLE
    )
    assert adaptive.operational_g < static.operational_g
    assert adaptive.deadline_misses <= 0.7 * adaptive.inferences_done
    adapt_events = [ev for ev in adaptive.decision_log if ev.kind == "adapt"]
    assert len(adapt_events) >= 2  # threshold actually moved


def reference_adapts(config: SimConfig, trace: CiTrace) -> list[tuple[float, float, str]]:
    """(t_s, threshold_w, cause) of every threshold change, straight from the
    hysteresis rule and the CI-to-threshold map."""
    adapts = []
    ci_ref = None
    t = 0.0
    while t < config.horizon_s - 1e-12:
        ci = trace.ci_at(t)
        if ci_ref is None:
            cause = "initial"
        elif config.policy == "adaptive" and hysteresis_update(
            ci_ref, ci, trace.ci_range, config.hysteresis_fraction
        ):
            cause = "ci_change"
        else:
            cause = None
        if cause:
            ci_ref = ci
            threshold = (
                ci_to_threshold(ci, trace.ci_min, trace.ci_max, config.p_min_w, config.p_max_w)
                if config.policy == "adaptive"
                else config.p_max_w
            )
            adapts.append((t, threshold, cause))
        t += min(config.step_s, config.horizon_s - t)
    return adapts


def logged_adapts(report) -> list[tuple[float, float, str]]:
    return [
        (ev.t_s, ev.detail["threshold_w"], ev.detail["cause"])
        for ev in report.decision_log
        if ev.kind == "adapt"
    ]


def test_remap_only_on_hysteresis_triggers():
    # small wiggles (< 10% of range) must not trigger re-adaptation
    samples = ((0.0, 300.0), (10.0, 310.0), (20.0, 305.0), (30.0, 300.0), (40.0, 500.0), (50.0, 100.0))
    trace = CiTrace(samples=samples, horizon_s=60.0)
    for policy, expected_times in (("adaptive", [0.0, 40.0, 50.0]), ("static", [0.0])):
        config = batch_config(horizon_s=60.0, idle_power_w=0.1, policy=policy)
        report = run_simulation(config, trace, TraceArrivals((), ()), table=TWO_FREQ_TABLE)
        assert [t for t, _, _ in logged_adapts(report)] == expected_times
        assert logged_adapts(report) == reference_adapts(config, trace)

    rng = random.Random(17)
    changes = 0
    for _ in range(60):
        horizon = rng.uniform(5.0, 80.0)
        times = sorted(rng.sample(range(int(horizon)), rng.randint(1, min(12, int(horizon)))))
        trace = CiTrace(
            samples=tuple((float(t), rng.uniform(0.0, 600.0)) for t in times),
            horizon_s=horizon,
        )
        config = batch_config(
            horizon_s=horizon,
            step_s=rng.choice([0.5, 1.0, 2.5, 7.0]),
            policy=rng.choice(["adaptive", "static"]),
            hysteresis_fraction=rng.uniform(0.0, 0.4),
        )
        report = run_simulation(config, trace, TraceArrivals((), ()), table=TWO_FREQ_TABLE)
        adapts = logged_adapts(report)
        assert adapts == reference_adapts(config, trace)
        changes += len(adapts) - 1
        # every step runs under the threshold of the latest change
        thresholds = {t: w for t, w, _ in adapts}
        current = None
        for step in report.steps:
            current = thresholds.get(step.t_s, current)
            assert step.threshold_w == current
    assert changes >= 50  # the traces must actually move the threshold


# ---------------------------------------------------------------------------
# LLM mode
# ---------------------------------------------------------------------------


def llm_config(**overrides) -> SimConfig:
    values = dict(
        mode="llm",
        horizon_s=60.0,
        policy="adaptive",
        deadline_ms=5000.0,
        p_min_w=6.0,
        p_max_w=20.0,
        tokens_per_request=64,
        tps_floor=25.0,
    )
    values.update(overrides)
    return SimConfig(**values)


def test_llm_mode_serves_tokens_and_reports_tps():
    report = run_simulation(
        llm_config(), two_level_trace(100.0, 500.0, 60.0),
        PoissonArrivals(rate_per_s=0.5, seed=5), llm_variants=LLM_VARIANTS,
    )
    assert report.inferences_done > 0
    assert report.mean_tps > 0
    selects = [ev for ev in report.decision_log if ev.kind == "llm_select"]
    assert selects, "variant selection must be logged"
    # the high-CI half forces a fallback away from the top-precision variant
    assert any(ev.detail["variant"] != "big" for ev in selects)
    assert any(ev.detail["variant"] == "big" for ev in selects)


@pytest.mark.parametrize("tps_floor", [0.0, *NON_FINITE])
def test_llm_mode_needs_a_finite_positive_tps_floor(tps_floor):
    with pytest.raises(ValidationFailure):
        run_simulation(
            llm_config(tps_floor=tps_floor), flat_trace(100.0, 60.0),
            PoissonArrivals(rate_per_s=0.5), llm_variants=LLM_VARIANTS,
        )


def test_llm_mode_ignores_the_request_kinds():
    # the same arrival times under one kind and under interleaved kinds; the
    # run is overloaded and moves between variants, and some requests miss
    # their deadline
    times = tuple(PoissonArrivals(rate_per_s=2.0, seed=3).columns(60.0)[0])
    reports = [
        run_simulation(
            llm_config(deadline_ms=3000.0), two_level_trace(100.0, 500.0, 60.0),
            TraceArrivals(times, tuple(labels[i % len(labels)] for i in range(len(times)))),
            llm_variants=LLM_VARIANTS,
        )
        for labels in (("a",), ("a", "b", "c"), ("b", "b", "a"))
    ]
    assert reports[0].backlog_at_horizon > 0
    assert 0 < reports[0].deadline_misses < reports[0].inferences_done
    assert len({ev.detail["variant"] for ev in reports[0].decision_log if ev.kind == "llm_select"}) > 1
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


def test_llm_adaptive_saves_carbon_vs_static():
    arrivals = PoissonArrivals(rate_per_s=0.5, seed=9)
    trace = two_level_trace(100.0, 500.0, 120.0)
    adaptive = run_simulation(llm_config(horizon_s=120.0), trace, arrivals, llm_variants=LLM_VARIANTS)
    static = run_simulation(
        llm_config(horizon_s=120.0, policy="static"), trace, arrivals, llm_variants=LLM_VARIANTS
    )
    assert adaptive.operational_g < static.operational_g


# ---------------------------------------------------------------------------
# mapping mode
# ---------------------------------------------------------------------------


def test_mapping_mode_continuous_flow():
    layers = ("l0", "l1", "l2")
    cpu = make_unit("cpu0", "CPU", layers, base_latency_ms=4.0, base_power_w=3.0)
    gpu = make_unit("gpu0", "GPU", layers, base_latency_ms=2.0, base_power_w=6.0)
    node = EdgeNode(units=(cpu, gpu), transfer_bytes_per_ms=1e5)
    variant = make_variant("m", layers)
    config = SimConfig(
        mode="mapping", horizon_s=30.0, policy="adaptive", deadline_ms=100.0,
        p_min_w=5.0, p_max_w=16.0,
    )
    report = run_simulation(
        config, two_level_trace(100.0, 500.0, 30.0), None,
        node=node, workloads=[variant], search_params=SearchParams(rng_seed=0),
    )
    assert report.inferences_done > 0
    remaps = [ev for ev in report.decision_log if ev.kind == "remap"]
    assert len(remaps) >= 2  # re-planned when the threshold moved
    for ev in report.decision_log:
        if ev.kind == "power":
            assert ev.detail["power_w"] <= config.p_max_w + 1e-9


@pytest.mark.parametrize("deadline_ms, misses", [(5.0, 3629), (9.0, 1129), (100.0, 0)])
def test_mapping_mode_misses_follow_each_remaps_deadline_verdict(deadline_ms, misses):
    layers = ("l0", "l1", "l2")
    cpu = make_unit("cpu0", "CPU", layers, base_latency_ms=4.0, base_power_w=3.0)
    gpu = make_unit("gpu0", "GPU", layers, base_latency_ms=2.0, base_power_w=6.0)
    node = EdgeNode(units=(cpu, gpu), transfer_bytes_per_ms=1e5)
    variant = make_variant("m", layers)
    config = SimConfig(
        mode="mapping", horizon_s=30.0, policy="adaptive", deadline_ms=deadline_ms,
        p_min_w=5.0, p_max_w=16.0,
    )
    report = run_simulation(
        config, two_level_trace(100.0, 500.0, 30.0), None,
        node=node, workloads=[variant], search_params=SearchParams(rng_seed=0),
    )
    remaps = [(ev.t_s, ev.detail["power_w"]) for ev in report.decision_log if ev.kind == "remap"]
    assert remaps == [(0.0, 7.0), (8.0, 4.0), (15.0, 7.0), (23.0, 4.0)]
    # At 16 W every layer runs on the GPU at 7 W, at 5 W on the CPU at 4 W.
    # The slowest stage is the third layer plus the 0.4 ms transfer into it:
    # 6.4 ms on the GPU, 12.4 ms on the CPU.
    bottleneck_ms = {7.0: 6.4, 4.0: 12.4}
    expected_misses = 0.0
    for ev in report.decision_log:
        if ev.kind == "remap":
            throughput = ev.detail["throughput"]
            late = bottleneck_ms[ev.detail["power_w"]] > deadline_ms
        elif ev.kind == "power" and late:
            expected_misses += throughput * 1.0
    assert report.inferences_done == 3629
    assert report.deadline_misses == misses == int(expected_misses)


def reference_mapping_log(config, trace, workloads, node, params, sample_s):
    """The mapping-mode log, as (t_s, kind, detail) tuples, from one
    search_mapping per threshold, for a trace whose every sample jumps
    across the hysteresis band and holds for sample_s steps of 1 s."""
    log = []
    for t_s, ci in trace.samples:
        threshold = ci_to_threshold(ci, trace.ci_min, trace.ci_max, config.p_min_w, config.p_max_w)
        solution = search_mapping(workloads, node, threshold, params)
        power_w = solution.estimate.power_w
        log.append((t_s, "adapt", {"threshold_w": threshold, "ci": ci, "cause": "ci_change" if t_s else "initial"}))
        log.append((t_s, "remap", {
            "power_w": power_w,
            "throughput": solution.estimate.throughput_inf_per_s,
            "segments": sum(map(len, solution.plans)),
        }))
        log += [(t_s + k, "power", {"energy_j": power_w * 1.0, "power_w": power_w, "ci": ci}) for k in range(sample_s)]
    return log


def test_mapping_mode_remaps_as_search_mapping_at_each_threshold(monkeypatch):
    # two-DNN instances whose candidates are sampled, on traces that force a
    # re-plan at every sample; the run prepares its search once
    prepares = []
    prepare = runtime_sim.prepare_mapping
    monkeypatch.setattr(runtime_sim, "prepare_mapping", lambda *args: prepares.append(args) or prepare(*args))
    rng = random.Random(64)
    runs = infeasible = 0
    while runs < 8:
        workloads, node = random_scheduler_instance(rng, n_layers=5, n_units=3, n_freqs=2)
        if len(workloads) < 2:
            continue
        params = SearchParams(
            beam_width=rng.choice((1, 4)),
            local_search_moves=rng.choice((0, 50)),
            max_segments=3,
            candidate_cap=16,
            rng_seed=rng.randrange(1000),
        )
        samples = tuple(
            (5.0 * k, rng.uniform(50.0, 150.0) if k % 2 == 0 else rng.uniform(450.0, 550.0)) for k in range(12)
        )
        trace = CiTrace(samples, horizon_s=60.0)
        config = SimConfig(mode="mapping", horizon_s=60.0, p_min_w=rng.uniform(6.0, 10.0), p_max_w=rng.uniform(10.0, 16.0))
        prepares.clear()
        try:
            expected = reference_mapping_log(config, trace, workloads, node, params, 5)
        except NoFeasiblePlan:
            with pytest.raises(NoFeasiblePlan):
                run_simulation(config, trace, None, node=node, workloads=workloads, search_params=params)
            infeasible += 1
            continue
        report = run_simulation(config, trace, None, node=node, workloads=workloads, search_params=params)
        assert logged_events(report) == expected
        assert len(prepares) == 1
        runs += 1
    assert infeasible >= 1
