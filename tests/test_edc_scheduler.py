"""Scheduler tests: segment costs, estimates, search vs oracle, CI adaptation."""

import random

import pytest

from edcarb.edc_scheduler import (
    ClassBins,
    EdgeNode,
    MappingPlan,
    MissingProfileEntry,
    ModelVariant,
    ModelVariantSet,
    NoFeasiblePlan,
    NoVariantAboveAccuracyFloor,
    ProcessingUnit,
    SearchParams,
    Segment,
    UnitKind,
    VariantLayer,
    ci_to_threshold,
    classified_estimator,
    classify,
    hysteresis_update,
    plan_bottleneck_ms,
    point_estimate,
    search_mapping,
    segment_cost,
    select_variant,
    system_estimate,
    validate_plan,
)
from edcarb.errors import ValidationFailure

from support import (
    exhaustive_mapping_ipw,
    make_unit,
    make_variant,
    random_scheduler_instance,
)

LAYERS = ("l0", "l1", "l2")


def simple_node(**overrides) -> EdgeNode:
    cpu = make_unit("cpu0", "CPU", LAYERS, base_latency_ms=4.0, base_power_w=3.0)
    gpu = make_unit("gpu0", "GPU", LAYERS, base_latency_ms=2.0, base_power_w=6.0)
    values = dict(units=(cpu, gpu), transfer_bytes_per_ms=1e5)
    values.update(overrides)
    return EdgeNode(**values)


# ---------------------------------------------------------------------------
# segment cost
# ---------------------------------------------------------------------------


def test_first_segment_has_no_transfer_penalty():
    node = simple_node()
    variant = make_variant("m", LAYERS)
    latency, power = segment_cost(Segment(0, 2, "cpu0", 0), variant, node)
    assert latency == pytest.approx(4.0 + 8.0)  # layer latencies only
    assert power == pytest.approx(3.0)  # max active power across layers


def test_later_segment_pays_boundary_bytes():
    node = simple_node()
    variant = make_variant("m", LAYERS, output_bytes=50_000)
    latency, _ = segment_cost(Segment(1, 3, "gpu0", 0), variant, node)
    # 50 kB over 100 kB/ms adds 0.5 ms to the two layer latencies
    assert latency == pytest.approx(4.0 + 6.0 + 0.5)


def test_transfer_penalty_monotone_in_boundary_bytes():
    node = simple_node()
    small = make_variant("s", LAYERS, output_bytes=10_000)
    large = make_variant("l", LAYERS, output_bytes=90_000)
    lat_small, _ = segment_cost(Segment(1, 3, "gpu0", 0), small, node)
    lat_large, _ = segment_cost(Segment(1, 3, "gpu0", 0), large, node)
    assert lat_large > lat_small


def test_missing_profile_entry():
    node = simple_node()
    variant = make_variant("m", ("l0", "unknown"))
    with pytest.raises(MissingProfileEntry):
        segment_cost(Segment(0, 2, "cpu0", 0), variant, node)


# ---------------------------------------------------------------------------
# system estimate
# ---------------------------------------------------------------------------


def test_throughput_is_reciprocal_bottleneck():
    node = simple_node(transfer_bytes_per_ms=1e9)  # negligible transfer cost
    variant = ModelVariant(
        "m", 0.9, (VariantLayer("l0", 1), VariantLayer("l1", 1), VariantLayer("l2", 1))
    )
    # cpu segment: l0+l1 = 12 ms is not the bottleneck; gpu l2 with ~5 ms is not either
    plan = MappingPlan("m", (Segment(0, 1, "cpu0", 0), Segment(1, 3, "gpu0", 0)))
    est = system_estimate([(variant, plan)], node)
    seg0 = segment_cost(plan.segments[0], variant, node)[0]
    seg1 = segment_cost(plan.segments[1], variant, node)[0]
    assert est.throughput_inf_per_s == pytest.approx(1000.0 / max(seg0, seg1))


def test_empty_unit_contributes_idle_power():
    node = simple_node()
    variant = make_variant("m", LAYERS)
    plan = MappingPlan("m", (Segment(0, 3, "cpu0", 0),))
    est = system_estimate([(variant, plan)], node)
    assert est.power_w == pytest.approx(3.0 + 1.0)  # cpu active max + gpu idle


def test_two_dnns_on_disjoint_units_add_throughput():
    node = simple_node()
    variant_a = make_variant("a", LAYERS)
    variant_b = make_variant("b", LAYERS)
    plan_a = MappingPlan("a", (Segment(0, 3, "cpu0", 0),))
    plan_b = MappingPlan("b", (Segment(0, 3, "gpu0", 0),))
    single = system_estimate([(variant_a, plan_a)], node)
    both = system_estimate([(variant_a, plan_a), (variant_b, plan_b)], node)
    single_b = system_estimate([(variant_b, plan_b)], node)
    assert both.throughput_inf_per_s == pytest.approx(
        single.throughput_inf_per_s + single_b.throughput_inf_per_s
    )


def test_ipw_is_throughput_over_power():
    node = simple_node()
    variant = make_variant("m", LAYERS)
    plan = MappingPlan("m", (Segment(0, 3, "gpu0", 1),))
    est = system_estimate([(variant, plan)], node)
    assert est.ipw == pytest.approx(est.throughput_inf_per_s / est.power_w)


def test_validate_plan_checks_partition():
    node = simple_node()
    variant = make_variant("m", LAYERS)
    validate_plan(MappingPlan("m", (Segment(0, 2, "cpu0", 0), Segment(2, 3, "gpu0", 1))), variant, node)
    with pytest.raises(ValidationFailure):
        validate_plan(MappingPlan("m", (Segment(0, 2, "cpu0", 0),)), variant, node)
    with pytest.raises(ValidationFailure):
        validate_plan(
            MappingPlan("m", (Segment(0, 2, "cpu0", 0), Segment(1, 3, "gpu0", 0))), variant, node
        )
    with pytest.raises(ValidationFailure):
        validate_plan(MappingPlan("m", (Segment(0, 3, "cpu0", 9),)), variant, node)


# ---------------------------------------------------------------------------
# classification estimator
# ---------------------------------------------------------------------------


def test_classify_one_hot_and_midpoint():
    bins = ClassBins((0.0, 4.0, 8.0))
    assert classify(5.2, bins) == (0.0, 1.0)
    assert point_estimate(classify(5.2, bins), bins) == pytest.approx(6.0)


def test_classify_edge_goes_to_upper_class():
    bins = ClassBins((0.0, 4.0, 8.0))
    assert classify(4.0, bins) == (0.0, 1.0)
    assert classify(0.0, bins) == (1.0, 0.0)
    # outside the span clamps to the boundary classes
    assert classify(-3.0, bins) == (1.0, 0.0)
    assert classify(99.0, bins) == (0.0, 1.0)


def test_point_estimate_of_uniform_distribution():
    bins = ClassBins((0.0, 4.0, 8.0))
    assert point_estimate((0.5, 0.5), bins) == pytest.approx(4.0)


def test_classify_round_trip_within_half_bin_width():
    rng = random.Random(9)
    edges = (0.0, 2.0, 5.0, 9.0, 20.0)
    bins = ClassBins(edges)
    for _ in range(200):
        value = rng.uniform(0.0, 20.0 - 1e-9)
        decoded = point_estimate(classify(value, bins), bins)
        idx = max(i for i in range(len(edges) - 1) if edges[i] <= value)
        half_width = (edges[idx + 1] - edges[idx]) / 2.0
        assert abs(decoded - value) <= half_width + 1e-12


def test_classified_estimator_quantizes_but_keeps_structure():
    node = simple_node()
    variant = make_variant("m", LAYERS)
    plan = MappingPlan("m", (Segment(0, 3, "gpu0", 0),))
    raw = system_estimate([(variant, plan)], node)
    bins_t = ClassBins(tuple(float(x) for x in range(0, 401, 25)))
    bins_p = ClassBins(tuple(float(x) for x in range(0, 41, 2)))
    estimator = classified_estimator(bins_t, bins_p)
    quantized = estimator(raw)
    assert abs(quantized.throughput_inf_per_s - raw.throughput_inf_per_s) <= 12.5
    assert abs(quantized.power_w - raw.power_w) <= 1.0


# ---------------------------------------------------------------------------
# threshold and hysteresis
# ---------------------------------------------------------------------------


def test_threshold_endpoints_and_midpoint():
    assert ci_to_threshold(100.0, 100.0, 500.0, 10.0, 30.0) == pytest.approx(30.0)
    assert ci_to_threshold(500.0, 100.0, 500.0, 10.0, 30.0) == pytest.approx(10.0)
    assert ci_to_threshold(300.0, 100.0, 500.0, 10.0, 30.0) == pytest.approx(20.0)


def test_threshold_clamps_and_degenerates():
    assert ci_to_threshold(50.0, 100.0, 500.0, 10.0, 30.0) == pytest.approx(30.0)
    assert ci_to_threshold(900.0, 100.0, 500.0, 10.0, 30.0) == pytest.approx(10.0)
    assert ci_to_threshold(123.0, 200.0, 200.0, 10.0, 30.0) == pytest.approx(30.0)


def test_threshold_monotone_with_full_range():
    values = [ci_to_threshold(ci, 100.0, 500.0, 10.0, 30.0) for ci in range(100, 501, 4)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert max(values) == pytest.approx(30.0)
    assert min(values) == pytest.approx(10.0)


def test_hysteresis_ten_percent_rule():
    assert not hysteresis_update(400.0, 415.0, 200.0)  # 7.5% of range
    assert hysteresis_update(400.0, 425.0, 200.0)  # 12.5% of range
    assert not hysteresis_update(400.0, 999.0, 0.0)  # degenerate forecast


def test_hysteresis_never_more_updates_than_zero_band():
    rng = random.Random(21)
    trace = [rng.uniform(100.0, 500.0) for _ in range(500)]
    def count(fraction):
        updates = 0
        ref = trace[0]
        for ci in trace[1:]:
            if hysteresis_update(ref, ci, 400.0, fraction):
                updates += 1
                ref = ci
        return updates
    assert count(0.10) <= count(0.0)


# ---------------------------------------------------------------------------
# search_mapping
# ---------------------------------------------------------------------------


def test_degenerate_space_single_plan():
    unit = make_unit("only", "CPU", ("l0",), n_freqs=1)
    node = EdgeNode(units=(unit,), transfer_bytes_per_ms=1e5)
    variant = make_variant("m", ("l0",))
    solution = search_mapping([variant], node, power_threshold_w=100.0)
    assert solution.plans == (MappingPlan("m", (Segment(0, 1, "only", 0),)),)


def test_search_matches_exhaustive_on_tiny_instances():
    rng = random.Random(4001)
    params = SearchParams(beam_width=128, candidate_cap=2048, local_search_moves=400, rng_seed=0)
    checked = 0
    for _ in range(25):
        workloads, node = random_scheduler_instance(rng)
        threshold = rng.uniform(4.0, 30.0)
        oracle = exhaustive_mapping_ipw(workloads, node, threshold)
        if oracle is None:
            with pytest.raises(NoFeasiblePlan):
                search_mapping(workloads, node, threshold, params)
            continue
        solution = search_mapping(workloads, node, threshold, params)
        assert solution.estimate.ipw == pytest.approx(oracle, rel=1e-12)
        checked += 1
    assert checked >= 15


def test_search_respects_power_threshold():
    rng = random.Random(31)
    params = SearchParams(beam_width=4, candidate_cap=64, local_search_moves=50, rng_seed=0)
    returned = 0
    for _ in range(100):
        workloads, node = random_scheduler_instance(rng)
        threshold = rng.uniform(2.0, 30.0)
        try:
            solution = search_mapping(workloads, node, threshold, params)
        except NoFeasiblePlan:
            continue
        returned += 1
        exact = system_estimate(list(zip(workloads, solution.plans)), node)
        assert exact.power_w <= threshold
        for variant, plan in zip(workloads, solution.plans):
            validate_plan(plan, variant, node)
    assert returned > 30


def test_search_infeasible_when_threshold_below_minimum():
    node = simple_node()
    variant = make_variant("m", LAYERS)
    with pytest.raises(NoFeasiblePlan):
        search_mapping([variant], node, power_threshold_w=0.5)


def test_search_deterministic():
    rng = random.Random(55)
    workloads, node = random_scheduler_instance(rng)
    params = SearchParams(rng_seed=9)
    first = search_mapping(workloads, node, 20.0, params)
    second = search_mapping(workloads, node, 20.0, params)
    assert first == second


@pytest.mark.parametrize("classified", [False, True], ids=["exact", "classified"])
def test_search_estimate_is_bit_identical_to_system_estimate(classified):
    estimator = (
        classified_estimator(
            ClassBins(tuple(float(x) for x in range(0, 2001, 50))),
            ClassBins(tuple(float(x) for x in range(0, 61, 2))),
        )
        if classified
        else None
    )
    rng = random.Random(2718)
    checked = 0
    for _ in range(20):
        workloads, node = random_scheduler_instance(rng)
        threshold = rng.uniform(4.0, 30.0)
        # without local search the estimate comes straight from the beam
        for moves in (0, 100):
            params = SearchParams(beam_width=16, candidate_cap=128, local_search_moves=moves, rng_seed=3)
            try:
                solution = search_mapping(workloads, node, threshold, params, estimator=estimator)
            except NoFeasiblePlan:
                continue
            assert solution.estimate == system_estimate(list(zip(workloads, solution.plans)), node)
            checked += 1
    assert checked >= 20


def test_search_with_classified_estimator_still_respects_threshold():
    # ranking goes through the quantizing estimator, the power filter stays exact
    estimator = classified_estimator(
        ClassBins(tuple(float(x) for x in range(0, 2001, 50))),
        ClassBins(tuple(float(x) for x in range(0, 61, 2))),
    )
    rng = random.Random(99)
    exercised = 0
    for _ in range(20):
        workloads, node = random_scheduler_instance(rng)
        threshold = rng.uniform(5.0, 25.0)
        try:
            solution = search_mapping(
                workloads, node, threshold, SearchParams(rng_seed=0), estimator=estimator
            )
        except NoFeasiblePlan:
            continue
        exact = system_estimate(list(zip(workloads, solution.plans)), node)
        assert exact.power_w <= threshold
        exercised += 1
    assert exercised >= 10


# ---------------------------------------------------------------------------
# select_variant
# ---------------------------------------------------------------------------


def variant_set() -> ModelVariantSet:
    heavy = make_variant("big", LAYERS, accuracy=0.85)
    light = ModelVariant(
        "small",
        0.75,
        (VariantLayer("s0", 1000), VariantLayer("s1", 1000)),
    )
    return ModelVariantSet("family", (heavy, light))


def node_with_light_layers() -> EdgeNode:
    # the s-layers of the light variant run an order of magnitude faster
    def profile(latencies: dict, power: float) -> dict:
        table = {}
        for lid, latency in latencies.items():
            table[(lid, 0)] = (latency, power)
            table[(lid, 1)] = (latency * 0.7, power * 1.6)
        return table

    cpu = ProcessingUnit(
        "cpu0", UnitKind.CPU, (1e9, 2e9), 1.0,
        profile({"l0": 4.0, "l1": 8.0, "l2": 12.0, "s0": 1.0, "s1": 1.2}, 3.0),
    )
    gpu = ProcessingUnit(
        "gpu0", UnitKind.GPU, (1e9, 2e9), 1.0,
        profile({"l0": 2.0, "l1": 4.0, "l2": 6.0, "s0": 0.5, "s1": 0.6}, 6.0),
    )
    return EdgeNode(units=(cpu, gpu), transfer_bytes_per_ms=1e5)


def test_heaviest_variant_kept_when_it_meets_latency():
    node = node_with_light_layers()
    choice = select_variant(variant_set(), 100.0, 0.5, node, 50.0)
    assert choice.variant.name == "big"
    assert not choice.constraint_violated


def test_downgrade_to_lighter_variant_on_tight_latency():
    node = node_with_light_layers()
    # the heavy variant's best bottleneck is > 2.5 ms, the light one fits
    choice = select_variant(variant_set(), 2.5, 0.5, node, 50.0)
    assert choice.variant.name == "small"
    assert not choice.constraint_violated
    bottleneck = plan_bottleneck_ms(choice.solution.plans[0], choice.variant, node)
    assert bottleneck <= 2.5


def test_constraint_violated_flag_when_nothing_fits():
    node = node_with_light_layers()
    choice = select_variant(variant_set(), 0.1, 0.5, node, 50.0)
    assert choice.variant.name == "small"  # lightest acceptable, best effort
    assert choice.constraint_violated


def test_accuracy_floor_above_all_variants():
    node = node_with_light_layers()
    with pytest.raises(NoVariantAboveAccuracyFloor):
        select_variant(variant_set(), 100.0, 0.99, node, 50.0)


def test_accuracy_floor_excludes_light_variant():
    node = node_with_light_layers()
    choice = select_variant(variant_set(), 2.5, 0.8, node, 50.0)
    # the light variant is below the floor, so the heavy one comes back flagged
    assert choice.variant.name == "big"
    assert choice.constraint_violated


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_profile_monotonicity_enforced():
    good = {("l0", 0): (4.0, 2.0), ("l0", 1): (3.0, 3.0)}
    ProcessingUnit("u", UnitKind.CPU, (1e9, 2e9), 0.5, good)
    latency_up = {("l0", 0): (4.0, 2.0), ("l0", 1): (5.0, 3.0)}
    with pytest.raises(ValidationFailure):
        ProcessingUnit("u", UnitKind.CPU, (1e9, 2e9), 0.5, latency_up)
    power_down = {("l0", 0): (4.0, 2.0), ("l0", 1): (3.0, 1.0)}
    with pytest.raises(ValidationFailure):
        ProcessingUnit("u", UnitKind.CPU, (1e9, 2e9), 0.5, power_down)
    incomplete = {("l0", 0): (4.0, 2.0)}
    with pytest.raises(ValidationFailure):
        ProcessingUnit("u", UnitKind.CPU, (1e9, 2e9), 0.5, incomplete)


def test_variant_set_ordering_enforced():
    a = make_variant("a", LAYERS, accuracy=0.8)
    b = make_variant("b", LAYERS, accuracy=0.9)
    with pytest.raises(ValidationFailure):
        ModelVariantSet("bad", (a, b))


def test_class_bins_validation():
    with pytest.raises(ValidationFailure):
        ClassBins((1.0,))
    with pytest.raises(ValidationFailure):
        ClassBins((1.0, 1.0))
