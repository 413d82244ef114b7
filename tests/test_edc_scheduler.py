"""Scheduler tests: segment costs, estimates, search vs oracle, CI adaptation."""

import dataclasses
import itertools
import random

import pytest

from edcarb import edc_scheduler
from edcarb.edc_scheduler import (
    EdgeNode,
    ModelVariant,
    ModelVariantSet,
    NoFeasiblePlan,
    ProcessingUnit,
    SearchParams,
    UnitKind,
    VariantLayer,
    ci_to_threshold,
    hysteresis_update,
    search_mapping,
    segment_cost,
    select_variants,
    system_estimate,
)
from edcarb.errors import ValidationFailure

from support import (
    exhaustive_mapping,
    make_unit,
    make_variant,
    plan_bottleneck_ms,
    random_scheduler_instance,
    reference_prepare_mapping,
    validate_plan,
)

LAYERS = ("l0", "l1", "l2")


def simple_node(**overrides) -> EdgeNode:
    """cpu0 (unit index 0) and gpu0 (unit index 1), both profiled for LAYERS."""
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
    latency, power = segment_cost((0, 2, 0, 0), variant, node)
    assert latency == pytest.approx(4.0 + 8.0)  # layer latencies only
    assert power == pytest.approx(3.0)  # max active power across layers


def test_later_segment_pays_boundary_bytes():
    node = simple_node()
    variant = make_variant("m", LAYERS, output_bytes=50_000)
    latency, _ = segment_cost((1, 3, 1, 0), variant, node)
    # 50 kB over 100 kB/ms adds 0.5 ms to the two layer latencies
    assert latency == pytest.approx(4.0 + 6.0 + 0.5)


def test_transfer_penalty_monotone_in_boundary_bytes():
    node = simple_node()
    small = make_variant("s", LAYERS, output_bytes=10_000)
    large = make_variant("l", LAYERS, output_bytes=90_000)
    lat_small, _ = segment_cost((1, 3, 1, 0), small, node)
    lat_large, _ = segment_cost((1, 3, 1, 0), large, node)
    assert lat_large > lat_small


# ---------------------------------------------------------------------------
# system estimate
# ---------------------------------------------------------------------------


def test_throughput_is_reciprocal_bottleneck():
    node = simple_node(transfer_bytes_per_ms=1e9)  # negligible transfer cost
    variant = ModelVariant(
        "m", 0.9, (VariantLayer("l0", 1), VariantLayer("l1", 1), VariantLayer("l2", 1))
    )
    # cpu segment: l0+l1 = 12 ms is not the bottleneck; gpu l2 with ~5 ms is not either
    plan = ((0, 1, 0, 0), (1, 3, 1, 0))
    est = system_estimate([(variant, plan)], node)
    seg0 = segment_cost(plan[0], variant, node)[0]
    seg1 = segment_cost(plan[1], variant, node)[0]
    assert est.throughput_inf_per_s == pytest.approx(1000.0 / max(seg0, seg1))


def test_empty_unit_contributes_idle_power():
    node = simple_node()
    variant = make_variant("m", LAYERS)
    plan = ((0, 3, 0, 0),)
    est = system_estimate([(variant, plan)], node)
    assert est.power_w == pytest.approx(3.0 + 1.0)  # cpu active max + gpu idle


@pytest.mark.parametrize("active_w", [0.0, 0.5])
def test_occupied_unit_below_idle_power_pays_its_active_power(active_w):
    # cpu0 draws less than its 2 W idle power; gpu0 has no profile for these
    # layers, so every plan leaves it empty at its 1 W idle power
    cpu = make_unit("cpu0", "CPU", LAYERS, n_freqs=1, base_power_w=active_w, idle_power_w=2.0)
    gpu = make_unit("gpu0", "GPU", ("other",), idle_power_w=1.0)
    node = EdgeNode(units=(cpu, gpu), transfer_bytes_per_ms=1e5)
    variants = [make_variant("a", LAYERS), make_variant("b", LAYERS)]
    plans = [((0, 3, 0, 0),)] * len(variants)
    assert system_estimate(list(zip(variants, plans)), node).power_w == active_w + 1.0
    solution = search_mapping(variants, node, 10.0, SearchParams(rng_seed=0))
    assert solution.estimate.power_w == active_w + 1.0


def test_two_dnns_on_disjoint_units_add_throughput():
    node = simple_node()
    variant_a = make_variant("a", LAYERS)
    variant_b = make_variant("b", LAYERS)
    plan_a = ((0, 3, 0, 0),)
    plan_b = ((0, 3, 1, 0),)
    single = system_estimate([(variant_a, plan_a)], node)
    both = system_estimate([(variant_a, plan_a), (variant_b, plan_b)], node)
    single_b = system_estimate([(variant_b, plan_b)], node)
    assert both.throughput_inf_per_s == pytest.approx(
        single.throughput_inf_per_s + single_b.throughput_inf_per_s
    )


def test_ipw_is_throughput_over_power():
    node = simple_node()
    variant = make_variant("m", LAYERS)
    plan = ((0, 3, 1, 1),)
    est = system_estimate([(variant, plan)], node)
    assert est.ipw == pytest.approx(est.throughput_inf_per_s / est.power_w)


def test_validate_plan_checks_partition():
    node = simple_node()
    variant = make_variant("m", LAYERS)
    validate_plan(((0, 2, 0, 0), (2, 3, 1, 1)), variant, node)
    with pytest.raises(ValidationFailure, match="do not cover"):
        validate_plan(((0, 2, 0, 0),), variant, node)
    with pytest.raises(ValidationFailure, match="contiguous"):
        validate_plan(((0, 2, 0, 0), (1, 3, 1, 0)), variant, node)
    with pytest.raises(ValidationFailure, match="freq index 9"):
        validate_plan(((0, 3, 0, 9),), variant, node)
    with pytest.raises(ValidationFailure, match="unit index 2 outside"):
        validate_plan(((0, 3, 2, 0),), variant, node)


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


# ---------------------------------------------------------------------------
# search_mapping
# ---------------------------------------------------------------------------


def test_degenerate_space_single_plan():
    unit = make_unit("only", "CPU", ("l0",), n_freqs=1)
    node = EdgeNode(units=(unit,), transfer_bytes_per_ms=1e5)
    variant = make_variant("m", ("l0",))
    solution = search_mapping([variant], node, power_threshold_w=100.0)
    assert solution.plans == (((0, 1, 0, 0),),)


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


def test_local_search_only_moves_to_a_better_plan_under_the_threshold():
    # first-improvement from the pool's best: a larger move budget follows the
    # same path further, and every accepted move raises ipw under the threshold.
    # A narrow beam and tight thresholds leave the local search room to climb.
    rng = random.Random(47)
    climbed = 0
    for _ in range(30):
        workloads, node = random_scheduler_instance(rng)
        threshold = rng.uniform(5.0, 15.0)
        try:
            path = [
                search_mapping(
                    workloads,
                    node,
                    threshold,
                    SearchParams(beam_width=2, candidate_cap=8, local_search_moves=moves, rng_seed=1),
                )
                for moves in (0, 1, 5, 50, 500)
            ]
        except NoFeasiblePlan:
            continue
        for before, after in zip(path, path[1:]):
            assert after.estimate.power_w <= threshold
            if after.plans == before.plans:
                assert after.estimate == before.estimate
            else:
                assert after.estimate.ipw > before.estimate.ipw
                climbed += 1
    assert climbed >= 10


def test_search_deterministic():
    rng = random.Random(55)
    workloads, node = random_scheduler_instance(rng)
    params = SearchParams(rng_seed=9)
    first = search_mapping(workloads, node, 20.0, params)
    second = search_mapping(workloads, node, 20.0, params)
    assert first == second


def twin_units_node() -> EdgeNode:
    """Two identical units, listed "zz" first. The top frequency is 4x as fast for 10% more power."""
    profile = {(lid, f): ((4.0, 3.0), (1.0, 3.3))[f] for lid in LAYERS for f in range(2)}
    units = tuple(ProcessingUnit(uid, UnitKind.GPU, (1e9, 2e9), 1.0, profile) for uid in ("zz", "aa"))
    return EdgeNode(units=units, transfer_bytes_per_ms=1e5)


def test_search_breaks_ties_by_position_in_the_node_not_by_unit_id():
    node = twin_units_node()
    variant = make_variant("m", LAYERS)
    # every plan on "zz" has a mirror on "aa" with the same score; a beam of
    # one keeps only the first of them
    solution = search_mapping([variant], node, 100.0, SearchParams(beam_width=1))
    assert {node.units[u].id for _, _, u, _ in solution.plans[0]} == {"zz"}
    assert solution.plans[0][0][3] == 1

    # that beam entry is over the threshold; only the two lowest-frequency
    # whole-DNN fallbacks fit under their own power
    fallback = ((0, len(LAYERS), 0, 0),)
    threshold = system_estimate([(variant, fallback)], node).power_w
    assert solution.estimate.power_w > threshold
    params = SearchParams(beam_width=1, local_search_moves=0)
    assert search_mapping([variant], node, threshold, params).plans == (fallback,)


def test_search_estimate_is_bit_identical_to_system_estimate():
    rng = random.Random(2718)
    checked = 0
    for _ in range(20):
        workloads, node = random_scheduler_instance(rng)
        threshold = rng.uniform(4.0, 30.0)
        # without local search the estimate comes straight from the beam
        for moves in (0, 100):
            params = SearchParams(beam_width=16, candidate_cap=128, local_search_moves=moves, rng_seed=3)
            try:
                solution = search_mapping(workloads, node, threshold, params)
            except NoFeasiblePlan:
                continue
            assert solution.estimate == system_estimate(list(zip(workloads, solution.plans)), node)
            checked += 1
    assert checked >= 20


def test_one_prepared_search_solves_every_threshold_as_search_mapping_does():
    # solving in shuffled order, through one segment-cost memo, gives each
    # threshold its own search_mapping result or NoFeasiblePlan
    rng = random.Random(808)
    solved = infeasible = 0
    for _ in range(40):
        workloads, node = random_scheduler_instance(rng)
        params = SearchParams(
            beam_width=rng.choice((1, 4, 16)),
            local_search_moves=rng.choice((0, 20, 200)),
            max_segments=rng.choice((1, 2, 3)),
            candidate_cap=rng.choice((4, 16, 64)),
            rng_seed=rng.randrange(1000),
        )
        thresholds = [rng.uniform(2.0, 30.0) for _ in range(6)]
        prepared = edc_scheduler.prepare_mapping(workloads, node, params)
        for threshold in rng.sample(thresholds, len(thresholds)):
            try:
                expected = search_mapping(workloads, node, threshold, params)
            except NoFeasiblePlan:
                with pytest.raises(NoFeasiblePlan):
                    prepared.solve(threshold)
                infeasible += 1
                continue
            assert prepared.solve(threshold) == expected
            solved += 1
    assert solved >= 100 and infeasible >= 10


def random_instance_with_twin_units(rng: random.Random, n_dnns: int | None = None):
    """1-3 DNNs (or `n_dnns`) of 1-4 layers on 1-3 units and a twin of one of
    them: the twin has the same profile and idle power under another id and
    position, so a plan and its mirror across the twins have the same ipw.
    One draw in four zeroes one unit's active power."""
    n_layers = rng.randint(1, 4)
    _, node = random_scheduler_instance(rng, n_layers=n_layers, n_units=rng.randint(1, 3), n_freqs=rng.randint(1, 2))
    units = list(node.units)
    if rng.random() < 0.25:
        # a unit that draws no active power: occupied, it pays 0 W, not its idle power
        k = rng.randrange(len(units))
        units[k] = dataclasses.replace(units[k], profile={key: (ms, 0.0) for key, (ms, _) in units[k].profile.items()})
    units.insert(rng.randint(0, len(units)), dataclasses.replace(rng.choice(units), id="twin"))
    workloads = [
        ModelVariant(
            f"m{d}", 0.9, tuple(VariantLayer(f"l{i}", rng.randint(10_000, 200_000)) for i in range(rng.randint(1, n_layers)))
        )
        for d in range(n_dnns or rng.randint(1, 3))
    ]
    return workloads, dataclasses.replace(node, units=tuple(units))


def test_beam_keeps_the_survivors_of_sorting_every_extension():
    # the reference folds and estimates every extension and sorts them all on
    # (-ipw, concatenated plans); twin units make many of those ipw equal
    rng = random.Random(2201)
    tied = solved = 0
    seen = set()
    for _ in range(150):
        workloads, node = random_instance_with_twin_units(rng)
        params = SearchParams(
            beam_width=rng.choice((1, 2, 3, 4, 8, 16)),
            local_search_moves=rng.choice((0, 20)),
            max_segments=rng.choice((1, 2, 3, 4)),
            candidate_cap=rng.choice((1, 4, 16, 64, 256)),
            rng_seed=rng.randrange(1000),
        )
        prepared = edc_scheduler.prepare_mapping(workloads, node, params)
        reference = reference_prepare_mapping(workloads, node, params)
        assert prepared == reference
        for threshold in [rng.uniform(2.0, 30.0) for _ in range(3)]:
            try:
                expected = reference.solve(threshold)
            except NoFeasiblePlan:
                with pytest.raises(NoFeasiblePlan):
                    prepared.solve(threshold)
                continue
            assert prepared.solve(threshold) == expected
            solved += 1
        entries = set(prepared.pool)
        tied += len({estimate.ipw for _, estimate in entries}) < len(entries)
        n_choices = sum(len(unit.freq_levels_hz) for unit in node.units)
        for variant in workloads:
            counts = edc_scheduler._cut_counts(len(variant.layers), params.max_segments)
            n_plans = sum(count * n_choices ** (k + 1) for k, count in enumerate(counts))
            seen.add((len(workloads), "sampled" if n_plans > params.candidate_cap else "enumerated"))
    assert seen == {(n, kind) for n in (1, 2, 3) for kind in ("sampled", "enumerated")}
    assert tied >= 100 and solved >= 300, (tied, solved)


def count_scored_partials(monkeypatch) -> dict[str, int]:
    """Counts, over the searches that follow, of the beam partials offered to
    the ranking and of those it scores."""
    counts = {"partials": 0, "scored": 0}
    best_extensions, scores = edc_scheduler._best_extensions, edc_scheduler._scores

    def counting_best_extensions(beam, *args):
        counts["partials"] += len(beam)
        return best_extensions(beam, *args)

    def counting_scores(*args):
        counts["scored"] += 1
        return scores(*args)

    monkeypatch.setattr(edc_scheduler, "_best_extensions", counting_best_extensions)
    monkeypatch.setattr(edc_scheduler, "_scores", counting_scores)
    return counts


def test_the_beam_skips_only_partials_whose_extensions_cannot_enter(monkeypatch):
    # small beams over many candidates fill the heap early, so later partials
    # can be bounded out (116 of 1,193 here); twin units make mirrored
    # partials whose bound equals the worst kept ipw, a quarter of the draws
    # have a 0 W unit, and half of them map 3 DNNs
    counts = count_scored_partials(monkeypatch)
    rng = random.Random(3502)
    dnn_counts = set()
    for _ in range(160):
        workloads, node = random_instance_with_twin_units(rng, n_dnns=rng.choice((None, 3)))
        params = SearchParams(
            beam_width=rng.randint(1, 8),
            local_search_moves=0,
            max_segments=rng.choice((2, 3, 4)),
            candidate_cap=rng.choice((16, 64, 256)),
            rng_seed=rng.randrange(1000),
        )
        assert edc_scheduler.prepare_mapping(workloads, node, params) == reference_prepare_mapping(workloads, node, params)
        dnn_counts.add(len(workloads))
    assert dnn_counts == {1, 2, 3}
    assert counts["partials"] - counts["scored"] >= 100, counts


def test_the_beam_scores_few_partials_of_a_search_shaped_instance(monkeypatch):
    # the search benchmark's shape: 2 DNNs of 3 layers on 3 units x 2
    # frequencies, whose 294 candidates each are all enumerated; a search
    # that stops skipping partials scores all 129, and this one scores 62
    rng = random.Random(35)
    workloads = []
    while len(workloads) != 2:
        workloads, node = random_scheduler_instance(rng, n_layers=3, n_units=3, n_freqs=2)
    params = SearchParams(beam_width=128, candidate_cap=2048, local_search_moves=400, rng_seed=0)
    counts = count_scored_partials(monkeypatch)
    prepared = edc_scheduler.prepare_mapping(workloads, node, params)
    assert counts["partials"] == 1 + 128
    assert counts["scored"] <= 62, counts
    assert prepared == reference_prepare_mapping(workloads, node, params)


def test_a_solution_carries_the_bottleneck_of_each_plan():
    # c06-shaped instances; each remap of a simulation solves one prepared
    # search at a new threshold, so the prepared path runs a threshold sequence
    rng = random.Random(606)
    params = SearchParams(beam_width=4, candidate_cap=64, local_search_moves=50, rng_seed=0)
    improved = fallback = 0
    for _ in range(150):
        workloads, node = random_scheduler_instance(rng)
        thresholds = [rng.uniform(2.0, 30.0) for _ in range(4)]
        prepared = edc_scheduler.prepare_mapping(workloads, node, params)
        pool = {plans for plans, _ in prepared.pool}
        for threshold in thresholds:
            try:
                solutions = prepared.solve(threshold), search_mapping(workloads, node, threshold, params)
            except NoFeasiblePlan:
                continue
            for solution in solutions:
                expected = tuple(plan_bottleneck_ms(p, v, node) for v, p in zip(workloads, solution.plans))
                assert solution.bottleneck_ms == expected
            plans = solutions[0].plans
            improved += plans not in pool
            u = plans[0][0][2]
            fallback += all(plan == ((0, len(v.layers), u, 0),) for v, plan in zip(workloads, plans))
    assert improved >= 1 and fallback >= 1, (improved, fallback)


@pytest.mark.parametrize("n_layers", range(1, 13))
def test_unranked_cut_pattern_is_the_listed_one(n_layers):
    for max_segments in range(1, n_layers + 2):
        masks = list(edc_scheduler._cut_masks(n_layers, max_segments))
        counts = edc_scheduler._cut_counts(n_layers, max_segments)
        assert sum(counts) == len(masks)
        assert [edc_scheduler._unrank_cuts(n_layers, counts, k) for k in range(len(masks))] == masks


def test_sampled_candidates_are_the_draws_from_the_listed_patterns(monkeypatch):
    # the draws the sampling path made when it listed every pattern and
    # picked one with rng.choice
    def listed_draws(n_layers, covering, node, params, rng):
        choices = [(u, f) for u in covering for f in range(len(node.units[u].freq_levels_hz))]
        masks = list(edc_scheduler._cut_masks(n_layers, params.max_segments))
        plans = dict.fromkeys(((0, n_layers, u, f),) for u, f in choices)
        attempts = 0
        while len(plans) < params.candidate_cap and attempts < params.candidate_cap * 10:
            attempts += 1
            cuts = rng.choice(masks)
            plans.setdefault(tuple((*span, *rng.choice(choices)) for span in itertools.pairwise(cuts)))
        return list(plans)

    rng = random.Random(5)
    sampled = 0
    for _ in range(30):
        n_layers = rng.randint(3, 9)
        workloads, node = random_scheduler_instance(rng, n_layers=n_layers)
        params = SearchParams(max_segments=rng.randint(2, n_layers), candidate_cap=rng.choice((4, 16, 64)))
        covering = list(range(len(node.units)))
        seed = rng.randrange(1000)
        expected = listed_draws(n_layers, covering, node, params, random.Random(seed))
        with monkeypatch.context() as patch:
            patch.setattr(edc_scheduler, "_cut_masks", None)  # the sampling path must not list
            try:
                found = edc_scheduler._candidate_plans(n_layers, covering, node, params, random.Random(seed))
            except TypeError:  # the candidates fit the cap, so it enumerated them
                continue
        assert found == expected
        sampled += 1
    assert sampled >= 20


def test_many_cut_patterns_are_sampled_without_listing_them(monkeypatch):
    # 20 layers at max_segments=20 have 2**19 cut patterns; one unit at one
    # frequency gives as many candidates, well above the cap
    layer_ids = tuple(f"l{i}" for i in range(20))
    node = EdgeNode(units=(make_unit("cpu0", "CPU", layer_ids, n_freqs=1),), transfer_bytes_per_ms=1e5)
    monkeypatch.setattr(edc_scheduler, "_cut_masks", None)
    solution = search_mapping([make_variant("deep", layer_ids)], node, 100.0, SearchParams(max_segments=20))
    validate_plan(solution.plans[0], make_variant("deep", layer_ids), node)


# ---------------------------------------------------------------------------
# select_variants
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


def meets(variants, solution, node: EdgeNode, latency_constraint_ms: float) -> bool:
    """Whether every model's jointly mapped plan meets the latency constraint."""
    return all(
        plan_bottleneck_ms(plan, variant, node) <= latency_constraint_ms
        for variant, plan in zip(variants, solution.plans)
    )


def test_heaviest_variant_kept_when_it_meets_latency():
    node = node_with_light_layers()
    variants, solution = select_variants([variant_set()], 100.0, 0.5, node, 50.0)
    assert [v.name for v in variants] == ["big"]
    assert meets(variants, solution, node, 100.0)


def test_downgrade_to_lighter_variant_on_tight_latency():
    node = node_with_light_layers()
    # the heavy variant's best bottleneck is > 2.5 ms, the light one fits
    variants, solution = select_variants([variant_set()], 2.5, 0.5, node, 50.0)
    assert [v.name for v in variants] == ["small"]
    assert plan_bottleneck_ms(solution.plans[0], variants[0], node) <= 2.5


def test_constraint_violated_flag_when_nothing_fits():
    node = node_with_light_layers()
    variants, solution = select_variants([variant_set()], 0.1, 0.5, node, 50.0)
    assert [v.name for v in variants] == ["small"]  # lightest acceptable, best effort
    assert not meets(variants, solution, node, 0.1)


def test_accuracy_floor_excludes_light_variant():
    node = node_with_light_layers()
    variants, solution = select_variants([variant_set()], 2.5, 0.8, node, 50.0)
    # the light variant is below the floor, so the heavy one comes back violating
    assert [v.name for v in variants] == ["big"]
    assert not meets(variants, solution, node, 2.5)


def truncated_set(variant: ModelVariant, n_lighter: int) -> ModelVariantSet:
    """`variant` and up to `n_lighter` lighter copies, each one layer shorter."""
    n = len(variant.layers)
    lighter = (
        dataclasses.replace(
            variant, name=f"{variant.name}_{k}", accuracy=variant.accuracy - 0.01 * (n - k), layers=variant.layers[:k]
        )
        for k in range(n - 1, max(0, n - 1 - n_lighter), -1)
    )
    return ModelVariantSet(variant.name, (variant, *lighter))


def test_select_variants_takes_the_first_combination_whose_joint_plan_meets_the_constraint():
    # The rule, worked through the product with search_mapping: the result is
    # the first combination that meets the constraint or, when none does, the
    # last one with a plan under the threshold.
    rng = random.Random(7)
    params = SearchParams(beam_width=4, candidate_cap=32, local_search_moves=20, rng_seed=0)
    multi_set_outcomes = {"heaviest": 0, "lighter": 0, "violated": 0, "infeasible": 0}
    for _ in range(120):
        workloads, node = random_scheduler_instance(rng)
        sets = [truncated_set(w, rng.randint(0, 2)) for w in workloads]
        constraint = rng.uniform(2.0, 12.0)
        threshold = rng.uniform(1.0, 30.0)
        combos = list(itertools.product(*(vset.variants for vset in sets)))
        searched = []
        for combo in combos:
            try:
                searched.append(search_mapping(combo, node, threshold, params))
            except NoFeasiblePlan:
                searched.append(None)
        met = [sol is not None and meets(combo, sol, node, constraint) for combo, sol in zip(combos, searched)]
        try:
            variants, solution = select_variants(sets, constraint, 0.0, node, threshold, params)
        except NoFeasiblePlan as exc:
            assert searched == [None] * len(combos)
            assert str([vset.name for vset in sets]) in str(exc)
            outcome = "infeasible"
        else:
            k = combos.index(variants)
            assert solution == searched[k]
            if met[k]:
                assert not any(met[:k])
                outcome = "heaviest" if k == 0 else "lighter"
            else:
                assert not any(met)
                assert searched[k + 1 :] == [None] * (len(combos) - k - 1)
                outcome = "violated"
        if len(sets) > 1:
            multi_set_outcomes[outcome] += 1
    assert min(multi_set_outcomes.values()) >= 3, multi_set_outcomes


def test_select_variants_matches_brute_force_over_the_variant_product():
    # The oracle maps every combination exhaustively, in product order. A
    # combination meets the constraint when every max-ipw joint plan does;
    # an instance whose max-ipw plans disagree is skipped, since the search
    # may return any of them.
    rng = random.Random(7)
    strong = SearchParams(beam_width=128, candidate_cap=2048, local_search_moves=400, rng_seed=0)
    outcomes = {"heaviest": 0, "lighter": 0, "violated": 0, "infeasible": 0}
    for _ in range(60):
        workloads, node = random_scheduler_instance(rng)
        sets = [truncated_set(w, rng.randint(0, 2)) for w in workloads]
        constraint = rng.uniform(2.0, 12.0)
        threshold = rng.uniform(1.0, 30.0)
        combos = list(itertools.product(*(vset.variants for vset in sets)))
        best = [exhaustive_mapping(combo, node, threshold) for combo in combos]
        verdicts = [
            None if b is None else {
                all(plan_bottleneck_ms(p, v, node) <= constraint for v, p in zip(combo, joint)) for joint in b[1]
            }
            for combo, b in zip(combos, best)
        ]
        if any(v is not None and len(v) > 1 for v in verdicts):
            continue
        met = [v == {True} for v in verdicts]
        feasible = [k for k, b in enumerate(best) if b is not None]
        if not feasible:
            with pytest.raises(NoFeasiblePlan):
                select_variants(sets, constraint, 0.0, node, threshold, strong)
            outcomes["infeasible"] += 1
            continue
        k = met.index(True) if any(met) else feasible[-1]
        variants, solution = select_variants(sets, constraint, 0.0, node, threshold, strong)
        assert variants == combos[k]
        assert solution.estimate.ipw == pytest.approx(best[k][0], rel=1e-12)
        outcomes["violated" if not met[k] else "heaviest" if k == 0 else "lighter"] += 1
    assert min(outcomes.values()) >= 3, outcomes


def test_select_variants_judges_variants_by_the_joint_plan():
    # m0's plan on its own takes 4.891 ms, under the 5.149 ms constraint, but
    # 5.407 ms when mapped with m1: a lighter variant has to be tried jointly
    rng = random.Random(1)
    workloads, node = random_scheduler_instance(rng, n_layers=3, n_units=3, n_freqs=2)
    threshold = rng.uniform(5, 25)
    sets = [truncated_set(w, 1) for w in workloads]
    heaviest = search_mapping(workloads, node, threshold)
    assert not meets(workloads, heaviest, node, 5.149)
    variants, solution = select_variants(sets, 5.149, 0.0, node, threshold)
    assert [v.name for v in variants] == ["m0_2", "m1"]
    assert meets(variants, solution, node, 5.149)


@pytest.mark.parametrize("n_sets, n_variants, refused", [(4, 6, True), (3, 10, False)])
def test_select_variants_refuses_too_many_combinations_before_searching(monkeypatch, n_sets, n_variants, refused):
    # 6**4 = 1,296 combinations are refused; 10**3 = 1,000 reach the search
    class Searched(Exception):
        pass

    def search(*args, **kwargs):
        raise Searched

    monkeypatch.setattr(edc_scheduler, "search_mapping", search)
    variants = tuple(make_variant(f"v{j}", LAYERS, accuracy=0.9 - 0.01 * j) for j in range(n_variants))
    sets = [ModelVariantSet(f"s{i}", variants) for i in range(n_sets)]
    with pytest.raises(ValidationFailure, match="^1296 variant combinations") if refused else pytest.raises(Searched):
        select_variants(sets, 100.0, 0.5, simple_node(), 50.0)
