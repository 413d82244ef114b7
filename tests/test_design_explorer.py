"""GA, exhaustive oracle and Pareto-front tests."""

import math
import random
from dataclasses import replace

import pytest

from edcarb.accelerator_model import (
    Dataflow,
    MultiplierVariant,
    accelerator_embodied,
    estimate_area,
    estimate_latency,
)
from edcarb.carbon_model import PackageKind
from edcarb.design_explorer import (
    Chromosome,
    CostTables,
    DesignSpace,
    EvaluatedDesign,
    GaParams,
    NoFeasibleDesign,
    SpaceTooLarge,
    crossover,
    evaluate,
    exhaustive_search,
    mutate,
    pareto_front,
    run_ga,
)
from edcarb.errors import ValidationFailure

from support import EXACT_MULT, make_area_params, make_tech, make_workload

APX_MULT = MultiplierVariant(name="apx_half", area_mm2=0.004, accuracy_drop_pct=1.5)
BAD_MULT = MultiplierVariant(name="apx_lossy", area_mm2=0.002, accuracy_drop_pct=3.0)


def make_space(**overrides) -> DesignSpace:
    values = dict(
        px_values=(2, 4, 8),
        py_values=(2, 4, 8),
        b_local_values=(64, 256),
        b_global_values=(4096, 65536),
        dataflows=(Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY),
        multipliers=(EXACT_MULT, APX_MULT),
        tech=make_tech(),
        area_params=make_area_params(),
        clock_hz=1e9,
        dram_bytes_per_cycle=16.0,
    )
    values.update(overrides)
    return DesignSpace(**values)


def first_chromosome(space: DesignSpace) -> Chromosome:
    return next(iter(space.chromosomes()))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_exact_multiplier_always_accuracy_feasible():
    space = make_space(multipliers=(EXACT_MULT,))
    design = evaluate(first_chromosome(space), make_workload(), space)
    assert design.feasible
    assert design.cdp_kg_s == pytest.approx(design.embodied_kg * design.latency_s)


def test_lossy_multiplier_infeasible_under_default_threshold():
    space = make_space(multipliers=(BAD_MULT,))
    design = evaluate(first_chromosome(space), make_workload(), space)
    assert not design.feasible
    assert design.infeasibility_reason == "accuracy"
    assert design.cdp_kg_s == math.inf


def test_area_cap_infeasibility_reason():
    space = make_space(multipliers=(EXACT_MULT,), max_area_cm2=1e-9)
    design = evaluate(first_chromosome(space), make_workload(), space)
    assert not design.feasible
    assert design.infeasibility_reason == "area"


def test_bigger_global_buffer_trades_latency_for_carbon():
    # memory-bound workload: large traffic, narrow DRAM bus
    space = make_space(b_global_values=(512, 10**6), dram_bytes_per_cycle=1.0)
    workload = make_workload(3)
    small = evaluate(
        Chromosome(4, 4, 64, 512, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), workload, space
    )
    big = evaluate(
        Chromosome(4, 4, 64, 10**6, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), workload, space
    )
    assert big.latency_s <= small.latency_s
    assert big.embodied_kg >= small.embodied_kg


@pytest.mark.parametrize("stacking", [PackageKind.PLANAR_2D, PackageKind.STACKED_3D])
def test_search_evaluator_matches_the_direct_model(stacking):
    # a narrow DRAM bus and a small global buffer make latency depend on b_global
    base = make_space(
        b_global_values=(512, 65536),
        dram_bytes_per_cycle=1.0,
        multipliers=(EXACT_MULT, APX_MULT, BAD_MULT),
        stacking=stacking,
        tsv_count=200,
    )
    areas = sorted(
        estimate_area(base.to_config(c), base.area_params).total_2d_equiv_cm2 for c in base.chromosomes()
    )
    space = replace(base, max_area_cm2=areas[len(areas) // 2])
    workload = make_workload()
    tables = CostTables()
    reasons = set()
    for c in space.chromosomes():
        config = space.to_config(c)
        embodied = accelerator_embodied(config, space.tech, space.area_params).total_kg
        latency = estimate_latency(config, workload)
        area = estimate_area(config, space.area_params).total_2d_equiv_cm2
        why = [
            reason
            for reason, failed in (
                ("accuracy", c.multiplier.accuracy_drop_pct > space.accuracy_threshold_pct),
                ("area", area > space.max_area_cm2),
            )
            if failed
        ]
        expected = EvaluatedDesign(
            chromosome=c,
            embodied_kg=embodied,
            latency_s=latency,
            cdp_kg_s=math.inf if why else embodied * latency,
            feasible=not why,
            infeasibility_reason="+".join(why) if why else None,
        )
        assert evaluate(c, workload, space, tables) == expected
        assert evaluate(c, workload, space) == expected
        reasons.add(expected.infeasibility_reason)
    assert reasons == {None, "accuracy", "area", "accuracy+area"}
    assert len(tables.latency_s) < len(tables.embodied) < space.size
    by_global_buffer = {}
    for (px, py, _, df), latency in tables.latency_s.items():
        by_global_buffer.setdefault((px, py, df), set()).add(latency)
    assert any(len(latencies) > 1 for latencies in by_global_buffer.values())


def test_index_key_is_the_first_tuple_index_of_each_gene():
    exact_again = MultiplierVariant(EXACT_MULT.name, EXACT_MULT.area_mm2, EXACT_MULT.accuracy_drop_pct)
    space = make_space(
        px_values=(4, 2, 4, 8),
        dataflows=(Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY),
        multipliers=(EXACT_MULT, APX_MULT, exact_again),
    )
    genes = ("px", "py", "b_local", "b_global", "dataflow", "multiplier")
    for c in space.chromosomes():
        assert space.index_key(c) == tuple(space.candidates(g).index(getattr(c, g)) for g in genes)
    repeated = Chromosome(4, 2, 64, 4096, Dataflow.OUTPUT_STATIONARY, exact_again)
    assert space.index_key(repeated) == (0, 0, 0, 0, 0, 0)


# ---------------------------------------------------------------------------
# crossover / mutate
# ---------------------------------------------------------------------------


def test_crossover_identical_parents_yield_parent():
    space = make_space()
    rng = random.Random(1)
    parent = space.random_chromosome(rng)
    child_a, child_b = crossover(parent, parent, rng)
    assert child_a == parent and child_b == parent


def test_crossover_children_genes_come_from_parents():
    space = make_space()
    rng = random.Random(2)
    for _ in range(50):
        a = space.random_chromosome(rng)
        b = space.random_chromosome(rng)
        child_a, child_b = crossover(a, b, rng)
        for child in (child_a, child_b):
            for gene in ("px", "py", "b_local", "b_global", "dataflow", "multiplier"):
                assert getattr(child, gene) in (getattr(a, gene), getattr(b, gene))


def test_crossover_deterministic_under_seed():
    space = make_space()
    a = space.random_chromosome(random.Random(3))
    b = space.random_chromosome(random.Random(4))
    first = crossover(a, b, random.Random(99))
    second = crossover(a, b, random.Random(99))
    assert first == second


def test_mutate_rate_zero_is_identity():
    space = make_space()
    rng = random.Random(5)
    chromosome = space.random_chromosome(rng)
    assert mutate(chromosome, 0.0, space, rng) == chromosome


def test_mutate_rate_one_singleton_lists_is_identity():
    space = make_space(
        px_values=(4,), py_values=(4,), b_local_values=(64,), b_global_values=(4096,),
        dataflows=(Dataflow.WEIGHT_STATIONARY,), multipliers=(EXACT_MULT,),
    )
    chromosome = first_chromosome(space)
    assert mutate(chromosome, 1.0, space, random.Random(6)) == chromosome


def test_mutate_stays_in_space():
    space = make_space()
    rng = random.Random(7)
    chromosome = space.random_chromosome(rng)
    for _ in range(100):
        chromosome = mutate(chromosome, 0.5, space, rng)
        assert space.contains(chromosome)


# ---------------------------------------------------------------------------
# run_ga / exhaustive_search
# ---------------------------------------------------------------------------


def test_singleton_space_found_in_first_generation():
    space = make_space(
        px_values=(4,), py_values=(4,), b_local_values=(64,), b_global_values=(4096,),
        dataflows=(Dataflow.WEIGHT_STATIONARY,), multipliers=(EXACT_MULT,),
    )
    result = run_ga(space, GaParams(population_size=4, generations=3, rng_seed=0), make_workload())
    only = evaluate(first_chromosome(space), make_workload(), space)
    assert result.best.chromosome == only.chromosome
    assert len(result.history) == 3  # one entry per generation
    assert result.history[0].best_fitness == pytest.approx(only.cdp_kg_s)


def test_ga_close_to_exhaustive_on_small_space():
    space = make_space()
    workload = make_workload()
    optimum = exhaustive_search(space, workload)
    hits = 0
    for seed in range(5):
        params = GaParams(population_size=24, generations=15, rng_seed=seed)
        result = run_ga(space, params, workload)
        assert space.contains(result.best.chromosome)
        assert result.best.feasible
        if result.best.cdp_kg_s <= optimum.cdp_kg_s * 1.01:
            hits += 1
    assert hits >= 4


def test_ga_generation_best_monotone_under_elitism():
    space = make_space()
    workload = make_workload()
    for seed in range(5):
        result = run_ga(
            space, GaParams(population_size=16, generations=12, rng_seed=seed), workload
        )
        bests = [h.best_fitness for h in result.history]
        assert all(b <= a for a, b in zip(bests, bests[1:]))


def test_ga_deterministic_history():
    space = make_space()
    workload = make_workload()
    params = GaParams(population_size=12, generations=8, rng_seed=42)
    first = run_ga(space, params, workload)
    second = run_ga(space, params, workload)
    assert first.best == second.best
    assert repr(first.history) == repr(second.history)


def test_ga_raises_when_everything_infeasible():
    space = make_space(multipliers=(BAD_MULT,))
    with pytest.raises(NoFeasibleDesign):
        run_ga(space, GaParams(population_size=8, generations=3, rng_seed=0), make_workload())


def test_exhaustive_space_of_one():
    space = make_space(
        px_values=(8,), py_values=(8,), b_local_values=(64,), b_global_values=(65536,),
        dataflows=(Dataflow.OUTPUT_STATIONARY,), multipliers=(EXACT_MULT,),
    )
    best = exhaustive_search(space, make_workload())
    assert best.chromosome == first_chromosome(space)


def test_exhaustive_dominant_design_wins():
    # the approximate multiplier shrinks area at identical latency, so the
    # apx chromosome dominates its exact twin; with singleton shape genes the
    # apx design must win
    space = make_space(
        px_values=(8,), py_values=(8,), b_local_values=(64,), b_global_values=(65536,),
        dataflows=(Dataflow.WEIGHT_STATIONARY,), multipliers=(EXACT_MULT, APX_MULT),
    )
    best = exhaustive_search(space, make_workload())
    assert best.chromosome.multiplier == APX_MULT


def test_exhaustive_cap():
    space = make_space()
    with pytest.raises(SpaceTooLarge):
        exhaustive_search(space, make_workload(), cap=10)


def test_exhaustive_raises_when_all_infeasible():
    space = make_space(multipliers=(BAD_MULT,))
    with pytest.raises(NoFeasibleDesign):
        exhaustive_search(space, make_workload())


def test_ga_delay_fitness_tracks_fastest_design():
    space = make_space()
    workload = make_workload()
    fastest = exhaustive_search(space, workload, fitness="delay")
    result = run_ga(
        space, GaParams(population_size=24, generations=15, rng_seed=3), workload, fitness="delay"
    )
    assert result.best.latency_s <= fastest.latency_s * 1.01


def test_exhaustive_delay_fitness_ignores_carbon():
    space = make_space()
    workload = make_workload()
    fastest = exhaustive_search(space, workload, fitness="delay")
    for chromosome in space.chromosomes():
        design = evaluate(chromosome, workload, space)
        if design.feasible:
            assert fastest.latency_s <= design.latency_s


# ---------------------------------------------------------------------------
# pareto front
# ---------------------------------------------------------------------------


def _dominates(a: EvaluatedDesign, b: EvaluatedDesign) -> bool:
    return (
        a.embodied_kg <= b.embodied_kg
        and a.latency_s <= b.latency_s
        and (a.embodied_kg < b.embodied_kg or a.latency_s < b.latency_s)
    )


def brute_force_front(designs):
    feasible = [d for d in designs if d.feasible]
    return [d for d in feasible if not any(_dominates(o, d) for o in feasible if o is not d)]


def test_pareto_single_design():
    space = make_space()
    design = evaluate(first_chromosome(space), make_workload(), space)
    assert pareto_front([design]) == [design]


def test_pareto_two_non_dominating():
    space = make_space()
    a = evaluate(Chromosome(2, 2, 64, 4096, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), make_workload(), space)
    b = evaluate(Chromosome(8, 8, 256, 65536, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), make_workload(), space)
    assert not _dominates(a, b) and not _dominates(b, a)
    front = pareto_front([a, b])
    assert set((d.chromosome for d in front)) == {a.chromosome, b.chromosome}


def test_pareto_matches_pairwise_dominance_oracle():
    space = make_space()
    workload = make_workload()
    rng = random.Random(17)
    designs = [evaluate(space.random_chromosome(rng), workload, space) for _ in range(100)]
    front = pareto_front(designs, space)
    oracle = brute_force_front(designs)
    assert {d.chromosome for d in front} == {d.chromosome for d in oracle}


def test_pareto_front_contains_cdp_optimum():
    space = make_space()
    workload = make_workload()
    optimum = exhaustive_search(space, workload)
    designs = [evaluate(c, workload, space) for c in space.chromosomes()]
    front = pareto_front(designs, space)
    assert any(d.chromosome == optimum.chromosome for d in front)


def test_pareto_rejects_empty():
    with pytest.raises(ValidationFailure):
        pareto_front([])


# ---------------------------------------------------------------------------
# approximation-mode direction
# ---------------------------------------------------------------------------


def test_appx_optimum_dominates_exact_only_optimum():
    workload = make_workload()
    exact_space = make_space(multipliers=(EXACT_MULT,))
    appx_space = make_space(multipliers=(EXACT_MULT, APX_MULT))
    exact_best = exhaustive_search(exact_space, workload)
    appx_best = exhaustive_search(appx_space, workload)
    assert appx_best.cdp_kg_s <= exact_best.cdp_kg_s
    assert appx_best.embodied_kg < exact_best.embodied_kg
    assert appx_best.latency_s <= exact_best.latency_s


def test_ga_params_validation():
    with pytest.raises(ValidationFailure):
        GaParams(population_size=1)
    with pytest.raises(ValidationFailure):
        GaParams(elitism_count=64, population_size=64)
    with pytest.raises(ValidationFailure):
        GaParams(crossover_rate=1.5)
