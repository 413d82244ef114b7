"""GA, exhaustive oracle and Pareto-front tests."""

import math
import random
from dataclasses import replace

import pytest

from edcarb.accelerator_model import (
    AcceleratorConfig,
    Dataflow,
    MultiplierVariant,
    accelerator_embodied,
)
from edcarb.carbon_model import PackageKind
from edcarb.design_explorer import (
    _GENES,
    CostTables,
    DesignSpace,
    EvaluatedDesign,
    GaParams,
    GaResult,
    _fitness_of,
    crossover,
    evaluate,
    exhaustive_search,
    mutate,
    pareto_front,
    run_ga,
)
from edcarb.errors import InfeasibleError, ValidationFailure

from support import (
    EXACT_MULT,
    area_of,
    chromosomes,
    ga_extremes,
    gene_values,
    latency_of,
    make_area_params,
    make_tech,
    make_workload,
    random_design_space,
    reference_exhaustive_search,
    reference_run_ga,
)

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


def first_chromosome(space: DesignSpace) -> AcceleratorConfig:
    return next(iter(chromosomes(space)))


def repeated_value_space() -> DesignSpace:
    """A space whose px, dataflow and multiplier lists each repeat a value;
    the multiplier's repeat is an equal copy, not the same object."""
    exact_again = MultiplierVariant(EXACT_MULT.name, EXACT_MULT.area_mm2, EXACT_MULT.accuracy_drop_pct)
    return make_space(
        px_values=(4, 2, 4, 8),
        dataflows=(Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY),
        multipliers=(EXACT_MULT, APX_MULT, exact_again),
    )


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def test_exact_multiplier_always_accuracy_feasible():
    space = make_space(multipliers=(EXACT_MULT,))
    design = evaluate(first_chromosome(space), make_workload(), space, CostTables())
    assert design.feasible
    assert design.cdp_kg_s == pytest.approx(design.embodied_kg * design.latency_s)


def test_lossy_multiplier_infeasible_under_default_threshold():
    space = make_space(multipliers=(BAD_MULT,))
    design = evaluate(first_chromosome(space), make_workload(), space, CostTables())
    assert not design.feasible
    assert design.infeasibility_reason == "accuracy"
    assert design.cdp_kg_s == math.inf


def test_area_cap_infeasibility_reason():
    space = make_space(multipliers=(EXACT_MULT,), max_area_cm2=1e-9)
    design = evaluate(first_chromosome(space), make_workload(), space, CostTables())
    assert not design.feasible
    assert design.infeasibility_reason == "area"


def test_bigger_global_buffer_trades_latency_for_carbon():
    # memory-bound workload: large traffic, narrow DRAM bus
    space = make_space(b_global_values=(512, 10**6), dram_bytes_per_cycle=1.0)
    workload = make_workload(3)
    tables = CostTables()
    small = evaluate(AcceleratorConfig(4, 4, 64, 512, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), workload, space, tables)
    big = evaluate(AcceleratorConfig(4, 4, 64, 10**6, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), workload, space, tables)
    assert big.latency_s <= small.latency_s
    assert big.embodied_kg >= small.embodied_kg


@pytest.mark.parametrize("stacking", [PackageKind.PLANAR_2D, PackageKind.STACKED_3D])
def test_search_evaluator_matches_the_direct_model(stacking):
    # a narrow DRAM bus and a small global buffer make latency depend on b_global;
    # the clock, DRAM width and TSV count are off their defaults, so the evaluator must read them from the space
    base = make_space(
        b_global_values=(512, 65536),
        clock_hz=7e8,
        dram_bytes_per_cycle=1.0,
        multipliers=(EXACT_MULT, APX_MULT, BAD_MULT),
        stacking=stacking,
        tsv_count=200,
    )
    areas = sorted(area_of(c, base.area_params).total_2d_equiv_cm2 for c in chromosomes(base))
    space = replace(base, max_area_cm2=areas[len(areas) // 2])
    workload = make_workload()
    tables = CostTables()
    reasons = set()
    for c in chromosomes(space):
        breakdown = area_of(c, space.area_params, space.stacking)
        embodied = accelerator_embodied(breakdown, space.tech, space.stacking, space.tsv_count)
        latency = latency_of(c, workload, space.clock_hz, space.dram_bytes_per_cycle)
        area = breakdown.total_2d_equiv_cm2
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
        assert evaluate(c, workload, space, CostTables()) == expected
        reasons.add(expected.infeasibility_reason)
    assert reasons == {None, "accuracy", "area", "accuracy+area"}
    assert len(tables.latency_s) < len(tables.embodied) < space.size
    by_global_buffer = {}
    for (px, py, _, df), latency in tables.latency_s.items():
        by_global_buffer.setdefault((px, py, df), set()).add(latency)
    assert any(len(latencies) > 1 for latencies in by_global_buffer.values())


def test_index_key_is_the_first_tuple_index_of_each_gene():
    space = repeated_value_space()
    for c in chromosomes(space):
        assert space.index_key(c) == tuple(gene_values(space, g).index(getattr(c, g)) for g in _GENES)
    repeated = AcceleratorConfig(4, 2, 64, 4096, Dataflow.OUTPUT_STATIONARY, space.multipliers[2])
    assert space.index_key(repeated) == (0, 0, 0, 0, 0, 0)
    # `design` inverts `index_key`
    assert all(space.design(space.index_key(c)) == c for c in chromosomes(space))


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
            assert all(gene in pair for gene, pair in zip(child, zip(a, b)))


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
    key = space.index_key(first_chromosome(space))
    assert mutate(key, 1.0, space, random.Random(6)) == key == (0, 0, 0, 0, 0, 0)


def test_mutate_stays_in_space():
    space = repeated_value_space()
    rng = random.Random(7)
    key = space.random_chromosome(rng)
    for _ in range(100):
        key = mutate(key, 0.5, space, rng)
        # a key of the space, and the index key of its design: a repeated value takes its first position
        assert space.index_key(space.design(key)) == key


# ---------------------------------------------------------------------------
# run_ga / exhaustive_search
# ---------------------------------------------------------------------------


def test_singleton_space_found_in_first_generation():
    space = make_space(
        px_values=(4,), py_values=(4,), b_local_values=(64,), b_global_values=(4096,),
        dataflows=(Dataflow.WEIGHT_STATIONARY,), multipliers=(EXACT_MULT,),
    )
    result = run_ga(space, GaParams(population_size=4, generations=3, rng_seed=0), make_workload())
    only = evaluate(first_chromosome(space), make_workload(), space, CostTables())
    assert result.best.chromosome == only.chromosome
    assert len(result.history) == 3  # one entry per generation
    assert result.history[0].best_fitness == pytest.approx(only.cdp_kg_s)


def test_ga_deterministic_history():
    space = make_space()
    workload = make_workload()
    params = GaParams(population_size=12, generations=8, rng_seed=42)
    first = run_ga(space, params, workload)
    second = run_ga(space, params, workload)
    assert first.best == second.best
    assert repr(first.history) == repr(second.history)


@pytest.mark.parametrize("fitness", ["cdp", "delay"])
def test_ga_best_is_the_minimum_of_its_evaluated_designs(fitness):
    rng = random.Random(77)
    workload = make_workload()
    for _ in range(8):
        space = make_space(
            px_values=tuple(sorted(rng.sample((2, 4, 8, 16), rng.randint(1, 3)))),
            py_values=tuple(sorted(rng.sample((2, 4, 8, 16), rng.randint(1, 3)))),
            b_local_values=tuple(sorted(rng.sample((64, 256, 1024), rng.randint(1, 2)))),
            dataflows=tuple(rng.sample(tuple(Dataflow), rng.randint(1, 3))),
            multipliers=(EXACT_MULT,) + tuple(rng.sample((APX_MULT, BAD_MULT), rng.randint(0, 2))),
        )
        params = GaParams(
            population_size=rng.randint(3, 12), generations=rng.randint(1, 6), rng_seed=rng.randrange(100)
        )
        result = run_ga(space, params, workload, fitness=fitness)

        def key(d: EvaluatedDesign) -> tuple:
            return (d.latency_s if fitness == "delay" else d.cdp_kg_s, space.index_key(d.chromosome))

        assert result.best == min((d for d in result.evaluated if d.feasible), key=key)


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
    for chromosome in chromosomes(space):
        design = evaluate(chromosome, workload, space, CostTables())
        if design.feasible:
            assert fastest.latency_s <= design.latency_s


def _outcome(search, *args, **kwargs):
    """What the search returns, or the type and message of the exception it raises."""
    try:
        return search(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


ALL_INFEASIBLE = (InfeasibleError, "every design in the space is infeasible")


@pytest.mark.parametrize("extreme", [None, *ga_extremes(2)])
@pytest.mark.parametrize("stacking", [PackageKind.PLANAR_2D, PackageKind.STACKED_3D])
@pytest.mark.parametrize("fitness", ["cdp", "delay"])
def test_run_ga_returns_what_the_reference_ga_returns(fitness, stacking, extreme):
    # Spaces made to tie rank designs of equal fitness by index key alone, and
    # small populations over few genes make children that equal a parent.
    rng = random.Random(f"{fitness}-{stacking.value}-{extreme}")
    workload = make_workload()
    outcomes = []
    for _ in range(12):
        space = random_design_space(rng, stacking)
        population = rng.randint(2, 10)
        values = dict(
            population_size=population,
            generations=rng.randint(1, 6),
            elitism_count=rng.randint(0, min(2, population - 1)),
            rng_seed=rng.randrange(1000),
        )
        params = GaParams(**{**values, **(ga_extremes(population)[extreme] if extreme else {})})
        expected = _outcome(reference_run_ga, space, params, workload, fitness)
        assert _outcome(run_ga, space, params, workload, fitness) == expected
        outcomes.append(expected)
    # whole results, history and evaluated designs in order, are compared
    assert sum(isinstance(o, GaResult) for o in outcomes) >= 6


@pytest.mark.parametrize(
    "overrides", [{}, dict(mutation_rate=1.0), dict(crossover_rate=1.0)], ids=["default", "mutation1", "crossover1"]
)
@pytest.mark.parametrize("fitness", ["cdp", "delay"])
def test_run_ga_on_genes_with_repeated_values_returns_what_the_reference_ga_returns(fitness, overrides):
    # A value that repeats in a candidate list is drawn at each of its
    # positions, and every draw of it is one design, ranked and cached once.
    space, workload, params = repeated_value_space(), make_workload(), GaParams(**overrides)
    assert run_ga(space, params, workload, fitness) == reference_run_ga(space, params, workload, fitness)


@pytest.mark.parametrize("stacking", [PackageKind.PLANAR_2D, PackageKind.STACKED_3D])
@pytest.mark.parametrize("fitness", ["cdp", "delay"])
def test_exhaustive_search_returns_what_enumeration_returns(fitness, stacking):
    rng = random.Random(2025)
    workload = make_workload()
    tied = infeasible = 0
    for _ in range(60):
        space = random_design_space(rng, stacking)
        expected = _outcome(reference_exhaustive_search, space, workload, fitness)
        assert _outcome(exhaustive_search, space, workload, fitness) == expected
        if expected == ALL_INFEASIBLE:
            infeasible += 1
        else:
            fits = [_fitness_of(evaluate(c, workload, space, CostTables()), fitness) for c in chromosomes(space)]
            tied += fits.count(min(fits)) > 1
    # the draws must reach the tie rule and the all-infeasible refusal
    assert tied >= 10 and infeasible >= 2


def test_exhaustive_search_breaks_a_tie_across_the_b_global_of_one_array():
    # A wide DRAM bus makes the 8x8 array's latency the same at both global
    # buffers, so both keys reach the best delay. Under the area cap the first
    # b_local (256) fits only beside the global buffer listed second.
    space = make_space(
        px_values=(8,), py_values=(8,), b_local_values=(256, 16), b_global_values=(65536, 512),
        dram_bytes_per_cycle=1e6, max_area_cm2=0.12,
    )
    best = exhaustive_search(space, make_workload(), fitness="delay")
    assert best == reference_exhaustive_search(space, make_workload(), fitness="delay")
    assert (best.chromosome.b_local, best.chromosome.b_global) == (256, 512)


@pytest.mark.parametrize("fitness", ["cdp", "delay"])
@pytest.mark.parametrize(
    "overrides, error, match",
    [
        # every latency overflows, though no design is feasible
        (
            dict(multipliers=(BAD_MULT,), dram_bytes_per_cycle=1e-320),
            ValidationFailure,
            "workload 'toy': cycle count overflows at layer 0",
        ),
        # the slowest designs' latency rounds to inf, which cdp refuses on feasible designs only
        (dict(clock_hz=1e-303), ValidationFailure, "cdp needs finite, non-negative carbon and delay"),
        (dict(multipliers=(BAD_MULT,), clock_hz=1e-303), *ALL_INFEASIBLE),
        (dict(multipliers=(BAD_MULT,)), *ALL_INFEASIBLE),
    ],
)
def test_exhaustive_search_raises_what_enumeration_raises(fitness, overrides, error, match):
    space, workload = make_space(**overrides), make_workload()
    expected = _outcome(reference_exhaustive_search, space, workload, fitness)
    assert expected[0] is error and expected[1].startswith(match)
    assert _outcome(exhaustive_search, space, workload, fitness) == expected


def test_exhaustive_search_refuses_what_enumeration_refuses():
    space, workload = make_space(), make_workload()
    for kwargs, message in (
        (dict(cap=space.size - 1), f"space has {space.size} designs, cap is {space.size - 1}"),
        (dict(fitness="bogus"), "unknown fitness 'bogus'"),
    ):
        assert _outcome(reference_exhaustive_search, space, workload, **kwargs) == (ValidationFailure, message)
        assert _outcome(exhaustive_search, space, workload, **kwargs) == (ValidationFailure, message)
    assert exhaustive_search(space, workload, cap=space.size) == reference_exhaustive_search(space, workload)


# ---------------------------------------------------------------------------
# work counts
# ---------------------------------------------------------------------------


def _count_calls(monkeypatch, owner, name: str, counts: dict) -> None:
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _work_counts(monkeypatch) -> dict:
    """Calls of the explorer's model functions, of `index_key`, and designs
    built (`AcceleratorConfig.__post_init__` runs once per construction)."""
    from edcarb import design_explorer

    counts: dict[str, int] = {}
    for name in ("estimate_area", "accelerator_embodied", "estimate_latency"):
        _count_calls(monkeypatch, design_explorer, name, counts)
    _count_calls(monkeypatch, DesignSpace, "index_key", counts)
    _count_calls(monkeypatch, AcceleratorConfig, "__post_init__", counts)
    return counts


def test_exhaustive_search_costs_each_key_once_and_builds_only_the_winner(monkeypatch):
    twin = MultiplierVariant("exact_twin", EXACT_MULT.area_mm2, EXACT_MULT.accuracy_drop_pct)
    space = make_space(
        px_values=(2, 4, 8, 4),  # a repeated value is one key
        b_local_values=(16, 64, 256),
        dataflows=tuple(Dataflow),
        multipliers=(EXACT_MULT, APX_MULT, twin),
        max_area_cm2=0.2,
    )
    embodied_keys = 3 * 3 * 3 * 2 * 3  # px, py, b_local, b_global, multiplier
    latency_keys = 3 * 3 * 2 * 3  # px, py, b_global, dataflow
    expected = reference_exhaustive_search(space, make_workload())
    counts = _work_counts(monkeypatch)
    assert exhaustive_search(space, make_workload()) == expected
    assert counts.pop("estimate_area") == counts.pop("accelerator_embodied") == embodied_keys == 162
    assert counts.pop("estimate_latency") == latency_keys
    # the keys are costed from gene values, so only the winner becomes a design
    assert counts.pop("__post_init__") == 1
    assert counts == {}


def test_run_ga_ranks_each_distinct_design_once(monkeypatch):
    space = make_space(b_local_values=(16, 64, 256), dataflows=tuple(Dataflow))
    params = GaParams(population_size=16, generations=12, rng_seed=4)
    counts = _work_counts(monkeypatch)
    result = run_ga(space, params, make_workload())
    distinct = len(result.evaluated)
    assert distinct == 55
    assert counts["estimate_area"] == counts["accelerator_embodied"] == len(
        {(c.px, c.py, c.b_local, c.b_global, c.multiplier) for c in (d.chromosome for d in result.evaluated)}
    )
    # the GA breeds and ranks index keys, so it builds a design only for a key's first evaluation
    assert "index_key" not in counts
    assert counts["__post_init__"] == distinct


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
    design = evaluate(first_chromosome(space), make_workload(), space, CostTables())
    assert pareto_front([design], space) == [design]


def test_pareto_two_non_dominating():
    space = make_space()
    workload, tables = make_workload(), CostTables()
    a = evaluate(AcceleratorConfig(2, 2, 64, 4096, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), workload, space, tables)
    b = evaluate(AcceleratorConfig(8, 8, 256, 65536, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), workload, space, tables)
    assert not _dominates(a, b) and not _dominates(b, a)
    front = pareto_front([a, b], space)
    assert set((d.chromosome for d in front)) == {a.chromosome, b.chromosome}


def test_pareto_matches_pairwise_dominance_oracle():
    space = make_space()
    workload = make_workload()
    rng = random.Random(17)
    designs = [evaluate(space.design(space.random_chromosome(rng)), workload, space, CostTables()) for _ in range(100)]
    front = pareto_front(designs, space)
    oracle = brute_force_front(designs)
    assert {d.chromosome for d in front} == {d.chromosome for d in oracle}


def test_pareto_front_contains_cdp_optimum():
    space = make_space()
    workload = make_workload()
    optimum = exhaustive_search(space, workload)
    designs = [evaluate(c, workload, space, CostTables()) for c in chromosomes(space)]
    front = pareto_front(designs, space)
    assert any(d.chromosome == optimum.chromosome for d in front)


def test_pareto_front_does_not_depend_on_input_order():
    # a renamed copy of the exact multiplier ties every exact design on both
    # axes; the space's gene order decides where each tie sits in the front
    twin = MultiplierVariant("exact_twin", EXACT_MULT.area_mm2, EXACT_MULT.accuracy_drop_pct)
    space = make_space(multipliers=(EXACT_MULT, APX_MULT, twin))
    workload = make_workload()
    designs = [evaluate(c, workload, space, CostTables()) for c in chromosomes(space)]
    front = pareto_front(designs, space)
    ties = [(a, b) for a, b in zip(front, front[1:]) if (a.embodied_kg, a.latency_s) == (b.embodied_kg, b.latency_s)]
    assert ties and all(space.index_key(a.chromosome) < space.index_key(b.chromosome) for a, b in ties)
    rng = random.Random(5)
    for _ in range(5):
        rng.shuffle(designs)
        assert pareto_front(designs, space) == front
