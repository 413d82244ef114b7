"""Every refusal of the library, one table row each: the call, the exact
exception class and the whole message. A refusal that needs more than that,
such as an order among several or work not done first, keeps a test of its
own next to its module's other tests."""

import math
from dataclasses import replace

import pytest

from edcarb.accelerator_model import AcceleratorConfig, ConvLayer, Dataflow, DnnWorkload, MultiplierVariant
from edcarb.carbon_model import (
    PackageKind, cdp, die_carbon, dies_per_wafer, embodied_carbon, embodied_per_inference_g, wasted_area,
)
from edcarb.design_explorer import DesignSpace, GaParams, exhaustive_search, pareto_front, run_ga
from edcarb.edc_scheduler import (
    EdgeNode, ModelVariantSet, NoFeasiblePlan, ProcessingUnit, SearchParams, UnitKind, prepare_mapping, search_mapping,
    segment_cost, select_variants,
)
from edcarb.errors import InfeasibleError, ValidationFailure
from edcarb.runtime_sim import (
    CiTrace, ExecLookupTable, LlmVariant, PoissonArrivals, SimConfig, SimConfigError, TraceArrivals, llm_select,
    run_simulation,
)

from support import (
    EMBODIED_COEFFICIENTS, EXACT_MULT, LLM_VARIANTS, make_area_params, make_tech, make_unit, make_variant,
    make_workload,
)

# NaN fails every comparison, so a check written as `x <= 0` lets it through
NON_FINITE = (math.nan, math.inf, -math.inf)
LAYERS = ("l0", "l1", "l2")
LOSSY_MULT = MultiplierVariant("apx_lossy", 0.002, 3.0)  # over the 2% accuracy threshold


def refuses(name: str, build, error: type, message: str, values=NON_FINITE) -> list:
    """One row per value x: `build(x)` raises `error` with `message` formatted with x."""
    return [pytest.param(lambda x=x: build(x), error, message.format(x), id=f"{name}={x}") for x in values]


def _space(**overrides) -> DesignSpace:
    """Two feasible designs, with `overrides` set."""
    space = DesignSpace((2, 4), (2,), (64,), (4096,), (Dataflow.WEIGHT_STATIONARY,), (EXACT_MULT,), make_tech(),
                        make_area_params())
    return replace(space, **overrides)


def _node() -> EdgeNode:
    return EdgeNode((make_unit("cpu0", "CPU", LAYERS), make_unit("gpu0", "GPU", LAYERS)), 1e5)


def _unit(profile: dict, freq_levels_hz=(1e9,), idle_power_w=0.5) -> ProcessingUnit:
    return ProcessingUnit("u", UnitKind.CPU, freq_levels_hz, idle_power_w, profile)


def _sim_config(**overrides) -> SimConfig:
    return SimConfig(**{"mode": "batch", "horizon_s": 60.0, "p_min_w": 8.0, "p_max_w": 20.0, **overrides})


TABLE = [
    # carbon_model
    *(row for name in EMBODIED_COEFFICIENTS for row in refuses(
        f"TechnologyParams.{name}", lambda x, name=name: make_tech(**{name: x}), ValidationFailure,
        "technology '7nm': carbon coefficients must be finite and >= 0")),
    *refuses("TechnologyParams.wafer_diameter_cm", lambda x: make_tech(wafer_diameter_cm=x), ValidationFailure,
             "technology '7nm': wafer_diameter_cm must be finite and > 0"),
    pytest.param(lambda: wasted_area(1000.0, 10.0), ValidationFailure,
                 "die of 1000.0 cm2 exceeds wafer area 78.5398 cm2", id="die.over_the_wafer"),
    pytest.param(lambda: wasted_area(10.0, 10.0), ValidationFailure,
                 "die of 10.0 cm2 yields no whole die on a 10.0 cm wafer", id="die.no_whole_die"),
    *(row for fn in (dies_per_wafer, wasted_area) for row in (
        *refuses(f"{fn.__name__}.die_area", lambda x, fn=fn: fn(x, 30.0), ValidationFailure, "die area must be > 0",
                 (math.nan, -1.0)),
        *refuses(f"{fn.__name__}.wafer_diameter", lambda x, fn=fn: fn(1.0, x), ValidationFailure,
                 "wafer diameter must be finite and > 0, got {}", (math.nan, math.inf, 0.0, -30.0)),
    )),
    *refuses("die_carbon.area_cm2", lambda x: die_carbon(x, make_tech()), ValidationFailure,
             "die area must be finite and > 0, got {}"),
    pytest.param(lambda: embodied_carbon([0.4], make_tech(), PackageKind.STACKED_3D), ValidationFailure,
                 "a 3D stack needs at least two dies", id="embodied.one_die_stack"),
    *(
        pytest.param(lambda kind=kind, given=given: embodied_carbon(**{"die_areas_cm2": [0.4, 0.3], **given},
                                                                    tech=make_tech(), kind=kind),
                     ValidationFailure, message, id=f"embodied.{id}-{kind.value}")
        for kind in PackageKind
        for id, given, message in (
            ("no_die", dict(die_areas_cm2=[]), "embodied_carbon needs at least one die"),
            ("tsv_count", dict(tsv_count=-1), "tsv_count must be >= 0"),
            ("bond_area", dict(bond_interface_area_cm2=-0.1), "bond_interface_area_cm2 must be >= 0"),
            ("zero_die", dict(die_areas_cm2=[0.4, 0.0]), "die area must be finite and > 0, got 0.0"),
            ("negative_die", dict(die_areas_cm2=[0.4, -0.3]), "die area must be finite and > 0, got -0.3"),
        )
    ),
    *refuses("embodied_per_inference_g.lifetime", lambda x: embodied_per_inference_g(1.0, x), ValidationFailure,
             "lifetime_inferences must be > 0", (0.0, -5.0, math.nan)),
    *refuses("cdp.carbon", lambda x: cdp(x, 1.0), ValidationFailure,
             "cdp needs finite, non-negative carbon and delay", (math.nan, math.inf, -0.5, -1.0)),
    *refuses("cdp.delay", lambda x: cdp(1.0, x), ValidationFailure,
             "cdp needs finite, non-negative carbon and delay", (math.nan, math.inf, -0.5)),
    # accelerator_model
    *refuses("MultiplierVariant.area_mm2", lambda x: MultiplierVariant("m", x, 0.0), ValidationFailure,
             "multiplier 'm': area_mm2 must be finite and > 0", (*NON_FINITE, 0.0)),
    *refuses("MultiplierVariant.accuracy_drop_pct", lambda x: MultiplierVariant("m", 0.01, x), ValidationFailure,
             "multiplier 'm': accuracy_drop_pct must be finite and >= 0"),
    pytest.param(lambda: AcceleratorConfig(0, 4, 64, 4096, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), ValidationFailure,
                 "PE array dimensions must be >= 1", id="AcceleratorConfig.px"),
    pytest.param(lambda: AcceleratorConfig(4, 4, 64, 0, Dataflow.WEIGHT_STATIONARY, EXACT_MULT), ValidationFailure,
                 "buffer capacities must be >= 1 byte", id="AcceleratorConfig.b_global"),
    pytest.param(lambda: ConvLayer(0, 1, 1, 1, 1, 1, 1), ValidationFailure, "all ConvLayer dimensions must be >= 1",
                 id="ConvLayer.zero_dimension"),
    pytest.param(lambda: ConvLayer(n=2**16, c=2**16, k=2**16, r=1, s=1, p=2**8, q=2**8), ValidationFailure,
                 "layer MAC count 18446744073709551616 must be < 2**63", id="ConvLayer.mac_overflow"),
    pytest.param(lambda: DnnWorkload("empty", ()), ValidationFailure, "workload 'empty' has no layers",
                 id="DnnWorkload.no_layers"),
    *(row for name in ("sram_mm2_per_byte", "fixed_overhead_mm2", "mac_adder_mm2") for row in refuses(
        f"AreaParams.{name}", lambda x, name=name: make_area_params(**{name: x}), ValidationFailure,
        "area parameters must be finite and >= 0", (math.nan, math.inf, -1.0))),
    # design_explorer
    *(row for name in ("clock_hz", "dram_bytes_per_cycle") for row in refuses(
        f"DesignSpace.{name}", lambda x, name=name: _space(**{name: x}), ValidationFailure,
        f"{name} must be finite and > 0", (math.nan, math.inf, 0.0, -1.0))),
    pytest.param(lambda: _space(tsv_count=-1), ValidationFailure, "tsv_count must be >= 0", id="DesignSpace.tsv_count"),
    # the smallest design's area is finite, and the largest one's overflows
    *(
        pytest.param(lambda stacking=stacking: _space(area_params=make_area_params(sram_mm2_per_byte=1e304),
                                                      b_global_values=(512, 65536), stacking=stacking),
                     ValidationFailure, "the largest design's area must be finite under area_params, got inf cm2",
                     id=f"DesignSpace.infinite_area-{stacking.value}")
        for stacking in PackageKind
    ),
    pytest.param(lambda: GaParams(population_size=1), ValidationFailure, "population_size must be >= 2",
                 id="GaParams.population_size"),
    pytest.param(lambda: GaParams(elitism_count=64, population_size=64), ValidationFailure,
                 "elitism_count must be in [0, population_size)", id="GaParams.elitism_count"),
    pytest.param(lambda: GaParams(crossover_rate=1.5), ValidationFailure, "crossover/mutation rates must be in [0, 1]",
                 id="GaParams.crossover_rate"),
    pytest.param(lambda: run_ga(_space(multipliers=(LOSSY_MULT,)), GaParams(8, 3), make_workload()), InfeasibleError,
                 "no feasible design found in any generation", id="run_ga.all_infeasible"),
    pytest.param(lambda: run_ga(_space(), GaParams(4, 1), make_workload(), fitness="bogus"), ValidationFailure,
                 "unknown fitness 'bogus'", id="run_ga.fitness"),
    pytest.param(lambda: exhaustive_search(_space(), make_workload(), fitness="bogus"), ValidationFailure,
                 "unknown fitness 'bogus'", id="exhaustive_search.fitness"),
    pytest.param(lambda: exhaustive_search(_space(), make_workload(), cap=1), ValidationFailure,
                 "space has 2 designs, cap is 1", id="exhaustive_search.cap"),
    pytest.param(lambda: exhaustive_search(_space(multipliers=(LOSSY_MULT,)), make_workload()), InfeasibleError,
                 "every design in the space is infeasible", id="exhaustive_search.all_infeasible"),
    pytest.param(lambda: pareto_front([], _space()), ValidationFailure, "pareto_front needs at least one design",
                 id="pareto_front.empty"),
    # edc_scheduler
    *refuses("ProcessingUnit.freq_levels_hz", lambda x: _unit({}, (x,)), ValidationFailure,
             "unit 'u': freq_levels_hz must be finite and > 0"),
    *refuses("ProcessingUnit.idle_power_w", lambda x: _unit({}, idle_power_w=x), ValidationFailure,
             "unit 'u': idle_power_w must be finite and >= 0"),
    *(row for i, name in enumerate(("latency", "power")) for row in refuses(
        f"ProcessingUnit.profile_{name}", lambda x, i=i: _unit({("l0", 0): (3.0, x) if i else (x, 2.0)}),
        ValidationFailure, "unit 'u': layer 'l0' freq 0: latency must be finite and > 0, power finite and >= 0")),
    *(
        pytest.param(lambda profile=profile: _unit(profile, (1e9, 2e9)), ValidationFailure, message, id=id)
        for id, profile, message in (
            ("ProcessingUnit.latency_up", {("l0", 0): (4.0, 2.0), ("l0", 1): (5.0, 3.0)},
             "unit 'u': layer 'l0': latency must be non-increasing in frequency"),
            ("ProcessingUnit.power_down", {("l0", 0): (4.0, 2.0), ("l0", 1): (3.0, 1.0)},
             "unit 'u': layer 'l0': power must be non-decreasing in frequency"),
            ("ProcessingUnit.incomplete", {("l0", 0): (4.0, 2.0)},
             "unit 'u': profile for layer 'l0' missing freq level 1"),
        )
    ),
    *refuses("EdgeNode.transfer_bytes_per_ms", lambda x: EdgeNode((_unit({}),), x), ValidationFailure,
             "transfer_bytes_per_ms must be finite and > 0"),
    pytest.param(lambda: ModelVariantSet("bad", (make_variant("a", LAYERS, 0.8), make_variant("b", LAYERS, 0.9))),
                 ValidationFailure, "variant set 'bad': accuracy must be strictly decreasing",
                 id="ModelVariantSet.order"),
    pytest.param(lambda: segment_cost((0, 2, 0, 0), make_variant("m", ("l0", "unknown")), _node()), ValidationFailure,
                 "unit 'cpu0' has no profile for layer 'unknown' at freq 0", id="segment_cost.no_profile"),
    pytest.param(lambda: search_mapping([make_variant("m", LAYERS)], _node(), 0.5), NoFeasiblePlan,
                 "no plan fits under 0.5 W, even single-unit lowest-frequency mappings", id="search_mapping.under_min"),
    # the sum over k < 8 of C(59, k) ways to cut 60 layers, refused before they are listed
    pytest.param(lambda: search_mapping([make_variant("deep", [f"l{i}" for i in range(60)])],
                                        EdgeNode((make_unit("cpu0", "CPU", [f"l{i}" for i in range(60)], 1),), 1e5),
                                        100.0, SearchParams(max_segments=8)),
                 ValidationFailure, "variant 'deep': 60 layers at max_segments=8 give 391702712 cut patterns, "
                 "more than 1000000", id="search_mapping.cut_patterns"),
    # search_mapping checks the threshold before the workloads
    pytest.param(lambda: search_mapping([], _node(), 0.0), ValidationFailure, "power_threshold_w must be > 0",
                 id="search_mapping.threshold"),
    *refuses("PreparedMapping.solve", lambda x: prepare_mapping([make_variant("m", LAYERS)], _node()).solve(x),
             ValidationFailure, "power_threshold_w must be > 0", (0.0, -1.0)),
    pytest.param(lambda: select_variants([ModelVariantSet("family", (make_variant("big", LAYERS, 0.85),
                                                                     make_variant("small", LAYERS, 0.75)))],
                                         100.0, 0.99, _node(), 50.0),
                 InfeasibleError, "no variant of 'family' reaches accuracy 0.99", id="select_variants.accuracy_floor"),
    # runtime_sim
    *refuses("CiTrace.timestamp", lambda x: CiTrace(((0.0, 1.0), (x, 2.0)), 10.0), ValidationFailure,
             "CiTrace timestamps must be finite"),
    *refuses("CiTrace.ci", lambda x: CiTrace(((0.0, x),), 10.0), ValidationFailure,
             "carbon intensity must be finite and >= 0", (*NON_FINITE, -1.0)),
    # +inf is the horizon of a one-sample trace, which covers all time
    *refuses("CiTrace.horizon_s", lambda x: CiTrace(((0.0, 1.0),), x), ValidationFailure,
             "horizon_s must be a number covering the last sample", (math.nan, -math.inf)),
    pytest.param(lambda: CiTrace(((0.0, 1.0), (50.0, 2.0)), 10.0), ValidationFailure,
                 "horizon_s must be a number covering the last sample", id="CiTrace.short_horizon"),
    pytest.param(lambda: CiTrace(((0.0, 1.0), (0.0, 2.0)), 10.0), ValidationFailure,
                 "CiTrace timestamps must be strictly increasing", id="CiTrace.repeated_time"),
    pytest.param(lambda: TraceArrivals((2.0, 1.0), ("a", "a")), ValidationFailure,
                 "arrival times must be non-decreasing", id="TraceArrivals.unsorted"),
    # an arrival before t=0 would be served as having waited since before the run began
    *refuses("TraceArrivals.first_time", lambda x: TraceArrivals((x, 1.0, 2.0), ("a", "a", "b")), ValidationFailure,
             "arrival times must be >= 0, got {}", (-5.0, -1e-300, math.nan)),
    *refuses("TraceArrivals.kinds", lambda x: TraceArrivals((0.5, 1.0), ("a",) * x), ValidationFailure,
             "2 arrival times but {} kinds", (1, 3)),
    # only the constructor runs: arrivals at an infinite rate would never advance time
    *refuses("PoissonArrivals.rate_per_s", lambda x: PoissonArrivals(rate_per_s=x), ValidationFailure,
             "Poisson rate must be a finite number > 0, got {}", (math.inf, math.nan, 0.0, -1.0)),
    # both would build billions of arrivals, or never stop, before the cap
    pytest.param(lambda: PoissonArrivals(1e6).columns(7200.0), ValidationFailure,
                 "Poisson rate 1000000.0/s over 7200.0 s expects more than 1000000 arrivals", id="Poisson.cap"),
    pytest.param(lambda: PoissonArrivals(1.0).columns(math.inf), ValidationFailure,
                 "Poisson rate 1.0/s over inf s expects more than 1000000 arrivals", id="Poisson.cap-inf"),
    *refuses("SimConfig.horizon_s", lambda x: _sim_config(horizon_s=x), SimConfigError,
             "horizon_s: must be finite and > 0, got {}", (math.nan, -math.inf)),
    pytest.param(lambda: _sim_config(horizon_s=math.inf), SimConfigError,
                 "horizon_s: must be finite and > 0, got inf; step_s: must be >= horizon_s / 1000000, got 1.0",
                 id="SimConfig.horizon_s=inf"),
    *(row for name in ("step_s", "deadline_ms") for row in refuses(
        f"SimConfig.{name}", lambda x, name=name: _sim_config(**{name: x}), SimConfigError,
        f"{name}: must be finite and > 0, got {{}}")),
    *refuses("SimConfig.p_min_w", lambda x: _sim_config(p_min_w=x), SimConfigError,
             "p_min_w: must be > 0, got {}", (math.nan, -math.inf)),
    pytest.param(lambda: _sim_config(p_min_w=math.inf), SimConfigError, "p_min_w: must be <= p_max_w, got inf > 20.0",
                 id="SimConfig.p_min_w=inf"),
    *refuses("SimConfig.p_max_w", lambda x: _sim_config(p_min_w=1.0, p_max_w=x), SimConfigError,
             "p_max_w: must be finite, got {}", (math.nan, math.inf)),
    pytest.param(lambda: _sim_config(p_min_w=1.0, p_max_w=-math.inf), SimConfigError,
                 "p_min_w: must be <= p_max_w, got 1.0 > -inf", id="SimConfig.p_max_w=-inf"),
    *refuses("SimConfig.idle_power_w", lambda x: _sim_config(idle_power_w=x), SimConfigError,
             "idle_power_w: must be finite and >= 0, got {}"),
    *refuses("SimConfig.tps_floor", lambda x: _sim_config(mode="llm", tps_floor=x), SimConfigError,
             "tps_floor: must be finite and > 0 in llm mode, got {}", (0.0, *NON_FINITE)),
    pytest.param(lambda: run_simulation(_sim_config(horizon_s=100.0), CiTrace(((0.0, 100.0),), 50.0),
                                        TraceArrivals((), ()), table=ExecLookupTable({(1, 0): (5.0, 1.0)})),
                 ValidationFailure, "horizon 100.0 s exceeds trace coverage 50.0 s", id="run_simulation.trace_short"),
    *(row for i, name in enumerate(("latency", "energy")) for row in refuses(
        f"ExecLookupTable.{name}", lambda x, i=i: ExecLookupTable({(1, 0): (5.0, x) if i else (x, 1.0)}),
        ValidationFailure, "entry (b=1, f=0): latency must be finite and > 0, energy finite and >= 0")),
    *refuses("ExecLookupTable.p_scale", lambda x: ExecLookupTable({(1, 0): (5.0, 1.0)}, {1: (1.0, 1.0), 2: (1.5, x)}),
             ValidationFailure, "power scale for k=2 must be finite and >= 1"),
    pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0), (2, 0): (4.0, 1.5)}), ValidationFailure,
                 "latency must be non-decreasing in batch size (freq 0)", id="ExecLookupTable.latency_down"),
    pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0), (2, 0): (6.0, 2.5)}), ValidationFailure,
                 "energy per inference must be non-increasing in batch size (freq 0)", id="ExecLookupTable.energy_up"),
    pytest.param(lambda: ExecLookupTable({(2, 0): (5.0, 1.0)}), ValidationFailure,
                 "ExecLookupTable must contain batch size 1", id="ExecLookupTable.no_batch_one"),
    pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0), (1, 1): (4.0, 1.2), (2, 0): (6.0, 1.8)}),
                 ValidationFailure, "table is not rectangular: missing (b=2, f=1)",
                 id="ExecLookupTable.not_rectangular"),
    pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0)}, {1: (1.0, 1.0), 2: (2.5, 1.0)}), ValidationFailure,
                 "throughput scale for k=2 must be in (0, k]", id="ExecLookupTable.throughput_scale"),
    pytest.param(lambda: ExecLookupTable({(1, 0): (5.0, 1.0)}, {1: (1.0, 1.0), 2: (1.5, 0.8)}), ValidationFailure,
                 "power scale for k=2 must be finite and >= 1", id="ExecLookupTable.power_scale"),
    # a dispatch runs as many streams as the groups it carves, any number up
    # to the one chosen, so each must have its scales
    *(
        pytest.param(lambda counts=counts: ExecLookupTable({(1, 0): (5.0, 1.0)}, dict.fromkeys(counts, (1.0, 1.0))),
                     ValidationFailure, f"stream counts must run from 1 to K with no gap, got {list(counts)}",
                     id=f"ExecLookupTable.streams{'-'.join(map(str, counts))}")
        for counts in [(1, 3), (2,), (0, 1)]
    ),
    *refuses("LlmVariant.tokens_per_s", lambda x: LlmVariant("v", 0.9, (x,), (5.0,)), ValidationFailure,
             "variant 'v': rates must be finite and > 0, power finite and >= 0"),
    *refuses("LlmVariant.power_w", lambda x: LlmVariant("v", 0.9, (20.0,), (x,)), ValidationFailure,
             "variant 'v': rates must be finite and > 0, power finite and >= 0"),
    *refuses("LlmVariant.quality_score", lambda x: LlmVariant("v", x, (20.0,), (5.0,)), ValidationFailure,
             "variant 'v': quality_score must be finite"),
    pytest.param(lambda: llm_select(LLM_VARIANTS, 1.0, "low", 10.0), InfeasibleError,
                 "no variant runs under 1.0 W at any frequency", id="llm_select.under_threshold"),
    pytest.param(lambda: llm_select(LLM_VARIANTS[::-1], 20.0, "low", 10.0), ValidationFailure,
                 "LLM variant quality must be strictly decreasing", id="llm_select.order"),
]


@pytest.mark.parametrize("build, error, message", TABLE)
def test_the_library_refuses_with_its_class_and_message(build, error, message):
    with pytest.raises(error) as refused:
        build()
    assert (type(refused.value), str(refused.value)) == (error, message)
