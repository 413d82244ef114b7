"""Shared builders and independent oracles used across the test suite.

Oracles here deliberately avoid the library's own search/estimation paths:
the wafer oracle counts squares on a grid, the explorer oracle scores every
design, the reference GA builds every child and re-ranks every design, the
mapping oracle enumerates every plan, the policy oracles
brute-force every option, and the simulator reference re-runs a whole
simulation in one plain loop.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
from bisect import bisect_right
from dataclasses import replace

from edcarb.accelerator_model import (
    AcceleratorConfig,
    AreaBreakdown,
    AreaParams,
    ConvLayer,
    Dataflow,
    DnnWorkload,
    MultiplierVariant,
    estimate_area,
    estimate_latency,
)
from edcarb.carbon_model import PackageKind, TechnologyParams
from edcarb.design_explorer import (
    _GENES,
    CostTables,
    DesignSpace,
    EvaluatedDesign,
    GaParams,
    GaResult,
    GenerationStats,
    _fitness_of,
    evaluate,
)
from edcarb.edc_scheduler import (
    EdgeNode,
    ModelVariant,
    Plan,
    PreparedMapping,
    ProcessingUnit,
    SearchParams,
    UnitKind,
    VariantLayer,
    _candidate_plans,
    _empty_fold,
    _exact_estimate,
    _fold,
    _folded_estimate,
    _summary,
    ci_to_threshold,
    hysteresis_update,
    search_mapping,
    segment_cost,
)
from edcarb.errors import InfeasibleError, ValidationFailure
from edcarb.runtime_sim import (
    CiTrace,
    ExecLookupTable,
    LlmVariant,
    SimConfig,
    SimReport,
    StepSample,
    choose_batch,
    choose_concurrency,
    choose_frequency,
    ci_level_of,
    llm_select,
)


# ---------------------------------------------------------------------------
# wafer oracle
# ---------------------------------------------------------------------------


def left_sum(values) -> float:
    """The floats added left to right from 0.0, as the built-in sum adds
    them up to Python 3.11 and the library adds them on every version."""
    return functools.reduce(operator.add, values, 0.0)


def grid_placement_count(die_area_cm2: float, wafer_diameter_cm: float) -> int:
    """Count axis-aligned square dies fully inside the wafer disc.

    The grid is anchored at the wafer center; a die counts when all four
    corners lie within the radius. Independent of the closed-form estimate.
    """
    side = math.sqrt(die_area_cm2)
    radius = wafer_diameter_cm / 2.0
    n_cells = int(math.ceil(radius / side)) + 1
    count = 0
    r2 = radius * radius
    for i in range(-n_cells, n_cells):
        for j in range(-n_cells, n_cells):
            x0, y0 = i * side, j * side
            x1, y1 = x0 + side, y0 + side
            if all(x * x + y * y <= r2 for x in (x0, x1) for y in (y0, y1)):
                count += 1
    return count


# ---------------------------------------------------------------------------
# accelerator fixtures
# ---------------------------------------------------------------------------


def make_tech(**overrides) -> TechnologyParams:
    values = dict(
        node_label="7nm",
        cfpa_kg_per_cm2=2.0,
        cfpa_si_kg_per_cm2=1.0,
        wafer_diameter_cm=30.0,
        packaging_kg=0.3,
        bonding_kg_per_cm2=0.2,
        tsv_kg_per_via=1e-4,
    )
    values.update(overrides)
    return TechnologyParams(**values)


EMBODIED_COEFFICIENTS = (
    "cfpa_kg_per_cm2",
    "cfpa_si_kg_per_cm2",
    "packaging_kg",
    "bonding_kg_per_cm2",
    "tsv_kg_per_via",
)


def only_coefficients(tech: TechnologyParams, *kept: str) -> TechnologyParams:
    """`tech` with every embodied coefficient but `kept` zeroed, so the
    embodied carbon it gives is the kept terms alone."""
    return replace(tech, **{name: 0.0 for name in EMBODIED_COEFFICIENTS if name not in kept})


def make_area_params(**overrides) -> AreaParams:
    values = dict(sram_mm2_per_byte=2**-13, fixed_overhead_mm2=2.0, mac_adder_mm2=0.005)
    values.update(overrides)
    return AreaParams(**values)


EXACT_MULT = MultiplierVariant(name="exact", area_mm2=0.008, accuracy_drop_pct=0.0)


def area_of(
    config: AcceleratorConfig, params: AreaParams, stacking: PackageKind = PackageKind.PLANAR_2D
) -> AreaBreakdown:
    """The model's die areas for the genes of `config`, packaged as `stacking`."""
    c = config
    return estimate_area(c.px, c.py, c.b_local, c.b_global, c.multiplier, params, stacking)


def latency_of(
    config: AcceleratorConfig, workload: DnnWorkload, clock_hz: float = 1e9, dram_bytes_per_cycle: float = 16.0
) -> float:
    """The model's latency for the genes of `config` at `clock_hz` and `dram_bytes_per_cycle`."""
    c = config
    return estimate_latency(c.px, c.py, c.b_global, c.dataflow, clock_hz, dram_bytes_per_cycle, workload)


def make_workload(n_layers: int = 3) -> DnnWorkload:
    shapes = [
        ConvLayer(n=1, c=3, k=16, r=3, s=3, p=32, q=32),
        ConvLayer(n=1, c=16, k=32, r=3, s=3, p=16, q=16),
        ConvLayer(n=1, c=32, k=64, r=3, s=3, p=8, q=8),
        ConvLayer(n=1, c=64, k=64, r=1, s=1, p=8, q=8),
    ]
    return DnnWorkload(name="toy", layers=tuple(shapes[:n_layers]))


# ---------------------------------------------------------------------------
# explorer oracle
# ---------------------------------------------------------------------------


_GENE_FIELDS = dict(
    zip(_GENES, ("px_values", "py_values", "b_local_values", "b_global_values", "dataflows", "multipliers"))
)


def gene_values(space: DesignSpace, gene: str) -> tuple:
    """The candidate list of `gene`, a name in `_GENES`, in `space`."""
    return getattr(space, _GENE_FIELDS[gene])


def chromosomes(space: DesignSpace):
    """All designs of `space` in lexicographic gene order."""
    for values in itertools.product(*(gene_values(space, g) for g in _GENES)):
        yield AcceleratorConfig(*values)


def reference_exhaustive_search(
    space: DesignSpace,
    workload: DnnWorkload,
    fitness: str = "cdp",
    cap: int = 1_000_000,
) -> EvaluatedDesign:
    """True optimum over the whole space, by scoring every design.

    Ties break by lexicographic chromosome order, which enumeration order
    already guarantees.
    """
    if fitness not in ("cdp", "delay"):
        raise ValidationFailure(f"unknown fitness {fitness!r}")
    if space.size > cap:
        raise ValidationFailure(f"space has {space.size} designs, cap is {cap}")
    tables = CostTables()
    designs = (evaluate(c, workload, space, tables) for c in chromosomes(space))
    feasible = (d for d in designs if d.feasible)
    best = min(feasible, key=lambda d: _fitness_of(d, fitness), default=None)
    if best is None:
        raise InfeasibleError("every design in the space is infeasible")
    return best


def _reference_crossover(a: AcceleratorConfig, b: AcceleratorConfig, rng: random.Random) -> tuple:
    swaps = [rng.random() < 0.5 for _ in _GENES]
    genes_a = [getattr(b if swap else a, g) for swap, g in zip(swaps, _GENES)]
    genes_b = [getattr(a if swap else b, g) for swap, g in zip(swaps, _GENES)]
    return AcceleratorConfig(*genes_a), AcceleratorConfig(*genes_b)


def _reference_mutate(c: AcceleratorConfig, rate: float, space: DesignSpace, rng: random.Random) -> AcceleratorConfig:
    updates = {}
    for gene in _GENES:
        if rng.random() < rate:
            updates[gene] = rng.choice(gene_values(space, gene))
    return AcceleratorConfig(*(updates.get(g, getattr(c, g)) for g in _GENES)) if updates else c


def ga_extremes(population_size: int) -> dict[str, dict]:
    """GaParams overrides that put one setting at a bound, by case name."""
    return {
        "elitism0": dict(elitism_count=0),
        "elitism_all_but_one": dict(elitism_count=population_size - 1),
        "tournament1": dict(tournament_k=1),
        "tournament_above_population": dict(tournament_k=population_size + 1),
        "crossover0": dict(crossover_rate=0.0),
        "crossover1": dict(crossover_rate=1.0),
        "mutation0": dict(mutation_rate=0.0),
        "mutation1": dict(mutation_rate=1.0),
    }


def reference_run_ga(space: DesignSpace, params: GaParams, workload: DnnWorkload, fitness: str = "cdp") -> GaResult:
    """The GA as a plain loop over AcceleratorConfigs: every child a new
    design, the sort key of a design recomputed at each ranking, the elites
    from sorting the designs.

    Draws the same random numbers in the same order as `run_ga`, so the two
    return equal results.
    """
    if fitness not in ("cdp", "delay"):
        raise ValidationFailure(f"unknown fitness {fitness!r}")
    rng = random.Random(params.rng_seed)
    cache: dict[AcceleratorConfig, EvaluatedDesign] = {}
    tables = CostTables()

    def eval_cached(c: AcceleratorConfig) -> EvaluatedDesign:
        hit = cache.get(c)
        if hit is None:
            hit = evaluate(c, workload, space, tables)
            cache[c] = hit
        return hit

    def sort_key(d: EvaluatedDesign) -> tuple:
        return (_fitness_of(d, fitness), space.index_key(d.chromosome))

    population = [
        AcceleratorConfig(*(rng.choice(gene_values(space, g)) for g in _GENES)) for _ in range(params.population_size)
    ]
    history: list[GenerationStats] = []

    for generation in range(1, params.generations + 1):
        designs = [eval_cached(c) for c in population]
        feasible_fit = [_fitness_of(d, fitness) for d in designs if d.feasible]
        history.append(
            GenerationStats(
                generation=generation,
                best_fitness=min(feasible_fit) if feasible_fit else math.inf,
                mean_fitness=left_sum(feasible_fit) / len(feasible_fit) if feasible_fit else math.inf,
            )
        )
        if generation == params.generations:
            break

        keys = [sort_key(d) for d in designs]

        def tournament() -> AcceleratorConfig:
            picks = [rng.randrange(len(designs)) for _ in range(params.tournament_k)]
            return designs[min(picks, key=keys.__getitem__)].chromosome

        next_pop = [d.chromosome for d in sorted(designs, key=sort_key)[: params.elitism_count]]
        while len(next_pop) < params.population_size:
            parent_a, parent_b = tournament(), tournament()
            if rng.random() < params.crossover_rate:
                child_a, child_b = _reference_crossover(parent_a, parent_b, rng)
            else:
                child_a, child_b = parent_a, parent_b
            next_pop.append(_reference_mutate(child_a, params.mutation_rate, space, rng))
            if len(next_pop) < params.population_size:
                next_pop.append(_reference_mutate(child_b, params.mutation_rate, space, rng))
        population = next_pop

    best = min((d for d in cache.values() if d.feasible), key=sort_key, default=None)
    if best is None:
        raise InfeasibleError("no feasible design found in any generation")
    return GaResult(best=best, history=tuple(history), evaluated=tuple(cache.values()))


def twin_multiplier(m: MultiplierVariant) -> MultiplierVariant:
    """A copy of `m` under another name: every design with it ties its twin."""
    return MultiplierVariant(f"{m.name}_twin", m.area_mm2, m.accuracy_drop_pct)


def random_design_space(rng: random.Random, stacking: PackageKind = PackageKind.PLANAR_2D) -> DesignSpace:
    """A small space (at most 324 designs) drawn to force ties in both factors.

    Arrays no wider than 3, the smallest dimension of the `make_workload`
    layers, keep every PE busy under every dataflow, so a wide DRAM bus
    makes the dataflows, the b_global values and the transposed (px, py)
    shapes tie in latency, and the twin of a multiplier ties it in embodied
    carbon. A width of 8 leaves PEs idle in some dataflows, and a narrow bus
    makes latency depend on b_global and the dataflow. Some draws cap the
    area or list multipliers over the accuracy threshold, so some designs,
    and sometimes all, are infeasible.
    """
    lossy = MultiplierVariant("apx_lossy", 0.002, 3.0)
    half = MultiplierVariant("apx_half", 0.004, 1.5)
    pool = (EXACT_MULT, twin_multiplier(EXACT_MULT), half, twin_multiplier(half), lossy)
    return DesignSpace(
        px_values=tuple(rng.sample((1, 2, 3, 8), rng.randint(1, 3))),
        py_values=tuple(rng.sample((1, 2, 3, 8), rng.randint(1, 3))),
        b_local_values=tuple(rng.sample((64, 256), rng.randint(1, 2))),
        b_global_values=tuple(rng.sample((512, 4096, 65536), rng.randint(1, 2))),
        dataflows=tuple(rng.sample(tuple(Dataflow), rng.randint(1, 3))),
        multipliers=tuple(rng.sample(pool, rng.randint(1, 3))),
        tech=make_tech(),
        area_params=make_area_params(),
        stacking=stacking,
        dram_bytes_per_cycle=rng.choice((1.0, 16.0, 1e6)),
        tsv_count=rng.choice((0, 200)),
        max_area_cm2=rng.choice((None, None, 0.05, 0.09)),
    )


# ---------------------------------------------------------------------------
# scheduler fixtures and plan-enumeration oracle
# ---------------------------------------------------------------------------


def make_unit(
    uid: str,
    kind: str,
    layer_ids,
    n_freqs: int = 2,
    base_latency_ms: float = 4.0,
    base_power_w: float = 3.0,
    idle_power_w: float = 1.0,
) -> ProcessingUnit:
    profile = {}
    for li, lid in enumerate(layer_ids):
        for f in range(n_freqs):
            latency = base_latency_ms * (li + 1) * (1.0 - 0.3 * f / max(1, n_freqs - 1))
            power = base_power_w * (1.0 + 0.6 * f / max(1, n_freqs - 1))
            profile[(lid, f)] = (latency, power)
    freqs = tuple(1e9 * (i + 1) for i in range(n_freqs))
    return ProcessingUnit(uid, UnitKind[kind], freqs, idle_power_w, profile)


def make_variant(name: str, layer_ids, accuracy: float = 0.8, output_bytes: int = 40_000) -> ModelVariant:
    return ModelVariant(
        name=name,
        accuracy=accuracy,
        layers=tuple(VariantLayer(lid, output_bytes) for lid in layer_ids),
    )


def random_scheduler_instance(rng: random.Random, n_layers=None, n_units=None, n_freqs=None):
    """A small random (workloads, node) pair with consistent profiles."""
    n_layers = n_layers or rng.randint(2, 3)
    n_units = n_units or rng.randint(2, 3)
    n_freqs = n_freqs or rng.randint(1, 2)
    layer_ids = tuple(f"l{i}" for i in range(n_layers))
    units = []
    for u in range(n_units):
        profile = {}
        for lid in layer_ids:
            base_lat = rng.uniform(1.0, 8.0)
            base_pow = rng.uniform(1.0, 8.0)
            for f in range(n_freqs):
                speedup = 1.0 - 0.5 * f / max(1, n_freqs)
                profile[(lid, f)] = (base_lat * speedup, base_pow * (1.0 + 0.7 * f))
        units.append(
            ProcessingUnit(
                id=f"u{u}",
                kind=UnitKind.CPU if u % 2 == 0 else UnitKind.GPU,
                freq_levels_hz=tuple(1e9 * (i + 1) for i in range(n_freqs)),
                idle_power_w=rng.uniform(0.1, 1.0),
                profile=profile,
            )
        )
    node = EdgeNode(
        units=tuple(units),
        transfer_bytes_per_ms=rng.uniform(5e4, 5e5),
    )
    n_dnns = rng.randint(1, 2)
    workloads = [
        ModelVariant(
            name=f"m{d}",
            accuracy=0.9 - 0.05 * d,
            layers=tuple(VariantLayer(lid, rng.randint(10_000, 200_000)) for lid in layer_ids),
        )
        for d in range(n_dnns)
    ]
    return workloads, node


def validate_plan(plan: Plan, variant: ModelVariant, node: EdgeNode) -> None:
    """Check that segments partition the layer list contiguously and use valid units and freqs."""
    if not plan:
        raise ValidationFailure(f"plan for {variant.name!r} has no segments")
    expected = 0
    for start, end, u, f in plan:
        if start != expected or end <= start:
            raise ValidationFailure(f"plan for {variant.name!r}: segments must be contiguous and non-empty")
        if not 0 <= u < len(node.units):
            raise ValidationFailure(f"plan for {variant.name!r}: unit index {u} outside the node")
        if not 0 <= f < len(node.units[u].freq_levels_hz):
            raise ValidationFailure(f"plan for {variant.name!r}: freq index {f} invalid for unit {u}")
        expected = end
    if expected != len(variant.layers):
        raise ValidationFailure(f"plan for {variant.name!r}: segments do not cover all layers")


def plan_bottleneck_ms(plan: Plan, variant: ModelVariant, node: EdgeNode) -> float:
    """Latency ms of the plan's slowest segment, each segment costed afresh."""
    return max(segment_cost(seg, variant, node)[0] for seg in plan)


def enumerate_all_plans(variant: ModelVariant, node: EdgeNode) -> list[Plan]:
    """Every (cuts, unit, freq) plan for one DNN, unrestricted segment count."""
    n = len(variant.layers)
    choices = [
        (u, f)
        for u, unit in enumerate(node.units)
        if unit.covers(variant.layer_ids)
        for f in range(len(unit.freq_levels_hz))
    ]
    plans = []
    for n_cuts in range(0, n):
        for cuts in itertools.combinations(range(1, n), n_cuts):
            bounds = (0,) + cuts + (n,)
            for combo in itertools.product(choices, repeat=len(bounds) - 1):
                plans.append(tuple((*span, u, f) for span, (u, f) in zip(itertools.pairwise(bounds), combo)))
    return plans


def _plan_terms(variant: ModelVariant, plan: Plan, node: EdgeNode) -> tuple[float, tuple[float, ...]]:
    """One mapped DNN's share of the pipeline model: it runs at 1000 / its
    slowest segment's ms, and each unit pays the max active power of the
    DNN's segments on it, -inf when the DNN leaves the unit empty."""
    costs = [segment_cost(seg, variant, node) for seg in plan]
    unit_power = [-math.inf] * len(node.units)
    for (_, _, u, _), (_, power) in zip(plan, costs):
        unit_power[u] = max(unit_power[u], power)
    return 1000.0 / max(latency for latency, _ in costs), tuple(unit_power)


def exhaustive_mapping(workloads, node, power_threshold_w: float):
    """Best feasible inferences-per-watt over the full cross product of plans,
    with every joint plan (one plan per DNN) that reaches it exactly.

    Each plan's terms are computed once per DNN. A combination's throughput
    is the sum of its throughput terms; each unit pays the max power any DNN
    puts on it, or its idle power when no DNN uses it. Returns
    ``(ipw, joint plans)``, or None when nothing fits under the threshold.
    """
    per_dnn = [[(*_plan_terms(v, plan, node), plan) for plan in enumerate_all_plans(v, node)] for v in workloads]
    idle = [unit.idle_power_w for unit in node.units]
    best: float | None = None
    winners: list[tuple[Plan, ...]] = []
    for combo in itertools.product(*per_dnn):
        unit_power = map(max, zip(*(powers for _, powers, _ in combo)))
        power = sum(p if p >= 0.0 else idle_w for p, idle_w in zip(unit_power, idle))
        if power <= power_threshold_w:
            ipw = sum(term for term, _, _ in combo) / power
            if best is None or ipw > best:
                best, winners = ipw, []
            if ipw == best:
                winners.append(tuple(plan for _, _, plan in combo))
    return None if best is None else (best, winners)


@functools.cache
def tiny_mapping_oracle_suite() -> tuple:
    """The 25 seed-4001 instances the scheduler is checked against exactly:
    (workloads, node, threshold, best ipw of `exhaustive_mapping` or None) tuples.

    Cached, so the tests that share the suite pay for the enumeration once
    per session. Callers must not mutate the returned workloads.
    """
    rng = random.Random(4001)
    suite = []
    for _ in range(25):
        workloads, node = random_scheduler_instance(rng)
        threshold = rng.uniform(4.0, 30.0)
        best = exhaustive_mapping(workloads, node, threshold)
        suite.append((workloads, node, threshold, None if best is None else best[0]))
    return tuple(suite)


def reference_prepare_mapping(workloads, node: EdgeNode, params: SearchParams) -> PreparedMapping:
    """`prepare_mapping` as it was before its beam ranked on floats and positions.

    It folds every (partial, candidate) extension, builds its estimate and
    its concatenated-plan key, and sorts the whole list. The candidate draws,
    segment costs and fold are the library's; the library's own ranking must
    keep the same survivors in the same order.
    """
    rng = random.Random(params.rng_seed)
    coverings = []
    for variant in workloads:
        coverings.append([u for u, unit in enumerate(node.units) if unit.covers(variant.layer_ids)])
    fallbacks = [
        tuple(((0, len(v.layers), u, 0),) for v in workloads)
        for u in range(len(node.units))
        if all(u in cov for cov in coverings)
    ]
    candidates = [
        _candidate_plans(len(variant.layers), coverings[d], node, params, rng)
        for d, variant in enumerate(workloads)
    ]

    segment_costs = {}
    beam = [((), _empty_fold(node))]
    for d, variant in enumerate(workloads):
        options = [(plan, _summary(segment_costs, d, plan, variant, node)) for plan in candidates[d]]
        ranked = []
        for i, (plans, state) in enumerate(beam):
            key = sum(plans, ())
            for j, (plan, plan_sum) in enumerate(options):
                exact = _folded_estimate(_fold(state, plan_sum), node)
                ranked.append((-exact.ipw, key + plan, i, j))
        ranked.sort()
        beam = [
            (beam[i][0] + (options[j][0],), _fold(beam[i][1], options[j][1]))
            for _, _, i, j in ranked[: params.beam_width]
        ]

    pool = [(plans, _folded_estimate(state, node)) for plans, state in beam]
    pool += [(fb, _exact_estimate(segment_costs, fb, workloads, node)) for fb in fallbacks]
    pool.sort(key=lambda entry: (-entry[1].ipw, sum(entry[0], ())))
    return PreparedMapping(
        workloads=tuple(workloads),
        node=node,
        coverings=tuple(coverings),
        local_search_moves=params.local_search_moves,
        pool=tuple(pool),
        segment_costs=segment_costs,
    )


# ---------------------------------------------------------------------------
# runtime fixtures and policy oracles
# ---------------------------------------------------------------------------


def random_exec_table(rng: random.Random, n_batches: int = 4, n_freqs: int = 3) -> ExecLookupTable:
    """Random lookup table honoring the latency/energy monotonicity invariants."""
    batch_sizes = [1]
    while len(batch_sizes) < n_batches:
        batch_sizes.append(batch_sizes[-1] + rng.randint(1, 4))
    entries = {}
    for f in range(n_freqs):
        speed = 1.0 + 0.8 * (n_freqs - 1 - f)  # lower freq -> slower
        latency = rng.uniform(2.0, 8.0) * speed
        energy_per_inf = rng.uniform(0.2, 1.0) * (1.0 + 0.3 * f)
        prev_epi = None
        for b in batch_sizes:
            if prev_epi is not None:
                energy_per_inf = prev_epi * rng.uniform(0.75, 1.0)
            entries[(b, f)] = (latency, energy_per_inf * b)
            prev_epi = energy_per_inf
            latency += rng.uniform(0.5, 4.0) * speed
    concurrency = {1: (1.0, 1.0)}
    k = 2
    while rng.random() < 0.6 and k <= 4:
        concurrency[k] = (rng.uniform(1.0, float(k)), rng.uniform(1.0, 2.0))
        k += 1
    return ExecLookupTable(entries=entries, concurrency=concurrency)


def brute_force_batch(queue_len, table, deadline_ms, wait_ms, freq_idx):
    """Feasible batch minimizing energy per inference; ties prefer the larger batch."""
    feasible = [
        b
        for b in table.batch_sizes
        if b <= queue_len and table.latency_ms(b, freq_idx) + wait_ms <= deadline_ms
    ]
    if not feasible:
        return 1
    return min(feasible, key=lambda b: (table.entries[(b, freq_idx)][1] / b, -b))


def brute_force_frequency(batch, table, deadline_ms, wait_ms):
    """Lowest feasible frequency; the top one when none meets the deadline."""
    feasible = [
        f
        for f in range(table.n_freqs)
        if table.latency_ms(batch, f) + wait_ms <= deadline_ms
    ]
    return min(feasible) if feasible else table.n_freqs - 1


def strip_timestamp_lines(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if "generated_at" not in ln)


def logged_events(report) -> list[tuple]:
    """The report's decision log as (t_s, kind, detail) tuples, as
    `reference_simulation` builds its events. Records of two shapes can hold
    equal values and compare equal as tuples, so logs compare with their
    kinds."""
    return [(ev.t_s, ev.kind, ev.detail) for ev in report.decision_log]


def read_decision_log(path) -> list[dict]:
    """The events of a `decision_log.jsonl` as `simulate` writes it, one dict
    per line in file order. NaN and Infinity, which the writer refuses,
    fail the read."""

    def refuse(name):
        raise ValueError(f"{path}: {name} in a decision log")

    with open(path) as handle:
        return [json.loads(line, parse_constant=refuse) for line in handle]


# ---------------------------------------------------------------------------
# simulator reference and seeded queue-mode runs
# ---------------------------------------------------------------------------

LLM_VARIANTS = (
    LlmVariant("big", 0.95, (20.0, 35.0), (12.0, 18.0)),
    LlmVariant("mid", 0.90, (30.0, 50.0), (8.0, 12.0)),
    LlmVariant("small", 0.85, (45.0, 70.0), (5.0, 7.0)),
)


def reference_poisson_arrivals(
    rate_per_s: float, seed: int, horizon_s: float, kinds: tuple[str, ...] = ("default",)
) -> tuple[tuple[float, ...], tuple[str, ...]]:
    """Poisson arrivals before horizon_s as two columns, their times and
    their kinds. The gaps are `random.Random(seed).expovariate(rate_per_s)`
    draws; with more than one kind, each arrival's kind is a `choice` drawn
    between its time and the next gap. One kind gives the draws of
    `PoissonArrivals(rate_per_s, seed)`."""
    rng = random.Random(seed)
    times, drawn = [], []
    t = rng.expovariate(rate_per_s)
    while t < horizon_s:
        times.append(t)
        drawn.append(kinds[0] if len(kinds) == 1 else rng.choice(kinds))
        t += rng.expovariate(rate_per_s)
    return tuple(times), tuple(drawn)


def random_queue_scenario(rng: random.Random, mode: str):
    """A seeded batch or llm run: (config, trace, arrival columns,
    run_simulation keywords).

    The arrivals are the two columns of `reference_poisson_arrivals`, with
    one to three kinds; they are not a `TraceArrivals`, so that
    `tools/library_digest.py` can pass them to any version of the library
    through an arrivals CSV. The Poisson rate is a multiple of a service rate
    of the mode, from nearly idle to several times overload, and the horizon
    is cut so that about 1,500 requests arrive at most. p_min_w is drawn
    around the least power one dispatch draws; in batch mode a draw under it
    power-gates the queue whenever the threshold falls to p_min_w (in llm
    mode no variant could be selected there, so its draws stay at or above
    it).
    """
    tokens = rng.choice((16, 64))
    if mode == "batch":
        table = random_exec_table(rng)
        # one request per dispatch at the top frequency, on the best stream count
        best_streams = max(scale for scale, _ in table.concurrency.values())
        service_rate = 1000.0 / table.latency_ms(1, table.n_freqs - 1) * best_streams
        floor = min(energy * 1000.0 / latency for latency, energy in table.entries.values())
        factors = (0.5, 0.9, 1.1, 2.0)
        kwargs = {"table": table}
    else:
        service_rate = max(max(v.tokens_per_s) for v in LLM_VARIANTS) / tokens
        floor = min(min(v.power_w) for v in LLM_VARIANTS)
        factors = (1.0, 1.6, 2.4)
        kwargs = {"llm_variants": LLM_VARIANTS}
    rate = service_rate * rng.choice((0.01, 0.3, 1.0, 4.0))
    horizon = min(rng.uniform(10.0, 40.0), 1500.0 / rate)
    ci = [rng.uniform(50.0, 600.0) for _ in range(rng.randint(1, 6))]
    trace = CiTrace(tuple((i * horizon / len(ci), c) for i, c in enumerate(ci)), horizon_s=horizon)
    seed = rng.randrange(2**16)
    arrivals = reference_poisson_arrivals(rate, seed, horizon, tuple("abc"[: rng.randint(1, 3)]))
    p_min = floor * rng.choice(factors)
    config = SimConfig(
        mode=mode,
        horizon_s=horizon,
        step_s=rng.choice((0.1, 0.5, 1.0, 2.5)),
        policy=rng.choice(("adaptive", "static")),
        deadline_ms=rng.choice((5.0, 50.0, 500.0, 5000.0)),
        p_min_w=p_min,
        p_max_w=p_min * rng.uniform(1.0, 4.0),
        idle_power_w=rng.choice((0.0, 0.3)),
        tokens_per_request=tokens,
        tps_floor=rng.uniform(10.0, 60.0),
    )
    return config, trace, arrivals, kwargs


J_PER_KWH = 3.6e6  # the reference keeps its own constant


def reference_simulation(
    config, trace, arrivals=None, *, table=None, llm_variants=None, node=None, workloads=None, search_params=None
) -> SimReport:
    """`run_simulation` on valid inputs, as one plain loop over the clock.
    Its decision log holds (t_s, kind, detail) tuples; `logged_events`
    projects a library report's log the same way.

    The queue is rebuilt as a list before each dispatch, the LLM variant is
    re-selected and the mapping re-planned with a fresh `search_mapping` at
    each threshold change. Only the tested policy functions are shared with
    the library. Each dispatch, idle and power event adds its energy to the
    step's and the run's totals in the library's float order, so every total
    must be bit-equal.
    """
    mode = config.mode
    ci_min = min(ci for _, ci in trace.samples)
    ci_max = max(ci for _, ci in trace.samples)
    events = [] if mode == "mapping" else list(zip(*arrivals.columns(config.horizon_s)))
    arrival_times = [a for a, _ in events]
    log, steps = [], []
    threshold, ci_ref, llm, flow = config.p_max_w, None, None, None
    total_j = grams = busy_s = device_free = flow_done = flow_late = 0.0
    served = misses = max_queue = 0
    t = 0.0
    while t < config.horizon_s - 1e-12:
        dt = min(config.step_s, config.horizon_s - t)
        step_end = t + dt
        earlier = [ci for s, ci in trace.samples if s <= t]
        ci = earlier[-1] if earlier else trace.samples[0][1]
        adaptive = config.policy == "adaptive"
        if ci_ref is None or adaptive and hysteresis_update(ci_ref, ci, ci_max - ci_min, config.hysteresis_fraction):
            cause = "initial" if ci_ref is None else "ci_change"
            ci_ref = ci
            if adaptive:
                threshold = ci_to_threshold(ci, ci_min, ci_max, config.p_min_w, config.p_max_w)
            log.append((t, "adapt", {"threshold_w": threshold, "ci": ci, "cause": cause}))
            if mode == "llm":
                level = ci_level_of(ci, ci_min, ci_max)
                choice = llm_select(llm_variants, threshold, level, config.tps_floor)
                llm = choice.variant, choice.freq_idx
                log.append((t, "llm_select", {
                    "variant": choice.variant.name,
                    "freq_idx": choice.freq_idx,
                    "ci_level": level,
                    "tps_violated": choice.tps_violated,
                }))
            elif mode == "mapping":
                solution = search_mapping(workloads, node, threshold, search_params)
                late = any(
                    plan_bottleneck_ms(plan, variant, node) > config.deadline_ms
                    for variant, plan in zip(workloads, solution.plans)
                )
                flow = solution.estimate.power_w, solution.estimate.throughput_inf_per_s, late
                log.append((t, "remap", {
                    "power_w": flow[0],
                    "throughput": flow[1],
                    "segments": sum(len(plan) for plan in solution.plans),
                }))
        step_j = 0.0
        if mode == "mapping":
            power_w, throughput, late = flow
            energy = power_w * dt
            step_j += energy
            total_j += energy
            flow_done += throughput * dt
            if late:
                flow_late += throughput * dt
            log.append((t, "power", {"energy_j": energy, "power_w": power_w, "ci": ci}))
        else:
            busy = max(0.0, min(device_free, step_end) - t)
            now = max(device_free, t)
            while True:
                queue = events[served : bisect_right(arrival_times, now)]
                max_queue = max(max_queue, len(queue))
                if not queue:
                    if served < len(events) and events[served][0] < step_end:
                        now = events[served][0]
                        continue
                    break
                if now >= step_end:
                    break
                if mode == "llm":
                    variant, f = llm
                    duration = config.tokens_per_request / variant.tokens_per_s[f]
                    power_w = variant.power_w[f]
                    head = {"variant": variant.name, "freq_idx": f, "tokens": config.tokens_per_request}
                    dispatch = 1, head, duration, power_w * duration, power_w
                else:
                    dispatch = _reference_batch_dispatch(queue, now, table, config.deadline_ms, threshold)
                if dispatch is None:
                    log.append((now, "power_gated", {"threshold_w": threshold, "ci": ci}))
                    break
                n, head, duration, energy, power_w = dispatch
                completion = now + duration
                batch = [a for a, _ in queue[:n]]
                late = sum(1 for a in batch if completion > a + config.deadline_ms / 1000.0)
                served += n
                misses += late
                busy_s += duration
                step_j += energy
                total_j += energy
                busy += min(completion, step_end) - now
                log.append((now, "dispatch", {
                    **head,
                    "duration_s": duration,
                    "energy_j": energy,
                    "power_w": power_w,
                    "completion_s": completion,
                    "misses": late,
                    "arrivals": batch,
                    "ci": ci,
                }))
                now = device_free = completion
            idle_s = max(0.0, dt - busy)
            if idle_s > 0 and config.idle_power_w > 0:
                energy = config.idle_power_w * idle_s
                step_j += energy
                total_j += energy
                log.append((step_end, "idle", {"idle_s": idle_s, "energy_j": energy, "ci": ci}))
        grams += ci * step_j / J_PER_KWH
        steps.append(StepSample(t, ci, threshold, step_j / dt, step_j / J_PER_KWH, grams))
        t = step_end
    inferences = served
    if mode == "mapping":
        inferences = int(flow_done)
        misses = min(inferences, int(flow_late))
    backlog = len(events) - served
    return SimReport(
        total_energy_kwh=total_j / J_PER_KWH,
        operational_g=grams,
        inferences_done=inferences,
        deadline_misses=misses,
        mean_tps=inferences * config.tokens_per_request / busy_s if mode == "llm" and busy_s > 0 else 0.0,
        arrivals_total=len(events),
        backlog_at_horizon=backlog,
        max_queue_len=max(max_queue, backlog),
        decision_log=log,
        steps=steps,
    )


def _reference_batch_dispatch(queue, now, table, deadline_ms, threshold_w):
    """The batch policy hierarchy on a queue of (arrival_s, kind): the stream
    count, then each stream's batch at the top frequency, then the lowest
    frequency under the threshold that meets the head's deadline. One stream
    when no frequency fits the streams, None when none fits one stream.

    Returns (requests served, leading log keys, duration_s, energy_j, power_w).
    """
    top = table.n_freqs - 1
    k = choose_concurrency(len({kind for _, kind in queue}), table)
    for streams in (k, 1) if k > 1 else (1,):
        sizes = []
        while len(sizes) < streams and sum(sizes) < len(queue):
            rest = queue[sum(sizes) :]
            sizes.append(choose_batch(len(rest), table, deadline_ms, (now - rest[0][0]) * 1000.0, top))
        t_scale, p_scale = table.concurrency[len(sizes)]
        fits = {}
        for f in range(table.n_freqs):
            serial_ms = left_sum(table.entries[b, f][0] for b in sizes)
            serial_j = left_sum(table.entries[b, f][1] for b in sizes)
            if serial_j * 1000.0 / serial_ms * p_scale <= threshold_w:
                fits[f] = serial_ms, serial_j
        if fits:
            f = choose_frequency(sizes[0], table, deadline_ms, (now - queue[0][0]) * 1000.0, sorted(fits))
            serial_ms, serial_j = fits[f]
            head = {"batches": sizes, "streams": len(sizes), "freq_idx": f}
            power_w = serial_j * 1000.0 / serial_ms * p_scale
            return sum(sizes), head, serial_ms / t_scale / 1000.0, serial_j * p_scale / t_scale, power_w
    return None
