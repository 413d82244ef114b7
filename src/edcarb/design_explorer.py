"""Genetic-algorithm search over accelerator design points.

A chromosome is a design's index key: the first position of each of six
genes (array width and height, per-PE buffer, global buffer, dataflow,
multiplier variant) in the DesignSpace's candidate lists, so equal genes are
equal keys. The stacking, clock, DRAM width and TSV count, which every design
of a search shares, are read from the DesignSpace alone. Fitness is the
carbon-delay product of the evaluated design (or plain latency when emulating
a delay-first baseline). Infeasible designs keep their metrics but carry +inf
fitness so selection routes around them. The GA ranks on each distinct key's
(fitness, key) and builds the key's design once, when it is first evaluated.

exhaustive_search is the oracle the GA is validated against. It finds the
true optimum without scoring each design: the cost model is separable, as
in ACT's per-component embodied model (Gupta et al., ISCA '22), so it costs
each embodied and each latency key once and bounds each shared
(px, py, b_global) key by its smallest feasible embodied carbon and its
smallest latency; ties go to the smallest index key, as in enumeration.
Each key is costed from its gene values and the space's settings
(_embodied_verdict, the one caller of the embodied model, for evaluate
too), so only the winner becomes an AcceleratorConfig.
pareto_front extracts the non-dominated (embodied, latency) designs from
any evaluated population.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

from .accelerator_model import (
    AcceleratorConfig,
    AreaParams,
    Dataflow,
    DnnWorkload,
    MultiplierVariant,
    accelerator_embodied,
    accuracy_feasible,
    estimate_area,
    estimate_latency,
)
from .carbon_model import PackageKind, TechnologyParams, cdp
from .errors import InfeasibleError, ValidationFailure

_GENES = ("px", "py", "b_local", "b_global", "dataflow", "multiplier")


@dataclass(frozen=True)
class DesignSpace:
    """Candidate values per gene plus the settings every design of a run shares.

    Stacking, clock, DRAM width and TSV count are run settings, not genes:
    they live here alone, and 2D and 3D explorations are separate studies.
    The multiplier candidate list is the approximation dimension;
    an exact-only run simply passes a single-variant list.
    """

    px_values: tuple[int, ...]
    py_values: tuple[int, ...]
    b_local_values: tuple[int, ...]
    b_global_values: tuple[int, ...]
    dataflows: tuple[Dataflow, ...]
    multipliers: tuple[MultiplierVariant, ...]
    tech: TechnologyParams
    area_params: AreaParams
    stacking: PackageKind = PackageKind.PLANAR_2D
    clock_hz: float = 1e9
    dram_bytes_per_cycle: float = 16.0
    tsv_count: int = 0
    accuracy_threshold_pct: float = 2.0
    max_area_cm2: float | None = None

    def __post_init__(self) -> None:
        fields = ("px_values", "py_values", "b_local_values", "b_global_values", "dataflows", "multipliers")
        genes = {gene: getattr(self, name) for gene, name in zip(_GENES, fields)}
        for name, values in zip(fields, genes.values()):
            if not values:
                raise ValidationFailure(f"design space: candidate list {name} is empty")
        # AcceleratorConfig checks genes only against lower bounds, so the smallest genes stand for all
        smallest = (min(self.px_values), min(self.py_values), min(self.b_local_values), min(self.b_global_values))
        AcceleratorConfig(*smallest, self.dataflows[0], self.multipliers[0])
        for rate in ("clock_hz", "dram_bytes_per_cycle"):
            if not 0 < getattr(self, rate) < math.inf:
                raise ValidationFailure(f"{rate} must be finite and > 0")
        if self.tsv_count < 0:
            raise ValidationFailure("tsv_count must be >= 0")
        if self.max_area_cm2 is not None and not self.max_area_cm2 > 0:
            raise ValidationFailure(f"max_area_cm2 must be > 0, got {self.max_area_cm2}")
        # area grows with each gene and the multiplier's area, so the largest design bounds them all
        largest = (max(self.px_values), max(self.py_values), max(self.b_local_values), max(self.b_global_values))
        biggest_multiplier = max(self.multipliers, key=attrgetter("area_mm2"))
        area = estimate_area(*largest, biggest_multiplier, self.area_params, self.stacking).total_2d_equiv_cm2
        if not area < math.inf:
            raise ValidationFailure(f"the largest design's area must be finite under area_params, got {area} cm2")
        # gene -> {value: its first index}, the position `tuple.index` gives
        index = {gene: {} for gene in genes}
        for gene, values in genes.items():
            for i, value in enumerate(values):
                index[gene].setdefault(value, i)
        object.__setattr__(self, "_genes", genes)
        object.__setattr__(self, "_gene_index", index)
        # per gene, in `_GENES` order, the index-key position of the value at each position
        positions = tuple(tuple(map(index[gene].__getitem__, values)) for gene, values in genes.items())
        object.__setattr__(self, "_positions", positions)

    @property
    def size(self) -> int:
        return math.prod(map(len, self._genes.values()))

    def index_key(self, c: AcceleratorConfig) -> tuple[int, ...]:
        """Each gene's first position in its candidate list; the global tie-break order."""
        return tuple(self._gene_index[g][getattr(c, g)] for g in _GENES)

    def design(self, key: tuple[int, ...]) -> AcceleratorConfig:
        """The design whose index key is `key`."""
        return AcceleratorConfig(*(values[i] for values, i in zip(self._genes.values(), key)))

    def random_chromosome(self, rng: random.Random) -> tuple[int, ...]:
        """The index key of a design drawn uniformly, one candidate per gene."""
        return tuple(rng.choice(positions) for positions in self._positions)


@dataclass(frozen=True)
class GaParams:
    population_size: int = 64
    generations: int = 50
    tournament_k: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.1
    elitism_count: int = 2
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValidationFailure("population_size must be >= 2")
        if self.generations < 1:
            raise ValidationFailure("generations must be >= 1")
        if self.tournament_k < 1:
            raise ValidationFailure("tournament_k must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0 or not 0.0 <= self.mutation_rate <= 1.0:
            raise ValidationFailure("crossover/mutation rates must be in [0, 1]")
        if not 0 <= self.elitism_count < self.population_size:
            raise ValidationFailure("elitism_count must be in [0, population_size)")


@dataclass(frozen=True)
class EvaluatedDesign:
    chromosome: AcceleratorConfig
    embodied_kg: float
    latency_s: float
    cdp_kg_s: float
    feasible: bool
    infeasibility_reason: str | None = None


@dataclass(frozen=True)
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float


@dataclass(frozen=True)
class GaResult:
    best: EvaluatedDesign
    history: tuple[GenerationStats, ...]
    evaluated: tuple[EvaluatedDesign, ...]


@dataclass
class CostTables:
    """The separable cost model's results, kept across one search.

    Latency depends only on (px, py, b_global, dataflow); embodied carbon and
    the feasibility verdict only on (px, py, b_local, b_global, multiplier).
    Every other input is fixed by the space and the workload, so one table
    serves one (workload, space) pair and lives for one search call.
    """

    latency_s: dict[tuple, float] = field(default_factory=dict)
    embodied: dict[tuple, tuple[float, str | None]] = field(default_factory=dict)


def evaluate(
    chromosome: AcceleratorConfig,
    workload: DnnWorkload,
    space: DesignSpace,
    tables: CostTables,
) -> EvaluatedDesign:
    """Score one design point; infeasibility is a value, never an error.

    `tables` carries the model's results between the calls of one search.
    """
    c = chromosome
    embodied_key = (c.px, c.py, c.b_local, c.b_global, c.multiplier)
    embodied = tables.embodied.get(embodied_key)
    if embodied is None:
        embodied = tables.embodied[embodied_key] = _embodied_verdict(*embodied_key, space)
    latency_key = (c.px, c.py, c.b_global, c.dataflow)
    latency = tables.latency_s.get(latency_key)
    if latency is None:
        latency = estimate_latency(*latency_key, space.clock_hz, space.dram_bytes_per_cycle, workload)
        tables.latency_s[latency_key] = latency
    embodied_kg, reason = embodied
    feasible = reason is None
    return EvaluatedDesign(
        chromosome=c,
        embodied_kg=embodied_kg,
        latency_s=latency,
        cdp_kg_s=cdp(embodied_kg, latency) if feasible else math.inf,
        feasible=feasible,
        infeasibility_reason=reason,
    )


def _embodied_verdict(
    px: int, py: int, b_local: int, b_global: int, multiplier: MultiplierVariant, space: DesignSpace
) -> tuple[float, str | None]:
    """(embodied kg, infeasibility reason or None) of one embodied key under
    the space's settings; no design is built for it."""
    area = estimate_area(px, py, b_local, b_global, multiplier, space.area_params, space.stacking)
    embodied_kg = accelerator_embodied(area, space.tech, space.stacking, space.tsv_count)
    reasons = []
    if not accuracy_feasible(multiplier, space.accuracy_threshold_pct):
        reasons.append("accuracy")
    if space.max_area_cm2 is not None and area.total_2d_equiv_cm2 > space.max_area_cm2:
        reasons.append("area")
    return embodied_kg, "+".join(reasons) if reasons else None


def crossover(a: tuple[int, ...], b: tuple[int, ...], rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """Uniform crossover of two index keys: each gene swaps between the
    children with prob 0.5."""
    swaps = [rng.random() < 0.5 for _ in _GENES]
    child_a = tuple(j if swap else i for swap, i, j in zip(swaps, a, b))
    child_b = tuple(i if swap else j for swap, i, j in zip(swaps, a, b))
    return child_a, child_b


def mutate(key: tuple[int, ...], rate: float, space: DesignSpace, rng: random.Random) -> tuple[int, ...]:
    """Redraw each gene of an index key independently with prob `rate`, as
    `DesignSpace.random_chromosome` draws it."""
    return tuple(rng.choice(positions) if rng.random() < rate else i for i, positions in zip(key, space._positions))


def _fitness_of(design: EvaluatedDesign, fitness: str) -> float:
    if not design.feasible:
        return math.inf
    return design.latency_s if fitness == "delay" else design.cdp_kg_s


def run_ga(
    space: DesignSpace,
    params: GaParams,
    workload: DnnWorkload,
    fitness: str = "cdp",
) -> GaResult:
    """Tournament-selection GA with elitism over the design space.

    Returns the best feasible design seen across all generations plus a
    per-generation (best, mean) fitness history over the feasible members of
    each population. Fully deterministic for a fixed seed: all randomness is
    drawn from one seeded stream. The population is index keys; a key's design
    and sort key, (fitness, index key), are built once, when it is first
    evaluated, and every ranking reads them from the cache.
    """
    if fitness not in ("cdp", "delay"):
        raise ValidationFailure(f"unknown fitness {fitness!r}")
    rng = random.Random(params.rng_seed)
    # index key -> (its design, its sort key)
    cache: dict[tuple[int, ...], tuple[EvaluatedDesign, tuple]] = {}
    tables = CostTables()

    def eval_cached(key: tuple[int, ...]) -> tuple[EvaluatedDesign, tuple]:
        hit = cache.get(key)
        if hit is None:
            d = evaluate(space.design(key), workload, space, tables)
            hit = cache[key] = (d, (_fitness_of(d, fitness), key))
        return hit

    population = [space.random_chromosome(rng) for _ in range(params.population_size)]
    positions = range(params.population_size)
    history: list[GenerationStats] = []

    for generation in range(1, params.generations + 1):
        entries = [eval_cached(c) for c in population]
        feasible_fit = [key[0] for d, key in entries if d.feasible]
        # left to right, as the built-in sum adds floats only up to 3.11
        total_fit = 0.0
        for fit in feasible_fit:
            total_fit += fit
        history.append(
            GenerationStats(
                generation=generation,
                best_fitness=min(feasible_fit) if feasible_fit else math.inf,
                mean_fitness=total_fit / len(feasible_fit) if feasible_fit else math.inf,
            )
        )
        if generation == params.generations:
            break

        keys = [key for _, key in entries]

        def tournament() -> tuple[int, ...]:
            picks = [rng.randrange(params.population_size) for _ in range(params.tournament_k)]
            return population[min(picks, key=keys.__getitem__)]

        # equal sort keys are equal designs, so the stable sort elects what sorting the designs did
        next_pop = [population[i] for i in sorted(positions, key=keys.__getitem__)[: params.elitism_count]]
        while len(next_pop) < params.population_size:
            parent_a, parent_b = tournament(), tournament()
            if rng.random() < params.crossover_rate:
                child_a, child_b = crossover(parent_a, parent_b, rng)
            else:
                child_a, child_b = parent_a, parent_b
            next_pop.append(mutate(child_a, params.mutation_rate, space, rng))
            if len(next_pop) < params.population_size:
                next_pop.append(mutate(child_b, params.mutation_rate, space, rng))
        population = next_pop

    # Every design a generation held is in `cache` once, and its sort key ends in
    # the unique index key, so this is the best design seen in any generation.
    best = min((entry for entry in cache.values() if entry[0].feasible), key=itemgetter(1), default=None)
    if best is None:
        raise InfeasibleError("no feasible design found in any generation")
    return GaResult(best=best[0], history=tuple(history), evaluated=tuple(d for d, _ in cache.values()))


def exhaustive_search(
    space: DesignSpace,
    workload: DnnWorkload,
    fitness: str = "cdp",
    cap: int = 1_000_000,
) -> EvaluatedDesign:
    """True optimum over the whole space; the GA's oracle.

    Returns what scoring every design and keeping the first feasible
    minimum in enumeration order returns, without scoring each design:
    1. Every embodied and every latency key is costed once, so a model error
       anywhere in the space raises as it would when enumerating.
    2. A shared key's best fitness is `cdp(min feasible kg, min latency)`,
       or the min latency for delay fitness. This is exact: both factors are
       >= 0 and IEEE multiplication is monotone in each. `cdp`'s check on
       the key's largest factors fails iff it fails on a feasible design.
    3. Ties go to the smallest `space.index_key`, as enumeration order
       gives. Index keys start with (px, py), so the designs of the best
       keys with the first (px, py) are walked in enumeration order, and
       the first feasible one that reaches the best fitness is returned.
    Only that design becomes an EvaluatedDesign.
    """
    if fitness not in ("cdp", "delay"):
        raise ValidationFailure(f"unknown fitness {fitness!r}")
    if space.size > cap:
        raise ValidationFailure(f"space has {space.size} designs, cap is {cap}")
    # each gene's distinct values, in the order of their first place in the candidate list
    px_values, py_values, b_locals, b_globals, dataflows, multipliers = space._gene_index.values()
    # Per key, lists in `dataflows` and `multipliers` order: no key hashes a gene object.
    kgs = {}  # shared key (px, py, b_global) -> embodied kg of its feasible designs
    latencies = {}  # shared key -> latency of each dataflow
    verdicts = {}  # (px, py, b_local, b_global) -> (embodied kg, reason) of each multiplier
    for px, py, b_local, b_global in itertools.product(px_values, py_values, b_locals, b_globals):
        shared = kgs.get((px, py, b_global))
        if shared is None:
            shared = kgs[px, py, b_global] = []
            latencies[px, py, b_global] = [
                estimate_latency(px, py, b_global, df, space.clock_hz, space.dram_bytes_per_cycle, workload)
                for df in dataflows
            ]
        key_verdicts = verdicts[px, py, b_local, b_global] = [
            _embodied_verdict(px, py, b_local, b_global, m, space) for m in multipliers
        ]
        shared += [kg for kg, reason in key_verdicts if reason is None]

    def fit(kg: float, latency: float) -> float:
        return latency if fitness == "delay" else cdp(kg, latency)

    best, best_keys = math.inf, []
    for key, shared in kgs.items():
        if not shared:
            continue
        key_latencies = latencies[key]
        cdp(max(shared), max(key_latencies))  # the check every feasible design of the key gets
        key_best = fit(min(shared), min(key_latencies))
        if key_best < best:
            best, best_keys = key_best, [key]
        elif key_best == best:
            best_keys.append(key)
    if not best_keys:
        raise InfeasibleError("every design in the space is infeasible")

    # the min-kg, min-latency design of each best key reaches `best`, so the walk returns
    px, py = best_keys[0][:2]
    key_globals = [b_global for kpx, kpy, b_global in best_keys if (kpx, kpy) == (px, py)]
    for b_local, b_global in itertools.product(b_locals, key_globals):
        key_verdicts = verdicts[px, py, b_local, b_global]
        for df, latency in zip(dataflows, latencies[px, py, b_global]):
            for m, (kg, reason) in zip(multipliers, key_verdicts):
                if reason is None and fit(kg, latency) == best:
                    chromosome = AcceleratorConfig(px, py, b_local, b_global, df, m)
                    return EvaluatedDesign(chromosome, kg, latency, cdp(kg, latency), feasible=True)


def pareto_front(
    designs: list[EvaluatedDesign] | tuple[EvaluatedDesign, ...],
    space: DesignSpace,
) -> list[EvaluatedDesign]:
    """Feasible designs not dominated in (embodied carbon, latency).

    A design dominates another iff it is <= on both axes and < on at least
    one. Output is sorted by (embodied, latency); duplicates on both axes are
    all kept (they do not dominate each other).
    """
    if not designs:
        raise ValidationFailure("pareto_front needs at least one design")
    feasible = [d for d in designs if d.feasible]

    def key(d: EvaluatedDesign) -> tuple:
        return (d.embodied_kg, d.latency_s, space.index_key(d.chromosome))

    front: list[EvaluatedDesign] = []
    best_latency = math.inf
    anchor_embodied = math.nan
    for d in sorted(feasible, key=key):
        if d.latency_s < best_latency:
            front.append(d)
            best_latency = d.latency_s
            anchor_embodied = d.embodied_kg
        elif d.latency_s == best_latency and d.embodied_kg == anchor_embodied:
            front.append(d)
    return front
