"""Genetic-algorithm search over accelerator design points.

A chromosome binds the five free genes (array width/height, per-PE buffer,
global buffer, dataflow) plus the multiplier variant; fitness is the
carbon-delay product of the evaluated design (or plain latency when
emulating a delay-first baseline). Infeasible designs keep their metrics
but carry +inf fitness so selection routes around them.

exhaustive_search enumerates the whole space and is the oracle the GA is
validated against; pareto_front extracts the non-dominated
(embodied, latency) designs from any evaluated population.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace

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


class NoFeasibleDesign(InfeasibleError):
    """Every design evaluated was infeasible."""


class SpaceTooLarge(ValidationFailure):
    """Exhaustive enumeration refused above the configured cap."""


@dataclass(frozen=True)
class Chromosome:
    px: int
    py: int
    b_local: int
    b_global: int
    dataflow: Dataflow
    multiplier: MultiplierVariant


@dataclass(frozen=True)
class DesignSpace:
    """Candidate values per gene plus the fixed run-mode context.

    Stacking is a run mode, not a gene: 2D and 3D explorations are separate
    studies. The multiplier candidate list is the approximation dimension;
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
        for name in ("px_values", "py_values", "b_local_values", "b_global_values", "dataflows", "multipliers"):
            if not getattr(self, name):
                raise ValidationFailure(f"design space: candidate list {name} is empty")
        genes = {
            "px": self.px_values,
            "py": self.py_values,
            "b_local": self.b_local_values,
            "b_global": self.b_global_values,
            "dataflow": self.dataflows,
            "multiplier": self.multipliers,
        }
        # gene -> {value: its first index}, the position `tuple.index` gives
        index = {gene: {} for gene in genes}
        for gene, values in genes.items():
            for i, value in enumerate(values):
                index[gene].setdefault(value, i)
        object.__setattr__(self, "_genes", genes)
        object.__setattr__(self, "_gene_index", index)

    def candidates(self, gene: str) -> tuple:
        return self._genes[gene]

    @property
    def size(self) -> int:
        return (
            len(self.px_values)
            * len(self.py_values)
            * len(self.b_local_values)
            * len(self.b_global_values)
            * len(self.dataflows)
            * len(self.multipliers)
        )

    def contains(self, c: Chromosome) -> bool:
        return all(getattr(c, g) in self.candidates(g) for g in _GENES)

    def index_key(self, c: Chromosome) -> tuple[int, ...]:
        """Lexicographic position of a chromosome; the global tie-break order."""
        return tuple(self._gene_index[g][getattr(c, g)] for g in _GENES)

    def chromosomes(self):
        """All chromosomes in lexicographic gene order."""
        for px, py, bl, bg, df, mult in itertools.product(
            self.px_values,
            self.py_values,
            self.b_local_values,
            self.b_global_values,
            self.dataflows,
            self.multipliers,
        ):
            yield Chromosome(px, py, bl, bg, df, mult)

    def random_chromosome(self, rng: random.Random) -> Chromosome:
        return Chromosome(*(rng.choice(self.candidates(g)) for g in _GENES))

    def to_config(self, c: Chromosome) -> AcceleratorConfig:
        return AcceleratorConfig(
            px=c.px,
            py=c.py,
            b_local=c.b_local,
            b_global=c.b_global,
            dataflow=c.dataflow,
            multiplier=c.multiplier,
            stacking=self.stacking,
            clock_hz=self.clock_hz,
            dram_bytes_per_cycle=self.dram_bytes_per_cycle,
            tsv_count=self.tsv_count,
        )


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
    chromosome: Chromosome
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
    chromosome: Chromosome,
    workload: DnnWorkload,
    space: DesignSpace,
    tables: CostTables | None = None,
) -> EvaluatedDesign:
    """Score one design point; infeasibility is a value, never an error.

    `tables` carries the model's results between the calls of one search;
    without it the evaluation is one-shot.
    """
    if tables is None:
        tables = CostTables()
    c = chromosome
    config = None
    embodied_key = (c.px, c.py, c.b_local, c.b_global, c.multiplier)
    embodied = tables.embodied.get(embodied_key)
    if embodied is None:
        config = space.to_config(c)
        embodied = tables.embodied[embodied_key] = _embodied_verdict(config, space)
    latency_key = (c.px, c.py, c.b_global, c.dataflow)
    latency = tables.latency_s.get(latency_key)
    if latency is None:
        if config is None:
            config = space.to_config(c)
        latency = tables.latency_s[latency_key] = estimate_latency(config, workload)
    embodied_kg, reason = embodied
    feasible = reason is None
    return EvaluatedDesign(
        chromosome=c,
        embodied_kg=embodied_kg,
        latency_s=latency,
        cdp_kg_s=cdp(embodied_kg, latency).value if feasible else math.inf,
        feasible=feasible,
        infeasibility_reason=reason,
    )


def _embodied_verdict(config: AcceleratorConfig, space: DesignSpace) -> tuple[float, str | None]:
    """(embodied kg, infeasibility reason or None) of one config."""
    area = estimate_area(config, space.area_params)
    report = accelerator_embodied(config, space.tech, space.area_params, area)
    reasons = []
    if not accuracy_feasible(config, space.accuracy_threshold_pct):
        reasons.append("accuracy")
    if space.max_area_cm2 is not None and area.total_2d_equiv_cm2 > space.max_area_cm2:
        reasons.append("area")
    return report.total_kg, "+".join(reasons) if reasons else None


def crossover(a: Chromosome, b: Chromosome, rng: random.Random) -> tuple[Chromosome, Chromosome]:
    """Uniform crossover: each gene swaps between the children with prob 0.5."""
    child_a = {}
    child_b = {}
    for gene in _GENES:
        if rng.random() < 0.5:
            child_a[gene], child_b[gene] = getattr(b, gene), getattr(a, gene)
        else:
            child_a[gene], child_b[gene] = getattr(a, gene), getattr(b, gene)
    return Chromosome(**child_a), Chromosome(**child_b)


def mutate(c: Chromosome, rate: float, space: DesignSpace, rng: random.Random) -> Chromosome:
    """Resample each gene from its candidate list independently with prob `rate`."""
    updates = {}
    for gene in _GENES:
        if rng.random() < rate:
            updates[gene] = rng.choice(space.candidates(gene))
    return replace(c, **updates) if updates else c


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
    drawn from one seeded stream, and evaluations are cached by chromosome.
    """
    if fitness not in ("cdp", "delay"):
        raise ValidationFailure(f"unknown fitness {fitness!r}")
    rng = random.Random(params.rng_seed)
    cache: dict[Chromosome, EvaluatedDesign] = {}
    tables = CostTables()

    def eval_cached(c: Chromosome) -> EvaluatedDesign:
        hit = cache.get(c)
        if hit is None:
            hit = evaluate(c, workload, space, tables)
            cache[c] = hit
        return hit

    def sort_key(d: EvaluatedDesign) -> tuple:
        return (_fitness_of(d, fitness), space.index_key(d.chromosome))

    population = [space.random_chromosome(rng) for _ in range(params.population_size)]
    best: EvaluatedDesign | None = None
    history: list[GenerationStats] = []

    for generation in range(1, params.generations + 1):
        designs = [eval_cached(c) for c in population]
        for d in designs:
            if d.feasible and (best is None or sort_key(d) < sort_key(best)):
                best = d
        feasible_fit = [_fitness_of(d, fitness) for d in designs if d.feasible]
        history.append(
            GenerationStats(
                generation=generation,
                best_fitness=min(feasible_fit) if feasible_fit else math.inf,
                mean_fitness=sum(feasible_fit) / len(feasible_fit) if feasible_fit else math.inf,
            )
        )
        if generation == params.generations:
            break

        def tournament() -> Chromosome:
            picks = [designs[rng.randrange(len(designs))] for _ in range(params.tournament_k)]
            return min(picks, key=sort_key).chromosome

        next_pop = [d.chromosome for d in sorted(designs, key=sort_key)[: params.elitism_count]]
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

    if best is None:
        raise NoFeasibleDesign("no feasible design found in any generation")
    return GaResult(best=best, history=tuple(history), evaluated=tuple(cache.values()))


def exhaustive_search(
    space: DesignSpace,
    workload: DnnWorkload,
    fitness: str = "cdp",
    cap: int = 1_000_000,
) -> EvaluatedDesign:
    """True optimum over the whole space; the GA's oracle.

    Ties break by lexicographic chromosome order, which enumeration order
    already guarantees.
    """
    if space.size > cap:
        raise SpaceTooLarge(f"space has {space.size} designs, cap is {cap}")
    best: EvaluatedDesign | None = None
    best_fit = math.inf
    tables = CostTables()
    for chromosome in space.chromosomes():
        design = evaluate(chromosome, workload, space, tables)
        fit = _fitness_of(design, fitness)
        if design.feasible and fit < best_fit:
            best = design
            best_fit = fit
    if best is None:
        raise NoFeasibleDesign("every design in the space is infeasible")
    return best


def pareto_front(
    designs: list[EvaluatedDesign] | tuple[EvaluatedDesign, ...],
    space: DesignSpace | None = None,
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
        tail = space.index_key(d.chromosome) if space is not None else ()
        return (d.embodied_kg, d.latency_s, tail)

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
