"""System-level mapping of DNNs onto heterogeneous processing units.

DNNs are split at layer granularity into contiguous segments, each pinned to
one unit at one frequency level. Cost comes from per-(layer, frequency)
profile tables validated for monotonicity at load; a transfer penalty is
charged once per segment boundary using the producing layer's output bytes.

The mapping search maximizes inferences-per-watt under a power threshold
that tracks grid carbon intensity: minimum intensity maps to the maximum
power budget and vice versa, with re-planning gated by a hysteresis rule so
small intensity wiggles do not cause oscillation. The exact throughput/power
estimate can optionally be refined through a classify-into-bins estimator
that mirrors a discrete-class predictor; by default the search ranks on the
exact estimate.

The pipeline model is a fold: each mapped DNN contributes a summary (its
throughput term and the max active power it puts on each unit), and the
system estimate folds the summaries in DNN order. The search memoizes
segment costs and candidate summaries for one call and carries the fold
state with each beam partial, so every estimate it ranks on is bit-identical
to `system_estimate` over the same plans.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .errors import InfeasibleError, ValidationFailure


class MissingProfileEntry(ValidationFailure):
    """A (layer, frequency) pair used by a plan has no profile entry."""


class NoFeasiblePlan(InfeasibleError):
    """No candidate plan fits under the power threshold."""


class NoVariantAboveAccuracyFloor(InfeasibleError):
    """Every variant in the set falls below the requested accuracy."""


class UnitKind(Enum):
    CPU = "CPU"
    GPU = "GPU"
    DLA = "DLA"


@dataclass(frozen=True)
class ProcessingUnit:
    """One compute unit with discrete frequency levels and a measured profile.

    profile maps (layer id, freq index) -> (latency ms, active power W).
    Per layer, latency must be non-increasing and power non-decreasing as
    frequency rises; violations are rejected here, at construction.
    """

    id: str
    kind: UnitKind
    freq_levels_hz: tuple[float, ...]
    idle_power_w: float
    profile: dict[tuple[str, int], tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.freq_levels_hz:
            raise ValidationFailure(f"unit {self.id!r}: needs at least one frequency level")
        if any(b <= a for a, b in zip(self.freq_levels_hz, self.freq_levels_hz[1:])):
            raise ValidationFailure(f"unit {self.id!r}: freq_levels_hz must be strictly increasing")
        if self.idle_power_w < 0:
            raise ValidationFailure(f"unit {self.id!r}: idle_power_w must be >= 0")
        layers = sorted({layer for layer, _ in self.profile})
        n_freqs = len(self.freq_levels_hz)
        for layer in layers:
            entries = []
            for f in range(n_freqs):
                entry = self.profile.get((layer, f))
                if entry is None:
                    raise ValidationFailure(
                        f"unit {self.id!r}: profile for layer {layer!r} missing freq level {f}"
                    )
                latency, power = entry
                if latency <= 0 or power < 0:
                    raise ValidationFailure(
                        f"unit {self.id!r}: layer {layer!r} freq {f}: latency must be > 0, power >= 0"
                    )
                entries.append(entry)
            for (lat_lo, pow_lo), (lat_hi, pow_hi) in zip(entries, entries[1:]):
                if lat_hi > lat_lo:
                    raise ValidationFailure(
                        f"unit {self.id!r}: layer {layer!r}: latency must be non-increasing in frequency"
                    )
                if pow_hi < pow_lo:
                    raise ValidationFailure(
                        f"unit {self.id!r}: layer {layer!r}: power must be non-decreasing in frequency"
                    )

    def covers(self, layer_ids: Sequence[str]) -> bool:
        return all((layer, 0) in self.profile for layer in layer_ids)


@dataclass(frozen=True)
class EdgeNode:
    units: tuple[ProcessingUnit, ...]
    transfer_bytes_per_ms: float

    def __post_init__(self) -> None:
        if not self.units:
            raise ValidationFailure("node needs at least one processing unit")
        if self.transfer_bytes_per_ms <= 0:
            raise ValidationFailure("transfer_bytes_per_ms must be > 0")
        unit_index = {u.id: i for i, u in enumerate(self.units)}
        if len(unit_index) != len(self.units):
            raise ValidationFailure("duplicate unit ids in node")
        object.__setattr__(self, "_unit_index", unit_index)

    def unit_by_id(self, unit_id: str) -> ProcessingUnit:
        index = self._unit_index.get(unit_id)
        if index is None:
            raise ValidationFailure(f"unknown unit id {unit_id!r}")
        return self.units[index]


@dataclass(frozen=True)
class VariantLayer:
    id: str
    output_bytes: int


@dataclass(frozen=True)
class ModelVariant:
    name: str
    accuracy: float
    layers: tuple[VariantLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValidationFailure(f"variant {self.name!r} has no layers")

    @property
    def layer_ids(self) -> tuple[str, ...]:
        return tuple(layer.id for layer in self.layers)


@dataclass(frozen=True)
class ModelVariantSet:
    """Variants of one model ordered heaviest (most accurate) to lightest."""

    name: str
    variants: tuple[ModelVariant, ...]

    def __post_init__(self) -> None:
        if not self.variants:
            raise ValidationFailure(f"variant set {self.name!r} is empty")
        accs = [v.accuracy for v in self.variants]
        if any(b >= a for a, b in zip(accs, accs[1:])):
            raise ValidationFailure(
                f"variant set {self.name!r}: accuracy must be strictly decreasing"
            )


@dataclass(frozen=True)
class Segment:
    start: int
    end: int  # exclusive
    unit_id: str
    freq_idx: int


@dataclass(frozen=True)
class MappingPlan:
    dnn: str
    segments: tuple[Segment, ...]


@dataclass(frozen=True)
class ClassBins:
    """Strictly increasing edges defining len(edges)-1 right-open classes."""

    edges: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.edges) < 2:
            raise ValidationFailure("ClassBins needs at least 2 edges")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValidationFailure("ClassBins edges must be strictly increasing")

    @property
    def midpoints(self) -> tuple[float, ...]:
        return tuple((a + b) / 2.0 for a, b in zip(self.edges, self.edges[1:]))


@dataclass(frozen=True)
class SystemEstimate:
    throughput_inf_per_s: float
    power_w: float
    ipw: float


@dataclass(frozen=True)
class SearchParams:
    beam_width: int = 8
    local_search_moves: int = 200
    max_segments: int = 4
    candidate_cap: int = 256
    rng_seed: int = 0


@dataclass(frozen=True)
class MappingSolution:
    plans: tuple[MappingPlan, ...]
    estimate: SystemEstimate


@dataclass(frozen=True)
class VariantChoice:
    variant: ModelVariant
    solution: MappingSolution
    constraint_violated: bool


# Refines the exact estimate of a set of plans into the estimate the search
# ranks on.
Estimator = Callable[[SystemEstimate], SystemEstimate]

# One mapped DNN's share of the pipeline model: its throughput term
# (1000 / slowest segment ms) and the max active power per unit it uses.
_PlanSummary = tuple[float, dict[str, float]]

# Running sum of throughput terms and per-unit max active power. Summaries
# and fold states share dicts and are never mutated.
_Fold = tuple[float, dict[str, float]]


def validate_plan(plan: MappingPlan, variant: ModelVariant, node: EdgeNode) -> None:
    """Check that segments partition the layer list contiguously and use valid freqs."""
    if not plan.segments:
        raise ValidationFailure(f"plan for {plan.dnn!r} has no segments")
    expected = 0
    for seg in plan.segments:
        if seg.start != expected or seg.end <= seg.start:
            raise ValidationFailure(f"plan for {plan.dnn!r}: segments must be contiguous and non-empty")
        unit = node.unit_by_id(seg.unit_id)
        if not 0 <= seg.freq_idx < len(unit.freq_levels_hz):
            raise ValidationFailure(f"plan for {plan.dnn!r}: freq index {seg.freq_idx} invalid for {seg.unit_id!r}")
        expected = seg.end
    if expected != len(variant.layers):
        raise ValidationFailure(f"plan for {plan.dnn!r}: segments do not cover all layers")


def segment_cost(segment: Segment, variant: ModelVariant, node: EdgeNode) -> tuple[float, float]:
    """(latency ms, power W) of one segment.

    Latency sums the profile entries of the segment's layers plus, for any
    segment after the first, the cost of moving the previous layer's output
    tensor over the node link. Power is the max active power over the layers.
    """
    unit = node.unit_by_id(segment.unit_id)
    latency = 0.0
    power = 0.0
    for idx in range(segment.start, segment.end):
        layer_id = variant.layers[idx].id
        entry = unit.profile.get((layer_id, segment.freq_idx))
        if entry is None:
            raise MissingProfileEntry(
                f"unit {unit.id!r} has no profile for layer {layer_id!r} at freq {segment.freq_idx}"
            )
        latency += entry[0]
        power = max(power, entry[1])
    if segment.start > 0:
        boundary_bytes = variant.layers[segment.start - 1].output_bytes
        latency += boundary_bytes / node.transfer_bytes_per_ms
    return latency, power


def plan_bottleneck_ms(plan: MappingPlan, variant: ModelVariant, node: EdgeNode) -> float:
    return max(segment_cost(seg, variant, node)[0] for seg in plan.segments)


def _plan_summary(plan: MappingPlan, costs: Sequence[tuple[float, float]]) -> _PlanSummary:
    """Summary of one mapped DNN from the (latency ms, power W) of its segments."""
    unit_power: dict[str, float] = {}
    for seg, (_, power) in zip(plan.segments, costs):
        unit_power[seg.unit_id] = max(unit_power.get(seg.unit_id, 0.0), power)
    bottleneck, _ = max(costs)  # the pair with the largest latency
    return 1000.0 / bottleneck, unit_power


def _fold(state: _Fold, summary: _PlanSummary) -> _Fold:
    throughput, unit_power = state
    term, powers = summary
    if not unit_power:
        return throughput + term, powers
    merged = unit_power.copy()
    for unit_id, power in powers.items():
        merged[unit_id] = max(merged.get(unit_id, 0.0), power)
    return throughput + term, merged


def _estimate(throughput: float, power: float) -> SystemEstimate:
    if power > 0:
        ipw = throughput / power
    else:
        ipw = float("inf") if throughput > 0 else 0.0
    return SystemEstimate(throughput_inf_per_s=throughput, power_w=power, ipw=ipw)


def _folded_estimate(state: _Fold, node: EdgeNode) -> SystemEstimate:
    throughput, unit_power = state
    return _estimate(throughput, sum(unit_power.get(u.id, u.idle_power_w) for u in node.units))


def system_estimate(
    assignments: Sequence[tuple[ModelVariant, MappingPlan]],
    node: EdgeNode,
) -> SystemEstimate:
    """Pipeline model over all mapped DNNs.

    Each DNN runs at the reciprocal of its slowest segment; units pay the max
    active power over their resident segments, or idle power when empty.
    """
    state: _Fold = (0.0, {})
    for variant, plan in assignments:
        costs = [segment_cost(seg, variant, node) for seg in plan.segments]
        state = _fold(state, _plan_summary(plan, costs))
    return _folded_estimate(state, node)


def classify(value: float, bins: ClassBins) -> tuple[float, ...]:
    """One-hot distribution over the bin classes containing `value`.

    Intervals are right-open; values below the first edge land in class 0,
    values at or above the last edge in the top class.
    """
    n_classes = len(bins.edges) - 1
    for i in range(n_classes):
        if value < bins.edges[i + 1]:
            cls = i
            break
    else:
        cls = n_classes - 1
    return tuple(1.0 if i == cls else 0.0 for i in range(n_classes))


def point_estimate(distribution: Sequence[float], bins: ClassBins) -> float:
    """Probability-weighted sum of class midpoints."""
    mids = bins.midpoints
    if len(distribution) != len(mids):
        raise ValidationFailure("distribution length does not match bin count")
    return sum(p * m for p, m in zip(distribution, mids))


def classified_estimator(throughput_bins: ClassBins, power_bins: ClassBins) -> Estimator:
    """Estimator that quantizes throughput and power through class bins.

    Stands in for a learned discrete-class predictor: table-lookup ground
    truth is classified into a one-hot distribution, then decoded back to a
    point estimate. Swapping in a real model only changes the distribution.
    """

    def estimate(raw: SystemEstimate) -> SystemEstimate:
        return _estimate(
            point_estimate(classify(raw.throughput_inf_per_s, throughput_bins), throughput_bins),
            point_estimate(classify(raw.power_w, power_bins), power_bins),
        )

    return estimate


def ci_to_threshold(
    ci_now: float,
    ci_min: float,
    ci_max: float,
    p_min_w: float,
    p_max_w: float,
) -> float:
    """Linear descending map from carbon intensity to the power budget.

    Minimum intensity runs at full budget, maximum intensity at the floor;
    intensities outside the forecast range are clamped. A degenerate flat
    forecast keeps the maximum budget.
    """
    if p_min_w > p_max_w:
        raise ValidationFailure("p_min_w must be <= p_max_w")
    if ci_max <= ci_min:
        return p_max_w
    ci = min(max(ci_now, ci_min), ci_max)
    return p_max_w - (ci - ci_min) / (ci_max - ci_min) * (p_max_w - p_min_w)


def hysteresis_update(
    ci_at_last_update: float,
    ci_now: float,
    forecast_range: float,
    fraction: float = 0.10,
) -> bool:
    """Re-plan only when intensity moved more than `fraction` of the forecast range."""
    if forecast_range < 0:
        raise ValidationFailure("forecast_range must be >= 0")
    if forecast_range == 0:
        return False
    return abs(ci_now - ci_at_last_update) > fraction * forecast_range


def _cut_masks(n_layers: int, max_segments: int):
    """All ways to cut [0, n_layers) into <= max_segments contiguous segments."""
    boundaries = range(1, n_layers)
    for n_cuts in range(0, min(max_segments - 1, n_layers - 1) + 1):
        for cuts in itertools.combinations(boundaries, n_cuts):
            yield (0,) + cuts + (n_layers,)


def _plan(dnn: str, cuts: tuple[int, ...], combo: tuple[tuple[str, int], ...]) -> MappingPlan:
    return MappingPlan(
        dnn=dnn,
        segments=tuple(
            Segment(start=cuts[i], end=cuts[i + 1], unit_id=u, freq_idx=f)
            for i, (u, f) in enumerate(combo)
        ),
    )


def _plans_for_cuts(dnn: str, cuts: tuple[int, ...], choices: list[tuple[str, int]]):
    for combo in itertools.product(choices, repeat=len(cuts) - 1):
        yield _plan(dnn, cuts, combo)


def _candidate_plans(
    variant: ModelVariant,
    dnn: str,
    covering: list[ProcessingUnit],
    params: SearchParams,
    rng: random.Random,
) -> list[MappingPlan]:
    """Candidate plans for one DNN: full enumeration when it fits the cap,
    otherwise all single-segment plans plus seeded random samples."""
    n_layers = len(variant.layers)
    choices = [(u.id, f) for u in covering for f in range(len(u.freq_levels_hz))]
    masks = list(_cut_masks(n_layers, params.max_segments))
    total = sum(len(choices) ** (len(cuts) - 1) for cuts in masks)
    if total <= params.candidate_cap:
        plans: list[MappingPlan] = []
        for cuts in masks:
            plans.extend(_plans_for_cuts(dnn, cuts, choices))
        return plans

    whole = (0, n_layers)
    plans = list(_plans_for_cuts(dnn, whole, choices))
    seen = {(whole, (choice,)) for choice in choices}
    attempts = 0
    while len(plans) < params.candidate_cap and attempts < params.candidate_cap * 10:
        attempts += 1
        cuts = rng.choice(masks)
        combo = tuple(rng.choice(choices) for _ in range(len(cuts) - 1))
        if (cuts, combo) not in seen:
            seen.add((cuts, combo))
            plans.append(_plan(dnn, cuts, combo))
    return plans


def _plan_key(plans: Sequence[MappingPlan], node: EdgeNode) -> tuple:
    unit_index = node._unit_index
    return tuple(
        (seg.start, seg.end, unit_index[seg.unit_id], seg.freq_idx)
        for plan in plans
        for seg in plan.segments
    )


def _neighbor_plans(
    plans: tuple[MappingPlan, ...],
    coverings: list[list[ProcessingUnit]],
    node: EdgeNode,
):
    """Single-move neighbors: change one segment's unit, its frequency, or
    shift one cut by one layer. Deterministic enumeration order."""
    for d, plan in enumerate(plans):
        for j, seg in enumerate(plan.segments):
            current_unit = node.unit_by_id(seg.unit_id)
            for unit in coverings[d]:
                if unit.id == seg.unit_id:
                    continue
                freq = min(seg.freq_idx, len(unit.freq_levels_hz) - 1)
                new_seg = Segment(seg.start, seg.end, unit.id, freq)
                yield _replace_segment(plans, d, j, new_seg)
            for f in range(len(current_unit.freq_levels_hz)):
                if f == seg.freq_idx:
                    continue
                yield _replace_segment(plans, d, j, Segment(seg.start, seg.end, seg.unit_id, f))
        for j in range(len(plan.segments) - 1):
            left, right = plan.segments[j], plan.segments[j + 1]
            if left.end - left.start > 1:
                yield _shift_cut(plans, d, j, left.end - 1)
            if right.end - right.start > 1:
                yield _shift_cut(plans, d, j, left.end + 1)


def _replace_segment(plans: tuple[MappingPlan, ...], d: int, j: int, seg: Segment) -> tuple[MappingPlan, ...]:
    plan = plans[d]
    segments = plan.segments[:j] + (seg,) + plan.segments[j + 1 :]
    return plans[:d] + (MappingPlan(plan.dnn, segments),) + plans[d + 1 :]


def _shift_cut(plans: tuple[MappingPlan, ...], d: int, j: int, new_cut: int) -> tuple[MappingPlan, ...]:
    plan = plans[d]
    left, right = plan.segments[j], plan.segments[j + 1]
    segments = (
        plan.segments[:j]
        + (
            Segment(left.start, new_cut, left.unit_id, left.freq_idx),
            Segment(new_cut, right.end, right.unit_id, right.freq_idx),
        )
        + plan.segments[j + 2 :]
    )
    return plans[:d] + (MappingPlan(plan.dnn, segments),) + plans[d + 1 :]


def search_mapping(
    workloads: Sequence[ModelVariant],
    node: EdgeNode,
    power_threshold_w: float,
    params: SearchParams | None = None,
    estimator: Estimator | None = None,
) -> MappingSolution:
    """Find plans for all DNNs maximizing inferences-per-watt under the threshold.

    Beam search assigns DNNs one at a time over enumerated (or sampled)
    per-DNN candidate plans, then first-improvement local search perturbs
    single segments. Ranking uses `estimator(exact estimate)`, or the exact
    estimate itself when no estimator is given; the power-threshold filter
    always uses exact costs, so returned plans respect the budget regardless
    of estimator error. Segment costs are memoized per (DNN, segment) for the
    call, and each beam partial carries its fold state, so an extension costs
    one fold instead of a re-estimate of the whole prefix. Deterministic for
    a fixed seed.
    """
    if power_threshold_w <= 0:
        raise ValidationFailure("power_threshold_w must be > 0")
    if not workloads:
        raise ValidationFailure("search_mapping needs at least one workload")
    params = params or SearchParams()
    rng = random.Random(params.rng_seed)

    coverings: list[list[ProcessingUnit]] = []
    for variant in workloads:
        covering = [u for u in node.units if u.covers(variant.layer_ids)]
        if not covering:
            raise MissingProfileEntry(
                f"no unit has a complete profile for variant {variant.name!r}"
            )
        coverings.append(covering)

    # Minimum-power anchors: every DNN whole on one shared unit at its lowest
    # frequency. They seed the candidate pool so a feasible plan is never
    # pruned away by the beam.
    fallbacks: list[tuple[MappingPlan, ...]] = []
    for unit in node.units:
        if all(unit in cov for cov in coverings):
            fallbacks.append(
                tuple(
                    MappingPlan(v.name, (Segment(0, len(v.layers), unit.id, 0),))
                    for v in workloads
                )
            )

    candidates = [
        _candidate_plans(variant, variant.name, coverings[d], params, rng)
        for d, variant in enumerate(workloads)
    ]

    segment_costs: dict[tuple[int, Segment], tuple[float, float]] = {}

    def summary(d: int, plan: MappingPlan) -> _PlanSummary:
        costs = []
        for seg in plan.segments:
            cost = segment_costs.get((d, seg))
            if cost is None:
                cost = segment_costs[(d, seg)] = segment_cost(seg, workloads[d], node)
            costs.append(cost)
        return _plan_summary(plan, costs)

    def exact_estimate(plans: tuple[MappingPlan, ...]) -> SystemEstimate:
        state: _Fold = (0.0, {})
        for d, plan in enumerate(plans):
            state = _fold(state, summary(d, plan))
        return _folded_estimate(state, node)

    def score(exact: SystemEstimate) -> float:
        return (exact if estimator is None else estimator(exact)).ipw

    # Each beam entry is (plans, plan key, fold state). Extensions are ranked
    # by (-score, plan key); only the survivors' fold states are kept.
    beam: list[tuple[tuple[MappingPlan, ...], tuple, _Fold]] = [((), (), (0.0, {}))]
    for d in range(len(workloads)):
        options = [(plan, _plan_key((plan,), node), summary(d, plan)) for plan in candidates[d]]
        ranked = []
        for i, (_, key, state) in enumerate(beam):
            for j, (_, plan_key, plan_sum) in enumerate(options):
                exact = _folded_estimate(_fold(state, plan_sum), node)
                ranked.append((-score(exact), key + plan_key, i, j))
        ranked.sort()
        beam = [
            (beam[i][0] + (options[j][0],), key, _fold(beam[i][2], options[j][2]))
            for _, key, i, j in ranked[: params.beam_width]
        ]

    partials = [plans for plans, _, _ in beam]
    pool = [(plans, _folded_estimate(state, node)) for plans, _, state in beam]
    pool += [(fb, exact_estimate(fb)) for fb in fallbacks if fb not in partials]
    feasible = [(plans, exact) for plans, exact in pool if exact.power_w <= power_threshold_w]
    if not feasible:
        raise NoFeasiblePlan(
            f"no plan fits under {power_threshold_w} W, even single-unit lowest-frequency mappings"
        )

    def feasible_rank(entry: tuple[tuple[MappingPlan, ...], SystemEstimate]) -> tuple:
        plans, exact = entry
        return (-score(exact), _plan_key(plans, node))

    best_plans, best_exact = min(feasible, key=feasible_rank)
    best_score = score(best_exact)

    budget = params.local_search_moves
    improved = True
    while improved and budget > 0:
        improved = False
        for neighbor in _neighbor_plans(best_plans, coverings, node):
            budget -= 1
            exact = exact_estimate(neighbor)
            if exact.power_w <= power_threshold_w:
                neighbor_score = score(exact)
                if neighbor_score > best_score:
                    best_plans, best_exact, best_score = neighbor, exact, neighbor_score
                    improved = True
                    break
            if budget <= 0:
                break

    return MappingSolution(plans=best_plans, estimate=best_exact)


def select_variant(
    variant_set: ModelVariantSet,
    latency_constraint_ms: float,
    accuracy_floor: float,
    node: EdgeNode,
    power_threshold_w: float,
    params: SearchParams | None = None,
) -> VariantChoice:
    """Pick the heaviest variant whose mapped plan meets the latency constraint.

    Variants below the accuracy floor are never considered. If no qualifying
    variant meets the latency constraint, the lightest acceptable variant is
    returned with its best plan, flagged constraint_violated.
    """
    eligible = [v for v in variant_set.variants if v.accuracy >= accuracy_floor]
    if not eligible:
        raise NoVariantAboveAccuracyFloor(
            f"no variant of {variant_set.name!r} reaches accuracy {accuracy_floor}"
        )
    fallback: VariantChoice | None = None
    for variant in eligible:
        try:
            solution = search_mapping([variant], node, power_threshold_w, params)
        except NoFeasiblePlan:
            continue
        bottleneck = plan_bottleneck_ms(solution.plans[0], variant, node)
        if bottleneck <= latency_constraint_ms:
            return VariantChoice(variant=variant, solution=solution, constraint_violated=False)
        fallback = VariantChoice(variant=variant, solution=solution, constraint_violated=True)
    if fallback is None:
        raise NoFeasiblePlan(
            f"no variant of {variant_set.name!r} has a plan under {power_threshold_w} W"
        )
    return fallback
