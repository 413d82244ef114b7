"""System-level mapping of DNNs onto heterogeneous processing units.

DNNs are split at layer granularity into contiguous segments, each pinned to
one unit at one frequency level. Cost comes from per-(layer, frequency)
profile tables validated for monotonicity at load; a transfer penalty is
charged once per segment boundary using the producing layer's output bytes.

The mapping search maximizes inferences-per-watt under a power threshold
that tracks grid carbon intensity: minimum intensity maps to the maximum
power budget and vice versa, with re-planning gated by a hysteresis rule so
small intensity wiggles do not cause oscillation.

A segment is a (start, end, unit index, freq index) tuple and a plan is a
tuple of segments, inside the search and in every result; units are named by
their position in the node, and only the CLI writes their ids.

The pipeline model is a fold: each mapped DNN contributes a summary (its
throughput term and the max active power it puts on each unit), and the
system estimate folds the summaries in DNN order. The search memoizes
segment costs and carries the fold state with each beam partial. It ranks an
extension on the ipw computed straight from the partial's state and the
candidate's summary, in the fold's float order, so every score it ranks on is
bit-identical to `system_estimate` over the same plans. Equal scores break on
the concatenated plans, compared through each partial's and each candidate's
position in sorted order: by unit position in the node, never by unit id.
Once `beam_width` extensions are kept, a partial whose bound (the most
throughput and the least power any candidate can give it) cannot beat the
worst of them is skipped unscored; the bound is exact in floats, so the
survivors are those of ranking every extension.

Only the final filter and the local search read the power threshold, so the
search comes in two steps. `prepare_mapping` draws the candidates, costs
their segments and runs the beam; `PreparedMapping.solve` filters the beam's
pool by one threshold and runs the local search through the same memo. A
simulation prepares once per run and re-plans at each threshold change with
one solve; `search_mapping` is one prepare and one solve. A solution carries
each DNN's bottleneck, its slowest segment's latency, from the search's own costs.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import InfeasibleError, ValidationFailure

# Largest number of ways to cut one DNN into <= max_segments segments that
# the mapping search accepts; it enumerates them only when its candidates fit
# `candidate_cap`, and otherwise draws each sampled pattern by its rank.
MAX_CUT_PATTERNS = 1_000_000

# Largest number of variant combinations `select_variants` maps, one search each.
MAX_VARIANT_COMBINATIONS = 1_000

# Largest `SearchParams.candidate_cap`: the candidate plans kept per DNN, of
# up to ten times as many draws. At the bound, a search of two 12-layer DNNs
# at max_segments=12 and beam width 1 takes 0.3-0.5 s (2-core host, Python 3.11).
MAX_CANDIDATE_CAP = 10_000

# Largest `SearchParams.beam_width`: each DNN after the first ranks up to beam
# width x candidate cap extensions, ~10^7 for that same two-DNN search at both
# bounds, where it takes 2-3 s (2-core host, Python 3.11).
MAX_BEAM_WIDTH = 1_024


class NoFeasiblePlan(InfeasibleError):
    """No candidate plan fits under the power threshold."""


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
        if not all(0 < hz < math.inf for hz in self.freq_levels_hz):
            raise ValidationFailure(f"unit {self.id!r}: freq_levels_hz must be finite and > 0")
        if any(b <= a for a, b in zip(self.freq_levels_hz, self.freq_levels_hz[1:])):
            raise ValidationFailure(f"unit {self.id!r}: freq_levels_hz must be strictly increasing")
        if not 0 <= self.idle_power_w < math.inf:
            raise ValidationFailure(f"unit {self.id!r}: idle_power_w must be finite and >= 0")
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
                if not (0 < latency < math.inf and 0 <= power < math.inf):
                    raise ValidationFailure(
                        f"unit {self.id!r}: layer {layer!r} freq {f}: "
                        "latency must be finite and > 0, power finite and >= 0"
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
        if not 0 < self.transfer_bytes_per_ms < math.inf:
            raise ValidationFailure("transfer_bytes_per_ms must be finite and > 0")
        if len({u.id for u in self.units}) != len(self.units):
            raise ValidationFailure("duplicate unit ids in node")


@dataclass(frozen=True)
class VariantLayer:
    id: str
    output_bytes: int

    def __post_init__(self) -> None:
        if not 0 <= self.output_bytes < 2**63:
            raise ValidationFailure(f"layer {self.id!r}: output_bytes must be in [0, 2**63), got {self.output_bytes}")


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


# (start, end exclusive, unit index in node order, freq index), and one DNN's
# plan; concatenated plans are the search's tie-break key.
Segment = tuple[int, int, int, int]
Plan = tuple[Segment, ...]


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

    def __post_init__(self) -> None:
        for name in ("beam_width", "max_segments", "candidate_cap"):
            if getattr(self, name) < 1:
                raise ValidationFailure(f"{name} must be >= 1")
        if self.candidate_cap > MAX_CANDIDATE_CAP:
            raise ValidationFailure(f"candidate_cap must be <= {MAX_CANDIDATE_CAP}")
        if self.beam_width > MAX_BEAM_WIDTH:
            raise ValidationFailure(f"beam_width must be <= {MAX_BEAM_WIDTH}")
        if self.local_search_moves < 0:
            raise ValidationFailure("local_search_moves must be >= 0")


@dataclass(frozen=True)
class MappingSolution:
    plans: tuple[Plan, ...]
    estimate: SystemEstimate
    # per DNN, the latency ms of its plan's slowest segment
    bottleneck_ms: tuple[float, ...]


# A sum of throughput terms (1000 / slowest segment ms) and the max active
# power per unit in node order, -inf for a unit with no segment. One mapped
# DNN's summary and the running fold over several DNNs have this shape.
_Fold = tuple[float, tuple[float, ...]]


def segment_cost(segment: Segment, variant: ModelVariant, node: EdgeNode) -> tuple[float, float]:
    """(latency ms, power W) of one segment.

    Latency sums the profile entries of the segment's layers plus, for any
    segment after the first, the cost of moving the previous layer's output
    tensor over the node link. Power is the max active power over the layers.
    """
    start, end, u, f = segment
    unit = node.units[u]
    latency = 0.0
    power = 0.0
    for idx in range(start, end):
        layer_id = variant.layers[idx].id
        entry = unit.profile.get((layer_id, f))
        if entry is None:
            raise ValidationFailure(f"unit {unit.id!r} has no profile for layer {layer_id!r} at freq {f}")
        latency += entry[0]
        power = max(power, entry[1])
    if start > 0:
        boundary_bytes = variant.layers[start - 1].output_bytes
        latency += boundary_bytes / node.transfer_bytes_per_ms
    return latency, power


def _empty_fold(node: EdgeNode) -> _Fold:
    return 0.0, (-math.inf,) * len(node.units)


def _plan_summary(costs: Sequence[tuple[int, float, float]], node: EdgeNode) -> _Fold:
    """Summary of one mapped DNN from the (unit index, latency ms, power W) of its segments."""
    unit_power = [-math.inf] * len(node.units)
    for u, _, power in costs:
        unit_power[u] = max(unit_power[u], power)
    return 1000.0 / max(latency for _, latency, _ in costs), tuple(unit_power)


def _fold(state: _Fold, summary: _Fold) -> _Fold:
    # per-unit max, written out: the beam folds once per (partial, candidate)
    return state[0] + summary[0], tuple([a if a >= b else b for a, b in zip(state[1], summary[1])])


def _ipw(throughput: float, power: float) -> float:
    if power > 0:
        return throughput / power
    return math.inf if throughput > 0 else 0.0


def _folded_estimate(state: _Fold, node: EdgeNode) -> SystemEstimate:
    throughput, unit_power = state
    # Active power is validated >= 0, so only an empty unit pays idle power.
    # Units add left to right in node order, as the beam's ranking adds them.
    power = 0.0
    for p, u in zip(unit_power, node.units):
        power += p if p >= 0.0 else u.idle_power_w
    return SystemEstimate(throughput_inf_per_s=throughput, power_w=power, ipw=_ipw(throughput, power))


def system_estimate(
    assignments: Sequence[tuple[ModelVariant, Plan]],
    node: EdgeNode,
) -> SystemEstimate:
    """Pipeline model over all mapped DNNs.

    Each DNN runs at the reciprocal of its slowest segment; units pay the max
    active power over their resident segments, or idle power when empty.
    """
    state = _empty_fold(node)
    for variant, plan in assignments:
        costs = [(seg[2], *segment_cost(seg, variant, node)) for seg in plan]
        state = _fold(state, _plan_summary(costs, node))
    return _folded_estimate(state, node)


def ci_to_threshold(
    ci_now: float,
    ci_min: float,
    ci_max: float,
    p_min_w: float,
    p_max_w: float,
) -> float:
    """Linear descending map from carbon intensity to the power budget.

    Minimum intensity runs at full budget, maximum intensity at the floor
    p_min_w <= p_max_w; intensities outside the forecast range are clamped.
    A degenerate flat forecast keeps the maximum budget.
    """
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
    """All ways to cut [0, n_layers) into <= max_segments contiguous segments:
    by number of cuts, then in lexicographic order of the cuts."""
    boundaries = range(1, n_layers)
    for n_cuts in range(0, min(max_segments - 1, n_layers - 1) + 1):
        for cuts in itertools.combinations(boundaries, n_cuts):
            yield (0,) + cuts + (n_layers,)


def _cut_counts(n_layers: int, max_segments: int) -> list[int]:
    """Number of `_cut_masks` patterns with 0, 1, ... cuts."""
    return [math.comb(n_layers - 1, k) for k in range(min(max_segments, n_layers))]


def _unrank_cuts(n_layers: int, counts: list[int], rank: int) -> tuple[int, ...]:
    """The pattern at position `rank` of `_cut_masks`, without listing the ones before it."""
    n_cuts = 0
    while rank >= counts[n_cuts]:
        rank -= counts[n_cuts]
        n_cuts += 1
    cuts = [0]
    for left in range(n_cuts, 0, -1):
        # patterns that cut at `cut` next choose their left - 1 later cuts after it
        cut = cuts[-1] + 1
        while rank >= (block := math.comb(n_layers - 1 - cut, left - 1)):
            rank -= block
            cut += 1
        cuts.append(cut)
    return (*cuts, n_layers)


def _candidate_plans(
    n_layers: int,
    covering: list[int],
    node: EdgeNode,
    params: SearchParams,
    rng: random.Random,
) -> list[Plan]:
    """Candidate plans for one DNN: full enumeration when it fits the cap,
    otherwise all single-segment plans plus seeded random samples."""
    choices = [(u, f) for u in covering for f in range(len(node.units[u].freq_levels_hz))]
    counts = _cut_counts(n_layers, params.max_segments)
    # a pattern with k cuts has k + 1 segments
    total = sum(count * len(choices) ** (k + 1) for k, count in enumerate(counts))
    if total <= params.candidate_cap:
        return [
            tuple((*span, *choice) for span, choice in zip(itertools.pairwise(cuts), combo))
            for cuts in _cut_masks(n_layers, params.max_segments)
            for combo in itertools.product(choices, repeat=len(cuts) - 1)
        ]
    n_patterns = sum(counts)
    # plan -> None, in first-draw order
    plans = dict.fromkeys(((0, n_layers, u, f),) for u, f in choices)
    attempts = 0
    while len(plans) < params.candidate_cap and attempts < params.candidate_cap * 10:
        attempts += 1
        cuts = _unrank_cuts(n_layers, counts, rng.randrange(n_patterns))
        plans.setdefault(tuple((*span, *rng.choice(choices)) for span in itertools.pairwise(cuts)))
    return list(plans)


def _neighbor_plans(plans: tuple[Plan, ...], coverings: list[list[int]], node: EdgeNode):
    """Single-move neighbors: change one segment's unit, its frequency, or
    shift one cut by one layer. Deterministic enumeration order."""
    for d, plan in enumerate(plans):
        for j, (start, end, u, f) in enumerate(plan):
            for other in coverings[d]:
                if other != u:
                    freq = min(f, len(node.units[other].freq_levels_hz) - 1)
                    yield _replace_segments(plans, d, j, (start, end, other, freq))
            for g in range(len(node.units[u].freq_levels_hz)):
                if g != f:
                    yield _replace_segments(plans, d, j, (start, end, u, g))
        for j in range(len(plan) - 1):
            left, right = plan[j], plan[j + 1]
            for cut in (left[1] - 1, left[1] + 1):
                if left[0] < cut < right[1]:
                    yield _replace_segments(plans, d, j, (left[0], cut, *left[2:]), (cut, *right[1:]))


def _replace_segments(plans: tuple[Plan, ...], d: int, j: int, *segments: Segment) -> tuple[Plan, ...]:
    """`plans` with DNN d's segments from j on replaced by `segments`, one for one."""
    plan = plans[d]
    return plans[:d] + (plan[:j] + segments + plan[j + len(segments) :],) + plans[d + 1 :]


# (DNN, segment) -> (unit index, latency ms, power W)
_SegmentCosts = dict[tuple[int, Segment], tuple[int, float, float]]


def _summary(costs: _SegmentCosts, d: int, plan: Plan, variant: ModelVariant, node: EdgeNode) -> _Fold:
    """`_plan_summary` of DNN d's plan, with its segment costs memoized in `costs`."""
    seg_costs = []
    for seg in plan:
        cost = costs.get((d, seg))
        if cost is None:
            cost = costs[(d, seg)] = (seg[2], *segment_cost(seg, variant, node))
        seg_costs.append(cost)
    return _plan_summary(seg_costs, node)


def _exact_estimate(
    costs: _SegmentCosts, plans: tuple[Plan, ...], workloads: Sequence[ModelVariant], node: EdgeNode
) -> SystemEstimate:
    state = _empty_fold(node)
    for d, plan in enumerate(plans):
        state = _fold(state, _summary(costs, d, plan, workloads[d], node))
    return _folded_estimate(state, node)


def _positions(items: Sequence) -> list[int]:
    """Each item's position in sorted order; the items are distinct."""
    positions = [0] * len(items)
    for rank, k in enumerate(sorted(range(len(items)), key=items.__getitem__)):
        positions[k] = rank
    return positions


def _scores(
    throughput: float,
    unit_power: tuple[float, ...],
    plan_throughput: list[float],
    columns: list[tuple[float, ...]],
    alone: list[list[float]],
) -> list[float]:
    """ipw of extending the partial with fold state (throughput, unit_power)
    by each candidate.

    It is the ipw `_folded_estimate` gives for `_fold` of the two, from the
    same floats in the same order: the per-unit max (an empty partial unit
    takes the candidate's power, or idle power when both leave it empty),
    then the units added left to right (from the first unit rather than from
    0.0, which can only flip the sign of a zero total, and `_ipw` reads a
    zero power the same either way). The division is `_ipw`'s, written out.
    """
    power = None
    for a, column, empty in zip(unit_power, columns, alone):
        unit = empty if a < 0.0 else [a if a >= b else b for b in column]
        power = unit if power is None else list(map(operator.add, power, unit))
    return [(throughput + t) / p if p > 0 else _ipw(throughput + t, p) for t, p in zip(plan_throughput, power)]


def _best_extensions(
    beam: list[tuple[tuple[Plan, ...], _Fold]],
    options: list[Plan],
    summaries: list[_Fold],
    node: EdgeNode,
    width: int,
) -> list[tuple[int, int]]:
    """(i, j) of the `width` best extensions of beam partial i by candidate
    plan j, whose summary is summaries[j], best first.

    An extension ranks on (-ipw, key position, plan position), where ipw is
    `_scores`' and the positions are the partial's among the beam's plans
    and the candidate's among the candidates, each in sorted order. They
    order the extensions as their concatenated plans do: partials carry
    distinct plans of the same DNNs, and every plan covers all its layers,
    so no concatenation is a proper prefix of another and the first
    differing plan decides. So the keys are distinct.

    A bounded heap holds the best keys so far, partial by partial in beam
    order. Once it is full, a partial is skipped unscored when even its
    bound, the ipw of the most throughput any candidate adds over the least
    power any candidate can leave with it, is below the worst kept ipw; and
    only the candidates whose ipw reaches the worst kept one are pushed.
    The bound is exact in floats: its throughput is no less than any
    extension's and its power, summed per unit in the same order, no more,
    and IEEE addition and division are monotone. An extension whose ipw
    ties the worst kept one can still enter on its positions, so a partial
    whose bound ties it is scored.
    """
    plan_throughput = [throughput for throughput, _ in summaries]
    most_throughput = max(plan_throughput)
    # per unit in node order, each candidate's max active power, -inf when it leaves the unit empty
    columns = list(zip(*(unit_power for _, unit_power in summaries)))
    alone = [[p if p >= 0.0 else unit.idle_power_w for p in column] for column, unit in zip(columns, node.units)]
    # per unit, the least of `alone` and the least a candidate puts there
    least = [(min(empty), min(column)) for empty, column in zip(alone, columns)]
    key_positions = _positions([plans for plans, _ in beam])
    plan_positions = _positions(options)
    indices = range(len(summaries))
    # (ipw, -key position, -plan position, i, j): heap[0] is the worst kept extension
    heap: list[tuple[float, int, int, int, int]] = []
    for i, ((_, (throughput, unit_power)), key_position) in enumerate(zip(beam, key_positions)):
        full = len(heap) == width
        if full:
            worst = heap[0][0]
            power = 0.0
            for a, (least_alone, least_power) in zip(unit_power, least):
                power += least_alone if a < 0.0 else (a if a >= least_power else least_power)
            if _ipw(throughput + most_throughput, power) < worst:
                continue
        ipw = _scores(throughput, unit_power, plan_throughput, columns, alone)
        survivors = itertools.compress(indices, map(worst.__le__, ipw)) if full else indices
        for j in survivors:
            entry = (ipw[j], -key_position, -plan_positions[j], i, j)
            if len(heap) < width:
                heapq.heappush(heap, entry)
            else:
                heapq.heappushpop(heap, entry)
    return [(i, j) for *_, i, j in sorted(heap, reverse=True)]


def _check_threshold(power_threshold_w: float) -> None:
    if power_threshold_w <= 0:
        raise ValidationFailure("power_threshold_w must be > 0")


@dataclass(frozen=True)
class PreparedMapping:
    """The part of a mapping search that does not depend on the power
    threshold, made once by `prepare_mapping` and solved at any number of
    thresholds. Each solve gives what `search_mapping` gives at that
    threshold: a segment cost depends only on its (DNN, segment) key, so
    solves share the memo without seeing each other's thresholds."""

    workloads: tuple[ModelVariant, ...]
    node: EdgeNode
    coverings: tuple[list[int], ...]
    local_search_moves: int
    # (plans, exact estimate) of each beam survivor and each fallback, best first
    pool: tuple[tuple[tuple[Plan, ...], SystemEstimate], ...]
    segment_costs: _SegmentCosts

    def solve(self, power_threshold_w: float) -> MappingSolution:
        """The pool's best entry under the threshold, improved by first-improvement local search."""
        _check_threshold(power_threshold_w)
        best = next((entry for entry in self.pool if entry[1].power_w <= power_threshold_w), None)
        if best is None:
            raise NoFeasiblePlan(
                f"no plan fits under {power_threshold_w} W, even single-unit lowest-frequency mappings"
            )
        best_plans, best_exact = best

        budget = self.local_search_moves
        improved = True
        while improved and budget > 0:
            improved = False
            for neighbor in _neighbor_plans(best_plans, self.coverings, self.node):
                budget -= 1
                exact = _exact_estimate(self.segment_costs, neighbor, self.workloads, self.node)
                if exact.power_w <= power_threshold_w and exact.ipw > best_exact.ipw:
                    best_plans, best_exact = neighbor, exact
                    improved = True
                    break
                if budget <= 0:
                    break

        # every segment of a ranked plan is in the memo
        bottleneck_ms = tuple(max(self.segment_costs[(d, seg)][1] for seg in plan) for d, plan in enumerate(best_plans))
        return MappingSolution(plans=best_plans, estimate=best_exact, bottleneck_ms=bottleneck_ms)


def prepare_mapping(
    workloads: Sequence[ModelVariant],
    node: EdgeNode,
    params: SearchParams | None = None,
) -> PreparedMapping:
    """Candidate plans, segment costs and beam of a mapping search.

    Beam search assigns DNNs one at a time over enumerated (or sampled)
    per-DNN candidate plans, ranking every extension on the exact estimate's
    ipw. Segment costs are memoized per (DNN, segment), and each beam partial
    carries its fold state, so an extension's ipw comes from that state and
    the candidate's summary, a few floats per unit, without a re-estimate of
    the whole prefix. Equal ipw breaks on the partial's position among the
    beam's plans in sorted order, then on the candidate's among the
    candidates: the order of the concatenated plans. A bounded heap keeps
    the `beam_width` best extensions, so memory grows with the beam and not
    with beam x candidates, and only the survivors are folded. Once it is
    full, a partial whose bound on ipw is below the worst kept ipw is
    skipped without scoring its candidates (`_best_extensions`). The
    survivors and the fallbacks form the pool that `PreparedMapping.solve`
    filters by the threshold. Deterministic for a fixed seed.
    """
    if not workloads:
        raise ValidationFailure("search_mapping needs at least one workload")
    params = params or SearchParams()
    rng = random.Random(params.rng_seed)

    coverings: list[list[int]] = []
    for variant in workloads:
        covering = [u for u, unit in enumerate(node.units) if unit.covers(variant.layer_ids)]
        if not covering:
            raise ValidationFailure(
                f"no unit has a complete profile for variant {variant.name!r}"
            )
        n_layers = len(variant.layers)
        n_patterns = sum(_cut_counts(n_layers, params.max_segments))
        if n_patterns > MAX_CUT_PATTERNS:
            raise ValidationFailure(
                f"variant {variant.name!r}: {n_layers} layers at max_segments={params.max_segments} "
                f"give {n_patterns} cut patterns, more than {MAX_CUT_PATTERNS}"
            )
        coverings.append(covering)

    # Minimum-power anchors: every DNN whole on one shared unit at its lowest
    # frequency. They seed the candidate pool so a feasible plan is never
    # pruned away by the beam.
    fallbacks = [
        tuple(((0, len(v.layers), u, 0),) for v in workloads)
        for u in range(len(node.units))
        if all(u in cov for cov in coverings)
    ]

    candidates = [
        _candidate_plans(len(variant.layers), coverings[d], node, params, rng)
        for d, variant in enumerate(workloads)
    ]

    segment_costs: _SegmentCosts = {}
    # Each beam entry is (plans, fold state); only the survivors' fold states are kept.
    beam: list[tuple[tuple[Plan, ...], _Fold]] = [((), _empty_fold(node))]
    for d, variant in enumerate(workloads):
        options = candidates[d]
        summaries = [_summary(segment_costs, d, plan, variant, node) for plan in options]
        beam = [
            (beam[i][0] + (options[j],), _fold(beam[i][1], summaries[j]))
            for i, j in _best_extensions(beam, options, summaries, node, params.beam_width)
        ]

    # A fallback the beam holds repeats its plans and estimate, so the best
    # entry under any threshold is unchanged.
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


def search_mapping(
    workloads: Sequence[ModelVariant],
    node: EdgeNode,
    power_threshold_w: float,
    params: SearchParams | None = None,
) -> MappingSolution:
    """Find plans for all DNNs maximizing inferences-per-watt under the threshold.

    One `prepare_mapping` and one `PreparedMapping.solve`: the beam's pool
    is filtered by the threshold, and first-improvement local search then
    perturbs single segments of the best entry. Ranking and the filter both
    use the exact estimate, so returned plans respect the budget.
    """
    _check_threshold(power_threshold_w)
    return prepare_mapping(workloads, node, params).solve(power_threshold_w)


def select_variants(
    variant_sets: Sequence[ModelVariantSet],
    latency_constraint_ms: float,
    accuracy_floor: float,
    node: EdgeNode,
    power_threshold_w: float,
    params: SearchParams | None = None,
) -> tuple[tuple[ModelVariant, ...], MappingSolution]:
    """Pick one variant per set and map the chosen variants jointly.

    Variants below the accuracy floor are never considered. Combinations are
    mapped in heaviest-first product order, the first set varying slowest,
    and the first whose joint plan meets the latency constraint for every
    model is returned. If none does, the last combination that has a plan
    under the threshold is returned; its plans show the violation.
    """
    eligible = []
    for vset in variant_sets:
        eligible.append([v for v in vset.variants if v.accuracy >= accuracy_floor])
        if not eligible[-1]:
            raise InfeasibleError(f"no variant of {vset.name!r} reaches accuracy {accuracy_floor}")
    n_combinations = math.prod(map(len, eligible))
    if n_combinations > MAX_VARIANT_COMBINATIONS:
        raise ValidationFailure(
            f"{n_combinations} variant combinations above the accuracy floor, more than {MAX_VARIANT_COMBINATIONS}"
        )
    chosen = None
    for variants in itertools.product(*eligible):
        try:
            solution = search_mapping(variants, node, power_threshold_w, params)
        except NoFeasiblePlan:
            continue
        chosen = variants, solution
        if max(solution.bottleneck_ms) <= latency_constraint_ms:
            break
    if chosen is None:
        raise NoFeasiblePlan(f"no variants of {[s.name for s in variant_sets]} fit under {power_threshold_w} W")
    return chosen
