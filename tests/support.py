"""Shared builders and independent oracles used across the test suite.

Oracles here deliberately avoid the library's own search/estimation paths:
the wafer oracle counts squares on a grid, the mapping oracle enumerates
every plan, the policy oracles brute-force every option.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import replace

from edcarb.accelerator_model import AreaParams, ConvLayer, DnnWorkload, MultiplierVariant
from edcarb.carbon_model import TechnologyParams
from edcarb.edc_scheduler import (
    EdgeNode,
    ModelVariant,
    Plan,
    ProcessingUnit,
    UnitKind,
    VariantLayer,
    segment_cost,
)
from edcarb.errors import ValidationFailure
from edcarb.runtime_sim import ExecLookupTable


# ---------------------------------------------------------------------------
# wafer oracle
# ---------------------------------------------------------------------------


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


def make_workload(n_layers: int = 3) -> DnnWorkload:
    shapes = [
        ConvLayer(n=1, c=3, k=16, r=3, s=3, p=32, q=32),
        ConvLayer(n=1, c=16, k=32, r=3, s=3, p=16, q=16),
        ConvLayer(n=1, c=32, k=64, r=3, s=3, p=8, q=8),
        ConvLayer(n=1, c=64, k=64, r=1, s=1, p=8, q=8),
    ]
    return DnnWorkload(name="toy", layers=tuple(shapes[:n_layers]))


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
    return min(feasible, key=lambda b: (table.energy_j(b, freq_idx) / b, -b))


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
