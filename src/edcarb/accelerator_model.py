"""Analytic cost model for a PE-array DNN accelerator.

Covers the three quantities the design explorer trades off: silicon area
(split across dies for 3D stacks), end-to-end workload latency under a
per-layer roofline (compute-bound vs DRAM-bound), and the embodied carbon
of the resulting dies via carbon_model.

The latency model is intentionally coarse: per layer, the active fraction
of the PE array is set by the dataflow, DRAM traffic by a single refetch
factor over the global buffer. It is order-preserving across configs rather
than cycle-accurate, which is what a fitness function needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .carbon_model import (
    DieSpec,
    EmbodiedReport,
    PackageKind,
    PackageSpec,
    TechnologyParams,
    embodied_carbon,
)
from .errors import ValidationFailure

MM2_PER_CM2 = 100.0
_MAC_OVERFLOW_LIMIT = 2**63


class Dataflow(Enum):
    WEIGHT_STATIONARY = "weight_stationary"
    OUTPUT_STATIONARY = "output_stationary"
    ROW_STATIONARY = "row_stationary"


@dataclass(frozen=True)
class MultiplierVariant:
    """One entry of the multiplier library; `exact` has zero accuracy drop."""

    name: str
    area_mm2: float
    accuracy_drop_pct: float

    def __post_init__(self) -> None:
        if self.area_mm2 <= 0:
            raise ValidationFailure(f"multiplier {self.name!r}: area_mm2 must be > 0")
        if self.accuracy_drop_pct < 0:
            raise ValidationFailure(f"multiplier {self.name!r}: accuracy_drop_pct must be >= 0")


@dataclass(frozen=True)
class AcceleratorConfig:
    """A fully-bound design point: array shape, buffers, dataflow, multiplier."""

    px: int
    py: int
    b_local: int
    b_global: int
    dataflow: Dataflow
    multiplier: MultiplierVariant
    stacking: PackageKind = PackageKind.PLANAR_2D
    clock_hz: float = 1e9
    dram_bytes_per_cycle: float = 16.0
    tsv_count: int = 0

    def __post_init__(self) -> None:
        if self.px < 1 or self.py < 1:
            raise ValidationFailure("PE array dimensions must be >= 1")
        if self.b_local < 1 or self.b_global < 1:
            raise ValidationFailure("buffer capacities must be >= 1 byte")
        if self.clock_hz <= 0:
            raise ValidationFailure("clock_hz must be > 0")
        if self.dram_bytes_per_cycle <= 0:
            raise ValidationFailure("dram_bytes_per_cycle must be > 0")
        if self.tsv_count < 0:
            raise ValidationFailure("tsv_count must be >= 0")


@dataclass(frozen=True)
class ConvLayer:
    """Convolution-style layer dimensions (batch n, channels c->k, kernel r x s,
    output p x q), elem_bytes per stored element."""

    n: int
    c: int
    k: int
    r: int
    s: int
    p: int
    q: int
    elem_bytes: int = 1

    def __post_init__(self) -> None:
        if any(v < 1 for v in (self.n, self.c, self.k, self.r, self.s, self.p, self.q, self.elem_bytes)):
            raise ValidationFailure("all ConvLayer dimensions must be >= 1")


@dataclass(frozen=True)
class DnnWorkload:
    name: str
    layers: tuple[ConvLayer, ...]

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValidationFailure(f"workload {self.name!r} has no layers")


@dataclass(frozen=True)
class AreaParams:
    """Per-node area coefficients; the MAC accumulator is never approximated."""

    sram_mm2_per_byte: float
    fixed_overhead_mm2: float
    mac_adder_mm2: float

    def __post_init__(self) -> None:
        if self.sram_mm2_per_byte < 0 or self.fixed_overhead_mm2 < 0 or self.mac_adder_mm2 < 0:
            raise ValidationFailure("area parameters must be >= 0")


@dataclass(frozen=True)
class AreaBreakdown:
    """Component areas in cm2. For 3D, compute_die + memory_die = total_2d_equiv."""

    pe_array_cm2: float
    local_buffers_cm2: float
    global_buffer_cm2: float
    overhead_cm2: float
    compute_die_cm2: float
    memory_die_cm2: float
    total_2d_equiv_cm2: float


def layer_macs(layer: ConvLayer) -> int:
    """Multiply-accumulate count of one convolution layer."""
    macs = layer.n * layer.k * layer.c * layer.r * layer.s * layer.p * layer.q
    if macs > _MAC_OVERFLOW_LIMIT:
        raise OverflowError(f"layer MAC count {macs} exceeds 2^63")
    return macs


def spatial_parallelism(dataflow: Dataflow, layer: ConvLayer, px: int, py: int) -> int:
    """Active PE count for a layer under the given dataflow; never exceeds px*py."""
    if dataflow is Dataflow.WEIGHT_STATIONARY:
        return min(layer.k, px) * min(layer.c, py)
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        return min(layer.p, px) * min(layer.q, py)
    return min(layer.r, px) * min(layer.p, py)


def operand_bytes(layer: ConvLayer) -> tuple[int, int, int]:
    """(weights, inputs, outputs) footprint in bytes for one layer."""
    e = layer.elem_bytes
    weights = layer.k * layer.c * layer.r * layer.s * e
    inputs = layer.n * layer.c * (layer.p + layer.r - 1) * (layer.q + layer.s - 1) * e
    outputs = layer.n * layer.k * layer.p * layer.q * e
    return weights, inputs, outputs


def dram_traffic(config: AcceleratorConfig, layer: ConvLayer) -> int:
    """DRAM bytes moved for one layer.

    The stationary operand (weights for weight/row-stationary, outputs for
    output-stationary) streams once; the other two operands are refetched
    once per global-buffer-sized tile of the stationary operand.
    """
    weights, inputs, outputs = operand_bytes(layer)
    if config.dataflow is Dataflow.OUTPUT_STATIONARY:
        stationary = outputs
        streamed = weights + inputs
    else:
        stationary = weights
        streamed = inputs + outputs
    refetch = max(1, -(-stationary // config.b_global))
    return stationary + refetch * streamed


def estimate_latency(config: AcceleratorConfig, workload: DnnWorkload) -> float:
    """Workload latency in seconds: per layer, max(compute, memory) cycles."""
    total_cycles = 0
    for layer in workload.layers:
        active = spatial_parallelism(config.dataflow, layer, config.px, config.py)
        compute_cycles = -(-layer_macs(layer) // active)
        memory_cycles = math.ceil(dram_traffic(config, layer) / config.dram_bytes_per_cycle)
        total_cycles += max(compute_cycles, memory_cycles)
    return total_cycles / config.clock_hz


def estimate_area(config: AcceleratorConfig, params: AreaParams) -> AreaBreakdown:
    """Component areas of a config in cm2.

    PE array pays one multiplier plus one (exact) adder per PE; buffers scale
    linearly with capacity. For 3D stacks the global buffer moves to its own
    memory die, everything else stays on the compute die.
    """
    pe_count = config.px * config.py
    pe_array = pe_count * (config.multiplier.area_mm2 + params.mac_adder_mm2) / MM2_PER_CM2
    local = pe_count * config.b_local * params.sram_mm2_per_byte / MM2_PER_CM2
    global_buf = config.b_global * params.sram_mm2_per_byte / MM2_PER_CM2
    overhead = params.fixed_overhead_mm2 / MM2_PER_CM2
    total = pe_array + local + global_buf + overhead
    if config.stacking is PackageKind.STACKED_3D:
        compute_die = pe_array + local + overhead
        memory_die = global_buf
    else:
        compute_die = total
        memory_die = 0.0
    return AreaBreakdown(
        pe_array_cm2=pe_array,
        local_buffers_cm2=local,
        global_buffer_cm2=global_buf,
        overhead_cm2=overhead,
        compute_die_cm2=compute_die,
        memory_die_cm2=memory_die,
        total_2d_equiv_cm2=total,
    )


def accelerator_embodied(
    config: AcceleratorConfig,
    tech: TechnologyParams,
    params: AreaParams,
    breakdown: AreaBreakdown | None = None,
) -> EmbodiedReport:
    """Embodied carbon of the config: one die when planar, compute+memory dies
    (bond interface = the larger die, configured TSV count) when stacked.

    `breakdown`, when given, must be `estimate_area(config, params)`; a caller
    that already holds it passes it in to skip the second estimate."""
    if breakdown is None:
        breakdown = estimate_area(config, params)
    if config.stacking is PackageKind.STACKED_3D:
        dies = [
            DieSpec(area_cm2=breakdown.compute_die_cm2, tech=tech),
            DieSpec(area_cm2=breakdown.memory_die_cm2, tech=tech),
        ]
        package = PackageSpec(
            kind=PackageKind.STACKED_3D,
            tsv_count=config.tsv_count,
            bond_interface_area_cm2=max(breakdown.compute_die_cm2, breakdown.memory_die_cm2),
        )
    else:
        dies = [DieSpec(area_cm2=breakdown.total_2d_equiv_cm2, tech=tech)]
        package = PackageSpec(kind=PackageKind.PLANAR_2D)
    return embodied_carbon(dies, package)


def accuracy_feasible(config: AcceleratorConfig, max_drop_pct: float) -> bool:
    """Whether the config's multiplier keeps accuracy loss within the threshold
    (inclusive at the boundary)."""
    return config.multiplier.accuracy_drop_pct <= max_drop_pct
