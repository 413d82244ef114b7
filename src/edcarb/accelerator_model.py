"""Analytic cost model for a PE-array DNN accelerator.

Covers the three quantities the design explorer trades off: silicon area
(split across dies for 3D stacks), end-to-end workload latency under a
per-layer roofline (compute-bound vs DRAM-bound), and the embodied carbon
of the resulting die areas via carbon_model. One AcceleratorConfig is one
design point, its six genes only; a run's stacking, clock, DRAM width and
TSV count are DesignSpace's. The design explorer breeds index keys, and an
EvaluatedDesign's chromosome is the AcceleratorConfig that its key names.

Every function takes the values it reads, so a search can cost each key
without building a design: estimate_latency takes the four genes it
depends on (array shape, global buffer, dataflow) and the clock and DRAM
width, estimate_area the five it depends on (array shape, both buffers,
multiplier) and the stacking, accelerator_embodied the areas, stacking and
TSV count, and accuracy_feasible the multiplier.

The latency model is intentionally coarse: per layer, the active fraction
of the PE array is set by the dataflow, DRAM traffic by a single refetch
factor over the global buffer. It is order-preserving across configs rather
than cycle-accurate, which is what a fitness function needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .carbon_model import PackageKind, TechnologyParams, embodied_carbon
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
        if not 0 < self.area_mm2 < math.inf:
            raise ValidationFailure(f"multiplier {self.name!r}: area_mm2 must be finite and > 0")
        if not 0 <= self.accuracy_drop_pct < math.inf:
            raise ValidationFailure(f"multiplier {self.name!r}: accuracy_drop_pct must be finite and >= 0")


@dataclass(frozen=True)
class AcceleratorConfig:
    """A fully-bound design point: array shape, buffers, dataflow, multiplier."""

    px: int
    py: int
    b_local: int
    b_global: int
    dataflow: Dataflow
    multiplier: MultiplierVariant

    def __post_init__(self) -> None:
        if self.px < 1 or self.py < 1:
            raise ValidationFailure("PE array dimensions must be >= 1")
        if self.b_local < 1 or self.b_global < 1:
            raise ValidationFailure("buffer capacities must be >= 1 byte")


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
        macs = layer_macs(self)
        if macs >= _MAC_OVERFLOW_LIMIT:
            raise ValidationFailure(f"layer MAC count {macs} must be < 2**63")


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
        # NaN fails every comparison, so a check written as `x < 0` lets it through
        if not all(0 <= c < math.inf for c in (self.sram_mm2_per_byte, self.fixed_overhead_mm2, self.mac_adder_mm2)):
            raise ValidationFailure("area parameters must be finite and >= 0")


class AreaBreakdown(NamedTuple):
    """Die areas in cm2. For 3D, compute_die + memory_die = total_2d_equiv
    up to rounding: the total is summed on its own, in the planar order."""

    compute_die_cm2: float
    memory_die_cm2: float
    total_2d_equiv_cm2: float


def layer_macs(layer: ConvLayer) -> int:
    """Multiply-accumulate count of one convolution layer; below 2**63, as
    ConvLayer checks."""
    return layer.n * layer.k * layer.c * layer.r * layer.s * layer.p * layer.q


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


def dram_traffic(dataflow: Dataflow, b_global: int, layer: ConvLayer) -> int:
    """DRAM bytes moved for one layer under `dataflow` with a `b_global`-byte buffer.

    The stationary operand (weights for weight/row-stationary, outputs for
    output-stationary) streams once; the other two operands are refetched
    once per global-buffer-sized tile of the stationary operand.
    """
    weights, inputs, outputs = operand_bytes(layer)
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        stationary = outputs
        streamed = weights + inputs
    else:
        stationary = weights
        streamed = inputs + outputs
    refetch = max(1, -(-stationary // b_global))
    return stationary + refetch * streamed


def estimate_latency(
    px: int, py: int, b_global: int, dataflow: Dataflow, clock_hz: float, dram_bytes_per_cycle: float,
    workload: DnnWorkload,
) -> float:
    """Latency in seconds of `workload` on a px x py array with a
    `b_global`-byte global buffer under `dataflow`, at `clock_hz` and
    `dram_bytes_per_cycle`: per layer, max(compute, memory) cycles.

    A cycle count beyond the float range (a DRAM width near zero) fails
    with ValidationFailure, which names the layer it was reached at.
    """
    total_cycles = 0
    try:
        for layer in workload.layers:
            active = spatial_parallelism(dataflow, layer, px, py)
            compute_cycles = -(-layer_macs(layer) // active)
            memory_cycles = math.ceil(dram_traffic(dataflow, b_global, layer) / dram_bytes_per_cycle)
            total_cycles += max(compute_cycles, memory_cycles)
        return total_cycles / clock_hz
    except OverflowError as exc:
        index = workload.layers.index(layer)
        raise ValidationFailure(f"workload {workload.name!r}: cycle count overflows at layer {index}: {exc}") from exc


def estimate_area(
    px: int,
    py: int,
    b_local: int,
    b_global: int,
    multiplier: MultiplierVariant,
    params: AreaParams,
    stacking: PackageKind,
) -> AreaBreakdown:
    """Die areas in cm2 of a px x py array with `b_local` bytes per PE, a
    `b_global`-byte global buffer and `multiplier`, packaged as `stacking`.

    PE array pays one multiplier plus one (exact) adder per PE; buffers scale
    linearly with capacity. For 3D stacks the global buffer moves to its own
    memory die, everything else stays on the compute die.
    """
    pe_count = px * py
    pe_array = pe_count * (multiplier.area_mm2 + params.mac_adder_mm2) / MM2_PER_CM2
    local = pe_count * b_local * params.sram_mm2_per_byte / MM2_PER_CM2
    global_buf = b_global * params.sram_mm2_per_byte / MM2_PER_CM2
    overhead = params.fixed_overhead_mm2 / MM2_PER_CM2
    total = pe_array + local + global_buf + overhead
    if stacking is PackageKind.STACKED_3D:
        return AreaBreakdown(pe_array + local + overhead, global_buf, total)
    return AreaBreakdown(total, 0.0, total)


def accelerator_embodied(area: AreaBreakdown, tech: TechnologyParams, stacking: PackageKind, tsv_count: int) -> float:
    """Embodied carbon (kg) of a design with die areas `area`: one die when
    planar, compute+memory dies (bond interface = the larger die,
    `tsv_count` TSVs) when stacked."""
    if stacking is PackageKind.STACKED_3D:
        compute, memory = area.compute_die_cm2, area.memory_die_cm2
        return embodied_carbon((compute, memory), tech, PackageKind.STACKED_3D, tsv_count, max(compute, memory))
    return embodied_carbon((area.total_2d_equiv_cm2,), tech)


def accuracy_feasible(multiplier: MultiplierVariant, max_drop_pct: float) -> bool:
    """Whether the multiplier keeps accuracy loss within the threshold
    (inclusive at the boundary)."""
    return multiplier.accuracy_drop_pct <= max_drop_pct
