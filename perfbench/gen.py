"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` built from the workload seed, so the
same seed always yields the same inputs. Shapes and sizes are fixed; only
values are drawn, so the amount of work per pass does not depend on the
seed. Nothing here imports the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

from edcarb.accelerator_model import ConvLayer, DnnWorkload, MultiplierVariant
from edcarb.design_explorer import DesignSpace
from edcarb.edc_scheduler import EdgeNode, ModelVariant, ProcessingUnit, UnitKind, VariantLayer
from edcarb.runtime_sim import CiTrace

# Gene-list lengths (px, py, b_local, b_global, multipliers); three dataflows
# always. Full: 8*8*5*5*3*6 = 28,800 designs.
_SPACE_SHAPE = {False: (8, 8, 5, 5, 6), True: (3, 3, 2, 2, 3)}
_CONV_LAYERS = 5
# Designs above this die area are infeasible, which exercises the area check
# in `evaluate` without making the optimum hard to find.
MAX_AREA_CM2 = 2.0

# c06-shaped scheduler instances: (layers, units, frequency levels, DNNs),
# cycled in this order so every seed gets the same mix of instance sizes.
_MAPPING_SHAPES = tuple(itertools.product((2, 3), (2, 3), (1, 2), (1, 2)))


def design_space(base: DesignSpace, rng, smoke: bool) -> DesignSpace:
    """The demo space widened to tens of thousands of points.

    Keeps the demo's technology, area coefficients and dataflows; draws
    wider gene lists and an exact multiplier plus approximate variants.
    """
    n_px, n_py, n_bl, n_bg, n_mult = _SPACE_SHAPE[smoke]
    exact = MultiplierVariant(name="exact", area_mm2=0.008, accuracy_drop_pct=0.0)
    approx = tuple(
        MultiplierVariant(
            name=f"apx_{i}",
            area_mm2=round(rng.uniform(0.003, 0.0075), 5),
            accuracy_drop_pct=round(rng.uniform(0.2, 3.0), 2),
        )
        for i in range(1, n_mult)
    )
    return replace(
        base,
        px_values=tuple(sorted(rng.sample(range(2, 65), n_px))),
        py_values=tuple(sorted(rng.sample(range(2, 65), n_py))),
        b_local_values=tuple(sorted(rng.sample(range(16, 1025, 16), n_bl))),
        b_global_values=tuple(sorted(rng.sample(range(4096, 262145, 4096), n_bg))),
        multipliers=(exact,) + approx,
        max_area_cm2=MAX_AREA_CM2,
    )


def conv_workload(rng) -> DnnWorkload:
    """A fixed-depth convolution stack with drawn channel and map sizes."""
    layers = []
    for _ in range(_CONV_LAYERS):
        kernel = rng.choice((1, 3))
        fmap = rng.choice((7, 14, 28))
        layers.append(
            ConvLayer(
                n=1,
                c=rng.choice((3, 16, 32, 64, 128)),
                k=rng.choice((16, 32, 64, 128)),
                r=kernel,
                s=kernel,
                p=fmap,
                q=fmap,
                elem_bytes=1,
            )
        )
    return DnnWorkload(name="bench_conv", layers=tuple(layers))


def mapping_instance(rng, shape: tuple[int, int, int, int]):
    """One (workloads, node, power threshold) scheduler instance.

    The threshold is drawn above the power of the cheapest single-unit
    lowest-frequency mapping, so every instance has a feasible plan.
    """
    n_layers, n_units, n_freqs, n_dnns = shape
    layer_ids = tuple(f"l{i}" for i in range(n_layers))
    units = []
    for u in range(n_units):
        profile = {}
        for lid in layer_ids:
            base_latency = rng.uniform(1.0, 8.0)
            base_power = rng.uniform(1.0, 8.0)
            for f in range(n_freqs):
                profile[(lid, f)] = (
                    base_latency * (1.0 - 0.5 * f / n_freqs),
                    base_power * (1.0 + 0.7 * f),
                )
        units.append(
            ProcessingUnit(
                id=f"u{u}",
                kind=UnitKind.CPU if u % 2 == 0 else UnitKind.GPU,
                freq_levels_hz=tuple(1e9 * (i + 1) for i in range(n_freqs)),
                idle_power_w=rng.uniform(0.1, 1.0),
                profile=profile,
            )
        )
    node = EdgeNode(units=tuple(units), transfer_bytes_per_ms=rng.uniform(5e4, 5e5))
    workloads = [
        ModelVariant(
            name=f"m{d}",
            accuracy=0.9 - 0.05 * d,
            layers=tuple(VariantLayer(lid, rng.randint(10_000, 200_000)) for lid in layer_ids),
        )
        for d in range(n_dnns)
    ]
    floor = min(
        max(unit.profile[(lid, 0)][1] for lid in layer_ids)
        + sum(other.idle_power_w for other in units if other is not unit)
        for unit in units
    )
    threshold = rng.uniform(1.05 * floor, max(1.05 * floor, 30.0))
    return workloads, node, threshold


def mapping_instances(rng, smoke: bool):
    shapes = _MAPPING_SHAPES[:4] if smoke else _MAPPING_SHAPES
    return [mapping_instance(rng, shape) for shape in shapes]


def day_trace(rng, smoke: bool) -> CiTrace:
    """A diurnal carbon-intensity trace at 30 s resolution.

    Full: one day, 2,881 samples. Smoke: one hour.
    """
    horizon = 3600.0 if smoke else 86400.0
    n = int(horizon // 30) + 1
    phase = rng.uniform(0.0, 2.0 * math.pi)
    samples = []
    for i in range(n):
        t = 30.0 * i
        ci = 300.0 + 150.0 * math.sin(2.0 * math.pi * t / 86400.0 + phase) + rng.uniform(-40.0, 40.0)
        samples.append((t, min(max(ci, 60.0), 560.0)))
    return CiTrace(samples=tuple(samples), horizon_s=horizon)


def volatile_trace(rng, smoke: bool) -> CiTrace:
    """Intensity that jumps between a low and a high band every 30 s.

    Each jump spans most of the trace's range, far beyond any hysteresis
    fraction below one half, so every sample forces a re-plan: 100 jumps
    (10 in smoke mode).
    """
    swings = 10 if smoke else 100
    samples = tuple(
        (30.0 * i, rng.uniform(100.0, 180.0) if i % 2 == 0 else rng.uniform(420.0, 500.0))
        for i in range(swings + 1)
    )
    return CiTrace(samples=samples, horizon_s=30.0 * (swings + 1))
