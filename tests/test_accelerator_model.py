"""Area, latency and traffic model tests."""

import math
import random
from dataclasses import replace

import pytest

from edcarb.accelerator_model import (
    AcceleratorConfig,
    AreaParams,
    ConvLayer,
    Dataflow,
    DnnWorkload,
    MultiplierVariant,
    accelerator_embodied,
    accuracy_feasible,
    dram_traffic,
    layer_macs,
    operand_bytes,
    spatial_parallelism,
)
from edcarb.carbon_model import PackageKind
from edcarb.errors import ValidationFailure

from support import (
    EXACT_MULT,
    area_of,
    latency_of,
    make_area_params,
    make_tech,
    make_workload,
    only_coefficients,
    random_design_space,
)


def make_config(**overrides) -> AcceleratorConfig:
    values = dict(
        px=4,
        py=4,
        b_local=64,
        b_global=65536,
        dataflow=Dataflow.WEIGHT_STATIONARY,
        multiplier=EXACT_MULT,
    )
    values.update(overrides)
    return AcceleratorConfig(**values)


# ---------------------------------------------------------------------------
# layer arithmetic
# ---------------------------------------------------------------------------


def test_layer_macs_direct_product():
    assert layer_macs(ConvLayer(n=1, c=3, k=2, r=1, s=1, p=4, q=4)) == 96
    assert layer_macs(ConvLayer(1, 1, 1, 1, 1, 1, 1)) == 1


def test_layer_macs_linear_in_output_channels():
    base = ConvLayer(n=2, c=5, k=8, r=3, s=3, p=10, q=10)
    doubled = ConvLayer(n=2, c=5, k=16, r=3, s=3, p=10, q=10)
    assert layer_macs(doubled) == 2 * layer_macs(base)


def test_layer_macs_overflow_guard():
    # ConvLayer refuses a MAC count of 2**63 or more, so layer_macs never sees one
    with pytest.raises(ValidationFailure, match=r"layer MAC count 18446744073709551616 must be < 2\*\*63"):
        ConvLayer(n=2**16, c=2**16, k=2**16, r=1, s=1, p=2**8, q=2**8)
    assert layer_macs(ConvLayer(n=2**15, c=2**16, k=2**16, r=1, s=1, p=2**8, q=2**7)) == 2**62


def test_spatial_parallelism_rules():
    layer = ConvLayer(n=1, c=3, k=2, r=5, s=5, p=8, q=8)
    assert spatial_parallelism(Dataflow.WEIGHT_STATIONARY, layer, 4, 4) == 6  # min(k,4)*min(c,4)
    assert spatial_parallelism(Dataflow.OUTPUT_STATIONARY, layer, 4, 4) == 16  # saturated
    assert spatial_parallelism(Dataflow.ROW_STATIONARY, layer, 4, 4) == 16  # min(r,4)*min(p,4)
    for dataflow in Dataflow:
        assert spatial_parallelism(dataflow, layer, 1, 1) == 1
        assert spatial_parallelism(dataflow, layer, 4, 4) <= 16


def test_operand_bytes():
    assert operand_bytes(ConvLayer(1, 1, 1, 1, 1, 2, 2, elem_bytes=1)) == (1, 4, 4)
    assert operand_bytes(ConvLayer(1, 1, 1, 3, 3, 2, 2, elem_bytes=1)) == (9, 16, 4)
    single = operand_bytes(ConvLayer(2, 3, 4, 3, 3, 5, 5, elem_bytes=1))
    double = operand_bytes(ConvLayer(2, 3, 4, 3, 3, 5, 5, elem_bytes=2))
    assert double == tuple(2 * v for v in single)


# ---------------------------------------------------------------------------
# dram traffic
# ---------------------------------------------------------------------------


def test_dram_traffic_everything_fits():
    layer = ConvLayer(1, 2, 2, 3, 3, 3, 5)
    weights, inputs, outputs = operand_bytes(layer)
    assert dram_traffic(Dataflow.WEIGHT_STATIONARY, 10**9, layer) == weights + inputs + outputs


def test_dram_traffic_refetch_factor_two():
    # weights = 36, inputs+outputs = 100, buffer sized at exactly half the weights
    layer = ConvLayer(n=1, c=2, k=2, r=3, s=3, p=3, q=5)
    weights, inputs, outputs = operand_bytes(layer)
    assert weights == 36 and inputs + outputs == 100
    assert dram_traffic(Dataflow.WEIGHT_STATIONARY, 18, layer) == 36 + 2 * 100


def test_dram_traffic_output_stationary_keeps_outputs():
    layer = ConvLayer(n=1, c=2, k=2, r=3, s=3, p=3, q=5)
    weights, inputs, outputs = operand_bytes(layer)
    assert dram_traffic(Dataflow.OUTPUT_STATIONARY, outputs, layer) == outputs + (weights + inputs)


def test_dram_traffic_non_increasing_in_global_buffer():
    layer = ConvLayer(2, 16, 32, 3, 3, 14, 14)
    previous = None
    for b_global in [64, 256, 1024, 4096, 16384, 10**7]:
        traffic = dram_traffic(Dataflow.WEIGHT_STATIONARY, b_global, layer)
        if previous is not None:
            assert traffic <= previous
        previous = traffic


# ---------------------------------------------------------------------------
# latency
# ---------------------------------------------------------------------------


def test_latency_compute_bound_case():
    # 96 MACs on 6 active PEs, memory made free by a huge bus, 1 MHz clock
    layer = ConvLayer(n=1, c=3, k=2, r=1, s=1, p=4, q=4)
    config = make_config(px=2, py=3, b_global=10**9)
    assert spatial_parallelism(config.dataflow, layer, 2, 3) == 6
    workload = DnnWorkload("one", (layer,))
    assert latency_of(config, workload, clock_hz=1e6, dram_bytes_per_cycle=1e12) == pytest.approx(16 / 1e6)


def test_latency_memory_bound_case():
    # traffic 900 B at 1 B/cycle dwarfs the 4 compute cycles
    layer = ConvLayer(1, 1, 1, 1, 1, 2, 2, elem_bytes=100)
    config = make_config(px=1, py=1, b_global=10**9)
    assert dram_traffic(config.dataflow, config.b_global, layer) == 900
    workload = DnnWorkload("one", (layer,))
    assert latency_of(config, workload, clock_hz=1e6, dram_bytes_per_cycle=1.0) == pytest.approx(900 / 1e6)


def test_latency_additive_over_layers():
    layer = ConvLayer(1, 8, 8, 3, 3, 8, 8)
    config = make_config()
    one = latency_of(config, DnnWorkload("one", (layer,)))
    two = latency_of(config, DnnWorkload("two", (layer, layer)))
    assert two == pytest.approx(2 * one)


def test_latency_non_increasing_in_array_size():
    workload = make_workload(3)
    previous = None
    for px in [1, 2, 4, 8, 16, 32]:
        latency = latency_of(make_config(px=px, py=px), workload)
        if previous is not None:
            assert latency <= previous
        previous = latency


# ---------------------------------------------------------------------------
# area
# ---------------------------------------------------------------------------


def test_estimate_area_reference_point():
    config = make_config(
        px=2, py=2, b_local=100, b_global=1000,
        multiplier=MultiplierVariant("m", area_mm2=0.01, accuracy_drop_pct=0.0),
    )
    params = AreaParams(sram_mm2_per_byte=1e-4, fixed_overhead_mm2=0.0, mac_adder_mm2=0.005)
    area = area_of(config, params)
    assert area.total_2d_equiv_cm2 == pytest.approx(0.2 / 100)
    assert area.memory_die_cm2 == 0.0
    assert area.compute_die_cm2 == area.total_2d_equiv_cm2
    # the 3D split puts the global buffer on the memory die and the PE array
    # plus local buffers (no overhead here) on the compute die
    stacked = PackageKind.STACKED_3D
    split = area_of(config, params, stacked)
    assert split.memory_die_cm2 == pytest.approx(0.1 / 100)
    assert split.compute_die_cm2 == pytest.approx((0.06 + 0.04) / 100)
    no_sram = area_of(config, replace(params, sram_mm2_per_byte=0.0), stacked)
    assert no_sram.compute_die_cm2 == pytest.approx(0.06 / 100)  # the PE array alone


def test_halving_multiplier_area_shrinks_only_pe_array():
    # on the 3D split the memory die is the global buffer and the compute die
    # the PE array plus local buffers and overhead
    params = make_area_params()
    stacked = PackageKind.STACKED_3D
    full = area_of(make_config(multiplier=MultiplierVariant("a", 0.008, 0.0)), params, stacked)
    half = area_of(make_config(multiplier=MultiplierVariant("b", 0.004, 1.0)), params, stacked)
    assert half.memory_die_cm2 == full.memory_die_cm2
    assert full.compute_die_cm2 - half.compute_die_cm2 == pytest.approx(16 * 0.004 / 100)
    assert full.total_2d_equiv_cm2 - half.total_2d_equiv_cm2 == pytest.approx(16 * 0.004 / 100)


def test_stacked_area_partitions_total():
    params = make_area_params()
    config = make_config()
    area = area_of(config, params, PackageKind.STACKED_3D)
    assert area.compute_die_cm2 + area.memory_die_cm2 == pytest.approx(
        area.total_2d_equiv_cm2, rel=1e-12
    )
    assert area.memory_die_cm2 == config.b_global * params.sram_mm2_per_byte / 100


def test_area_components_always_sum_to_total():
    rng = random.Random(13)
    for _ in range(50):
        config = make_config(
            px=rng.randint(1, 32),
            py=rng.randint(1, 32),
            b_local=rng.randint(1, 4096),
            b_global=rng.randint(1, 10**6),
        )
        stacking = rng.choice(list(PackageKind))
        params = AreaParams(
            sram_mm2_per_byte=rng.uniform(0, 1e-3),
            fixed_overhead_mm2=rng.uniform(0, 5),
            mac_adder_mm2=rng.uniform(0, 0.02),
        )
        area = area_of(config, params, stacking)
        pe_count = config.px * config.py
        pe_array = pe_count * (config.multiplier.area_mm2 + params.mac_adder_mm2) / 100
        local = pe_count * config.b_local * params.sram_mm2_per_byte / 100
        global_buf = config.b_global * params.sram_mm2_per_byte / 100
        overhead = params.fixed_overhead_mm2 / 100
        total = pe_array + local + global_buf + overhead
        assert area.total_2d_equiv_cm2 == pytest.approx(total, rel=1e-12)
        assert area.compute_die_cm2 + area.memory_die_cm2 == pytest.approx(total, rel=1e-12)
        if stacking is PackageKind.STACKED_3D:
            assert area.memory_die_cm2 == pytest.approx(global_buf, rel=1e-12)
            assert area.compute_die_cm2 == pytest.approx(pe_array + local + overhead, rel=1e-12)


def test_area_affine_in_parameters_exact_finite_differences():
    # coefficients of the form 100 * 2^-k make the mm2 -> cm2 conversion and
    # every product exact in binary floating point, so differences are bit-exact
    params = AreaParams(
        sram_mm2_per_byte=100 * 2**-16,
        fixed_overhead_mm2=100 * 2**-6,
        mac_adder_mm2=100 * 2**-11,
    )
    mult = MultiplierVariant("m", area_mm2=100 * 2**-10, accuracy_drop_pct=0.0)
    base = make_config(px=4, py=4, b_local=64, b_global=4096, multiplier=mult)

    step = 64
    grown = make_config(px=4, py=4, b_local=64 + step, b_global=4096, multiplier=mult)
    diff = area_of(grown, params).total_2d_equiv_cm2 - area_of(base, params).total_2d_equiv_cm2
    assert diff == 16 * step * 2**-16

    grown = make_config(px=4, py=4, b_local=64, b_global=4096 + step, multiplier=mult)
    diff = area_of(grown, params).total_2d_equiv_cm2 - area_of(base, params).total_2d_equiv_cm2
    assert diff == step * 2**-16

    bigger_mult = MultiplierVariant("m2", area_mm2=100 * (2**-10 + 2**-11), accuracy_drop_pct=0.0)
    grown = make_config(px=4, py=4, b_local=64, b_global=4096, multiplier=bigger_mult)
    diff = area_of(grown, params).total_2d_equiv_cm2 - area_of(base, params).total_2d_equiv_cm2
    assert diff == 16 * 2**-11


# ---------------------------------------------------------------------------
# embodied composition
# ---------------------------------------------------------------------------


def _embodied(config, tech, params, stacking=PackageKind.PLANAR_2D, tsv_count=0) -> float:
    return accelerator_embodied(area_of(config, params, stacking), tech, stacking, tsv_count)


def test_embodied_packaging_only_when_coefficients_vanish():
    tech = make_tech(cfpa_kg_per_cm2=0.0, cfpa_si_kg_per_cm2=0.0, packaging_kg=0.25)
    params = AreaParams(sram_mm2_per_byte=0.0, fixed_overhead_mm2=1.0, mac_adder_mm2=0.0)
    config = make_config(multiplier=MultiplierVariant("m", 1e-6, 0.0))
    assert _embodied(config, tech, params) == pytest.approx(0.25)


def test_embodied_planar_vs_stacked_relation_computed_per_instance():
    tech = make_tech()
    params = make_area_params()
    config = make_config()
    stacked = (PackageKind.STACKED_3D, 500)
    # both branches evaluated; with these coefficients the 3D overheads
    # outweigh the wastage savings of two smaller dies. Each term is the
    # embodied carbon with every other coefficient zeroed.
    bonding_and_tsv = only_coefficients(tech, "bonding_kg_per_cm2", "tsv_kg_per_via")
    wastage = only_coefficients(tech, "cfpa_si_kg_per_cm2")
    extra_3d = _embodied(config, bonding_and_tsv, params, *stacked)
    wastage_savings = _embodied(config, wastage, params) - _embodied(config, wastage, params, *stacked)
    assert extra_3d > 0.0 and _embodied(config, bonding_and_tsv, params) == 0.0
    planar_kg = _embodied(config, tech, params)
    stacked_kg = _embodied(config, tech, params, *stacked)
    if extra_3d > wastage_savings:
        assert stacked_kg > planar_kg
    else:
        assert stacked_kg <= planar_kg


def test_embodied_grows_with_array_size():
    tech = make_tech()
    params = make_area_params()
    small = _embodied(make_config(px=4, py=4), tech, params)
    large = _embodied(make_config(px=8, py=8), tech, params)
    assert large > small


def test_embodied_monotone_in_area_coefficients():
    tech = make_tech()
    base = _embodied(make_config(), tech, make_area_params())
    for grown in [
        make_area_params(sram_mm2_per_byte=2**-12),
        make_area_params(fixed_overhead_mm2=4.0),
        make_area_params(mac_adder_mm2=0.01),
    ]:
        assert _embodied(make_config(), tech, grown) > base


# ---------------------------------------------------------------------------
# accuracy gate
# ---------------------------------------------------------------------------


def test_accuracy_feasibility_threshold():
    assert accuracy_feasible(make_config().multiplier, 0.0)
    dropped = make_config(multiplier=MultiplierVariant("apx", 0.004, 2.5))
    assert not accuracy_feasible(dropped.multiplier, 2.0)
    boundary = make_config(multiplier=MultiplierVariant("apx", 0.004, 2.0))
    assert accuracy_feasible(boundary.multiplier, 2.0)


@pytest.mark.parametrize("field", ["sram_mm2_per_byte", "fixed_overhead_mm2", "mac_adder_mm2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_area_params_refuse_a_coefficient_that_is_not_finite_and_non_negative(field, value):
    with pytest.raises(ValidationFailure, match="area parameters must be finite and >= 0"):
        make_area_params(**{field: value})


def test_config_validation():
    with pytest.raises(ValidationFailure):
        make_config(px=0)
    with pytest.raises(ValidationFailure):
        make_config(b_global=0)
    with pytest.raises(ValidationFailure):
        ConvLayer(0, 1, 1, 1, 1, 1, 1)
    with pytest.raises(ValidationFailure):
        DnnWorkload("empty", ())
    with pytest.raises(ValidationFailure):
        MultiplierVariant("bad", 0.0, 0.0)


@pytest.mark.parametrize("field", ["clock_hz", "dram_bytes_per_cycle"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_config_refuses_a_rate_that_is_not_finite_and_positive(field, value):
    # the rates are run settings, so the design space that holds them checks them;
    # NaN fails every comparison, so a check written as `x <= 0` lets it through
    space = random_design_space(random.Random(0))
    with pytest.raises(ValidationFailure, match=f"{field} must be finite and > 0"):
        replace(space, **{field: value})
