"""Carbon equation tests: exactness, oracles and algebraic properties."""

import math
import random
from dataclasses import replace

import pytest

from edcarb.accelerator_model import MultiplierVariant
from edcarb.carbon_model import (
    J_PER_KWH,
    PackageKind,
    cdp,
    die_carbon,
    dies_per_wafer,
    embodied_carbon,
    embodied_per_inference_g,
    operational_carbon,
    wasted_area,
)
from edcarb.edc_scheduler import EdgeNode, ProcessingUnit, UnitKind
from edcarb.errors import ValidationFailure

from support import grid_placement_count, left_sum, make_tech, make_unit, only_coefficients


# ---------------------------------------------------------------------------
# wasted_area / dies_per_wafer
# ---------------------------------------------------------------------------


def test_single_die_wafer_wastes_everything_else():
    # die_area=8, wafer 10 cm: the estimate floors to exactly one die
    assert dies_per_wafer(8.0, 10.0) == 1
    wafer_area = math.pi * 25.0
    assert wasted_area(8.0, 10.0) == pytest.approx(wafer_area - 8.0)


def test_wasted_area_reference_point_cross_checked_with_grid_oracle():
    # 1 cm2 die on a 30 cm wafer
    dpw = dies_per_wafer(1.0, 30.0)
    wafer_area = math.pi * 15.0**2
    expected_dpw = math.floor(wafer_area / 1.0 - math.pi * 30.0 / math.sqrt(2.0))
    assert dpw == expected_dpw == 640
    assert wasted_area(1.0, 30.0) == pytest.approx((wafer_area - 640.0) / 640.0)
    assert wasted_area(1.0, 30.0) == pytest.approx(0.1045, rel=1e-3)
    oracle = grid_placement_count(1.0, 30.0)
    assert abs(dpw - oracle) <= 0.05 * oracle


def test_wasted_area_shrinks_with_wafer_diameter():
    values = [wasted_area(0.1, 10.0 + 0.5 * i) for i in range(100)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    # decays like 1/diameter: a ~6x larger wafer wastes ~6x less per die
    assert values[-1] < 0.2 * values[0]


def test_die_too_large_errors():
    with pytest.raises(ValidationFailure, match="die of 1000.0 cm2 exceeds wafer area 78.5398 cm2"):
        wasted_area(1000.0, 10.0)
    with pytest.raises(ValidationFailure, match="die of 10.0 cm2 yields no whole die on a 10.0 cm wafer"):
        wasted_area(10.0, 10.0)  # the estimate floors to zero
    with pytest.raises(ValidationFailure):
        wasted_area(-1.0, 10.0)


@pytest.mark.parametrize("fn", [dies_per_wafer, wasted_area])
def test_nan_die_area_is_refused_as_validation(fn):
    with pytest.raises(ValidationFailure, match="die area must be > 0") as refused:
        fn(math.nan, 30.0)
    assert "die of" not in str(refused.value)


@pytest.mark.parametrize("fn", [dies_per_wafer, wasted_area])
@pytest.mark.parametrize("diameter", [math.nan, math.inf, 0.0, -30.0])
def test_wafer_diameter_that_is_not_finite_and_positive_is_refused(fn, diameter):
    # a negative diameter used to yield 773 dies of 1 cm2, and NaN or inf a bare ValueError
    with pytest.raises(ValidationFailure, match="wafer diameter must be finite and > 0") as refused:
        fn(1.0, diameter)
    assert "die of" not in str(refused.value)


# ---------------------------------------------------------------------------
# die_carbon
# ---------------------------------------------------------------------------


def test_die_carbon_zero_coefficients():
    tech = make_tech(cfpa_kg_per_cm2=0.0, cfpa_si_kg_per_cm2=0.0)
    assert die_carbon(2.0, tech) == 0.0


def test_die_carbon_composes_wasted_area():
    tech = make_tech(cfpa_kg_per_cm2=2.0, cfpa_si_kg_per_cm2=1.0, wafer_diameter_cm=30.0)
    expected = 2.0 * 1.0 + 1.0 * wasted_area(1.0, 30.0)
    got = die_carbon(1.0, tech)
    assert got == pytest.approx(expected)
    assert got == pytest.approx(2.1045, rel=1e-3)


def test_die_carbon_linear_in_coefficients():
    rng = random.Random(11)
    for _ in range(50):
        cfpa = rng.uniform(0.1, 5.0)
        cfpa_si = rng.uniform(0.1, 5.0)
        area = rng.uniform(0.2, 2.0)
        single = die_carbon(area, make_tech(cfpa_kg_per_cm2=cfpa, cfpa_si_kg_per_cm2=cfpa_si))
        double = die_carbon(area, make_tech(cfpa_kg_per_cm2=2 * cfpa, cfpa_si_kg_per_cm2=2 * cfpa_si))
        assert double == 2 * single


# ---------------------------------------------------------------------------
# embodied_carbon
# ---------------------------------------------------------------------------


def test_embodied_single_planar_die_is_additive():
    # die carbon is exactly 0.7 (no silicon-wastage coefficient); a planar
    # package pays no bonding or TSV carbon, whatever its coefficients
    tech = make_tech(cfpa_kg_per_cm2=1.4, cfpa_si_kg_per_cm2=0.0, packaging_kg=0.3)
    planar = dict(kind=PackageKind.PLANAR_2D, tsv_count=1000, bond_interface_area_cm2=0.5)
    assert embodied_carbon([0.5], tech, **planar) == pytest.approx(1.0)
    assert embodied_carbon([0.5], replace(tech, packaging_kg=0.0), **planar) == pytest.approx(0.7)
    package_terms_only = only_coefficients(tech, "bonding_kg_per_cm2", "tsv_kg_per_via")  # 0.2 and 1e-4
    assert embodied_carbon([0.5], package_terms_only, **planar) == 0.0
    assert embodied_carbon([0.5], tech) == embodied_carbon([0.5], tech, **planar)


def test_embodied_stacked_two_dies_with_bonding_and_tsv():
    tech = make_tech(
        cfpa_kg_per_cm2=1.0,
        cfpa_si_kg_per_cm2=0.0,
        packaging_kg=0.3,
        bonding_kg_per_cm2=0.2,
        tsv_kg_per_via=1e-4,
    )

    def stacked(t):
        return embodied_carbon([0.7, 0.5], t, PackageKind.STACKED_3D, tsv_count=1000, bond_interface_area_cm2=0.5)

    assert [die_carbon(a, tech) for a in (0.7, 0.5)] == [pytest.approx(0.7), pytest.approx(0.5)]
    assert stacked(only_coefficients(tech, "cfpa_kg_per_cm2")) == pytest.approx(0.7 + 0.5)
    assert stacked(only_coefficients(tech, "packaging_kg")) == pytest.approx(0.3)
    assert stacked(only_coefficients(tech, "bonding_kg_per_cm2")) == pytest.approx(0.1)
    assert stacked(only_coefficients(tech, "tsv_kg_per_via")) == pytest.approx(0.1)
    assert stacked(tech) == pytest.approx(0.7 + 0.5 + 0.3 + 0.1 + 0.1)


def test_stacked_strictly_heavier_than_planar_for_same_dies():
    tech = make_tech()
    planar = embodied_carbon([0.4, 0.3], tech, PackageKind.PLANAR_2D)
    stacked = embodied_carbon([0.4, 0.3], tech, PackageKind.STACKED_3D, tsv_count=100, bond_interface_area_cm2=0.4)
    assert type(planar) is float and type(stacked) is float
    assert stacked > planar


def test_stacked_with_one_die_rejected():
    with pytest.raises(ValidationFailure, match="a 3D stack needs at least two dies"):
        embodied_carbon([0.4], make_tech(), PackageKind.STACKED_3D)
    embodied_carbon([0.4], make_tech(), PackageKind.PLANAR_2D)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(die_areas_cm2=[]), "embodied_carbon needs at least one die"),
        (dict(tsv_count=-1), "tsv_count must be >= 0"),
        (dict(bond_interface_area_cm2=-0.1), "bond_interface_area_cm2 must be >= 0"),
        (dict(die_areas_cm2=[0.4, 0.0]), "die area must be finite and > 0, got 0.0"),
        (dict(die_areas_cm2=[0.4, -0.3]), "die area must be finite and > 0, got -0.3"),
    ],
)
@pytest.mark.parametrize("kind", list(PackageKind))
def test_embodied_rejects_bad_package_inputs_in_both_kinds(kwargs, message, kind):
    given = {"die_areas_cm2": [0.4, 0.3], "tech": make_tech(), "kind": kind, **kwargs}
    with pytest.raises(ValidationFailure, match=message):
        embodied_carbon(**given)


def test_embodied_additivity_over_random_die_lists():
    rng = random.Random(7)
    for _ in range(50):
        tech = make_tech(
            cfpa_kg_per_cm2=rng.uniform(0.1, 3.0),
            cfpa_si_kg_per_cm2=rng.uniform(0.0, 2.0),
            packaging_kg=rng.uniform(0.0, 1.0),
            bonding_kg_per_cm2=rng.uniform(0.0, 0.5),
            tsv_kg_per_via=rng.uniform(0.0, 1e-3),
        )
        areas = [rng.uniform(0.1, 1.5) for _ in range(rng.randint(2, 4))]
        tsv_count = rng.randint(0, 2000)
        bond_area = rng.uniform(0.0, 1.5)
        total = embodied_carbon(areas, tech, PackageKind.STACKED_3D, tsv_count, bond_area)
        recomputed = (
            left_sum(die_carbon(a, tech) for a in areas)
            + tech.packaging_kg
            + tech.bonding_kg_per_cm2 * bond_area
            + tech.tsv_kg_per_via * tsv_count
        )
        assert total == recomputed
        # each term alone, from the same dies and package, sums to the total
        terms = [
            embodied_carbon(areas, only_coefficients(tech, *kept), PackageKind.STACKED_3D, tsv_count, bond_area)
            for kept in (
                ("cfpa_kg_per_cm2", "cfpa_si_kg_per_cm2"),
                ("packaging_kg",),
                ("bonding_kg_per_cm2",),
                ("tsv_kg_per_via",),
            )
        ]
        assert total == terms[0] + terms[1] + terms[2] + terms[3]


# ---------------------------------------------------------------------------
# operational carbon
# ---------------------------------------------------------------------------


def test_operational_carbon_products():
    assert operational_carbon(0.0, 5.0) == 0.0
    assert operational_carbon(250.0, 2.0 * J_PER_KWH) == pytest.approx(500.0)
    assert operational_carbon(100.0, 0.0) == 0.0


def test_operational_carbon_divides_the_product_last():
    # the simulator's float order: ci * energy_j / J_PER_KWH, which differs
    # from ci * (energy_j / J_PER_KWH) in the last bit on many inputs
    rng = random.Random(11)
    for _ in range(200):
        ci, energy_j = rng.uniform(0.0, 900.0), rng.uniform(0.0, 1e6)
        assert operational_carbon(ci, energy_j) == ci * energy_j / J_PER_KWH


# ---------------------------------------------------------------------------
# embodied carbon per inference
# ---------------------------------------------------------------------------


def test_embodied_per_inference_spreads_kg_over_the_lifetime_in_grams():
    # 1 kg (1000 g) over 1M inferences
    assert embodied_per_inference_g(1.0, 1e6) == pytest.approx(0.001)
    assert embodied_per_inference_g(1.0, 2e6) == pytest.approx(0.0005)
    assert embodied_per_inference_g(0.0, 5.0) == 0.0
    for lifetime in (0.0, -5.0, math.nan):
        with pytest.raises(ValidationFailure):
            embodied_per_inference_g(1.0, lifetime)


# ---------------------------------------------------------------------------
# cdp
# ---------------------------------------------------------------------------


def test_cdp_values():
    value = cdp(0.7, 0.02)
    assert isinstance(value, float)
    assert value == pytest.approx(0.014)
    assert cdp(123.0, 0.0) == 0.0


def test_cdp_monotone_and_commutative():
    rng = random.Random(5)
    previous = -1.0
    for carbon in [0.1, 0.5, 1.0, 2.0, 10.0]:
        value = cdp(carbon, 3.0)
        assert value > previous
        previous = value
    for _ in range(50):
        a, b = rng.uniform(0, 10), rng.uniform(0, 10)
        assert cdp(a, b) == cdp(b, a)


def test_cdp_rejects_negative():
    with pytest.raises(ValidationFailure):
        cdp(-1.0, 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
def test_cdp_rejects_a_factor_that_is_not_finite_and_non_negative(value):
    for carbon, delay_s in ((value, 1.0), (1.0, value)):
        with pytest.raises(ValidationFailure, match="cdp needs finite, non-negative carbon and delay"):
            cdp(carbon, delay_s)


# ---------------------------------------------------------------------------
# validators of the model inputs
# ---------------------------------------------------------------------------


def _unit_with_profile(latency: float, power: float) -> ProcessingUnit:
    return ProcessingUnit("u", UnitKind.CPU, (1e9,), 0.5, {("l0", 0): (latency, power)})


# one factory per validated number, here and in the accelerator and scheduler
# models: each puts x into that field of an otherwise valid object
MODEL_FIELDS = {
    **{
        f"TechnologyParams.{name}": lambda x, name=name: make_tech(**{name: x})
        for name in (
            "cfpa_kg_per_cm2",
            "cfpa_si_kg_per_cm2",
            "wafer_diameter_cm",
            "packaging_kg",
            "bonding_kg_per_cm2",
            "tsv_kg_per_via",
        )
    },
    "die_carbon.area_cm2": lambda x: die_carbon(x, make_tech()),
    "MultiplierVariant.area_mm2": lambda x: MultiplierVariant("m", x, 0.0),
    "MultiplierVariant.accuracy_drop_pct": lambda x: MultiplierVariant("m", 0.01, x),
    "ProcessingUnit.freq_levels_hz": lambda x: ProcessingUnit("u", UnitKind.CPU, (x,), 0.5, {}),
    "ProcessingUnit.idle_power_w": lambda x: make_unit("u", "CPU", ("l0",), idle_power_w=x),
    "ProcessingUnit.profile_latency": lambda x: _unit_with_profile(x, 2.0),
    "ProcessingUnit.profile_power": lambda x: _unit_with_profile(3.0, x),
    "EdgeNode.transfer_bytes_per_ms": lambda x: EdgeNode((_unit_with_profile(3.0, 2.0),), x),
}


@pytest.mark.parametrize(
    "field, value",
    [(name, value) for name in MODEL_FIELDS for value in (math.nan, math.inf, -math.inf)],
)
def test_model_validators_reject_non_finite_numbers(field, value):
    build = MODEL_FIELDS[field]
    build(1.0)  # the same object with a finite value is valid
    with pytest.raises(ValidationFailure):
        build(value)
