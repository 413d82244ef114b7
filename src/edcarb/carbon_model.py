"""Carbon arithmetic shared by every other module.

Two equations live here, plus the compound metric built from them:

- embodied carbon of a packaged device: per-die fabrication carbon
  (area and silicon-wastage terms) summed with packaging, bonding and
  TSV terms for 3D stacks;
- operational carbon of execution: grid carbon intensity times energy;
- the carbon-delay product (CDP) used as the design-space fitness.

Units are deliberately rigid: fabrication coefficients in kgCO2/cm2,
grid intensity in gCO2/kWh, energy in kWh. Conversions between kg and g
happen only in report aggregation, never inside the equations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationFailure


class DieTooLarge(ValidationFailure):
    """Die area is too large for the wafer to yield at least one die."""


class InvalidStack(ValidationFailure):
    """A 3D stack needs at least two dies."""


class SeriesMismatch(ValidationFailure):
    """Time-indexed series passed together must have equal length."""


class PackageKind(Enum):
    PLANAR_2D = "planar2D"
    STACKED_3D = "stacked3D"


@dataclass(frozen=True)
class TechnologyParams:
    """Per-node fabrication constants.

    cfpa_kg_per_cm2 applies to manufactured die area, cfpa_si_kg_per_cm2 to
    wafer area wasted by shape mismatch. Bonding and TSV coefficients are
    only consulted for 3D stacks.
    """

    node_label: str
    cfpa_kg_per_cm2: float
    cfpa_si_kg_per_cm2: float
    wafer_diameter_cm: float
    packaging_kg: float
    bonding_kg_per_cm2: float = 0.0
    tsv_kg_per_via: float = 0.0

    def __post_init__(self) -> None:
        coeffs = (
            self.cfpa_kg_per_cm2,
            self.cfpa_si_kg_per_cm2,
            self.packaging_kg,
            self.bonding_kg_per_cm2,
            self.tsv_kg_per_via,
        )
        if any(c < 0 for c in coeffs):
            raise ValidationFailure(f"technology {self.node_label!r}: carbon coefficients must be >= 0")
        if self.wafer_diameter_cm <= 0:
            raise ValidationFailure(f"technology {self.node_label!r}: wafer_diameter_cm must be > 0")


@dataclass(frozen=True)
class DieSpec:
    area_cm2: float
    tech: TechnologyParams

    def __post_init__(self) -> None:
        if self.area_cm2 <= 0:
            raise ValidationFailure(f"die area must be > 0, got {self.area_cm2}")


@dataclass(frozen=True)
class PackageSpec:
    kind: PackageKind
    tsv_count: int = 0
    bond_interface_area_cm2: float = 0.0

    def __post_init__(self) -> None:
        if self.tsv_count < 0:
            raise ValidationFailure("tsv_count must be >= 0")
        if self.bond_interface_area_cm2 < 0:
            raise ValidationFailure("bond_interface_area_cm2 must be >= 0")


@dataclass(frozen=True)
class EmbodiedReport:
    """Additive breakdown of a device's fabrication-plus-packaging carbon (kg)."""

    per_die_kg: tuple[float, ...]
    wasted_per_die_cm2: tuple[float, ...]
    packaging_kg: float
    bonding_kg: float
    tsv_kg: float
    total_kg: float


@dataclass(frozen=True)
class OperationalSample:
    ci_g_per_kwh: float
    energy_kwh: float

    def __post_init__(self) -> None:
        if self.ci_g_per_kwh < 0:
            raise ValidationFailure("carbon intensity must be >= 0")
        if self.energy_kwh < 0:
            raise ValidationFailure("energy must be >= 0")


@dataclass(frozen=True)
class CdpValue:
    value: float
    carbon_component: float
    delay_component_s: float


def dies_per_wafer(die_area_cm2: float, wafer_diameter_cm: float) -> int:
    """Estimate whole dies yielded by one wafer.

    Uses the standard closed-form estimate: the wafer area divided by the die
    area, minus an edge-loss term proportional to wafer circumference over the
    die pitch. Raises DieTooLarge when the estimate drops to zero.
    """
    if die_area_cm2 <= 0:
        raise ValidationFailure("die area must be > 0")
    radius = wafer_diameter_cm / 2.0
    wafer_area = math.pi * radius * radius
    if die_area_cm2 >= wafer_area:
        raise DieTooLarge(
            f"die of {die_area_cm2} cm2 exceeds wafer area {wafer_area:.4f} cm2"
        )
    estimate = wafer_area / die_area_cm2 - (
        math.pi * wafer_diameter_cm / math.sqrt(2.0 * die_area_cm2)
    )
    dpw = math.floor(estimate)
    if dpw <= 0:
        raise DieTooLarge(
            f"die of {die_area_cm2} cm2 yields no whole die on a {wafer_diameter_cm} cm wafer"
        )
    return dpw


def wasted_area(die_area_cm2: float, wafer_diameter_cm: float) -> float:
    """Wafer area lost to shape mismatch, attributed uniformly per die (cm2)."""
    dpw = dies_per_wafer(die_area_cm2, wafer_diameter_cm)
    radius = wafer_diameter_cm / 2.0
    wafer_area = math.pi * radius * radius
    return (wafer_area - dpw * die_area_cm2) / dpw


def die_carbon(
    die: DieSpec,
    *,
    wasted_override_cm2: float | None = None,
    yield_fraction: float = 1.0,
) -> float:
    """Fabrication carbon of one die in kgCO2.

    Carbon is charged for the die's own area at the node's per-area
    coefficient plus the per-die share of wasted wafer silicon at the wastage
    coefficient. `wasted_override_cm2` bypasses the wafer geometry (useful for
    injecting measured wastage). `yield_fraction` is an optional extension:
    the result is divided by it to spread carbon over good dies; the default
    of 1.0 keeps the bare two-term equation.
    """
    if not 0.0 < yield_fraction <= 1.0:
        raise ValidationFailure("yield_fraction must be in (0, 1]")
    if wasted_override_cm2 is None:
        wasted = wasted_area(die.area_cm2, die.tech.wafer_diameter_cm)
    else:
        if wasted_override_cm2 < 0:
            raise ValidationFailure("wasted area must be >= 0")
        wasted = wasted_override_cm2
    carbon = die.tech.cfpa_kg_per_cm2 * die.area_cm2 + die.tech.cfpa_si_kg_per_cm2 * wasted
    return carbon / yield_fraction


def embodied_carbon(dies: list[DieSpec] | tuple[DieSpec, ...], package: PackageSpec) -> EmbodiedReport:
    """Total embodied carbon of a packaged device.

    Sums per-die fabrication carbon with the flat packaging term; 3D stacks
    additionally pay bonding carbon over the bonded interface and a per-via
    TSV term. Package-level coefficients are read from the first die's
    technology node (multi-node stacks share the packaging fab).
    """
    if not dies:
        raise ValidationFailure("embodied_carbon needs at least one die")
    if package.kind is PackageKind.STACKED_3D and len(dies) < 2:
        raise InvalidStack("a 3D stack needs at least two dies")

    wasted = tuple(wasted_area(d.area_cm2, d.tech.wafer_diameter_cm) for d in dies)
    per_die = tuple(die_carbon(d, wasted_override_cm2=w) for d, w in zip(dies, wasted))
    pkg_tech = dies[0].tech
    packaging = pkg_tech.packaging_kg
    if package.kind is PackageKind.STACKED_3D:
        bonding = pkg_tech.bonding_kg_per_cm2 * package.bond_interface_area_cm2
        tsv = pkg_tech.tsv_kg_per_via * package.tsv_count
    else:
        bonding = 0.0
        tsv = 0.0
    total = sum(per_die) + packaging + bonding + tsv
    return EmbodiedReport(
        per_die_kg=per_die,
        wasted_per_die_cm2=wasted,
        packaging_kg=packaging,
        bonding_kg=bonding,
        tsv_kg=tsv,
        total_kg=total,
    )


def operational_carbon(sample: OperationalSample) -> float:
    """Operational carbon in grams: grid intensity times energy."""
    return sample.ci_g_per_kwh * sample.energy_kwh


def operational_carbon_trace(
    ci_series: list[float] | tuple[float, ...],
    power_series_kw: list[float] | tuple[float, ...],
    dt_hours: float,
) -> float:
    """Discretized integral of intensity times power over equal-length series (g)."""
    if len(ci_series) != len(power_series_kw):
        raise SeriesMismatch(
            f"ci series has {len(ci_series)} samples, power series {len(power_series_kw)}"
        )
    if dt_hours <= 0:
        raise ValidationFailure("dt_hours must be > 0")
    total = 0.0
    for ci, power in zip(ci_series, power_series_kw):
        total += ci * power * dt_hours
    return total


def cdp(carbon: float, delay_s: float) -> CdpValue:
    """Carbon-delay product: the scalar trade-off metric carbon x latency."""
    if carbon < 0 or delay_s < 0:
        raise ValidationFailure("cdp needs non-negative carbon and delay")
    return CdpValue(value=carbon * delay_s, carbon_component=carbon, delay_component_s=delay_s)
