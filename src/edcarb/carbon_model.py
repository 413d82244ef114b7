"""Carbon arithmetic shared by every other module.

Two equations live here, plus the metrics built from them:

- embodied carbon of a packaged device: the fabrication carbon of each die
  area (area and silicon-wastage terms) on one technology node, summed
  with packaging, bonding and TSV terms for 3D stacks;
- operational carbon of execution: grid carbon intensity times energy;
- the carbon-delay product (CDP) used as the design-space fitness;
- embodied carbon amortized over a device's lifetime inferences.

Units are deliberately rigid: fabrication coefficients in kgCO2/cm2 and
embodied carbon in kgCO2; grid intensity in gCO2/kWh and energy in J, so
operational carbon comes out in grams. Only the amortized figure converts
kg to g, for the report it goes into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ValidationFailure

J_PER_KWH = 3.6e6


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
        if not all(0 <= c < math.inf for c in coeffs):
            raise ValidationFailure(f"technology {self.node_label!r}: carbon coefficients must be finite and >= 0")
        if not 0 < self.wafer_diameter_cm < math.inf:
            raise ValidationFailure(f"technology {self.node_label!r}: wafer_diameter_cm must be finite and > 0")


def dies_per_wafer(die_area_cm2: float, wafer_diameter_cm: float) -> int:
    """Estimate whole dies yielded by one wafer.

    Uses the standard closed-form estimate: the wafer area divided by the die
    area, minus an edge-loss term proportional to wafer circumference over the
    die pitch. Raises ValidationFailure when the estimate drops to zero, and
    on a die area that is not > 0 (NaN included) or a wafer diameter that
    is not finite and > 0.
    """
    if not die_area_cm2 > 0:
        raise ValidationFailure("die area must be > 0")
    if not 0 < wafer_diameter_cm < math.inf:
        raise ValidationFailure(f"wafer diameter must be finite and > 0, got {wafer_diameter_cm}")
    radius = wafer_diameter_cm / 2.0
    wafer_area = math.pi * radius * radius
    if die_area_cm2 >= wafer_area:
        raise ValidationFailure(
            f"die of {die_area_cm2} cm2 exceeds wafer area {wafer_area:.4f} cm2"
        )
    estimate = wafer_area / die_area_cm2 - (
        math.pi * wafer_diameter_cm / math.sqrt(2.0 * die_area_cm2)
    )
    dpw = math.floor(estimate)
    if dpw <= 0:
        raise ValidationFailure(
            f"die of {die_area_cm2} cm2 yields no whole die on a {wafer_diameter_cm} cm wafer"
        )
    return dpw


def wasted_area(die_area_cm2: float, wafer_diameter_cm: float) -> float:
    """Wafer area lost to shape mismatch, attributed uniformly per die (cm2)."""
    dpw = dies_per_wafer(die_area_cm2, wafer_diameter_cm)
    radius = wafer_diameter_cm / 2.0
    wafer_area = math.pi * radius * radius
    return (wafer_area - dpw * die_area_cm2) / dpw


def die_carbon(area_cm2: float, tech: TechnologyParams) -> float:
    """Fabrication carbon of one die of `area_cm2` on node `tech`, in kgCO2.

    Carbon is charged for the die's own area at the node's per-area
    coefficient plus the per-die share of wasted wafer silicon at the wastage
    coefficient.
    """
    if not 0 < area_cm2 < math.inf:
        raise ValidationFailure(f"die area must be finite and > 0, got {area_cm2}")
    wasted = wasted_area(area_cm2, tech.wafer_diameter_cm)
    return tech.cfpa_kg_per_cm2 * area_cm2 + tech.cfpa_si_kg_per_cm2 * wasted


def embodied_carbon(
    die_areas_cm2: list[float] | tuple[float, ...],
    tech: TechnologyParams,
    kind: PackageKind = PackageKind.PLANAR_2D,
    tsv_count: int = 0,
    bond_interface_area_cm2: float = 0.0,
) -> float:
    """Total embodied carbon in kgCO2 of dies of `die_areas_cm2`, all on node
    `tech`, in a package of `kind`.

    Sums per-die fabrication carbon with the flat packaging term; 3D stacks
    additionally pay bonding carbon over the bonded interface and a per-via
    TSV term.
    """
    if tsv_count < 0:
        raise ValidationFailure("tsv_count must be >= 0")
    if bond_interface_area_cm2 < 0:
        raise ValidationFailure("bond_interface_area_cm2 must be >= 0")
    if not die_areas_cm2:
        raise ValidationFailure("embodied_carbon needs at least one die")
    bonding = tsv = 0.0
    if kind is PackageKind.STACKED_3D:
        if len(die_areas_cm2) < 2:
            raise ValidationFailure("a 3D stack needs at least two dies")
        bonding = tech.bonding_kg_per_cm2 * bond_interface_area_cm2
        tsv = tech.tsv_kg_per_via * tsv_count
    # left to right from 0.0, the one float order on every Python
    dies = 0.0
    for area in die_areas_cm2:
        dies += die_carbon(area, tech)
    return dies + tech.packaging_kg + bonding + tsv


def operational_carbon(ci_g_per_kwh: float, energy_j: float) -> float:
    """Operational carbon in grams: grid intensity times energy."""
    return ci_g_per_kwh * energy_j / J_PER_KWH


def embodied_per_inference_g(embodied_kg: float, lifetime_inferences: float) -> float:
    """Embodied carbon spread over the device's lifetime, in grams per inference."""
    if not lifetime_inferences > 0:
        raise ValidationFailure("lifetime_inferences must be > 0")
    return embodied_kg * 1000.0 / lifetime_inferences


def cdp(carbon: float, delay_s: float) -> float:
    """Carbon-delay product: the scalar trade-off metric carbon x latency."""
    if not (0 <= carbon < math.inf and 0 <= delay_s < math.inf):
        raise ValidationFailure("cdp needs finite, non-negative carbon and delay")
    return carbon * delay_s
