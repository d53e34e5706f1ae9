"""Built-in electrical constants of the reference materials at 867 MHz.

Ships as a read-only dataset; ``load_materials`` is its one accessor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Material:
    name: str
    conductivity: float  # S/m
    epsilon: float       # relative permittivity


_BUILTIN = (
    Material("ecoflex_00_30", 0.007, 2.7),
    Material("silbione", 0.012, 2.5),
    Material("closed_cell_pvc_foam", 2.2e-5, 2.3),
    Material("homogeneous_body_tissue", 0.62, 30.0),
    Material("olive_oil", 0.026, 3.0),
    Material("ethyl_alcohol", 1e-5, 17.0),
    Material("deionized_water", 0.05, 78.0),
)

# The three liquids used for classification, in permittivity order.
REFERENCE_LIQUIDS = ("olive_oil", "ethyl_alcohol", "deionized_water")


def load_materials() -> dict[str, Material]:
    """The material table, keyed by name."""
    return {m.name: m for m in _BUILTIN}
