"""The reference liquids and their relative permittivity at 867 MHz.

The liquids span low, medium and high permittivity, in that order; no
other material is modelled.
"""

PERMITTIVITY = {"olive_oil": 3.0, "ethyl_alcohol": 17.0, "deionized_water": 78.0}

REFERENCE_LIQUIDS = tuple(PERMITTIVITY)
