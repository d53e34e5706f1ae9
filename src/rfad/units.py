"""Parsing of physical quantities with explicit unit suffixes.

All internal computation is SI (hertz, seconds, watts, ohms);
configuration files carry human-scale suffixes like ``0.7 s`` or
``867 MHz``. Each quantity names its dimension and takes only that
dimension's suffixes, or none for a bare SI number, so ``0.7 pF`` is
not a sample period. Unit matching is case-sensitive.
"""

from __future__ import annotations

import cmath
import math
import re

from .errors import DataError

# Scale to SI of each (case-sensitive) suffix, by dimension; dBm, which
# is logarithmic, has no scale.
_UNITS = {
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6},
    "power": {"W": 1.0, "mW": 1e-3, "uW": 1e-6, "nW": 1e-9, "dBm": None},
    "impedance": {"Ohm": 1.0, "ohm": 1.0, "kOhm": 1e3},
}

_QUANTITY_RE = re.compile(r"^\s*([-+0-9.eEjJ]+)\s*([A-Za-z]*)\s*$")


def watts_from_dbm(level_dbm: float) -> float:
    return 1e-3 * 10.0 ** (level_dbm / 10.0)


def dbm_from_watts(power_w: float) -> float:
    if power_w <= 0:
        raise DataError(f"power must be positive to express in dBm, got {power_w}")
    return 10.0 * math.log10(power_w / 1e-3)


def _finite(value, text: str):
    if not cmath.isfinite(value):
        raise DataError(f"non-finite quantity {text!r}")
    return value


def _scale(unit: str, dimension: str, text: str) -> float | None:
    """SI scale of ``unit``: empty, or a suffix of ``dimension``."""
    if not unit:
        return 1.0
    units = _UNITS[dimension]
    if unit not in units:
        raise DataError(f"unknown unit {unit!r} in quantity {text!r} "
                        f"(units of {dimension}: {', '.join(units)})")
    return units[unit]


def parse_quantity(text: str, dimension: str) -> float:
    """Parse a real-valued quantity of ``dimension``, like ``867 MHz``, into SI units."""
    m = _QUANTITY_RE.match(text)
    if not m:
        raise DataError(f"cannot parse quantity: {text!r}")
    number, unit = m.group(1), m.group(2)
    try:
        value = float(number)
    except ValueError as exc:
        raise DataError(f"cannot parse number in quantity {text!r}") from exc
    scale = _scale(unit, dimension, text)
    try:
        value = watts_from_dbm(value) if scale is None else value * scale
    except OverflowError:
        value = math.inf
    return _finite(value, text)


def parse_complex_quantity(text: str) -> complex:
    """Parse a complex impedance like ``2.8-76j Ohm`` into ohms."""
    m = _QUANTITY_RE.match(text)
    if not m:
        raise DataError(f"cannot parse complex quantity: {text!r}")
    number, unit = m.group(1), m.group(2)
    # the trailing 'j' of the imaginary part is eaten by the unit group
    # when no unit is given; put it back
    if unit == "j":
        number, unit = number + "j", ""
    try:
        value = complex(number)
    except ValueError as exc:
        raise DataError(f"cannot parse number in quantity {text!r}") from exc
    return _finite(value * _scale(unit, "impedance", text), text)
