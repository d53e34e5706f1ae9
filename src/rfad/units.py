"""Parsing of physical quantities with explicit unit suffixes.

All internal computation is SI (farads, siemens, hertz, watts, seconds,
ohms); configuration files carry human-scale suffixes like ``1.9 pF`` or
``867 MHz``. Unit matching is case-sensitive so that seconds (``s``) and
siemens (``S``) stay distinct.
"""

from __future__ import annotations

import cmath
import math
import re

from .errors import DataError

# Scale to SI base units, keyed by the literal (case-sensitive) suffix.
_UNIT_SCALE = {
    "": 1.0,
    # frequency
    "Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9,
    # capacitance
    "F": 1.0, "uF": 1e-6, "nF": 1e-9, "pF": 1e-12, "fF": 1e-15,
    # conductance
    "S": 1.0, "mS": 1e-3, "uS": 1e-6,
    # time
    "s": 1.0, "ms": 1e-3, "us": 1e-6,
    # power (dBm handled separately)
    "W": 1.0, "mW": 1e-3, "uW": 1e-6, "nW": 1e-9,
    # resistance / impedance
    "Ohm": 1.0, "ohm": 1.0, "kOhm": 1e3,
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


def parse_quantity(text: str) -> float:
    """Parse a real-valued quantity like ``867 MHz`` into SI units."""
    m = _QUANTITY_RE.match(text)
    if not m:
        raise DataError(f"cannot parse quantity: {text!r}")
    number, unit = m.group(1), m.group(2)
    try:
        value = float(number)
    except ValueError as exc:
        raise DataError(f"cannot parse number in quantity {text!r}") from exc
    if unit != "dBm" and unit not in _UNIT_SCALE:
        raise DataError(f"unknown unit {unit!r} in quantity {text!r}")
    try:
        value = watts_from_dbm(value) if unit == "dBm" else value * _UNIT_SCALE[unit]
    except OverflowError:
        value = math.inf
    return _finite(value, text)


def parse_complex_quantity(text: str) -> complex:
    """Parse a complex quantity like ``2.8-76j Ohm`` into SI units."""
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
    if unit == "dBm":
        raise DataError("dBm is not valid for complex quantities")
    if unit not in _UNIT_SCALE:
        raise DataError(f"unknown unit {unit!r} in quantity {text!r}")
    return _finite(value * _UNIT_SCALE[unit], text)
