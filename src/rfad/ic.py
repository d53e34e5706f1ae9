"""Auto-tuning IC and fingertip-antenna model.

The auto-tuning chip cancels the antenna susceptance with an internal
capacitor ladder and reports the selected step as an integer sensor
code. This module provides the ladder arithmetic, the code inversion
with saturation, the power-transfer coefficient of the auto-tuned
front end, and a parametric permittivity -> antenna-susceptance forward
model standing in for full-wave simulation data.

The front end is an Axzon Magnus-S3 style chip at the EU RFID carrier
``EU_RFID_FREQUENCY``, with ladder base ``C_MIN``, step ``C_STEP``,
input conductance ``G_IC`` and antenna conductance ``G_A``. These are
module constants: they cancel out of every sensor code, but they set
the power-transfer coefficient of the auto-tuned front end.
"""

from __future__ import annotations

import math
from typing import Literal

from .errors import DataError
from .value import Value, _set

EU_RFID_FREQUENCY = 867e6

C_MIN = 1.9e-12
C_STEP = 3.1e-15
G_IC = G_A = 0.482e-3
# the carrier's angular frequency
_OMEGA = 2.0 * math.pi * EU_RFID_FREQUENCY

EPSILON_MIN = 1.0
EPSILON_MAX = 100.0

# The chip's code register; the usable ladder s_min..s_max lies inside it.
CODE_STORAGE_MIN = 0
CODE_STORAGE_MAX = 511

# Most samples one series may hold (about eight days at the default
# sample period); five such series take a few hundred MB.
MAX_SERIES_SAMPLES = 1_000_000


class AutoTuneIC(Value):
    """The usable codes ``s_min..s_max`` of the chip's ladder, a session setting."""

    __slots__ = ("s_min", "s_max")

    def __init__(self, *, s_min: int, s_max: int):
        _set(self, "s_min", s_min)
        _set(self, "s_max", s_max)
        if not CODE_STORAGE_MIN <= s_min < s_max <= CODE_STORAGE_MAX:
            raise DataError(f"need {CODE_STORAGE_MIN} <= s_min < s_max <= {CODE_STORAGE_MAX}, "
                            f"got ({s_min}, {s_max})")


class AntennaModel(Value):
    """Permittivity -> susceptance forward model for one fingertip antenna.

    The susceptance follows a two-parameter saturating law

        b_a(eps) = b_ref + k * (eps - 1) / (eps + eps_half)

    anchored at b_a(1) = b_ref. With k > 0 the susceptance magnitude
    shrinks monotonically as the touched permittivity grows, so the
    reported sensor code decreases and the differential code rises.
    Valid over eps in [1, 100].
    """

    __slots__ = ("b_ref", "k", "eps_half")

    def __init__(self, b_ref: float, k: float, eps_half: float):
        _set(self, "b_ref", b_ref)
        _set(self, "k", k)
        _set(self, "eps_half", eps_half)
        if eps_half <= -EPSILON_MIN:
            raise DataError(f"eps_half must exceed -1, got {eps_half}")


Saturation = Literal["none", "low", "high"]


class SensorCode(Value):
    """Clamped integer sensor code plus which rail (if any) was hit."""

    __slots__ = ("code", "saturated")

    def __init__(self, code: int, saturated: Saturation):
        _set(self, "code", code)
        _set(self, "saturated", saturated)


def capacitance(ic: AutoTuneIC, s: int) -> float:
    """Ladder capacitance at code ``s`` (farads)."""
    if not ic.s_min <= s <= ic.s_max:
        raise DataError(
            f"sensor code {s} outside valid interval [{ic.s_min}, {ic.s_max}]")
    return C_MIN + s * C_STEP


def ic_susceptance(ic: AutoTuneIC, s: int) -> float:
    """IC susceptance 2*pi*f*C(s) at code ``s`` (siemens)."""
    return _OMEGA * capacitance(ic, s)


def sensor_code(ic: AutoTuneIC, b_a: float) -> SensorCode:
    """Invert the self-tuning balance for the reported integer code.

    The chip picks the ladder step whose susceptance best cancels the
    antenna susceptance; the exact solution is rounded to the nearest
    integer (ties to even) and clamped to the usable code range.
    Saturation is a valid result, flagged instead of raised.
    """
    exact = (-b_a / _OMEGA - C_MIN) / C_STEP
    code = round(exact)
    if code < ic.s_min:
        return SensorCode(ic.s_min, "low")
    if code > ic.s_max:
        return SensorCode(ic.s_max, "high")
    return SensorCode(code, "none")


def power_transfer(ic: AutoTuneIC, b_a: float) -> float:
    """Power-transfer coefficient of the auto-tuned front end, in [0, 1].

    Inside the compensable susceptance window the ladder absorbs the
    antenna susceptance entirely and only the conductance mismatch
    remains; outside it the residual susceptance at the nearer ladder
    rail degrades the match. Window boundaries count as compensated,
    keeping the coefficient continuous.
    """
    upper = -_OMEGA * C_MIN
    lower = -_OMEGA * (C_MIN + ic.s_max * C_STEP)
    if b_a > upper:
        residual = b_a + _OMEGA * C_MIN
    elif b_a < lower:
        residual = b_a + _OMEGA * (C_MIN + ic.s_max * C_STEP)
    else:
        residual = 0.0
    denom = (G_IC + G_A) ** 2 + residual ** 2
    return 4.0 * G_IC * G_A / denom


def antenna_response(model: AntennaModel, epsilon: float) -> float:
    """Antenna susceptance (siemens) at a touched permittivity."""
    if not EPSILON_MIN <= epsilon <= EPSILON_MAX:
        raise DataError(
            f"permittivity {epsilon} outside validity range "
            f"[{EPSILON_MIN}, {EPSILON_MAX}]")
    return model.b_ref + model.k * (epsilon - 1.0) / (epsilon + model.eps_half)


def calibrated_antenna_model(ic: AutoTuneIC, *, baseline_code: int, span_code: float,
                             span_epsilon: float, eps_half: float) -> AntennaModel:
    """Build an AntennaModel from code-domain calibration targets.

    ``baseline_code`` is the air (eps = 1) sensor code; ``span_code`` is
    the differential code produced at ``span_epsilon``. The session's
    targets come from its config.
    """
    b_ref = -ic_susceptance(ic, baseline_code)
    k = span_code * _OMEGA * C_STEP * (span_epsilon + eps_half) / (span_epsilon - 1.0)
    return AntennaModel(b_ref=b_ref, k=k, eps_half=eps_half)
