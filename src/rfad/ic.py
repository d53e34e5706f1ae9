"""Auto-tuning IC and fingertip-antenna model.

The auto-tuning chip cancels the antenna susceptance with an internal
capacitor ladder and reports the selected step as an integer sensor
code. This module provides the ladder arithmetic, the code inversion
with saturation, the power-transfer coefficient of the auto-tuned
front end, and a parametric permittivity -> antenna-susceptance forward
model standing in for full-wave simulation data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import DataError

EU_RFID_FREQUENCY = 867e6

EPSILON_MIN = 1.0
EPSILON_MAX = 100.0

# The chip's code register; the usable ladder s_min..s_max lies inside it.
CODE_STORAGE_MIN = 0
CODE_STORAGE_MAX = 511


@dataclass(frozen=True, kw_only=True)
class AutoTuneIC:
    """Parameter set of an auto-tuning RFID chip.

    The usable codes ``s_min..s_max`` are session settings. The physical
    defaults match the Axzon Magnus-S3 style front end: 1.9 pF ladder
    base, 3.1 fF step, 0.482 mS input conductance.
    """

    c_min: float = 1.9e-12
    c_step: float = 3.1e-15
    s_min: int
    s_max: int
    g_ic: float = 0.482e-3

    def __post_init__(self):
        if self.c_min <= 0:
            raise DataError(f"c_min must be positive, got {self.c_min}")
        if self.c_step < 0:
            raise DataError(f"c_step must be non-negative, got {self.c_step}")
        if not CODE_STORAGE_MIN <= self.s_min < self.s_max <= CODE_STORAGE_MAX:
            raise DataError(
                f"need {CODE_STORAGE_MIN} <= s_min < s_max <= {CODE_STORAGE_MAX}, "
                f"got ({self.s_min}, {self.s_max})")
        if self.g_ic <= 0:
            raise DataError(f"g_ic must be positive, got {self.g_ic}")


@dataclass(frozen=True)
class AntennaState:
    """Input admittance of one fingertip antenna at a single frequency."""

    g_a: float
    b_a: float
    frequency: float

    def __post_init__(self):
        if self.g_a <= 0:
            raise DataError(f"antenna conductance must be positive, got {self.g_a}")
        if self.frequency <= 0:
            raise DataError(f"frequency must be positive, got {self.frequency}")


@dataclass(frozen=True)
class AntennaModel:
    """Permittivity -> admittance forward model for one fingertip antenna.

    The susceptance follows a two-parameter saturating law

        b_a(eps) = b_ref + k * (eps - 1) / (eps + eps_half)

    anchored at b_a(1) = b_ref. With k > 0 the susceptance magnitude
    shrinks monotonically as the touched permittivity grows, so the
    reported sensor code decreases and the differential code rises.
    Valid over eps in [1, 100].
    """

    b_ref: float
    k: float
    eps_half: float
    g_a: float
    frequency: float

    def __post_init__(self):
        if self.g_a <= 0:
            raise DataError(f"antenna conductance must be positive, got {self.g_a}")
        if self.frequency <= 0:
            raise DataError(f"frequency must be positive, got {self.frequency}")
        if self.eps_half <= -EPSILON_MIN:
            raise DataError(f"eps_half must exceed -1, got {self.eps_half}")


Saturation = Literal["none", "low", "high"]


@dataclass(frozen=True)
class SensorCode:
    """Clamped integer sensor code plus which rail (if any) was hit."""

    code: int
    saturated: Saturation


def capacitance(ic: AutoTuneIC, s: int) -> float:
    """Ladder capacitance at code ``s`` (farads)."""
    if not ic.s_min <= s <= ic.s_max:
        raise DataError(
            f"sensor code {s} outside valid interval [{ic.s_min}, {ic.s_max}]")
    return ic.c_min + s * ic.c_step


def ic_susceptance(ic: AutoTuneIC, s: int, frequency: float) -> float:
    """IC susceptance 2*pi*f*C(s) at code ``s`` (siemens)."""
    if frequency <= 0:
        raise DataError(f"frequency must be positive, got {frequency}")
    return 2.0 * math.pi * frequency * capacitance(ic, s)


def sensor_code(ic: AutoTuneIC, antenna: AntennaState) -> SensorCode:
    """Invert the self-tuning balance for the reported integer code.

    The chip picks the ladder step whose susceptance best cancels the
    antenna susceptance; the exact solution is rounded to the nearest
    integer (ties to even) and clamped to the usable code range.
    Saturation is a valid result, flagged instead of raised.
    """
    if ic.c_step == 0:
        raise DataError("zero-step ladder cannot be inverted to a sensor code")
    omega = 2.0 * math.pi * antenna.frequency
    exact = (-antenna.b_a / omega - ic.c_min) / ic.c_step
    code = round(exact)
    if code < ic.s_min:
        return SensorCode(ic.s_min, "low")
    if code > ic.s_max:
        return SensorCode(ic.s_max, "high")
    return SensorCode(code, "none")


def power_transfer(ic: AutoTuneIC, antenna: AntennaState) -> float:
    """Power-transfer coefficient of the auto-tuned front end, in [0, 1].

    Inside the compensable susceptance window the ladder absorbs the
    antenna susceptance entirely and only the conductance mismatch
    remains; outside it the residual susceptance at the nearer ladder
    rail degrades the match. Window boundaries count as compensated,
    keeping the coefficient continuous.
    """
    omega = 2.0 * math.pi * antenna.frequency
    upper = -omega * ic.c_min
    lower = -omega * (ic.c_min + ic.s_max * ic.c_step)
    if antenna.b_a > upper:
        residual = antenna.b_a + omega * ic.c_min
    elif antenna.b_a < lower:
        residual = antenna.b_a + omega * (ic.c_min + ic.s_max * ic.c_step)
    else:
        residual = 0.0
    denom = (ic.g_ic + antenna.g_a) ** 2 + residual ** 2
    return 4.0 * ic.g_ic * antenna.g_a / denom


def antenna_response(model: AntennaModel, epsilon: float) -> AntennaState:
    """Evaluate the forward model at a touched permittivity."""
    if not EPSILON_MIN <= epsilon <= EPSILON_MAX:
        raise DataError(
            f"permittivity {epsilon} outside validity range "
            f"[{EPSILON_MIN}, {EPSILON_MAX}]")
    b_a = model.b_ref + model.k * (epsilon - 1.0) / (epsilon + model.eps_half)
    return AntennaState(g_a=model.g_a, b_a=b_a, frequency=model.frequency)


def calibrated_antenna_model(ic: AutoTuneIC, *, baseline_code: int, span_code: float,
                             span_epsilon: float, eps_half: float) -> AntennaModel:
    """Build an AntennaModel from code-domain calibration targets.

    ``baseline_code`` is the air (eps = 1) sensor code; ``span_code`` is
    the differential code produced at ``span_epsilon``. The session's
    targets come from its config. The model holds at the EU RFID carrier,
    with a 0.482 mS antenna conductance.
    """
    omega = 2.0 * math.pi * EU_RFID_FREQUENCY
    b_ref = -ic_susceptance(ic, baseline_code, EU_RFID_FREQUENCY)
    k = span_code * omega * ic.c_step * (span_epsilon + eps_half) / (span_epsilon - 1.0)
    return AntennaModel(b_ref=b_ref, k=k, eps_half=eps_half, g_a=0.482e-3,
                        frequency=EU_RFID_FREQUENCY)
