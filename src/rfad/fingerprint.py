"""Differential sensor codes, hand fingerprints, and their uncertainty.

A fingerprint is the per-finger vector of air-calibrated differential
codes for one touched material. Unresponsive fingers are imputed with
the mean of the responsive ones; the touch-pressure uncertainty model
propagates through the multi-channel average.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DataError, HandUnreadError, UncalibratedChannelError
from .files import is_utf8_text, json_field, read_json, write_json
from .hand import FINGERS
from .ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN

# Conservative bound on the relative precision of a single differential
# code under uncontrolled touch pressure.
PRESSURE_UNCERTAINTY_FACTOR = 0.3


@dataclass(frozen=True)
class ChannelReading:
    """Windowed sensor code of one finger, or a missing-read marker."""

    channel: str
    code: Optional[float]
    responsive: bool

    def __post_init__(self):
        if self.channel not in FINGERS:
            raise DataError(f"unknown channel {self.channel!r}")
        if self.responsive != (self.code is not None):
            raise DataError("responsive flag must match presence of a code")


@dataclass(frozen=True)
class CalibrationBaseline:
    """Per-finger air (eps = 1) codes, persisted between sessions."""

    codes: Mapping[str, float]
    timestamp: str = ""
    gaps: tuple = ()

    def __post_init__(self):
        if not isinstance(self.timestamp, str):
            raise DataError(f"baseline timestamp {self.timestamp!r} must be a string")
        if isinstance(self.gaps, str) or not isinstance(self.gaps, Iterable):
            raise DataError(f"baseline gaps {self.gaps!r} must be a sequence of fingers")
        object.__setattr__(self, "gaps", tuple(self.gaps))
        for channel, code in self.codes.items():
            if channel not in FINGERS:
                raise DataError(f"unknown channel {channel!r} in baseline")
            if (isinstance(code, bool) or not isinstance(code, (int, float))
                    or not CODE_STORAGE_MIN <= code <= CODE_STORAGE_MAX):
                raise DataError(
                    f"baseline code {code!r} for channel {channel} must be a number in "
                    f"the storage range [{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")
        if (any(gap not in FINGERS or gap in self.codes for gap in self.gaps)
                or len(set(self.gaps)) < len(self.gaps)):
            raise DataError(f"baseline gaps {list(self.gaps)} must be distinct fingers "
                            f"without a code")


@dataclass(frozen=True)
class Fingerprint:
    """Five differential codes, with imputation bookkeeping."""

    values: Mapping[str, float]
    imputed: Mapping[str, bool]
    n_responsive: int
    material_label: Optional[str] = None

    def __post_init__(self):
        if set(self.values) != set(FINGERS) or set(self.imputed) != set(FINGERS):
            raise DataError("fingerprint must cover exactly the five fingers")
        if not all(isinstance(flag, bool) for flag in self.imputed.values()):
            raise DataError(f"imputed flags must be true or false: {self.imputed}")
        if not 1 <= self.n_responsive == sum(not f for f in self.imputed.values()):
            raise DataError(f"n_responsive {self.n_responsive} must count the "
                            f"fingers not imputed, at least one")
        # an int beyond the float range is refused too, so every value has a float
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and abs(v) <= sys.float_info.max for v in self.values.values()):
            raise DataError(f"fingerprint values must be finite numbers: {self.values}")
        if self.material_label is not None and not is_utf8_text(self.material_label):
            raise DataError(f"material label {self.material_label!r} must be None "
                            f"or a string UTF-8 can encode")

    def responsive_values(self) -> list[float]:
        return [self.values[f] for f in FINGERS if not self.imputed[f]]


def readings(codes: Mapping[str, float]) -> list[ChannelReading]:
    """One reading per finger, unresponsive where ``codes`` has none."""
    return [ChannelReading(channel=f, code=codes.get(f), responsive=f in codes)
            for f in FINGERS]


def total(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right, from 0.0: the same
    float on every Python (``sum`` of floats is compensated from 3.12
    on), and the order in which the Monte Carlo adds its columns."""
    return functools.reduce(operator.add, values, 0.0)


def imputed_values(deltas: Mapping[str, float]) -> list[float]:
    """Each finger's differential code, or the mean of ``deltas`` if it has none."""
    fill = total(deltas.values()) / len(deltas)
    return [deltas.get(f, fill) for f in FINGERS]


def build_fingerprint(readings: Sequence[ChannelReading],
                      baseline: CalibrationBaseline,
                      material_label: Optional[str] = None) -> Fingerprint:
    """Assemble a hand fingerprint, imputing unresponsive fingers.

    Each missing finger receives the mean differential code (air minus
    touched) of the responsive ones and is flagged as imputed.
    """
    by_channel = {r.channel: r for r in readings}
    if set(by_channel) != set(FINGERS):
        raise DataError("need exactly one reading per finger I..V")
    responsive = [f for f in FINGERS if by_channel[f].responsive]
    if not responsive:
        raise HandUnreadError("no finger of the hand produced a reading")
    if uncalibrated := [f for f in responsive if f not in baseline.codes]:
        raise UncalibratedChannelError(f"no calibration baseline for channel {uncalibrated[0]}")
    deltas = {f: baseline.codes[f] - by_channel[f].code for f in responsive}
    return Fingerprint(values=dict(zip(FINGERS, imputed_values(deltas))),
                       imputed={f: f not in deltas for f in FINGERS},
                       n_responsive=len(responsive),
                       material_label=material_label)


def fingerprint_label(fp: Fingerprint, index: int) -> str:
    """The material label of the ``index``-th fingerprint of a file, or
    ``fingerprint-<index + 1>`` where it has none."""
    return fp.material_label or f"fingerprint-{index + 1}"


def averaged_fingerprint(fp: Fingerprint) -> float:
    """Mean of the five post-imputation differential codes."""
    return total(fp.values[f] for f in FINGERS) / len(FINGERS)


def pressure_uncertainty(delta_s: float) -> float:
    """Touch-pressure standard deviation of one differential code."""
    return PRESSURE_UNCERTAINTY_FACTOR * abs(delta_s)


def propagated_uncertainty(fp: Fingerprint) -> float:
    """Pressure uncertainty of the averaged fingerprint: the paper's
    conservative bound, not a predicted spread of repeated touches.

    Only responsive fingers contribute independent information; imputed
    values are functions of the others and are excluded. The default
    synthetic campaign's averaged fingerprints spread by less than this
    for alcohol and water and by more for oil: the bound scales with the
    differential codes, the generator's pressure spread does not.
    """
    sigmas = [pressure_uncertainty(v) for v in fp.responsive_values()]
    return math.sqrt(total(s * s for s in sigmas)) / fp.n_responsive


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def fingerprint_record(fp: Fingerprint) -> dict:
    """JSON-ready record of one fingerprint."""
    return {
        "material": fp.material_label,
        "values": {f: fp.values[f] for f in FINGERS},
        "imputed": {f: fp.imputed[f] for f in FINGERS},
        "n_responsive": fp.n_responsive,
        "averaged": averaged_fingerprint(fp),
        "uncertainty": propagated_uncertainty(fp),
    }


def fingerprint_from_record(record: dict) -> Fingerprint:
    values = dict(json_field(record, "values", dict))
    imputed = dict(json_field(record, "imputed", dict))
    n_responsive = json_field(record, "n_responsive", int, float)
    if n_responsive != int(n_responsive):
        raise DataError(f"field 'n_responsive' must be an integral number, found {n_responsive}")
    return Fingerprint(values=values, imputed=imputed, n_responsive=int(n_responsive),
                       material_label=json_field(record, "material", str, type(None),
                                                 default=None))


def save_fingerprints(fps: Sequence[Fingerprint], path) -> None:
    write_json(path, [fingerprint_record(fp) for fp in fps])


def load_fingerprints(path) -> list[Fingerprint]:
    return read_json(path, "fingerprint list", fingerprint_from_record)
