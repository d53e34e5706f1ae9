"""Air baselines, differential sensor codes, hand fingerprints, and their uncertainty.

The air baseline holds the air codes of an untouched hand; its gaps are
the fingers without one. A fingerprint holds the differential codes of the
fingers that responded to one touch; each other finger is imputed with
their mean, which measures nothing and so is derived, not kept. The
touch-pressure uncertainty propagates through the responsive codes. Each
has a JSON file. The loaders check the keys a file holds beside what the
type keeps, and keep none of them: a fingerprint's ``imputed`` flags, the
values of its imputed fingers and its ``n_responsive``, and a baseline's
``timestamp`` and ``gaps`` here, a trial record's ``responsive`` in
``rfad.classify``. A fingerprint's ``averaged`` and ``uncertainty`` are
written for readers and ignored on load.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DataError, HandUnreadError, UncalibratedChannelError
from .files import is_utf8_text, json_field, read_json, write_json
from .hand import FINGERS
from .ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN
from .value import Value, _set

# Conservative bound on the relative precision of a single differential
# code under uncontrolled touch pressure.
PRESSURE_UNCERTAINTY_FACTOR = 0.3


class ChannelReading(Value):
    """Windowed sensor code of one finger, or a missing-read marker."""

    __slots__ = ("channel", "code", "responsive")

    def __init__(self, channel: str, code: Optional[float], responsive: bool):
        _set(self, "channel", channel)
        _set(self, "code", code)
        _set(self, "responsive", responsive)
        if channel not in FINGERS:
            raise DataError(f"unknown channel {channel!r}")
        if responsive != (code is not None):
            raise DataError("responsive flag must match presence of a code")


class CalibrationBaseline(Value):
    """Per-finger air (eps = 1) codes, persisted between sessions."""

    __slots__ = ("codes",)

    def __init__(self, codes: Mapping[str, float]):
        _set(self, "codes", codes)
        if not codes:
            raise DataError("a baseline needs the air code of at least one finger")
        for channel, code in codes.items():
            if channel not in FINGERS:
                raise DataError(f"unknown channel {channel!r} in baseline")
            if (isinstance(code, bool) or not isinstance(code, (int, float))
                    or not CODE_STORAGE_MIN <= code <= CODE_STORAGE_MAX):
                raise DataError(
                    f"baseline code {code!r} for channel {channel} must be a number in "
                    f"the storage range [{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")

    @property
    def gaps(self) -> tuple:
        """The fingers without a code, in finger order."""
        return tuple(f for f in FINGERS if f not in self.codes)


def check_material_label(label, where: str = "") -> None:
    """Refuse a label no file could hold (``None`` is no label); ``where`` prefixes the error."""
    if label is not None and not (label and is_utf8_text(label)):
        raise DataError(f"{where}material label {label!r} must be a non-empty string "
                        f"UTF-8 can encode")


class Fingerprint(Value):
    """The differential codes of the fingers that responded, in finger order."""

    __slots__ = ("deltas", "material_label")

    def __init__(self, deltas: Mapping[str, float], material_label: Optional[str] = None):
        _set(self, "deltas", {f: deltas[f] for f in FINGERS if f in deltas})
        _set(self, "material_label", material_label)
        if not deltas:
            raise DataError("a fingerprint needs at least one finger not imputed")
        if unknown := [f for f in deltas if f not in FINGERS]:
            raise DataError(f"unknown finger {unknown[0]!r} in fingerprint")
        # an int beyond the float range has no float, and a mean may overflow where it fills
        if not (all(isinstance(v, (int, float)) and not isinstance(v, bool)
                    and abs(v) <= sys.float_info.max for v in deltas.values())
                and all(map(math.isfinite, self.values.values()))):
            raise DataError(f"fingerprint values must be finite numbers: {dict(deltas)}")
        check_material_label(material_label)

    @property
    def values(self) -> dict:
        """Each finger's differential code, or the mean of ``deltas`` where it has none."""
        fill = total(self.deltas.values()) / len(self.deltas)
        return {f: self.deltas.get(f, fill) for f in FINGERS}

    @property
    def imputed(self) -> dict:
        """Per finger, whether its value is the mean of the others: it did not respond."""
        return {f: f not in self.deltas for f in FINGERS}

    @property
    def n_responsive(self) -> int:
        """The number of fingers not imputed."""
        return len(self.deltas)


def readings(codes: Mapping[str, float]) -> list[ChannelReading]:
    """One reading per finger, unresponsive where ``codes`` has none."""
    return [ChannelReading(channel=f, code=codes.get(f), responsive=f in codes)
            for f in FINGERS]


def total(values: Iterable[float]) -> float:
    """``values`` added one at a time, left to right, from 0.0: the same
    float on every Python (``sum`` of floats is compensated from 3.12
    on), and the order in which the Monte Carlo adds its columns."""
    return functools.reduce(operator.add, values, 0.0)


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
    return Fingerprint(deltas, material_label)


def fingerprint_label(fp: Fingerprint, index: int) -> str:
    """The material label of the ``index``-th fingerprint of a file, or
    ``fingerprint-<index + 1>`` where it has none."""
    return fp.material_label or f"fingerprint-{index + 1}"


def averaged_fingerprint(fp: Fingerprint) -> float:
    """Mean of the five post-imputation differential codes."""
    return total(fp.values.values()) / len(FINGERS)


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
    sigmas = [pressure_uncertainty(delta) for delta in fp.deltas.values()]
    return math.sqrt(total(s * s for s in sigmas)) / len(sigmas)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def fingerprint_record(fp: Fingerprint) -> dict:
    """JSON-ready record of one fingerprint."""
    return {
        "material": fp.material_label,
        "values": fp.values,
        "imputed": fp.imputed,
        "n_responsive": fp.n_responsive,
        "averaged": averaged_fingerprint(fp),
        "uncertainty": propagated_uncertainty(fp),
    }


def fingerprint_from_record(record: dict) -> Fingerprint:
    """A fingerprint file's values of the fingers not imputed; the rest is checked, not kept."""
    values = json_field(record, "values", dict)
    imputed = json_field(record, "imputed", dict)
    if set(values) != set(FINGERS) or set(imputed) != set(FINGERS):
        raise DataError("fingerprint must cover exactly the five fingers")
    if not all(isinstance(flag, bool) for flag in imputed.values()):
        raise DataError(f"imputed flags must be true or false: {imputed}")
    fp = Fingerprint({f: v for f, v in values.items() if not imputed[f]},
                     json_field(record, "material", str, type(None), default=None))
    for f, derived in fp.values.items():
        if imputed[f] and (isinstance(values[f], bool) or values[f] != derived):
            raise DataError(f"field 'values' of imputed finger {f} must be {derived!r}, the mean "
                            f"of the fingers not imputed, found {values[f]!r}")
    n_responsive = json_field(record, "n_responsive", int, float)
    if n_responsive != fp.n_responsive:
        raise DataError(f"field 'n_responsive' must be {fp.n_responsive}, the number of "
                        f"fingers not imputed, found {n_responsive}")
    return fp


def save_baseline(baseline: CalibrationBaseline, path) -> None:
    write_json(path, {"codes": dict(baseline.codes), "timestamp": "",
                      "gaps": list(baseline.gaps)})


def _baseline_from_record(payload: dict) -> CalibrationBaseline:
    """A baseline file's codes; its ``timestamp`` and ``gaps`` are checked, not kept."""
    baseline = CalibrationBaseline(json_field(payload, "codes", dict))
    json_field(payload, "timestamp", str, default="")
    gaps = json_field(payload, "gaps", list, default=[])
    if any(gap not in baseline.gaps or gaps.count(gap) > 1 for gap in gaps):
        raise DataError(f"baseline gaps {gaps} must be distinct fingers without a code")
    return baseline


def load_baseline(path) -> CalibrationBaseline:
    return read_json(path, "baseline object", _baseline_from_record)


def save_fingerprints(fps: Sequence[Fingerprint], path) -> None:
    write_json(path, [fingerprint_record(fp) for fp in fps])


def load_fingerprints(path) -> list[Fingerprint]:
    return read_json(path, "fingerprint list", fingerprint_from_record)
