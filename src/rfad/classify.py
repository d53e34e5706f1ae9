"""Threshold classification and population reliability statistics.

The averaged fingerprint is the scalar feature; materials fall into
low/medium/high permittivity classes separated by fixed thresholds.
``reliability_report`` is the one reliability statistic: over trial
records, which persist as JSON, it counts how many fingers of a hand
respond (the CCD) and how often each finger responds, per material and
over all trials. A campaign's layout is here too, without numpy: its
shape, the order of its trials, the name of each trial's reader log,
and the length of its series, with the sample counts they must hold.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product
from typing import Iterator, Mapping, Optional, Sequence

from .errors import DataError, UnclassifiableError
from .files import is_utf8_text, json_field, read_json, write_json
from .fingerprint import Fingerprint, fingerprint_from_record, fingerprint_record
from .hand import FINGERS
from .ic import MAX_SERIES_SAMPLES
from .materials import REFERENCE_LIQUIDS
from .value import Value, _set

# Length of each trial's code series, in seconds.
SERIES_DURATION = 70.0


class MaterialClass(Value):
    """One permittivity class: label plus half-open interval [lower, upper).

    A value exactly on a boundary belongs to the upper class; the top
    class additionally accepts its own upper bound.
    """

    __slots__ = ("label", "lower", "upper", "reference_materials")

    def __init__(self, label: str, lower: float, upper: float, reference_materials: tuple = ()):
        _set(self, "label", label)
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "reference_materials", reference_materials)
        if not lower < upper:
            raise DataError(f"class {label!r} needs lower < upper, got [{lower}, {upper})")


class TrialRecord(Value):
    """One hand-material trial: its fingerprint, or none where no finger responded."""

    __slots__ = ("subject", "material", "fingerprint")

    def __init__(self, subject: str, material: str, fingerprint: Optional[Fingerprint] = None):
        _set(self, "subject", subject)
        _set(self, "material", material)
        _set(self, "fingerprint", fingerprint)
        if not all(name and is_utf8_text(name) for name in (subject, material)):
            raise DataError(f"trial record subject and material must be non-empty strings "
                            f"UTF-8 can encode, got {subject!r} and {material!r}")
        if fingerprint is not None and fingerprint.material_label not in (None, material):
            raise DataError(f"trial record of material {material!r} holds a fingerprint "
                            f"of {fingerprint.material_label!r}")

    @property
    def responsive(self) -> dict:
        """Per finger, in finger order, whether it responded: it has a code in the fingerprint."""
        deltas = {} if self.fingerprint is None else self.fingerprint.deltas
        return {f: f in deltas for f in FINGERS}

    @property
    def n_responsive(self) -> int:
        return 0 if self.fingerprint is None else self.fingerprint.n_responsive


class PopulationSpec(Value):
    """Shape of a synthetic measurement campaign."""

    __slots__ = ("subjects", "trials", "materials")

    def __init__(self, subjects: int = 10, trials: int = 3, materials: tuple = REFERENCE_LIQUIDS):
        _set(self, "subjects", subjects)
        _set(self, "trials", trials)
        _set(self, "materials", materials)
        if subjects < 1 or trials < 1 or not materials:
            raise DataError("population spec needs subjects, trials and materials")
        if unknown := [m for m in materials if m not in REFERENCE_LIQUIDS]:
            raise DataError(f"not a reference liquid: {', '.join(map(repr, unknown))}")
        if repeated := [m for i, m in enumerate(materials) if m in materials[:i]]:
            raise DataError(f"material {repeated[0]!r} is repeated")


def log_name(subject: int, material: str, trial: int) -> str:
    """The reader log's file name of a trial (``subject``, ``trial`` from 0)."""
    return f"subject{subject + 1:02d}_{material}_trial{trial + 1}.csv"


def campaign_trials(spec: PopulationSpec) -> Iterator[tuple[int, str, int]]:
    """``(subject, material, trial)`` of each trial of the campaign, in the
    order it runs them: by subject, then material, then trial."""
    return product(range(spec.subjects), spec.materials, range(spec.trials))


def check_series(sample_period: float, window: int) -> None:
    """Refuse a session unless the campaign's series, ``SERIES_DURATION`` s
    at ``sample_period``, hold from ``window`` to ``MAX_SERIES_SAMPLES`` samples."""
    count = SERIES_DURATION / sample_period
    if not window <= count <= MAX_SERIES_SAMPLES:
        held = math.floor(count) if count <= MAX_SERIES_SAMPLES else f"over {MAX_SERIES_SAMPLES}"
        raise DataError(f"the campaign's {SERIES_DURATION:g} s series hold {held} samples at "
                        f"sample_period = {sample_period:g} s; they must hold from "
                        f"window = {window} to {MAX_SERIES_SAMPLES}")


class ReliabilityReport(Value):
    """CCD of simultaneously responding fingers plus per-finger rates."""

    __slots__ = ("ccd", "per_finger_rates", "joint_rates")

    def __init__(self, ccd: tuple, per_finger_rates: Mapping, joint_rates: Mapping):
        _set(self, "ccd", ccd)
        _set(self, "per_finger_rates", per_finger_rates)
        _set(self, "joint_rates", joint_rates)


def classify(f_bar: float, classes: Sequence[MaterialClass]) -> str:
    """Label of the class interval containing the averaged fingerprint;
    ``classes`` are contiguous and ordered, as ``default_classes`` builds them.
    A value outside them is an ``UnclassifiableError`` that carries its
    distance; a NaN, at no distance from any class, is a ``DataError``."""
    for i, cls in enumerate(classes):
        is_top = i == len(classes) - 1
        if cls.lower <= f_bar < cls.upper or (is_top and f_bar == cls.upper):
            return cls.label
    if math.isnan(f_bar):
        raise DataError(f"value {f_bar} is not a number")
    lo, hi = classes[0].lower, classes[-1].upper
    distance = lo - f_bar if f_bar < lo else f_bar - hi
    raise UnclassifiableError(
        f"value {f_bar} is {distance:.3g} outside [{lo}, {hi}]",
        distance=distance)


def default_classes(class_means: Mapping[str, float],
                    span: float) -> list[MaterialClass]:
    """Build low/medium/high classes from calibrated per-class means.

    Thresholds sit at the midpoints between adjacent class means, which
    maximizes the margin for the reported per-class spreads. The outer
    bounds are ``-span`` and ``span``: with ``span = s_max - s_min`` they
    hold every differential code the ladder can produce.
    """
    if len(class_means) != 3:
        raise DataError("expected exactly three calibrated class means")
    ordered = sorted(class_means.items(), key=lambda kv: kv[1])
    (m_low, v_low), (m_med, v_med), (m_high, v_high) = ordered
    t1 = 0.5 * (v_low + v_med)
    t2 = 0.5 * (v_med + v_high)
    return [
        MaterialClass("low", -span, t1, reference_materials=(m_low,)),
        MaterialClass("medium", t1, t2, reference_materials=(m_med,)),
        MaterialClass("high", t2, span, reference_materials=(m_high,)),
    ]


def reliability_report(records: Sequence[TrialRecord]) -> ReliabilityReport:
    """CCD(m) for m = 1..5, the percent of trials with >= m responsive
    fingers; per finger, its response rate per material (sorted) and over
    all trials. Each is a percentage of counts, taken in one pass over the
    records per statistic and finger; each record's ``responsive`` is read once."""
    if not records:
        raise DataError("no trial records")
    trials = Counter(r.material for r in records)
    at_count = Counter(r.n_responsive for r in records)
    ccd = tuple(100.0 * sum(c for n, c in at_count.items() if n >= m) / len(records)
                for m in range(1, len(FINGERS) + 1))
    flags = [r.responsive for r in records]
    rates, joint = {}, {}
    for finger in FINGERS:
        hits = Counter(r.material for r, responsive in zip(records, flags) if responsive[finger])
        rates[finger] = {m: 100.0 * hits[m] / trials[m] for m in sorted(trials)}
        joint[finger] = 100.0 * hits.total() / len(records)
    return ReliabilityReport(ccd=ccd, per_finger_rates=rates, joint_rates=joint)


# ---------------------------------------------------------------------------
# trial record persistence
# ---------------------------------------------------------------------------

def save_records(records: Sequence[TrialRecord], path) -> None:
    write_json(path, [{"subject": r.subject, "material": r.material,
                       "responsive": r.responsive,
                       "fingerprint": (fingerprint_record(r.fingerprint)
                                       if r.fingerprint is not None else None)}
                      for r in records])


def _record(rec: dict) -> TrialRecord:
    """A record file's entry; its ``responsive`` flags are checked, not kept."""
    fp = json_field(rec, "fingerprint", dict, type(None), default=None)
    subject, material = rec["subject"], rec["material"]
    flags = json_field(rec, "responsive", dict)
    record = TrialRecord(subject, material,
                         fingerprint_from_record(fp) if fp is not None else None)
    if not all(isinstance(flag, bool) for flag in flags.values()):
        raise DataError(f"responsive flags must be true or false: {flags}")
    if flags != record.responsive:
        raise DataError(f"responsive flags {flags} disagree with " + (
            "a record without a fingerprint, in which no finger responded"
            if record.fingerprint is None
            else f"the fingerprint's imputed flags {record.fingerprint.imputed}"))
    return record


def load_records(path) -> list[TrialRecord]:
    return read_json(path, "record list", _record)
