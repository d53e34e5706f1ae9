"""Threshold classification and population reliability statistics.

The averaged fingerprint is the scalar feature; materials fall into
low/medium/high permittivity classes separated by fixed thresholds.
``reliability_report`` is the one reliability statistic: over trial
records, which persist as JSON, it counts how many fingers of a hand
respond (the CCD) and how often each finger responds, per material and
over all trials. A campaign's layout is here too, without numpy: its
shape, the order of its trials and the name of each trial's reader log.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Mapping, Optional, Sequence

from .errors import DataError, UnclassifiableError
from .files import is_utf8_text, json_field, read_json, write_json
from .fingerprint import Fingerprint, fingerprint_from_record, fingerprint_record
from .hand import FINGERS
from .materials import REFERENCE_LIQUIDS

@dataclass(frozen=True)
class MaterialClass:
    """One permittivity class: label plus half-open interval [lower, upper).

    A value exactly on a boundary belongs to the upper class; the top
    class additionally accepts its own upper bound.
    """

    label: str
    lower: float
    upper: float
    reference_materials: tuple = ()

    def __post_init__(self):
        if not self.lower < self.upper:
            raise DataError(
                f"class {self.label!r} needs lower < upper, "
                f"got [{self.lower}, {self.upper})")


@dataclass(frozen=True)
class TrialRecord:
    """One hand-material trial: which fingers responded, and the fingerprint."""

    subject: str
    material: str
    responsive: Mapping[str, bool]
    fingerprint: Optional[Fingerprint] = None

    def __post_init__(self):
        if set(self.responsive) != set(FINGERS):
            raise DataError("trial record needs exactly five channel slots")
        if not all(isinstance(flag, bool) for flag in self.responsive.values()):
            raise DataError(f"responsive flags must be true or false: {self.responsive}")
        if not (is_utf8_text(self.subject) and is_utf8_text(self.material)):
            raise DataError(f"trial record subject and material must be strings UTF-8 "
                            f"can encode, got {self.subject!r} and {self.material!r}")
        if self.fingerprint is not None and any(
                self.responsive[f] == self.fingerprint.imputed[f] for f in FINGERS):
            raise DataError(f"responsive flags {self.responsive} disagree with the "
                            f"fingerprint's imputed flags {self.fingerprint.imputed}")

    @property
    def n_responsive(self) -> int:
        return sum(bool(v) for v in self.responsive.values())


@dataclass(frozen=True)
class PopulationSpec:
    """Shape of a synthetic measurement campaign."""

    subjects: int = 10
    trials: int = 3
    materials: tuple = REFERENCE_LIQUIDS

    def __post_init__(self):
        if self.subjects < 1 or self.trials < 1 or not self.materials:
            raise DataError("population spec needs subjects, trials and materials")
        if unknown := [m for m in self.materials if m not in REFERENCE_LIQUIDS]:
            raise DataError(f"not a reference liquid: {', '.join(map(repr, unknown))}")
        if repeated := [m for i, m in enumerate(self.materials) if m in self.materials[:i]]:
            raise DataError(f"material {repeated[0]!r} is repeated")


def log_name(subject: int, material: str, trial: int) -> str:
    """The reader log's file name of a trial (``subject``, ``trial`` from 0)."""
    return f"subject{subject + 1:02d}_{material}_trial{trial + 1}.csv"


def campaign_trials(spec: PopulationSpec) -> Iterator[tuple[int, str, int]]:
    """``(subject, material, trial)`` of each trial of the campaign, in the
    order it runs them: by subject, then material, then trial."""
    return product(range(spec.subjects), spec.materials, range(spec.trials))


@dataclass(frozen=True)
class ReliabilityReport:
    """CCD of simultaneously responding fingers plus per-finger rates."""

    ccd: tuple
    per_finger_rates: Mapping[str, Mapping[str, float]]
    joint_rates: Mapping[str, float]


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
    records per statistic and finger."""
    if not records:
        raise DataError("no trial records")
    trials = Counter(r.material for r in records)
    at_count = Counter(r.n_responsive for r in records)
    ccd = tuple(100.0 * sum(c for n, c in at_count.items() if n >= m) / len(records)
                for m in range(1, len(FINGERS) + 1))
    rates, joint = {}, {}
    for finger in FINGERS:
        hits = Counter(r.material for r in records if r.responsive[finger])
        rates[finger] = {m: 100.0 * hits[m] / trials[m] for m in sorted(trials)}
        joint[finger] = 100.0 * hits.total() / len(records)
    return ReliabilityReport(ccd=ccd, per_finger_rates=rates, joint_rates=joint)


# ---------------------------------------------------------------------------
# trial record persistence
# ---------------------------------------------------------------------------

def save_records(records: Sequence[TrialRecord], path) -> None:
    payload = []
    for r in records:
        payload.append({
            "subject": r.subject, "material": r.material,
            "responsive": {f: bool(r.responsive[f]) for f in FINGERS},
            "fingerprint": (fingerprint_record(r.fingerprint)
                            if r.fingerprint is not None else None),
        })
    write_json(path, payload)


def _record(rec: dict) -> TrialRecord:
    fp = json_field(rec, "fingerprint", dict, type(None), default=None)
    return TrialRecord(subject=rec["subject"], material=rec["material"],
                       responsive=dict(json_field(rec, "responsive", dict)),
                       fingerprint=fingerprint_from_record(fp) if fp is not None else None)


def load_records(path) -> list[TrialRecord]:
    return read_json(path, "record list", _record)
