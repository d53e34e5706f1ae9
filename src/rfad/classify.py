"""Threshold classification and population reliability statistics.

The averaged fingerprint is the scalar feature; materials fall into
low/medium/high permittivity classes separated by fixed thresholds.
Reliability statistics summarize how many fingers of a hand respond,
over trial records that persist as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import DataError, UnclassifiableError
from .files import read_json, write_json
from .fingerprint import Fingerprint, fingerprint_from_record, fingerprint_record
from .hand import FINGERS

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
        if not isinstance(self.subject, str) or not isinstance(self.material, str):
            raise DataError("trial record subject and material must be strings")
        if self.fingerprint is not None and any(
                self.responsive[f] == self.fingerprint.imputed[f] for f in FINGERS):
            raise DataError(f"responsive flags {self.responsive} disagree with the "
                            f"fingerprint's imputed flags {self.fingerprint.imputed}")

    @property
    def n_responsive(self) -> int:
        return sum(bool(v) for v in self.responsive.values())


@dataclass(frozen=True)
class ReliabilityReport:
    """CCD of simultaneously responding fingers plus per-finger rates."""

    ccd: tuple
    per_finger_rates: Mapping[str, Mapping[str, float]]
    joint_rates: Mapping[str, float]


def classify(f_bar: float, classes: Sequence[MaterialClass]) -> str:
    """Label of the class interval containing the averaged fingerprint;
    ``classes`` are contiguous and ordered, as ``default_classes`` builds them."""
    for i, cls in enumerate(classes):
        is_top = i == len(classes) - 1
        if cls.lower <= f_bar < cls.upper or (is_top and f_bar == cls.upper):
            return cls.label
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


def ccd(records: Sequence[TrialRecord]) -> tuple:
    """CCD(m) for m = 1..5: percent of trials with >= m responsive fingers."""
    if not records:
        raise DataError("no trial records")
    counts = [r.n_responsive for r in records]
    return tuple(100.0 * sum(c >= m for c in counts) / len(counts)
                 for m in range(1, len(FINGERS) + 1))


def per_finger_rates(records: Sequence[TrialRecord]):
    """Response rate per finger per material, plus all-materials joint rate.

    Returns ``(rates, joint)`` where ``rates[finger][material]`` and
    ``joint[finger]`` are percentages.
    """
    if not records:
        raise DataError("no trial records")
    materials = sorted({r.material for r in records})
    rates = {}
    joint = {}
    for finger in FINGERS:
        rates[finger] = {}
        for material in materials:
            rel = [r for r in records if r.material == material]
            rates[finger][material] = (
                100.0 * sum(r.responsive[finger] for r in rel) / len(rel))
        joint[finger] = 100.0 * sum(r.responsive[finger] for r in records) / len(records)
    return rates, joint


def reliability_report(records: Sequence[TrialRecord]) -> ReliabilityReport:
    rates, joint = per_finger_rates(records)
    return ReliabilityReport(ccd=ccd(records), per_finger_rates=rates,
                             joint_rates=joint)


def suggest_channel_subset(joint_rates: Mapping[str, float], k: int) -> tuple:
    """The k most reliable fingers; ties break toward the thumb side."""
    if not 1 <= k <= len(FINGERS):
        raise DataError(f"k must be in [1, {len(FINGERS)}], got {k}")
    order = sorted(FINGERS, key=lambda f: (-joint_rates[f], FINGERS.index(f)))
    chosen = order[:k]
    return tuple(f for f in FINGERS if f in chosen)


# ---------------------------------------------------------------------------
# trial record persistence
# ---------------------------------------------------------------------------

# Seed of the default synthetic campaign (``rfad stats --generate``).
DEFAULT_POPULATION_SEED = 20


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
    fp = rec.get("fingerprint")
    return TrialRecord(subject=rec["subject"], material=rec["material"],
                       responsive=dict(rec["responsive"]),
                       fingerprint=fingerprint_from_record(fp) if fp else None)


def load_records(path) -> list[TrialRecord]:
    return read_json(path, "record list", lambda payload: [_record(rec) for rec in payload])
