"""Threshold classification and reliability statistics tests."""

import json
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfad.classify import (MaterialClass, ReliabilityReport, TrialRecord, classify,
                           default_classes, load_records, reliability_report,
                           save_records)
from rfad.errors import DataError, UnclassifiableError
from rfad.fingerprint import (Fingerprint, averaged_fingerprint, load_fingerprints,
                              propagated_uncertainty, save_fingerprints)
from rfad.hand import FINGERS

CLASSES = [
    MaterialClass("low", -320.0, 59.5, reference_materials=("olive_oil",)),
    MaterialClass("medium", 59.5, 139.5, reference_materials=("ethyl_alcohol",)),
    MaterialClass("high", 139.5, 320.0, reference_materials=("deionized_water",)),
]

def _record(n_responsive, material="olive_oil", subject="S01"):
    responsive = {f: i < n_responsive for i, f in enumerate(FINGERS)}
    return TrialRecord(subject=subject, material=material, responsive=responsive)


def ccd(records):
    """Reference CCD: one scan of the records per m."""
    counts = [r.n_responsive for r in records]
    return tuple(100.0 * sum(c >= m for c in counts) / len(counts)
                 for m in range(1, len(FINGERS) + 1))


def per_finger_rates(records):
    """Reference rates: one scan of the records per finger and material,
    returning ``(rates, joint)`` with materials sorted."""
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


def _reference_report(records):
    rates, joint = per_finger_rates(records)
    return ReliabilityReport(ccd=ccd(records), per_finger_rates=rates, joint_rates=joint)


class TestClassify:
    def test_class_midpoints(self):
        assert classify(20.0, CLASSES) == "low"
        assert classify(99.0, CLASSES) == "medium"
        assert classify(180.0, CLASSES) == "high"

    def test_boundary_belongs_to_upper_class(self):
        assert classify(59.5, CLASSES) == "medium"
        assert classify(139.5, CLASSES) == "high"

    def test_top_class_accepts_its_upper_bound(self):
        assert classify(320.0, CLASSES) == "high"
        assert classify(-320.0, CLASSES) == "low"

    def test_out_of_span_carries_distance(self):
        with pytest.raises(UnclassifiableError) as excinfo:
            classify(330.0, CLASSES)
        assert excinfo.value.distance == pytest.approx(10.0)
        with pytest.raises(UnclassifiableError) as excinfo:
            classify(-321.0, CLASSES)
        assert excinfo.value.distance == pytest.approx(1.0)

    def test_nan_is_not_a_number(self):
        with pytest.raises(DataError, match="^value nan is not a number$") as excinfo:
            classify(math.nan, CLASSES)
        assert not isinstance(excinfo.value, UnclassifiableError)

    def test_order_respecting(self):
        order = {"low": 0, "medium": 1, "high": 2}
        values = [-100.0, 0.0, 30.0, 59.5, 100.0, 139.5, 200.0, 319.0]
        labels = [order[classify(v, CLASSES)] for v in values]
        assert labels == sorted(labels)


class TestDefaultClasses:
    def test_midpoint_thresholds(self):
        classes = default_classes({"olive_oil": 20.0, "ethyl_alcohol": 99.0,
                                   "deionized_water": 180.0}, 320.0)
        assert [(c.label, c.lower, c.upper) for c in classes] == [
            ("low", -320.0, 59.5), ("medium", 59.5, 139.5), ("high", 139.5, 320.0)]
        assert classes[0].reference_materials == ("olive_oil",)
        assert classes[2].reference_materials == ("deionized_water",)

    def test_means_sorted_regardless_of_input_order(self):
        classes = default_classes({"deionized_water": 180.0, "olive_oil": 20.0,
                                   "ethyl_alcohol": 99.0}, 320.0)
        assert classes[1].reference_materials == ("ethyl_alcohol",)

    def test_needs_three_means(self):
        with pytest.raises(DataError):
            default_classes({"a": 1.0, "b": 2.0}, 320.0)


class TestCcd:
    def test_paper_style_fixture(self):
        records = ([_record(1)] * 1 + [_record(2)] * 3 + [_record(3)] * 6)
        result = reliability_report(records).ccd
        assert result == (100.0, 90.0, 60.0, 0.0, 0.0)

    def test_all_responsive(self):
        assert reliability_report([_record(5)] * 4).ccd == (100.0,) * 5

    def test_single_record(self):
        assert reliability_report([_record(2)]).ccd == (100.0, 100.0, 0.0, 0.0, 0.0)

    def test_monotone_non_increasing(self):
        records = [_record(n) for n in (1, 2, 2, 3, 4, 5, 1)]
        result = reliability_report(records).ccd
        assert all(a >= b for a, b in zip(result, result[1:]))

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="^no trial records$"):
            reliability_report([])


class TestPerFingerRates:
    def test_joint_and_per_material(self):
        records = [
            TrialRecord("S01", "olive_oil",
                        {"I": True, "II": True, "III": False, "IV": False, "V": False}),
            TrialRecord("S01", "deionized_water",
                        {"I": False, "II": True, "III": True, "IV": False, "V": False}),
        ]
        report = reliability_report(records)
        rates, joint = report.per_finger_rates, report.joint_rates
        assert rates["I"]["olive_oil"] == 100.0
        assert rates["I"]["deionized_water"] == 0.0
        assert joint["I"] == 50.0
        assert joint["II"] == 100.0
        assert joint["IV"] == 0.0

    def test_rates_bounded(self):
        records = [_record(n, material=m) for n in (1, 3, 4)
                   for m in ("olive_oil", "deionized_water")]
        report = reliability_report(records)
        rates, joint = report.per_finger_rates, report.joint_rates
        for finger in FINGERS:
            assert 0.0 <= joint[finger] <= 100.0
            for value in rates[finger].values():
                assert 0.0 <= value <= 100.0

    def test_report_wraps_both(self):
        records = [_record(3), _record(2)]
        report = reliability_report(records)
        assert report.ccd == ccd(records)
        assert report.joint_rates == per_finger_rates(records)[1]


class TestReportMatchesReference:
    """``reliability_report`` counts in one pass per statistic what the
    reference definitions scan for per finger and material: the floats
    and the key order (fingers, then sorted materials) agree."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(st.tuples(st.sampled_from(["olive_oil", "ethyl_alcohol", "a", "Z"]),
                              st.lists(st.booleans(), min_size=5, max_size=5)),
                    min_size=1, max_size=40))
    def test_random_records(self, trials):
        records = [TrialRecord(f"S{i}", material, dict(zip(FINGERS, mask)))
                   for i, (material, mask) in enumerate(trials)]
        report, expected = reliability_report(records), _reference_report(records)
        assert report == expected
        assert repr(report) == repr(expected)  # dict == ignores key order


class TestTrialRecord:
    def test_needs_five_slots(self):
        with pytest.raises(DataError):
            TrialRecord("S01", "olive_oil", {"I": True})

    def test_n_responsive(self):
        assert _record(3).n_responsive == 3

    def test_responsive_flags_must_match_fingerprint(self):
        fp = Fingerprint(values={f: 10.0 for f in FINGERS},
                         imputed={f: f != "I" for f in FINGERS}, n_responsive=1)
        only_thumb = {f: f == "I" for f in FINGERS}
        assert TrialRecord("S01", "olive_oil", only_thumb, fp).n_responsive == 1
        for responsive in ({f: True for f in FINGERS},
                           {f: f == "II" for f in FINGERS}):
            with pytest.raises(DataError, match="disagree"):
                TrialRecord("S01", "olive_oil", responsive, fp)


    @pytest.mark.parametrize("subject, material", [
        ("\ud800", "olive_oil"), ("S01", "oil\udcff"), (5, "olive_oil"), ("S01", None)])
    def test_subject_and_material_must_be_utf8_text(self, subject, material):
        with pytest.raises(DataError, match="^trial record subject and material must be "
                                            "strings UTF-8 can encode, got "):
            TrialRecord(subject, material, {f: True for f in FINGERS})


class TestRecordPersistence:
    def test_round_trip(self, tmp_path):
        fp = Fingerprint(values={f: 10.0 + i for i, f in enumerate(FINGERS)},
                         imputed={f: f == "V" for f in FINGERS}, n_responsive=4,
                         material_label="olive_oil")
        records = [TrialRecord("S01", "olive_oil", {f: f != "V" for f in FINGERS}, fp),
                   _record(2, material="deionized_water", subject="S02")]
        path = tmp_path / "records.json"
        save_records(records, path)
        assert load_records(path) == records

    def test_empty_fingerprint_object_is_refused(self, tmp_path):
        """``{}`` is a fingerprint with no fields, not the absence of one."""
        path = tmp_path / "records.json"
        path.write_text(json.dumps([{"subject": "S01", "material": "olive_oil",
                                     "responsive": {f: f == "I" for f in FINGERS},
                                     "fingerprint": {}}]))
        error = f"{path}: entry 0: missing field 'values'"
        with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
            load_records(path)


# every kind of finite value a fingerprint holds: ints up to the largest a
# float holds, both zeros, subnormals and the largest floats
_VALUES = (st.integers(-(2 ** 1023), 2 ** 1023)
           | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                              1.7976931348623157e308, -1e300])
           | st.floats(allow_nan=False, allow_infinity=False))
_TEXT = st.text(st.characters(codec="utf-8"), max_size=8)
_MASKS = st.lists(st.booleans(), min_size=len(FINGERS), max_size=len(FINGERS))


@st.composite
def _fingerprints(draw):
    responsive = draw(_MASKS.filter(any))
    return Fingerprint(values=dict(zip(FINGERS, draw(st.lists(_VALUES, min_size=5,
                                                               max_size=5)))),
                       imputed={f: not flag for f, flag in zip(FINGERS, responsive)},
                       n_responsive=responsive.count(True),
                       material_label=draw(st.none() | _TEXT))


@st.composite
def _records(draw):
    fp = draw(st.none() | _fingerprints())
    responsive = (draw(_MASKS) if fp is None
                  else [not fp.imputed[f] for f in FINGERS])
    return TrialRecord(subject=draw(_TEXT), material=draw(_TEXT),
                       responsive=dict(zip(FINGERS, responsive)), fingerprint=fp)


def _round_trip(save, load, items, fps):
    """Whatever ``save`` writes, ``load`` returns equal, and saving that
    again writes the same bytes (ints stay ints, -0.0 stays -0.0). It
    refuses, writing nothing, exactly the items whose averaged fingerprint
    or uncertainty, which the file carries, is no finite float."""
    writable = all(math.isfinite(averaged_fingerprint(fp))
                   and math.isfinite(propagated_uncertainty(fp)) for fp in fps)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        if not writable:
            with pytest.raises(DataError, match="a NaN or an infinity cannot be written"):
                save(items, path)
            assert os.listdir(tmp) == []
            return
        save(items, path)
        loaded = load(path)
        assert loaded == items
        save(loaded, again)
        with open(path, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()


class TestFilesRoundTrip:
    """Whatever non-empty list ``save_records`` and ``save_fingerprints``
    accept loads back equal; the loaders refuse an empty list."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(_records(), min_size=1, max_size=4))
    def test_records(self, records):
        _round_trip(save_records, load_records, records,
                    [r.fingerprint for r in records if r.fingerprint is not None])

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(_fingerprints(), min_size=1, max_size=4))
    def test_fingerprints(self, fps):
        _round_trip(save_fingerprints, load_fingerprints, fps, fps)
