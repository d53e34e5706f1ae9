"""Threshold classification and reliability statistics tests."""

import pytest

from rfad.classify import (MaterialClass, TrialRecord, ccd, classify,
                           default_classes, load_records, per_finger_rates,
                           reliability_report, save_records,
                           suggest_channel_subset)
from rfad.errors import DataError, UnclassifiableError
from rfad.fingerprint import Fingerprint
from rfad.hand import FINGERS

CLASSES = [
    MaterialClass("low", -320.0, 59.5, reference_materials=("olive_oil",)),
    MaterialClass("medium", 59.5, 139.5, reference_materials=("ethyl_alcohol",)),
    MaterialClass("high", 139.5, 320.0, reference_materials=("deionized_water",)),
]

PAPER_JOINT_RATES = {"I": 20.0, "II": 50.0, "III": 70.0, "IV": 30.0, "V": 50.0}


def _record(n_responsive, material="olive_oil", subject="S01"):
    responsive = {f: i < n_responsive for i, f in enumerate(FINGERS)}
    return TrialRecord(subject=subject, material=material, responsive=responsive)


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
        result = ccd(records)
        assert result == (100.0, 90.0, 60.0, 0.0, 0.0)

    def test_all_responsive(self):
        assert ccd([_record(5)] * 4) == (100.0,) * 5

    def test_single_record(self):
        assert ccd([_record(2)]) == (100.0, 100.0, 0.0, 0.0, 0.0)

    def test_monotone_non_increasing(self):
        records = [_record(n) for n in (1, 2, 2, 3, 4, 5, 1)]
        result = ccd(records)
        assert all(a >= b for a, b in zip(result, result[1:]))

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            ccd([])


class TestPerFingerRates:
    def test_joint_and_per_material(self):
        records = [
            TrialRecord("S01", "olive_oil",
                        {"I": True, "II": True, "III": False, "IV": False, "V": False}),
            TrialRecord("S01", "deionized_water",
                        {"I": False, "II": True, "III": True, "IV": False, "V": False}),
        ]
        rates, joint = per_finger_rates(records)
        assert rates["I"]["olive_oil"] == 100.0
        assert rates["I"]["deionized_water"] == 0.0
        assert joint["I"] == 50.0
        assert joint["II"] == 100.0
        assert joint["IV"] == 0.0

    def test_rates_bounded(self):
        records = [_record(n, material=m) for n in (1, 3, 4)
                   for m in ("olive_oil", "deionized_water")]
        rates, joint = per_finger_rates(records)
        for finger in FINGERS:
            assert 0.0 <= joint[finger] <= 100.0
            for value in rates[finger].values():
                assert 0.0 <= value <= 100.0

    def test_report_wraps_both(self):
        records = [_record(3), _record(2)]
        report = reliability_report(records)
        assert report.ccd == ccd(records)
        assert report.joint_rates == per_finger_rates(records)[1]


class TestSuggestChannelSubset:
    def test_paper_rates_top_three(self):
        assert suggest_channel_subset(PAPER_JOINT_RATES, 3) == ("II", "III", "V")

    def test_k_five_is_everything(self):
        assert suggest_channel_subset(PAPER_JOINT_RATES, 5) == FINGERS

    def test_uniform_rates_tie_break_thumbward(self):
        uniform = {f: 50.0 for f in FINGERS}
        assert suggest_channel_subset(uniform, 2) == ("I", "II")

    def test_k_range(self):
        with pytest.raises(DataError):
            suggest_channel_subset(PAPER_JOINT_RATES, 0)
        with pytest.raises(DataError):
            suggest_channel_subset(PAPER_JOINT_RATES, 6)


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
