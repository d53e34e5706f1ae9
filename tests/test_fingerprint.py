"""Air baselines, differential codes, imputation, and uncertainty propagation tests."""

import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from rfad.errors import DataError, UncalibratedChannelError
from rfad.fingerprint import (CalibrationBaseline, ChannelReading, Fingerprint,
                              averaged_fingerprint, build_fingerprint,
                              fingerprint_from_record, fingerprint_record,
                              load_baseline, load_fingerprints, pressure_uncertainty,
                              propagated_uncertainty, save_baseline, save_fingerprints, total)
from rfad.hand import FINGERS
from rfad.readlog import CodeSeries, channel_codes
from rfad.fluctuation import FluctuationModel, synthesize_series

BASELINE = CalibrationBaseline(codes={f: 150.0 for f in FINGERS})


def _readings(codes):
    """codes: mapping finger -> touched code, missing fingers unresponsive."""
    return [ChannelReading(channel=f, code=codes.get(f),
                           responsive=f in codes) for f in FINGERS]


class TestChannelReading:
    def test_flag_must_match_code_presence(self):
        with pytest.raises(DataError):
            ChannelReading(channel="I", code=None, responsive=True)
        with pytest.raises(DataError):
            ChannelReading(channel="I", code=120.0, responsive=False)

    def test_unknown_channel(self):
        with pytest.raises(DataError):
            ChannelReading(channel="VI", code=120.0, responsive=True)


class TestCalibrationBaseline:
    def test_unknown_channel_rejected(self):
        with pytest.raises(DataError):
            CalibrationBaseline(codes={"X": 100.0})

    def test_out_of_range_code_rejected(self):
        with pytest.raises(DataError, match=r"storage range \[0, 511\]"):
            CalibrationBaseline(codes={"I": 600.0})

    def test_empty_codes_rejected(self):
        # no log without channels is calibrated, so no baseline lacks every code
        with pytest.raises(DataError, match="^a baseline needs the air code of at least "
                                            "one finger$"):
            CalibrationBaseline(codes={})

    def test_constant_air_series(self):
        series = {ch: CodeSeries(times=np.arange(12) * 0.7, codes=np.full(12, 150))
                  for ch in FINGERS}
        baseline = CalibrationBaseline(channel_codes(series, 10, "mean"))
        assert all(baseline.codes[ch] == 150.0 for ch in FINGERS)
        assert baseline.gaps == ()

    def test_missing_channel_reported_as_gap(self):
        baseline = CalibrationBaseline({"I": 150.0, "II": 150.0, "IV": 150.0, "V": 150.0})
        assert baseline.gaps == ("III",)
        assert "III" not in baseline.codes

    def test_gaps_are_in_finger_order(self):
        assert CalibrationBaseline({"V": 150.0, "II": 150.0}).gaps == ("I", "III", "IV")

    def test_sawtooth_air_series_near_mean(self):
        model = FluctuationModel(baseline=300, transient_amplitude=0.0,
                                 noise_sd=0.0)
        series = {"I": synthesize_series(model, 70.0, seed=0)}
        baseline = CalibrationBaseline(channel_codes(series, 10, "mean"))
        assert abs(baseline.codes["I"] - 300.0) <= 2.0

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(codes=st.dictionaries(st.sampled_from(FINGERS),
                                 st.integers(-1, 512) | st.floats(-1.0, 512.0) | st.booleans(),
                                 max_size=5))
    def test_saved_baselines_load_back_equal(self, codes):
        if not codes:
            with pytest.raises(DataError, match="^a baseline needs the air code"):
                CalibrationBaseline(codes=codes)
            return
        try:
            baseline = CalibrationBaseline(codes=codes)
        except DataError:
            reject()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "baseline.json")
            save_baseline(baseline, path)
            assert load_baseline(path) == baseline


def _baseline_file(path, **fields):
    """A baseline file holding the code 300 for finger IV, and ``fields``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"codes": {"IV": 300.0}, **fields}, fh)
    return path


class TestBaselineFile:
    def test_file_names_timestamp_and_gaps(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(CalibrationBaseline({f: 150.0 for f in FINGERS if f != "III"}), path)
        assert json.loads(path.read_text()) == {
            "codes": {"I": 150.0, "II": 150.0, "IV": 150.0, "V": 150.0},
            "timestamp": "", "gaps": ["III"]}

    @pytest.mark.parametrize("fields", [
        {}, {"timestamp": "2026-08-24"}, {"gaps": []}, {"gaps": ["V", "I"]},
        {"timestamp": "", "gaps": ["I", "II", "III", "V"]}],
        ids=["neither", "set-timestamp", "no-gaps", "some-gaps", "all-gaps"])
    def test_timestamp_and_gaps_are_checked_not_kept(self, tmp_path, fields):
        loaded = load_baseline(_baseline_file(tmp_path / "b.json", **fields))
        assert loaded == CalibrationBaseline({"IV": 300.0})
        assert loaded.gaps == ("I", "II", "III", "V")

    @pytest.mark.parametrize("fields, error", [
        ({"gaps": "II"}, "field 'gaps' must be an array, found a string"),
        ({"gaps": ""}, "field 'gaps' must be an array, found a string"),
        ({"gaps": None}, "field 'gaps' must be an array, found null"),
        ({"gaps": 5}, "field 'gaps' must be an array, found a number"),
        ({"gaps": ["II", "II"]}, "baseline gaps ['II', 'II'] must be distinct fingers "
                                 "without a code"),
        ({"gaps": ["I", "III", "I"]}, "baseline gaps ['I', 'III', 'I'] must be distinct "
                                      "fingers without a code"),
        ({"gaps": ["IV"]}, "baseline gaps ['IV'] must be distinct fingers without a code"),
        ({"gaps": ["VI"]}, "baseline gaps ['VI'] must be distinct fingers without a code"),
        ({"timestamp": 0}, "field 'timestamp' must be a string, found a number"),
        ({"timestamp": None}, "field 'timestamp' must be a string, found null"),
        ({"codes": {}}, "a baseline needs the air code of at least one finger"),
    ], ids=["string", "empty-string", "null", "number", "repeated-pair", "repeated-of-three",
            "finger-with-a-code", "unknown-finger", "number-timestamp", "null-timestamp",
            "no-codes"])
    def test_file_refused(self, tmp_path, fields, error):
        path = _baseline_file(tmp_path / "b.json", **fields)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {error}')}$"):
            load_baseline(path)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(codes=st.dictionaries(st.sampled_from(FINGERS), st.integers(0, 511),
                                 min_size=1, max_size=5),
           timestamp=st.text(st.characters(codec="utf-8") | st.just("\ud800"))
           | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.none(),
           gaps=st.lists(st.sampled_from(FINGERS), max_size=5)
           | st.text(st.sampled_from("IV"), max_size=3))
    def test_file_loads_as_its_codes(self, codes, timestamp, gaps):
        refused = (not isinstance(timestamp, str) or isinstance(gaps, str)
                   or len(set(gaps)) < len(gaps) or any(gap in codes for gap in gaps))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "baseline.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"codes": codes, "timestamp": timestamp, "gaps": gaps}, fh)
            if refused:
                with pytest.raises(DataError):
                    load_baseline(path)
            else:
                assert load_baseline(path) == CalibrationBaseline(codes)


class TestDifferentialCode:
    def test_self_calibration_is_zero(self):
        assert build_fingerprint(_readings({"I": 150.0}), BASELINE).values["I"] == 0.0

    def test_arithmetic(self):
        assert build_fingerprint(_readings({"II": 120.0}), BASELINE).values["II"] == 30.0

    def test_missing_baseline_channel(self):
        partial = CalibrationBaseline(codes={"I": 150.0})
        with pytest.raises(UncalibratedChannelError,
                           match="^no calibration baseline for channel II$"):
            build_fingerprint(_readings({"I": 140.0, "II": 120.0}), partial)


class TestBuildFingerprint:
    def test_single_gap_filled_with_mean(self):
        fp = build_fingerprint(_readings(
            {"I": 140.0, "II": 130.0, "IV": 120.0, "V": 110.0}), BASELINE)
        # deltas 10, 20, -, 30, 40 -> gap imputed with 25
        assert fp.values["III"] == 25.0
        assert fp.imputed["III"] is True
        assert fp.n_responsive == 4
        assert [fp.imputed[f] for f in FINGERS] == [False, False, True, False, False]

    def test_all_responsive_unchanged(self):
        fp = build_fingerprint(_readings({f: 140.0 for f in FINGERS}), BASELINE)
        assert all(fp.values[f] == 10.0 for f in FINGERS)
        assert not any(fp.imputed.values())
        assert fp.n_responsive == 5

    def test_single_responsive_fills_everything(self):
        fp = build_fingerprint(_readings({"II": 138.0}), BASELINE)
        assert all(fp.values[f] == 12.0 for f in FINGERS)
        assert fp.n_responsive == 1

    def test_no_responsive_channel_raises(self):
        with pytest.raises(DataError) as exc:
            build_fingerprint(_readings({}), BASELINE)
        assert str(exc.value) == "a fingerprint needs at least one finger not imputed"

    def test_requires_all_five_slots(self):
        readings = _readings({f: 140.0 for f in FINGERS})[:4]
        with pytest.raises(DataError):
            build_fingerprint(readings, BASELINE)

    def test_baseline_null(self):
        readings = _readings({f: BASELINE.codes[f] for f in FINGERS})
        fp = build_fingerprint(readings, BASELINE)
        assert averaged_fingerprint(fp) == 0.0


class TestAveragedFingerprint:
    def test_constant(self):
        fp = build_fingerprint(_readings({f: 143.0 for f in FINGERS}), BASELINE)
        assert averaged_fingerprint(fp) == 7.0

    def test_imputed_example(self):
        fp = build_fingerprint(_readings(
            {"I": 140.0, "II": 130.0, "IV": 120.0, "V": 110.0}), BASELINE)
        assert averaged_fingerprint(fp) == 25.0

    def test_mixed_signs_cancel(self):
        fp = build_fingerprint(_readings(
            {"I": 140.0, "II": 160.0, "III": 145.0, "IV": 155.0, "V": 150.0}),
            BASELINE)
        assert averaged_fingerprint(fp) == 0.0

    def test_sums_add_left_to_right_from_zero(self):
        # a compensated sum (Python >= 3.12 sum, math.fsum) keeps the two 1.0s
        values = {"I": 1e16, "II": 1.0, "III": 1.0, "IV": -1e16, "V": 0.5}
        assert total(values.values()) == 0.5
        assert math.fsum(values.values()) == 2.5
        assert list(Fingerprint(dict(list(values.items())[:4])).values.values()) == [
            1e16, 1.0, 1.0, -1e16, 0.0]
        fp = Fingerprint(values)
        assert averaged_fingerprint(fp) == 0.5 / 5
        squares = [(0.3 * abs(v)) ** 2 for v in values.values()]
        folded = ((((0.0 + squares[0]) + squares[1]) + squares[2]) + squares[3]) + squares[4]
        assert propagated_uncertainty(fp) == math.sqrt(folded) / 5


class TestUncertainty:
    def test_pressure_uncertainty(self):
        assert pressure_uncertainty(0.0) == 0.0
        assert pressure_uncertainty(40.0) == pytest.approx(12.0)
        assert pressure_uncertainty(-10.0) == pytest.approx(3.0)

    def test_five_equal_channels(self):
        fp = build_fingerprint(_readings({f: 140.0 for f in FINGERS}), BASELINE)
        expected = 0.3 * math.sqrt(5 * 100.0) / 5
        assert propagated_uncertainty(fp) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.342, abs=5e-4)
        # reduced by exactly 1/sqrt(5) versus a single channel
        ratio = propagated_uncertainty(fp) / pressure_uncertainty(10.0)
        assert ratio == pytest.approx(1 / math.sqrt(5), abs=1e-12)

    def test_single_channel_degenerates(self):
        fp = build_fingerprint(_readings({"III": 140.0}), BASELINE)
        assert propagated_uncertainty(fp) == pytest.approx(3.0)

    def test_zero_deltas(self):
        fp = build_fingerprint(_readings({f: 150.0 for f in FINGERS}), BASELINE)
        assert propagated_uncertainty(fp) == 0.0

    def test_imputed_channels_carry_no_information(self):
        full = build_fingerprint(_readings({f: 140.0 for f in FINGERS}), BASELINE)
        partial = build_fingerprint(_readings(
            {"I": 140.0, "II": 140.0, "III": 140.0}), BASELINE)
        # same per-channel sigma, fewer independent channels -> larger
        assert propagated_uncertainty(partial) > propagated_uncertainty(full)

    def test_upper_bound(self):
        fp = build_fingerprint(_readings(
            {"I": 142.0, "II": 131.0, "V": 119.0}), BASELINE)
        deltas = [fp.values[f] for f in FINGERS if not fp.imputed[f]]
        bound = 0.3 / fp.n_responsive * math.sqrt(sum(d * d for d in deltas))
        assert propagated_uncertainty(fp) <= bound + 1e-12

    def test_scale_equivariance(self):
        a = build_fingerprint(_readings(
            {"I": 140.0, "II": 130.0, "IV": 120.0}), BASELINE)
        b = build_fingerprint(_readings(
            {"I": 120.0, "II": 90.0, "IV": 60.0}), BASELINE)  # deltas x3
        assert averaged_fingerprint(b) == pytest.approx(3 * averaged_fingerprint(a))
        assert propagated_uncertainty(b) == pytest.approx(
            3 * propagated_uncertainty(a))


class TestSerialization:
    def test_record_round_trip(self):
        fp = build_fingerprint(_readings(
            {"I": 140.0, "II": 130.0, "IV": 120.0, "V": 110.0}), BASELINE,
            material_label="olive_oil")
        back = fingerprint_from_record(fingerprint_record(fp))
        assert back == fp

    def test_record_carries_summary_fields(self):
        fp = build_fingerprint(_readings({f: 140.0 for f in FINGERS}), BASELINE)
        record = fingerprint_record(fp)
        assert record["averaged"] == 10.0
        assert record["uncertainty"] == pytest.approx(propagated_uncertainty(fp))

    def test_averaged_and_uncertainty_of_a_file_are_recomputed(self, tmp_path):
        fp = build_fingerprint(_readings({"I": 140.0, "II": 130.0}), BASELINE)
        path, again = tmp_path / "fps.json", tmp_path / "again.json"
        path.write_text(json.dumps([dict(fingerprint_record(fp), averaged=999.0,
                                         uncertainty=-1.0)]))
        save_fingerprints(load_fingerprints(path), again)
        [record] = json.loads(again.read_text())
        assert record["averaged"] == averaged_fingerprint(fp) == 15.0
        assert record["uncertainty"] == propagated_uncertainty(fp)

    def test_empty_label_in_a_file_is_refused(self, tmp_path):
        # it was once read back and shown as fingerprint-1
        record = dict(fingerprint_record(build_fingerprint(_readings({"I": 140.0}), BASELINE)),
                      material="")
        path = tmp_path / "fps.json"
        path.write_text(json.dumps([record]))
        error = f"{path}: entry 0: material label '' must be a non-empty string UTF-8 can encode"
        with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
            load_fingerprints(path)

    def test_file_round_trip(self, tmp_path):
        fps = [build_fingerprint(_readings({f: 140.0 for f in FINGERS}), BASELINE,
                                 material_label="a"),
               build_fingerprint(_readings({"II": 100.0}), BASELINE,
                                 material_label="b")]
        path = tmp_path / "fps.json"
        save_fingerprints(fps, path)
        assert load_fingerprints(path) == fps


class TestFingerprintValidation:
    def test_must_cover_all_fingers(self):
        record = {"values": {"I": 1.0}, "imputed": {"I": False}, "n_responsive": 1}
        with pytest.raises(DataError, match="^fingerprint must cover exactly the five fingers$"):
            fingerprint_from_record(record)

    def test_unknown_finger_is_refused(self):
        with pytest.raises(DataError, match="^unknown finger 'VI' in fingerprint$"):
            Fingerprint({"I": 1.0, "VI": 2.0})

    @pytest.mark.parametrize("imputed", [(), ("II",), ("I", "II", "III", "V")],
                             ids=["none", "one", "four"])
    def test_n_responsive_counts_the_fingers_not_imputed(self, imputed):
        fp = Fingerprint({f: 1.0 for f in FINGERS if f not in imputed})
        assert fp.n_responsive == 5 - len(imputed)
        assert fp.imputed == {f: f in imputed for f in FINGERS}

    def test_every_finger_imputed_is_refused(self):
        with pytest.raises(DataError, match="^a fingerprint needs at least one finger "
                                            "not imputed$"):
            Fingerprint({})

    @pytest.mark.parametrize("deltas", [{"I": 0.1, "II": 0.2, "III": 0.3},
                                        {"III": 0.3, "II": 0.2, "I": 0.1}],
                             ids=["finger-order", "reversed"])
    def test_imputed_fingers_hold_the_mean_added_in_finger_order(self, deltas):
        # Python 3.12's compensated sum, and 0.3 + 0.2 + 0.1, give 0.19999999999999998
        fp = Fingerprint(deltas)
        assert list(fp.deltas.items()) == [("I", 0.1), ("II", 0.2), ("III", 0.3)]
        assert list(fp.values.values()) == [0.1, 0.2, 0.3] + [0.20000000000000004] * 2
        assert fp.values["V"] == (0.1 + 0.2 + 0.3) / 3

    @pytest.mark.parametrize("flags", [dict.fromkeys(FINGERS, 0), {"I": "false"}],
                             ids=["numbers", "string"])
    def test_record_whose_imputed_flags_are_not_booleans_is_refused(self, flags):
        record = {"values": dict.fromkeys(FINGERS, 1.0),
                  "imputed": {**dict.fromkeys(FINGERS, False), **flags}, "n_responsive": 5}
        with pytest.raises(DataError, match="^imputed flags must be true or false: "):
            fingerprint_from_record(record)

    @pytest.mark.parametrize("code, value, found", [
        (10.0, 999.0, "999.0"), (10.0, 10.000000000000002, "10.000000000000002"),
        (10.0, None, "None"), (10.0, "10.0", "'10.0'"), (10.0, 10 ** 400, str(10 ** 400)),
        # True == 1.0, yet no fingerprint value is a boolean
        (1.0, True, "True")],
        ids=["far", "one-ulp", "null", "string", "int-beyond-float", "boolean"])
    def test_record_whose_imputed_value_is_not_the_mean_is_refused(self, code, value, found):
        record = {"material": "olive_oil", "values": {**dict.fromkeys(FINGERS, code), "V": value},
                  "imputed": {f: f == "V" for f in FINGERS}, "n_responsive": 4}
        error = (f"field 'values' of imputed finger V must be {code!r}, the mean of the "
                 f"fingers not imputed, found {found}")
        with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
            fingerprint_from_record(record)

    def test_record_keeps_only_the_values_of_the_fingers_not_imputed(self):
        # an int equal to the mean is accepted, and the mean is kept in its place
        record = {"material": None, "values": {"V": 25, "IV": 40, "III": 30, "II": 20, "I": 10},
                  "imputed": {f: f == "V" for f in FINGERS}, "n_responsive": 4}
        fp = fingerprint_from_record(record)
        assert fp == Fingerprint({"I": 10, "II": 20, "III": 30, "IV": 40})
        assert fp.values["V"] == 25.0 and type(fp.values["V"]) is float

    def test_overflowing_mean_is_refused(self):
        with pytest.raises(DataError, match="^fingerprint values must be finite numbers"):
            Fingerprint({"I": 1.7976931348623157e308, "II": 1.7976931348623157e308})
        # with no finger imputed, no mean is a value
        fp = Fingerprint(dict.fromkeys(FINGERS, 1.7976931348623157e308))
        assert averaged_fingerprint(fp) == math.inf

    @pytest.mark.parametrize("n_responsive, error", [
        (4, "field 'n_responsive' must be 5, the number of fingers not imputed, found 4"),
        (6, "field 'n_responsive' must be 5, the number of fingers not imputed, found 6"),
        (0, "field 'n_responsive' must be 5, the number of fingers not imputed, found 0"),
        (5.5, "field 'n_responsive' must be 5, the number of fingers not imputed, found 5.5"),
    ], ids=["4", "6", "0", "5.5"])
    def test_record_whose_n_responsive_miscounts_is_refused(self, n_responsive, error):
        record = {"values": dict.fromkeys(FINGERS, 1.0),
                  "imputed": dict.fromkeys(FINGERS, False), "n_responsive": n_responsive}
        with pytest.raises(DataError, match=f"^{re.escape(error)}$"):
            fingerprint_from_record(record)

    def test_record_of_no_finger_not_imputed_is_refused(self):
        record = {"values": dict.fromkeys(FINGERS, 1.0),
                  "imputed": dict.fromkeys(FINGERS, True), "n_responsive": 0}
        with pytest.raises(DataError, match="^a fingerprint needs at least one finger "
                                            "not imputed$"):
            fingerprint_from_record(record)

    @pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400), 2 ** 1024],
                             ids=["10**400", "-10**400", "2**1024"])
    def test_int_beyond_the_float_range_is_refused(self, value):
        with pytest.raises(DataError, match="^fingerprint values must be finite numbers"):
            Fingerprint({**dict.fromkeys(FINGERS, 1.0), "III": value})

    def test_largest_int_a_float_holds_is_accepted(self):
        fp = Fingerprint({**dict.fromkeys(FINGERS, 1.0), "III": 2 ** 1023})
        assert fp.values["III"] == 2 ** 1023

    @pytest.mark.parametrize("label", [5, b"oil", "\ud800", "oil\udcff", ""])
    def test_material_label_must_be_utf8_text(self, label):
        message = f"material label {label!r} must be a non-empty string UTF-8 can encode"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            Fingerprint(dict.fromkeys(FINGERS, 1.0), label)

    @pytest.mark.parametrize("label", [None, "olive_oil", "\u00e9\u2603\U0001f600\x00"])
    def test_material_label_may_be_any_utf8_text(self, label):
        fp = Fingerprint(dict.fromkeys(FINGERS, 1.0), label)
        assert fp.material_label == label
