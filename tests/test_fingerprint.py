"""Differential codes, imputation, and uncertainty propagation tests."""

import math
import re

import pytest

from rfad.errors import DataError, HandUnreadError, UncalibratedChannelError
from rfad.fingerprint import (CalibrationBaseline, ChannelReading, Fingerprint,
                              averaged_fingerprint, build_fingerprint,
                              fingerprint_from_record,
                              fingerprint_record, imputed_values, load_fingerprints,
                              pressure_uncertainty, propagated_uncertainty,
                              save_fingerprints, total)
from rfad.hand import FINGERS

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
        with pytest.raises(HandUnreadError):
            build_fingerprint(_readings({}), BASELINE)

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
        assert imputed_values(dict(list(values.items())[:4])) == [
            1e16, 1.0, 1.0, -1e16, 0.0]
        fp = Fingerprint(values=values, imputed=dict.fromkeys(FINGERS, False),
                         n_responsive=5)
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
        deltas = fp.responsive_values()
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
        with pytest.raises(DataError):
            Fingerprint(values={"I": 1.0}, imputed={"I": False}, n_responsive=1)

    def test_n_responsive_range(self):
        values = {f: 1.0 for f in FINGERS}
        imputed = {f: False for f in FINGERS}
        with pytest.raises(DataError):
            Fingerprint(values=values, imputed=imputed, n_responsive=0)
        with pytest.raises(DataError):
            Fingerprint(values=values, imputed=imputed, n_responsive=6)

    @pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400), 2 ** 1024],
                             ids=["10**400", "-10**400", "2**1024"])
    def test_int_beyond_the_float_range_is_refused(self, value):
        with pytest.raises(DataError, match="^fingerprint values must be finite numbers"):
            Fingerprint(values={**dict.fromkeys(FINGERS, 1.0), "III": value},
                        imputed=dict.fromkeys(FINGERS, False), n_responsive=5)

    def test_largest_int_a_float_holds_is_accepted(self):
        fp = Fingerprint(values={**dict.fromkeys(FINGERS, 1.0), "III": 2 ** 1023},
                         imputed=dict.fromkeys(FINGERS, False), n_responsive=5)
        assert fp.values["III"] == 2 ** 1023

    @pytest.mark.parametrize("label", [5, b"oil", "\ud800", "oil\udcff"])
    def test_material_label_must_be_utf8_text(self, label):
        message = f"material label {label!r} must be None or a string UTF-8 can encode"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            Fingerprint(values=dict.fromkeys(FINGERS, 1.0),
                        imputed=dict.fromkeys(FINGERS, False), n_responsive=5,
                        material_label=label)

    @pytest.mark.parametrize("label", [None, "", "olive_oil", "\u00e9\u2603\U0001f600\x00"])
    def test_material_label_may_be_any_utf8_text(self, label):
        fp = Fingerprint(values=dict.fromkeys(FINGERS, 1.0),
                         imputed=dict.fromkeys(FINGERS, False), n_responsive=5,
                         material_label=label)
        assert fp.material_label == label
