"""Reader-log CSV, series persistence, the window estimator, and calibration tests."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfad.errors import DataError
from rfad.hand import FINGERS
from rfad.readlog import (CodeSeries, calibrate, channel_codes, estimate_window,
                          load_baseline, load_code_series, save_baseline, write_log,
                          write_series)
from rfad.signal import FluctuationModel, estimate_code, synthesize_series

LOG_HEADER = "timestamp_s,epc,channel,sensor_code,rssi_dbm\n"
SERIES_HEADER = "timestamp_s,channel,code\n"

# Each CSV format: its header and the form of one sample row, keyed by
# the name the test ids give to reading it.
FORMATS = {
    "read_log": (LOG_HEADER, "{},x,{},{},\n"),
    "read_series": (SERIES_HEADER, "{},{},{}\n"),
}


def _csv(fmt, *samples):
    """Text of a file of format ``fmt`` holding ``(t, channel, code)`` samples."""
    header, row = FORMATS[fmt]
    return header + "".join(row.format(*sample) for sample in samples)


def _block(channels=("I",), n=3, start=0.0):
    """A code block: ``n`` shared timestamps, one code row per channel."""
    times = start + 0.7 * np.arange(n)
    codes = np.array([200 + 10 * k + np.arange(n) for k in range(len(channels))])
    epcs = [f"E280{k:020X}" for k in range(len(channels))]
    return times, list(channels), epcs, codes


class TestReadLogRow:
    def test_optional_rssi(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(LOG_HEADER + "0.0,x,I,200,\n0.7,x,I,201,-55.5\n")
        assert list(load_code_series(path)["I"].codes) == [200, 201]

    @pytest.mark.parametrize("rssi", ["nan", "inf", "-inf", "loud"])
    def test_bad_rssi_names_the_line(self, tmp_path, rssi):
        path = tmp_path / "log.csv"
        path.write_text(LOG_HEADER + f"0.0,x,I,200,\n0.7,x,I,201,{rssi}\n")
        with pytest.raises(DataError, match=re.escape(f"{path}:3:")):
            load_code_series(path)


class TestLogRoundTrip:
    def test_lossless(self, tmp_path):
        times, channels, epcs, codes = block = _block(("I", "III"), start=0.1)
        path = tmp_path / "log.csv"
        write_log(block, path)
        series = load_code_series(path)
        assert list(series) == channels
        for channel, row in zip(channels, codes):
            assert np.array_equal(series[channel].times, times)
            assert np.array_equal(series[channel].codes, row)

    def test_rows_by_timestamp_then_channel(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(_block(("II", "IV"), n=2), path)
        assert path.read_text() == LOG_HEADER + (
            "0.0,E28000000000000000000000,II,200,\n"
            "0.0,E28000000000000000000001,IV,210,\n"
            "0.7,E28000000000000000000000,II,201,\n"
            "0.7,E28000000000000000000001,IV,211,\n")

    def test_header_and_line_endings(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(_block(), path)
        raw = path.read_bytes()
        assert raw.startswith(b"timestamp_s,epc,channel,sensor_code,rssi_dbm\n")
        assert b"\r" not in raw

    def test_lists_and_arrays_write_the_same_bytes(self, tmp_path):
        times, channels, epcs, codes = _block(("I", "III", "V"), n=4, start=0.1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log((times, channels, epcs, codes), a)
        write_log((times.tolist(), channels, epcs, codes.tolist()), b)
        assert a.read_bytes() == b.read_bytes()
        assert b"np." not in a.read_bytes()

    def test_byte_identical_rewrites(self, tmp_path):
        block = _block(("II",), n=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log(block, a)
        write_log(block, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_code_series(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(LOG_HEADER)
        with pytest.raises(DataError, match="no rows"):
            load_code_series(path)

    def test_bad_code_reports_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(LOG_HEADER + "0.0,x,I,200,\n0.7,x,I,600,\n")
        with pytest.raises(DataError, match=":3:"):
            load_code_series(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(LOG_HEADER + "zero,x,I,200,\n")
        with pytest.raises(DataError, match=":2:"):
            load_code_series(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("time,id,ch,code,rssi\n0,x,I,200,\n")
        with pytest.raises(DataError, match="header"):
            load_code_series(path)


class TestSeriesFromRows:
    def test_interleaved_channels_sorted(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(_csv("read_log", (1.4, "II", 203), (0.0, "I", 200),
                             (0.7, "II", 202), (0.7, "I", 201)))
        series = load_code_series(path)
        assert set(series) == {"I", "II"}
        assert list(series["I"].codes) == [200, 201]
        assert list(series["II"].codes) == [202, 203]
        assert list(series["II"].times) == [0.7, 1.4]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(LOG_HEADER + "0.7,x,I,200,\n0.7,y,I,201,\n")
        with pytest.raises(DataError, match="duplicate"):
            load_code_series(path)

    def test_ingest_log(self, tmp_path):
        path = tmp_path / "log.csv"
        write_log(_block(("IV",), n=4), path)
        series = load_code_series(path)
        assert len(series["IV"]) == 4


class TestEstimateWindow:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(st.lists(st.integers(0, 511), min_size=1, max_size=60))
    def test_matches_numpy_mean_and_median(self, codes):
        x = np.array(codes, dtype=float)
        for window in range(1, len(codes) + 1):
            assert estimate_window(codes, window, "mean") == float(np.mean(x[:window]))
            assert estimate_window(codes, window, "median") == float(np.median(x[:window]))


class TestSeriesFiles:
    def test_round_trip(self, tmp_path):
        model = FluctuationModel()
        original = {ch: synthesize_series(model, 21.0, seed=i)
                    for i, ch in enumerate(("I", "III", "V"))}
        path = tmp_path / "series.csv"
        write_series(original, path)
        loaded = load_code_series(path)
        assert set(loaded) == set(original)
        for ch in original:
            assert np.array_equal(loaded[ch].codes, original[ch].codes)
            assert np.array_equal(loaded[ch].times, original[ch].times)

    def test_header(self, tmp_path):
        path = tmp_path / "series.csv"
        write_series({"I": synthesize_series(FluctuationModel(), 7.0, seed=0)}, path)
        assert path.read_text().splitlines()[0] == "timestamp_s,channel,code"

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(SERIES_HEADER)
        with pytest.raises(DataError, match="no rows"):
            load_code_series(path)


class TestSampleChecks:
    @pytest.mark.parametrize("timestamp,channel", [
        ("nan", "I"), ("inf", "I"), ("-inf", "I"), ("-1.0", "I"), ("0.7", "VI")])
    @pytest.mark.parametrize("reader", sorted(FORMATS))
    def test_both_formats_name_the_line(self, tmp_path, reader, timestamp, channel):
        path = tmp_path / "in.csv"
        path.write_text(_csv(reader, (0.0, "I", 200), (timestamp, channel, 200)))
        with pytest.raises(DataError, match=re.escape(f"{path}:3:")):
            load_code_series(path)

    @pytest.mark.parametrize("code", ["600", "512", "-1"])
    @pytest.mark.parametrize("reader", sorted(FORMATS))
    def test_code_outside_storage_names_the_line(self, tmp_path, reader, code):
        path = tmp_path / "in.csv"
        path.write_text(_csv(reader, (0.0, "I", 200), (0.7, "I", code)))
        with pytest.raises(DataError, match=re.escape(f"{path}:3: sensor_code")):
            load_code_series(path)

    @pytest.mark.parametrize("text", [
        "timestamp_s,epc,channel,sensor_code,rssi_dbm\n0.0,x,I,200,\n0.0,x,I,201,\n",
        "timestamp_s,channel,code\n0.0,I,200\n0.0,I,201\n"])
    def test_duplicate_timestamp_names_the_file(self, tmp_path, text):
        path = tmp_path / "dup.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=re.escape(f"{path}: duplicate")):
            load_code_series(path)

    @pytest.mark.parametrize("body,error", [
        (b"0.0,I,200\n\xff\xfe,I,201\n", ": not UTF-8 text"),
        (b"0.0,I," + b"2" * 200_000 + b"\n", ":2: field larger")])
    def test_undecodable_or_oversized_input(self, tmp_path, body, error):
        path = tmp_path / "in.csv"
        path.write_bytes(b"timestamp_s,channel,code\n" + body)
        with pytest.raises(DataError, match=re.escape(f"{path}{error}")):
            load_code_series(path)


def _ragged(**lengths):
    """Constant series of the given length per channel."""
    return {ch: CodeSeries(times=0.7 * np.arange(n), codes=np.full(n, 200))
            for ch, n in lengths.items()}


class TestChannelCodes:
    @pytest.mark.parametrize("estimator", ["mean", "median"])
    def test_equals_estimate_code_per_channel(self, estimator):
        rng = np.random.default_rng(8)
        for _ in range(200):
            window = int(rng.integers(1, 30))
            present = [ch for ch in FINGERS if rng.random() < 0.6] or ["III"]
            series_set = {}
            for ch in rng.permutation(present).tolist():  # any insertion order
                n = window + int(rng.integers(0, 40))
                series_set[ch] = CodeSeries(times=0.7 * np.arange(n),
                                            codes=rng.integers(0, 512, n))
            codes = channel_codes(series_set, window, estimator)
            assert list(codes) == present
            assert codes == {ch: estimate_code(series, window, estimator)
                             for ch, series in series_set.items()}

    def test_short_channel_is_named(self):
        with pytest.raises(DataError, match="^channel IV has 5 samples, needs >= 10$"):
            channel_codes(_ragged(I=12, IV=5), 10, "mean")

    @pytest.mark.parametrize("window", [0, -1])
    def test_bad_window_is_a_data_error(self, window):
        with pytest.raises(DataError, match="window must be >= 1"):
            channel_codes(_ragged(I=12, IV=5), window, "mean")


class TestCalibrate:
    def _constant_series(self, code, channels=FINGERS, n=12):
        return {ch: CodeSeries(times=np.arange(n) * 0.7,
                               codes=np.full(n, code))
                for ch in channels}

    def test_constant_air_series(self):
        baseline = calibrate(self._constant_series(150), 10, "mean")
        assert all(baseline.codes[ch] == 150.0 for ch in FINGERS)
        assert baseline.gaps == ()

    def test_missing_channel_reported_as_gap(self):
        baseline = calibrate(self._constant_series(150, channels=("I", "II", "IV", "V")),
                             10, "mean")
        assert baseline.gaps == ("III",)
        assert "III" not in baseline.codes

    def test_sawtooth_air_series_near_mean(self):
        model = FluctuationModel(baseline=300, transient_amplitude=0.0,
                                 noise_sd=0.0)
        series = {"I": synthesize_series(model, 70.0, seed=0)}
        baseline = calibrate(series, 10, "mean")
        assert abs(baseline.codes["I"] - 300.0) <= 2.0

    def test_short_series_rejected(self):
        with pytest.raises(DataError, match="needs >= 10"):
            calibrate(self._constant_series(150, n=5), 10, "mean")

    def test_no_channels_rejected(self):
        with pytest.raises(DataError):
            calibrate({}, 10, "mean")

    def test_baseline_persistence(self, tmp_path):
        baseline = dataclasses.replace(calibrate(self._constant_series(150), 10, "mean"),
                                       timestamp="2026-08-24")
        path = tmp_path / "baseline.json"
        save_baseline(baseline, path)
        loaded = load_baseline(path)
        assert loaded.codes == baseline.codes
        assert loaded.timestamp == "2026-08-24"
        assert loaded.gaps == baseline.gaps
