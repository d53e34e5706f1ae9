"""Reader-log CSV, series persistence and window estimator tests."""

import csv
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfad import readlog
from rfad.errors import DataError
from rfad.files import csv_text, finite, read_text
from rfad.fluctuation import FluctuationModel, synthesize_series
from rfad.hand import FINGERS
from rfad.ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN
from rfad.readlog import READLOG_HEADER as LOG_FIELDS
from rfad.readlog import SERIES_HEADER as SERIES_FIELDS
from rfad.readlog import (CodeSeries, channel_codes, estimate_window, load_code_series,
                          write_log, write_series)
from rfad.signal import estimate_code

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


def _log(channels=("I",), n=3, start=0.0):
    """Series of ``n`` shared timestamps, one per channel, and their EPCs."""
    times = start + 0.7 * np.arange(n)
    series_set = {channel: CodeSeries(times, 200 + 10 * k + np.arange(n))
                  for k, channel in enumerate(channels)}
    return series_set, {channel: f"E280{k:020X}" for k, channel in enumerate(channels)}


def _reference_log(series_set, epcs) -> str:
    """The text ``write_log`` writes, as ``csv.writer`` writes it row by row."""
    channels = sorted(series_set, key=FINGERS.index)
    return csv_text(LOG_FIELDS, (
        [repr(t), epcs[channel], channel, series_set[channel].codes[i], ""]
        for i, t in enumerate(series_set[channels[0]].times) for channel in channels))


def _reference_series(series_set) -> str:
    """The text ``write_series`` writes, as ``csv.writer`` writes it row by row."""
    return csv_text(SERIES_FIELDS, (
        [repr(t), channel, code]
        for channel in sorted(series_set, key=FINGERS.index)
        for t, code in zip(series_set[channel].times, series_set[channel].codes)))


# EPCs that csv.writer quotes or that hold str.format or %-format syntax
ODD_EPCS = ["a,b", 'say "hi"', "{0}", "}{", "%s%%", ""]


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
    @pytest.mark.parametrize("odd_epcs", [False, True])
    def test_lossless(self, tmp_path, odd_epcs):
        series_set, epcs = _log(("I", "III"), start=0.1)
        if odd_epcs:
            epcs = dict(zip(epcs, ODD_EPCS))
        path = tmp_path / "log.csv"
        write_log(series_set, path, epcs)
        assert path.read_text() == _reference_log(series_set, epcs)
        loaded = load_code_series(path)
        assert list(loaded) == ["I", "III"]
        assert loaded == series_set

    def test_rows_by_timestamp_then_channel(self, tmp_path):
        path = tmp_path / "log.csv"
        series_set, epcs = _log(("II", "IV"), n=2)
        write_log(series_set, path, epcs)
        assert path.read_text() == LOG_HEADER + (
            "0.0,E28000000000000000000000,II,200,\n"
            "0.0,E28000000000000000000001,IV,210,\n"
            "0.7,E28000000000000000000000,II,201,\n"
            "0.7,E28000000000000000000001,IV,211,\n")

    def test_channels_in_finger_order(self, tmp_path):
        series_set, epcs = _log(("V", "I", "III"), n=2)
        path = tmp_path / "log.csv"
        write_log(series_set, path, epcs)
        assert path.read_text() == _reference_log(series_set, epcs)
        assert list(load_code_series(path)) == ["I", "III", "V"]

    def test_header_and_line_endings(self, tmp_path):
        path = tmp_path / "log.csv"
        series_set, epcs = _log()
        write_log(series_set, path, epcs)
        raw = path.read_bytes()
        assert raw.startswith(b"timestamp_s,epc,channel,sensor_code,rssi_dbm\n")
        assert b"\r" not in raw

    @pytest.mark.parametrize("epcs", [None, ODD_EPCS[:3], ODD_EPCS[3:]])
    def test_lists_and_arrays_write_the_same_bytes(self, tmp_path, epcs):
        times = 0.1 + 0.7 * np.arange(4)
        codes = np.array([[200, 201, 202, 203], [0, 511, 7, 8], [300, 301, 302, 303]])
        channels = ["I", "III", "V"]
        epcs = dict(zip(channels, epcs or ["E1", "E2", "E3"]))
        a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
        arrays = dict(zip(channels, (CodeSeries(times, row) for row in codes.astype(np.uint16))))
        write_log(arrays, a, epcs)
        write_log(dict(zip(channels, (CodeSeries(times.tolist(), row)
                                      for row in codes.tolist()))), b, epcs)
        write_log(dict(zip(channels, (CodeSeries(times, row) for row in 1.0 * codes))), c, epcs)
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()
        assert b"np." not in a.read_bytes()
        assert a.read_bytes() == _reference_log(arrays, epcs).encode()

    def test_byte_identical_rewrites(self, tmp_path):
        series_set, epcs = _log(("II",), n=5)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log(series_set, a, epcs)
        write_log(series_set, b, epcs)
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


def _one(times=(0.0,), codes=(200,)):
    return CodeSeries(times, codes)


class TestWriteLogRefusesWhatTheLoaderRefuses:
    """A set of series that would not load back as written, or a missing
    or unwritable EPC, is a ``DataError`` before any file is made."""

    @pytest.mark.parametrize("series_set,epcs,error", [
        ({}, {}, "no code series to write"),
        ({"VI": _one()}, {"VI": "E"}, "unknown channel 'VI'"),
        ({"I": _one(), "{1}": _one()}, {"I": "E", "{1}": "F"}, "unknown channel '{1}'"),
        ({"I": _one(), 'x"y': _one()}, {"I": "E", 'x"y': "F"}, "unknown channel 'x\"y'"),
        ({1: _one()}, {1: "E"}, "unknown channel 1"),
        ({("I",): _one()}, {("I",): "E"}, "unknown channel ('I',)"),
        ({"I": _one([], [])}, {"I": "E"}, "channel I has no samples"),
        ({"I": _one([], []), "II": _one([], [])}, {"I": "E", "II": "F"},
         "channel I has no samples"),
        ({"I": _one(), "II": _one()}, {"I": "E1"}, "no EPC for channel II"),
        ({"I": _one()}, {"II": "E1"}, "no EPC for channel I"),
        ({"I": _one()}, {"I": None}, "EPCs must be one-line strings UTF-8 can encode, got None"),
        ({"I": _one()}, {"I": 7}, "EPCs must be one-line strings UTF-8 can encode, got 7"),
        ({"I": _one()}, {"I": "\r"}, "EPCs must be one-line strings UTF-8 can encode, got '\\r'"),
        ({"I": _one(), "II": _one()}, {"I": "E", "II": "a\ud800"},
         "EPCs must be one-line strings UTF-8 can encode, got 'a\\ud800'"),
        ({"I": _one(), "II": _one()}, {"I": "E", "II": "a\nb"},
         "EPCs must be one-line strings UTF-8 can encode, got 'a\\nb'"),
        ({"I": _one([0.0, 0.7], [100, 101]), "II": _one([0.0], [102])},
         {"I": "E1", "II": "E2"}, "channel II has other timestamps than channel I"),
        ({"II": _one([0.0], [100]), "I": _one([0.7], [102])},
         {"I": "E1", "II": "E2"}, "channel II has other timestamps than channel I"),
    ])
    def test_refused_before_any_file(self, tmp_path, series_set, epcs, error):
        target = tmp_path / "log.csv"
        target.write_bytes(b"old\n")
        with pytest.raises(DataError, match=re.escape(error)):
            write_log(series_set, target, epcs)
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["log.csv"]

    @pytest.mark.parametrize("codes", [
        [0, 511], np.array([0, 511]), np.array([0, 511], dtype=np.uint16),
        [np.int64(0), np.int32(511)], [0.0, 511.0], np.array([0.0, 511.0]),
    ])
    def test_the_whole_code_range_loads_back(self, tmp_path, codes):
        write_log({"V": CodeSeries([0.0, 0.7], codes)}, tmp_path / "log.csv", {"V": ""})
        assert (tmp_path / "log.csv").read_text().splitlines()[1:] == [
            "0.0,,V,0,", "0.7,,V,511,"]
        assert load_code_series(tmp_path / "log.csv")["V"].codes == (0, 511)


_TIMES_RULE = "timestamps must be finite, non-negative and strictly increasing"


class TestCodeSeriesRefusesWhatTheLoaderRefuses:
    """Samples no file may hold cannot make a ``CodeSeries``, so neither
    writer sees them."""

    @pytest.mark.parametrize("times,codes,error", [
        ([0.0, 0.7], [202, 600], "codes outside storage range [0, 511]"),
        ([0.0, 0.7], [-1, 200], "codes outside storage range [0, 511]"),
        ([0.0], [600.5], "codes must be integers, got 600.5"),
        ([0.0], [True], "codes must be integers, got True"),
        ([0.0], ["200"], "codes must be integers, got '200'"),
        ([0.0, 0.7], np.array([200, 512]), "codes outside storage range"),
        ([0.0, 0.7], np.array([200, 201], dtype=np.uint16) + 500, "codes outside storage range"),
        ([0.0, 0.7], np.array([True, False]), "codes must be integers, got True"),
        ([0.0, -0.7], [200, 201], _TIMES_RULE),
        ([0.0, math.nan], [200, 201], _TIMES_RULE),
        (np.array([0.0, math.inf]), [200, 201], _TIMES_RULE),
        ([-0.7, 0.0], [200, 201], _TIMES_RULE),
        (np.array([-0.7]), [200], _TIMES_RULE),
        ([0.7, 0.7], [200, 201], _TIMES_RULE),
        ([0.7, 0.0], [200, 201], _TIMES_RULE),
        ([0.0, 0.7], [100], "times and codes must be 1-D sequences of equal length"),
    ])
    def test_refused(self, times, codes, error):
        with pytest.raises(DataError, match=re.escape(error)):
            CodeSeries(times, codes)


class TestWriteSeriesRefusesWhatTheLoaderRefuses:
    @pytest.mark.parametrize("series_set,error", [
        ({}, "no code series to write"),
        ({"VI": CodeSeries([0.0], [200])}, "unknown channel 'VI'"),
        ({"I": CodeSeries([0.0], [200]), 3: CodeSeries([0.0], [200])}, "unknown channel 3"),
        ({"I": CodeSeries([], [])}, "channel I has no samples"),
        ({"I": CodeSeries([0.0], [200]), "II": CodeSeries([], [])},
         "channel II has no samples"),
    ])
    def test_refused_before_any_file(self, tmp_path, series_set, error):
        target = tmp_path / "series.csv"
        target.write_bytes(b"old\n")
        with pytest.raises(DataError, match=re.escape(error)):
            write_series(series_set, target)
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["series.csv"]


# strictly increasing non-negative timestamps, and code rows to match
_RISING_TIMES = st.lists(st.floats(0.0, 1e12, allow_nan=False), min_size=1,
                         max_size=8, unique=True).map(sorted)
_CODE = st.integers(CODE_STORAGE_MIN, CODE_STORAGE_MAX)


@st.composite
def _logs(draw):
    """Series of a few channels over shared timestamps, and their EPCs."""
    times = draw(_RISING_TIMES)
    channels = draw(st.lists(st.sampled_from(FINGERS), min_size=1, max_size=5, unique=True))
    epc = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=6)
    series_set = {channel: CodeSeries(times, draw(st.lists(_CODE, min_size=len(times),
                                                           max_size=len(times))))
                  for channel in channels}
    return series_set, {channel: draw(epc) for channel in channels}


@st.composite
def _series_sets(draw):
    channels = draw(st.lists(st.sampled_from(FINGERS), min_size=1, max_size=5, unique=True))
    series_set = {}
    for channel in channels:
        times = draw(_RISING_TIMES)
        codes = draw(st.lists(_CODE, min_size=len(times), max_size=len(times)))
        series_set[channel] = CodeSeries(times, codes)
    return series_set


class TestWritersRoundTrip:
    """Whatever a writer accepts loads back equal."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_logs())
    def test_write_log(self, log):
        series_set, epcs = log
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "log.csv")
            write_log(series_set, path, epcs)
            assert load_code_series(path) == series_set

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_series_sets())
    def test_write_series(self, series_set):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "series.csv")
            write_series(series_set, path)
            assert load_code_series(path) == series_set


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
        series_set, epcs = _log(("IV",), n=4)
        write_log(series_set, path, epcs)
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
        assert path.read_bytes() == _reference_series(original).encode()
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

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_a_line_break_in_a_field_moves_the_line(self, tmp_path, newline):
        # the bad row was once named by its count of rows, line 3
        path = tmp_path / "ml.csv"
        path.write_bytes((LOG_HEADER + '0.0,"a\nb",I,200,\n0.7,x,I,999,\n')
                         .replace("\n", newline).encode())
        with pytest.raises(DataError, match=re.escape(f"{path}:4: sensor_code 999")):
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
        pytest.param(b"0.0,I," + b"2" * 200_000 + b"\n", ":2: field larger",
                     id="oversized-field")])
    def test_undecodable_or_oversized_input(self, tmp_path, body, error):
        path = tmp_path / "in.csv"
        path.write_bytes(b"timestamp_s,channel,code\n" + body)
        with pytest.raises(DataError, match=re.escape(f"{path}{error}")):
            load_code_series(path)


# ---------------------------------------------------------------------------
# The row-by-row loader that load_code_series replaced, kept as its oracle
# ---------------------------------------------------------------------------

_ORACLE_COLUMNS = {tuple(LOG_FIELDS): (0, 2, 3, 4), tuple(SERIES_FIELDS): (0, 1, 2, None)}


def _oracle_read_csv(path, headers):
    """Yield ``(lineno, fields)``, ``lineno`` the line a row starts on, for
    the header row, which must be one of ``headers``, then for each
    non-empty data row, which must have as many fields as the header."""
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if header not in [list(h) for h in headers]:
            raise DataError(f"{path}:1: bad header {header!r}")
        yield 1, header
        lineno = reader.line_num + 1   # the line the next row starts on
        for fields in reader:
            if fields:
                if len(fields) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
                yield lineno, fields
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None


def _oracle_sample(channel: str, timestamp: float, code: int) -> tuple:
    if not 0 <= timestamp < math.inf:
        raise DataError(f"timestamp must be finite and non-negative, got {timestamp}")
    if channel not in FINGERS:
        raise DataError(f"unknown channel {channel!r}")
    if not CODE_STORAGE_MIN <= code <= CODE_STORAGE_MAX:
        raise DataError(
            f"sensor_code {code} outside [{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")
    return channel, timestamp, code


def _oracle_group(samples, source) -> dict:
    """Per-channel series from ``(channel, t, code)`` triples, sorted by time."""
    grouped: dict[str, list] = {}
    for channel, t, code in samples:
        grouped.setdefault(channel, []).append((t, code))
    out = {}
    for channel, points in grouped.items():
        times, codes = zip(*sorted(points))
        if len(set(times)) != len(times):
            raise DataError(f"{source}: duplicate timestamps on channel {channel}")
        out[channel] = CodeSeries(times, codes)
    return out


def _oracle_load(path) -> dict:
    """Per-channel series from a reader log or a code-series file."""
    rows = _oracle_read_csv(path, (LOG_FIELDS, SERIES_FIELDS))
    _, header = next(rows)
    t_col, channel_col, code_col, rssi_col = _ORACLE_COLUMNS[tuple(header)]
    samples = []
    for lineno, fields in rows:
        try:
            if rssi_col is not None and fields[rssi_col]:
                finite(fields[rssi_col])
            samples.append(_oracle_sample(fields[channel_col], float(fields[t_col]),
                                          int(fields[code_col])))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed row") from exc
    if not samples:
        raise DataError(f"{path}: file contains no rows")
    return _oracle_group(samples, path)


def _outcome(load, path):
    """What ``load(path)`` gives: its series, keys in order, or its error."""
    try:
        return repr(list(load(path).items()))
    except DataError as exc:
        return f"DataError: {exc}"


def _field(good, bad):
    """Mostly one of ``good``, sometimes one of ``bad``."""
    return st.sampled_from(good * 8 + bad)


# Fields of a sample: a small pool of timestamps repeats them, unsorted.
_TIMES = _field(["0.0", "0.7", "1.4", "2.1", "0.35", "1e-3", " 2.8", "-0.0"],
                ["nan", "inf", "-inf", "-1.0", "zero", "1e400", ""])
_CHANNEL_FIELDS = _field(list(FINGERS), ["VI", "i", ""])
_CODES = _field(["0", "200", "511", "7", " 42", "007"], ["512", "-1", "2.0", "x", ""])
# a quoted EPC may span lines, which moves the line of every row after it
_EPCS = st.sampled_from(["x", "E2800000000000000000000A", "two\nlines"] + ODD_EPCS)
_RSSI = _field(["", "", "-55.5", "0"], ["nan", "inf", "-inf", "loud"])
_OVERSIZED = "2" * 200_000   # over the csv module's field size limit


def _line(fields, quoted) -> str:
    """One CSV line: a field is quoted if it must be, or if ``quoted`` says so."""
    return ",".join('"' + f.replace('"', '""') + '"'
                    if q or any(c in f for c in ',"\n') else f
                    for f, q in zip(fields, quoted)) + "\n"


@st.composite
def _row(draw, log: bool):
    """One line of a reader log (``log``) or code-series file: mostly a
    sample, sometimes a blank line, a row of the wrong length or an
    oversized field."""
    kind = draw(st.sampled_from(["sample"] * 20 + ["blank", "short", "long", "oversized"]))
    if kind == "blank":
        return "\n"
    t, channel, code = draw(_TIMES), draw(_CHANNEL_FIELDS), draw(_CODES)
    fields = [t, draw(_EPCS), channel, code, draw(_RSSI)] if log else [t, channel, code]
    if kind == "short":
        fields.pop()
    elif kind == "long":
        fields.append("")
    elif kind == "oversized":
        fields[-1] = _OVERSIZED
    return _line(fields, draw(st.lists(st.booleans(), min_size=len(fields),
                                       max_size=len(fields))))


@st.composite
def _dirty_text(draw):
    """A header (rarely a wrong one or none) and rows from small pools of good
    and bad fields."""
    header = draw(st.sampled_from(["log"] * 8 + ["series"] * 8 + ["bad", "empty"]))
    if header == "empty":
        return ""
    if header == "bad":
        return "time,ch,code\n0.0,I,200\n"
    log = header == "log"
    head = ",".join(LOG_FIELDS if log else SERIES_FIELDS) + "\n"
    return head + "".join(draw(st.lists(_row(log), max_size=12)))


@st.composite
def _clean_text(draw):
    """Valid samples of a few channels at distinct times per channel: either
    cycled through the channels at shared timestamps, as ``write_log``
    writes them, or in any order."""
    log = draw(st.booleans())
    channels = draw(st.lists(st.sampled_from(FINGERS), min_size=1, max_size=5,
                             unique=True))
    times = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8, unique=True))
    rows = [(t, ch, draw(st.integers(CODE_STORAGE_MIN, CODE_STORAGE_MAX)))
            for t in times for ch in channels]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    head = ",".join(LOG_FIELDS if log else SERIES_FIELDS) + "\n"
    return head + "".join(
        _line([repr(t), "E1", ch, str(code), ""] if log else [repr(t), ch, str(code)],
              [False] * 5)
        for t, ch, code in rows)


class TestLoaderMatchesRowByRow:
    @settings(derandomize=True, max_examples=600, deadline=None, database=None)
    @given(_dirty_text() | _clean_text())
    def test_same_series_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "in.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            expected = _outcome(_oracle_load, path)
            assert _outcome(load_code_series, path) == expected
            # rows read a few per step, so a text spans several steps
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(readlog, "_CHUNK_ROWS", 2)
                assert _outcome(load_code_series, path) == expected

    @pytest.mark.parametrize("text", [
        pytest.param(LOG_HEADER + "0.7,x,I,200,\n0.7,x,I,999,\n",
                     id="bad-code-after-a-duplicate"),
        pytest.param(LOG_HEADER + "0.0,x,I,200,\n0.0,x,I,201,\n0.7,x,II,5,\n",
                     id="duplicate-then-other-channel"),
        pytest.param(SERIES_HEADER + "0.0,II,200\n0.7,I,200\n0.0,II,201\n",
                     id="duplicate-across-other-channel"),
        pytest.param(SERIES_HEADER + "\n\n", id="blank-lines-only"),
        pytest.param(LOG_HEADER + "0.0,x,I,200,\n0.7,x,I,201,\nnan,x,I,202,\n",
                     id="nan-timestamp"),
        pytest.param(SERIES_HEADER + "0.0,I,200\n0.7,II,201\ninf,I,202\n",
                     id="inf-timestamp"),
        pytest.param(LOG_HEADER + '"0.7","x,y","III","200",""\n', id="every-field-quoted"),
        pytest.param(SERIES_HEADER + "0.0,I,200\n0.0,I," + _OVERSIZED + "\n0.0,I,-1\n",
                     id="oversized-field"),
        pytest.param(SERIES_HEADER + "0.0,I,200\n0.7,I,600\n0.0,I," + _OVERSIZED + "\n",
                     id="bad-row-then-syntax-error"),
        pytest.param(SERIES_HEADER + "\n\n" + "".join(f"{k},I,200\n"
                                                      for k in range(readlog._CHUNK_ROWS))
                     + "\n9e9,I,512\n", id="bad-row-in-second-chunk-after-blank-lines"),
        pytest.param("timestamp_s,channel," + _OVERSIZED + "\n0.0,I,200\n",
                     id="oversized-header-field"),
        pytest.param(SERIES_HEADER + "".join(f"{k},I,200\n" for k in range(readlog._CHUNK_ROWS))
                     + "0.0,I," + _OVERSIZED + "\n", id="syntax-error-after-a-full-chunk"),
        pytest.param(SERIES_HEADER + "".join(f"{k},I,200\n" for k in range(readlog._CHUNK_ROWS))
                     + "9e9,I\n", id="short-row-opens-second-chunk"),
        # a row's line is the one it starts on, past the line breaks of the rows before
        pytest.param(LOG_HEADER + '0.0,"a\nb",I,200,\n0.7,x,I,999,\n',
                     id="bad-row-after-a-line-break-in-a-field"),
        pytest.param(LOG_HEADER + '0.0,"a\n\nb",I,200,\n\n"0.7\n",x,I\n',
                     id="short-row-after-line-breaks-in-fields"),
    ])
    def test_examples(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        assert _outcome(load_code_series, path) == _outcome(_oracle_load, path)


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


    def test_no_channels_rejected(self):
        with pytest.raises(DataError, match="^no channels present in the input$"):
            channel_codes({}, 10, "mean")
