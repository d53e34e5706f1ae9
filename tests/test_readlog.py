"""Reader-log CSV, series persistence, the window estimator, and calibration tests."""

import csv
import dataclasses
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
from rfad.hand import FINGERS
from rfad.ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN
from rfad.readlog import READLOG_HEADER as LOG_FIELDS
from rfad.readlog import SERIES_HEADER as SERIES_FIELDS
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


def _plain(values):
    return values.tolist() if hasattr(values, "tolist") else values


def _reference_log(block) -> str:
    """The text ``write_log`` writes, as ``csv.writer`` writes it row by row."""
    times, channels, epcs, codes = block
    rows = [_plain(row) for row in _plain(codes)]
    return csv_text(LOG_FIELDS, (
        [repr(t), epc, channel, code, ""]
        for t, column in zip(map(float, _plain(times)), zip(*rows))
        for channel, epc, code in zip(channels, epcs, column)))


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
        times, channels, epcs, codes = _block(("I", "III"), start=0.1)
        block = times, channels, ODD_EPCS[:2] if odd_epcs else epcs, codes
        path = tmp_path / "log.csv"
        write_log(block, path)
        assert path.read_text() == _reference_log(block)
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

    @pytest.mark.parametrize("labels", [
        None,
        (["I", "III", "V"], ODD_EPCS[:3]),
        (["II", "IV", "V"], ODD_EPCS[3:]),
    ])
    def test_lists_and_arrays_write_the_same_bytes(self, tmp_path, labels):
        times, channels, epcs, codes = _block(("I", "III", "V"), n=4, start=0.1)
        if labels is not None:
            channels, epcs = labels
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log((times, channels, epcs, codes), a)
        write_log((times.tolist(), channels, epcs, codes.tolist()), b)
        assert a.read_bytes() == b.read_bytes()
        assert b"np." not in a.read_bytes()
        assert a.read_bytes() == _reference_log((times, channels, epcs, codes)).encode()
        assert a.read_bytes() == _reference_log((times.tolist(), channels, epcs,
                                                 codes.tolist())).encode()

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


class TestWriteLogChecks:
    """A code block whose parts disagree is refused before any file is made."""

    @pytest.mark.parametrize("block,error", [
        (([0.0, 0.7], ["I", "II"], ["E1", "E2"], [[100, 101], [102]]),
         "channel II has 1 codes for 2 timestamps"),
        (([0.0], ["I", "II"], ["E1", "E2"], [[100, 101], [102, 103]]),
         "channel I has 2 codes for 1 timestamps"),
        (([0.0], ["I", "II"], ["E1"], [[100], [102]]),
         "2 channels, 1 EPCs, 2 code rows"),
        (([0.0], ["I"], ["E1"], [[100], [102]]),
         "1 channels, 1 EPCs, 2 code rows"),
        (([0.0, 0.7], ["I", "II", "I"], ["E1", "E2", "E3"], np.full((3, 2), 100)),
         "names a channel twice"),
    ])
    def test_refused_before_any_file(self, tmp_path, block, error):
        target = tmp_path / "log.csv"
        target.write_bytes(b"old\n")
        with pytest.raises(DataError, match=re.escape(error)):
            write_log(block, target)
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["log.csv"]


def _times(n=2):
    return [0.7 * k for k in range(n)]


class TestWriteLogRefusesWhatTheLoaderRefuses:
    """What ``write_log`` would write only for ``load_code_series`` to
    refuse is a ``DataError`` before any file is made, with the message
    the loader gives for the sample."""

    @pytest.mark.parametrize("block,error", [
        ((_times(1), ["VI"], ["E"], [[200]]), "unknown channel 'VI'"),
        ((_times(1), ["I", "{1}"], ["E", "F"], [[200], [200]]), "unknown channel '{1}'"),
        ((_times(1), ["I", 'x"y'], ["E", "F"], [[200], [200]]), "unknown channel 'x\"y'"),
        ((_times(1), [1], ["E"], [[200]]), "unknown channel 1"),
        ((_times(1), [["I"]], ["E"], [[200]]), "unknown channel ['I']"),
        ((_times(1), ["I"], [None], [[200]]), "EPCs must be strings, got None"),
        ((_times(1), ["I"], [7], [[200]]), "EPCs must be strings, got 7"),
        ((_times(2), ["I", "II"], ["E", "F"], [[200, 201], [202, 600]]),
         "sensor_code 600 outside [0, 511]"),
        ((_times(2), ["I"], ["E"], [[-1, 200]]), "sensor_code -1 outside [0, 511]"),
        ((_times(1), ["I"], ["E"], [[600.5]]), "codes must be integers, got 600.5"),
        ((_times(1), ["I"], ["E"], [[200.0]]), "codes must be integers, got 200.0"),
        ((_times(1), ["I"], ["E"], [[True]]), "codes must be integers, got True"),
        ((_times(1), ["I"], ["E"], [["200"]]), "codes must be integers, got '200'"),
        ((_times(2), ["I"], ["E"], np.array([[200.0, 201.0]])),
         "codes must be integers, got 200.0"),
        ((_times(2), ["I"], ["E"], np.array([[200, 512]])), "sensor_code 512 outside"),
        ((_times(2), ["I"], ["E"], np.array([[200, 201]], dtype=np.uint16) + 500),
         "sensor_code 700 outside"),
        ((_times(2), ["I"], ["E"], np.array([[True, False]])),
         "codes must be integers, got True"),
        (([0.0, -0.7], ["I"], ["E"], [[200, 201]]),
         "timestamp must be finite and non-negative, got -0.7"),
        (([0.0, math.nan], ["I"], ["E"], [[200, 201]]),
         "timestamp must be finite and non-negative, got nan"),
        ((np.array([0.0, math.inf]), ["I"], ["E"], np.array([[200, 201]])),
         "timestamp must be finite and non-negative, got inf"),
    ])
    def test_refused_before_any_file(self, tmp_path, block, error):
        target = tmp_path / "log.csv"
        target.write_bytes(b"old\n")
        with pytest.raises(DataError, match=re.escape(error)):
            write_log(block, target)
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["log.csv"]

    @pytest.mark.parametrize("codes", [
        [[0, 511]], np.array([[0, 511]]), np.array([[0, 511]], dtype=np.uint16),
        [np.array([0, 511])], [[np.int64(0), np.int32(511)]],
    ])
    def test_the_whole_code_range_loads_back(self, tmp_path, codes):
        write_log(([0.0, 0.7], ["V"], [""], codes), tmp_path / "log.csv")
        assert load_code_series(tmp_path / "log.csv")["V"].codes == (0, 511)


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


# ---------------------------------------------------------------------------
# The row-by-row loader that load_code_series replaced, kept as its oracle
# ---------------------------------------------------------------------------

_ORACLE_COLUMNS = {tuple(LOG_FIELDS): (0, 2, 3, 4), tuple(SERIES_FIELDS): (0, 1, 2, None)}


def _oracle_read_csv(path, headers):
    """Yield ``(lineno, fields)`` for the header row, which must be one
    of ``headers``, then for each non-empty data row, which must have as
    many fields as the header."""
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if header not in [list(h) for h in headers]:
            raise DataError(f"{path}:1: bad header {header!r}")
        yield 1, header
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
            yield lineno, fields
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
_EPCS = st.sampled_from(["x", "E2800000000000000000000A"] + ODD_EPCS)
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
        LOG_HEADER + "0.7,x,I,200,\n0.7,x,I,999,\n",      # bad code after a duplicate
        LOG_HEADER + "0.0,x,I,200,\n0.0,x,I,201,\n0.7,x,II,5,\n",
        SERIES_HEADER + "0.0,II,200\n0.7,I,200\n0.0,II,201\n",
        SERIES_HEADER + "\n\n",                          # blank lines only
        LOG_HEADER + "0.0,x,I,200,\n0.7,x,I,201,\nnan,x,I,202,\n",
        SERIES_HEADER + "0.0,I,200\n0.7,II,201\ninf,I,202\n",
        LOG_HEADER + '"0.7","x,y","III","200",""\n',       # every field quoted
        SERIES_HEADER + "0.0,I,200\n0.0,I," + _OVERSIZED + "\n0.0,I,-1\n",
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
