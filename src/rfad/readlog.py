"""Code series: their type, their estimate, and their files.

``CodeSeries`` holds the timestamped integer sensor codes of one
channel as tuples of Python floats and ints. ``estimate_window`` is the
one estimator of a channel's code: the mean or the median of the
leading ``window`` codes, in pure Python. Nothing here imports numpy,
so ``rfad calibrate`` and ``rfad fingerprint`` start without it.

Two CSV formats carry the sensor codes, through ``rfad.files``:

* read log: ``timestamp_s,epc,channel,sensor_code,rssi_dbm``
* code series: ``timestamp_s,channel,code``

``write_log`` and ``write_series`` stream each file from one line
template (the constant fields quoted by ``csv``, the timestamps and codes
filled in by ``str.format``) through the one atomic writer; the bytes are
those ``csv.writer`` writes. ``load_code_series`` reads both formats; the
header row picks the columns. It parses the text once and reads it
column by column: each sample is checked alike in bulk (finite
non-negative timestamp, known channel, code in storage range), and a
read log's ``rssi_dbm`` must be empty or finite. ``write_log`` refuses,
before any file is made, a block that breaks the same column rules. If a check fails, the
text is read again row by row, so each error still names the first bad
``path:line``. Samples are grouped per channel and sorted by timestamp;
a timestamp repeated on one channel is an error.

``channel_codes`` turns a set of series into one code per channel with
the session's ``window`` and ``estimator``; it is the estimate both
``calibrate`` (the air baseline) and ``rfad fingerprint`` (the touched
codes) read, so the two sides of a differential code always agree. A
channel with fewer than ``window`` samples is an error that names it.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import operator
from dataclasses import dataclass
from itertools import chain, compress, islice
from typing import Literal, Mapping, NoReturn, Sequence

from .errors import DataError
from .files import csv_text, finite, read_json, read_text, write_json, write_lines
from .fingerprint import CalibrationBaseline
from .hand import FINGERS
from .ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN

Estimator = Literal["mean", "median"]

# Most samples one series may hold (about eight days at the default
# sample period); a block of five such series takes a few hundred MB.
MAX_SERIES_SAMPLES = 1_000_000


def _plain(values):
    """``values``, with an array or numpy scalar turned into Python numbers."""
    return values.tolist() if hasattr(values, "tolist") else values


def _code(value) -> int:
    """One storage code as a Python int: an integral, finite number, not a bool."""
    value = _plain(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise DataError(f"codes must be integers, got {value!r}")


@dataclass(frozen=True)
class CodeSeries:
    """Timestamped integer sensor codes for one channel.

    Any 1-D sequences or arrays may be given; they are stored as tuples
    of Python floats and ints. The times must be finite and strictly
    increasing, and every code an integral number (not a bool) in the
    storage range.
    """

    times: tuple
    codes: tuple

    def __post_init__(self):
        try:
            times = tuple(map(float, _plain(self.times)))
            codes = tuple(_plain(self.codes))
        except (TypeError, ValueError):
            raise DataError("times and codes must be 1-D sequences of numbers") from None
        if not set(map(type, codes)) <= {int}:
            codes = tuple(map(_code, codes))
        if len(times) != len(codes):
            raise DataError("times and codes must be 1-D sequences of equal length")
        if not (all(map(math.isfinite, times))
                and all(map(operator.lt, times, times[1:]))):
            raise DataError("timestamps must be finite and strictly increasing")
        if codes and not CODE_STORAGE_MIN <= min(codes) <= max(codes) <= CODE_STORAGE_MAX:
            raise DataError(
                f"codes outside storage range [{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def _checked(cls, times: list, codes: list) -> "CodeSeries":
        """A series of Python floats and ints that already hold what
        ``__post_init__`` checks; ``load_code_series`` checks them in bulk."""
        series = object.__new__(cls)
        object.__setattr__(series, "times", tuple(times))
        object.__setattr__(series, "codes", tuple(codes))
        return series


def estimate_window(codes: Sequence[int], window: int, estimator: Estimator) -> float:
    """Mean or median of the first ``window`` of the integer ``codes``.

    The median is the middle value of the sorted window, or the mean of
    its two middle values. Integer sums are exact, so both equal, bit
    for bit, what ``np.mean`` and ``np.median`` give for the window.
    """
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    if window > len(codes):
        raise DataError(f"window {window} exceeds series length {len(codes)}")
    if estimator == "mean":
        return sum(codes[:window]) / window
    if estimator == "median":
        return sorted_median(sorted(codes[:window]))
    raise DataError(f"unknown estimator {estimator!r}")


def sorted_median(head: Sequence[int]) -> float:
    """Median of the sorted, non-empty integer ``head``."""
    middle = len(head) // 2
    return float(head[middle]) if len(head) % 2 else (head[middle - 1] + head[middle]) / 2


READLOG_HEADER = ["timestamp_s", "epc", "channel", "sensor_code", "rssi_dbm"]
SERIES_HEADER = ["timestamp_s", "channel", "code"]

# header -> columns of (timestamp, channel, code, rssi or None)
_COLUMNS = {tuple(READLOG_HEADER): (0, 2, 3, 4), tuple(SERIES_HEADER): (0, 1, 2, None)}

# Each channel name mapped to itself: one lookup checks a name and makes
# every row of a channel share one string.
_CHANNELS = {channel: channel for channel in FINGERS}

# Rows parsed per step of ``load_code_series``: their text fields are
# dropped once the step's columns are converted.
_CHUNK_ROWS = 1 << 14


def _escaped(field) -> str:
    """``field`` as text that ``str.format`` turns back into itself."""
    return str(field).replace("{", "{{").replace("}", "}}")


def write_log(block, path) -> None:
    """Write the code block ``(times, channels, epcs, codes)``, one row of
    ``codes`` per channel, as a reader log: rows by timestamp, then in
    ``channels`` order, with ``rssi_dbm`` empty. Lists and numpy arrays
    write the same bytes: timestamps are written as Python floats.

    The lines of one timestamp come from one template, filled in with the
    timestamp and that column of codes; the bytes are those
    ``csv.writer`` writes. A block the loader would refuse is a
    ``DataError`` before any file is made: parts that disagree in length,
    an unknown or repeated channel, an EPC that is no string, or a sample
    that breaks the loader's column rules (``_samples_ok``): a timestamp
    that is negative or not finite, a code that is no integer or lies
    outside the storage range.
    """
    times, channels, epcs, codes = block
    times = list(map(float, _plain(times)))
    rows = [_plain(row) for row in _plain(codes)]
    if not len(channels) == len(epcs) == len(rows):
        raise DataError(f"a code block needs one EPC and one code row per channel, got "
                        f"{len(channels)} channels, {len(epcs)} EPCs, {len(rows)} code rows")
    for channel, epc, row in zip(channels, epcs, rows):
        if not (isinstance(channel, str) and channel in _CHANNELS):
            raise DataError(f"unknown channel {channel!r}")
        if not isinstance(epc, str):
            raise DataError(f"EPCs must be strings, got {epc!r}")
        if len(row) != len(times):
            raise DataError(f"channel {channel} has {len(row)} codes "
                            f"for {len(times)} timestamps")
    if len(set(channels)) != len(channels):
        raise DataError(f"a code block names a channel twice: {list(channels)}")
    if times and rows and not _samples_ok(times, *_code_extremes(codes, rows)):
        # the first sample, in file order, that the loader would refuse
        for t, *column in zip(times, *rows):
            for channel, code in zip(channels, column):
                if not isinstance(code, numbers.Integral) or isinstance(code, bool):
                    raise DataError(f"codes must be integers, got {code!r}")
                _check_sample(channel, t, code)
    # csv quotes the constant fields; braces are no CSV syntax, so doubling
    # them first leaves the quoting as it is
    template = "".join(csv_text(["{0}", _escaped(epc), _escaped(channel), f"{{{k}}}", ""], ())
                       for k, (epc, channel) in enumerate(zip(epcs, channels), start=1))
    write_lines(path, READLOG_HEADER, map(template.format, times, *rows))


def write_series(series_set: Mapping[str, CodeSeries], path) -> None:
    """Write code series, channel by channel in finger order, from one
    line template per channel."""
    write_lines(path, SERIES_HEADER, chain.from_iterable(
        map(csv_text(["{0}", _escaped(channel), "{1}"], ()).format,
            series_set[channel].times, series_set[channel].codes)
        for channel in sorted(series_set, key=FINGERS.index)))


def _code_extremes(codes, rows: list) -> tuple:
    """The least and greatest code of a block of an integer array or of
    Python ints, else ``(-inf, inf)``, outside any range, so that each
    code is checked on its own. An array is judged by its dtype and its
    own extremes, Python rows by the type of each code."""
    if hasattr(codes, "dtype"):
        integral = codes.dtype.kind in "iu"
        return (codes.min(), codes.max()) if integral else (-math.inf, math.inf)
    flat = list(chain.from_iterable(rows))
    return (min(flat), max(flat)) if set(map(type, flat)) <= {int} else (-math.inf, math.inf)


def _samples_ok(times: Sequence[float], code_min, code_max) -> bool:
    """The column rules of every file: each timestamp finite and non-negative,
    each code, from the least and the greatest, in the storage range.
    ``_check_sample`` is the same rule for one sample, naming what breaks it."""
    return (0 <= min(times) and max(times) < math.inf and not math.isnan(sum(times))
            and CODE_STORAGE_MIN <= code_min and code_max <= CODE_STORAGE_MAX)


def _check_sample(channel: str, timestamp: float, code: int) -> None:
    if not 0 <= timestamp < math.inf:
        raise DataError(f"timestamp must be finite and non-negative, got {timestamp}")
    if channel not in FINGERS:
        raise DataError(f"unknown channel {channel!r}")
    if not CODE_STORAGE_MIN <= code <= CODE_STORAGE_MAX:
        raise DataError(
            f"sensor_code {code} outside [{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")


def _raise_first_error(path, text: str) -> NoReturn:
    """Check ``text`` row by row, as it is read, and raise the error that
    comes first: an empty file, a bad header, a CSV syntax error, the
    first bad row by ``path:line``, or a file with no rows."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if tuple(header) not in _COLUMNS:
            raise DataError(f"{path}:1: bad header {header!r}")
        t_col, channel_col, code_col, rssi_col = _COLUMNS[tuple(header)]
        for lineno, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                if rssi_col is not None and fields[rssi_col]:
                    finite(fields[rssi_col])
                _check_sample(fields[channel_col], float(fields[t_col]), int(fields[code_col]))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed row") from exc
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    raise DataError(f"{path}: file contains no rows")


def _columns(text: str) -> tuple[list, list, list] | None:
    """The timestamps, channels and codes of the rows of ``text``, or None
    if ``_raise_first_error`` would raise on it. Each step converts and
    checks a chunk of rows column by column."""
    reader = csv.reader(io.StringIO(text))
    times, channels, codes = [], [], []
    try:
        header = next(reader, None)
        if tuple(header or ()) not in _COLUMNS:
            return None
        t_col, channel_col, code_col, rssi_col = _COLUMNS[tuple(header)]
        while chunk := list(islice(reader, _CHUNK_ROWS)):
            widths = set(map(len, chunk))
            if 0 in widths:   # blank lines
                chunk = list(filter(None, chunk))
                widths.discard(0)
            if widths - {len(header)}:
                return None
            if not chunk:
                continue
            fields = list(zip(*chunk))
            if rssi_col is not None and (rssi := list(filter(None, fields[rssi_col]))):
                if not all(map(math.isfinite, map(float, rssi))):
                    return None
            times += map(float, fields[t_col])
            channels += map(_CHANNELS.__getitem__, fields[channel_col])
            codes += map(int, fields[code_col])
    except (csv.Error, ValueError, KeyError):
        return None
    if not (times and _samples_ok(times, min(codes), max(codes))):
        return None
    return times, channels, codes


def load_code_series(path) -> dict[str, CodeSeries]:
    """Per-channel series from a reader log or a code-series file, keyed
    in the order the channels first appear.

    The text is parsed once and read column by column: the fields are
    converted and checked in bulk, and each channel's samples are taken
    out (by stride when the rows cycle through the channels, as
    ``write_log`` writes them, else with ``itertools.compress``) and
    sorted only if they are not in time order already. If a check fails,
    the text is read again row by row to name the first bad ``path:line``.
    """
    text = read_text(path)
    columns = _columns(text)
    if columns is None:
        _raise_first_error(path, text)
    times, channels, codes = columns
    order = list(dict.fromkeys(channels))
    cycled = channels == order * (len(channels) // len(order))
    out = {}
    for k, channel in enumerate(order):
        if cycled:
            t, c = times[k::len(order)], codes[k::len(order)]
        else:
            mask = list(map(channel.__eq__, channels))
            t, c = list(compress(times, mask)), list(compress(codes, mask))
        if not all(map(operator.lt, t, t[1:])):
            by_time = sorted(range(len(t)), key=t.__getitem__)
            t, c = list(map(t.__getitem__, by_time)), list(map(c.__getitem__, by_time))
            if not all(map(operator.lt, t, t[1:])):
                raise DataError(f"{path}: duplicate timestamps on channel {channel}")
        out[channel] = CodeSeries._checked(t, c)
    return out


def channel_codes(series_set: Mapping[str, CodeSeries], window: int,
                  estimator: Estimator) -> dict[str, float]:
    """``estimate_window`` over the first ``window`` samples of each
    channel present, in finger order."""
    channels = [channel for channel in FINGERS if channel in series_set]
    if not channels:
        raise DataError("no channels present in the input")
    for channel in channels:
        if (n := len(series_set[channel])) < window:
            raise DataError(f"channel {channel} has {n} samples, needs >= {window}")
    return {channel: estimate_window(series_set[channel].codes, window, estimator)
            for channel in channels}


def calibrate(series_set: Mapping[str, CodeSeries], window: int,
              estimator: Estimator) -> CalibrationBaseline:
    """Air baseline of an untouched-hand acquisition; the channels absent
    from it are its ``gaps``, not defaulted."""
    codes = channel_codes(series_set, window, estimator)
    return CalibrationBaseline(codes=codes,
                               gaps=tuple(f for f in FINGERS if f not in codes))


def save_baseline(baseline: CalibrationBaseline, path) -> None:
    write_json(path, {"codes": dict(baseline.codes), "timestamp": baseline.timestamp,
                      "gaps": list(baseline.gaps)})


def load_baseline(path) -> CalibrationBaseline:
    return read_json(path, "baseline object", lambda payload: CalibrationBaseline(
        codes=payload["codes"], timestamp=payload.get("timestamp", ""),
        gaps=tuple(payload.get("gaps", ()))))
