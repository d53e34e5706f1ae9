"""Code series: their type, their estimate and its window, and their files.

``CodeSeries`` holds the timestamped integer sensor codes of one
channel as tuples of Python floats and ints. ``estimate_window``, the
mean or the median of the leading ``window`` codes, is the one estimator
of a channel's code, and ``minimum_samples`` sizes its window. No numpy
here: ``rfad calibrate`` and ``rfad fingerprint`` start without it.

Two CSV formats carry the sensor codes, through ``rfad.files``:

* read log: ``timestamp_s,epc,channel,sensor_code,rssi_dbm``
* code series: ``timestamp_s,channel,code``

Both writers take the type the loader returns, ``CodeSeries`` keyed by
channel: ``write_series`` any such set, ``write_log`` series that share
their timestamps, with one EPC per channel. Each streams its file from
one line template (the constant fields quoted by ``csv``, the timestamps
and codes filled in by ``str.format``) through the one atomic writer;
the bytes are those ``csv.writer`` writes. ``CodeSeries`` checks the
samples (a negative timestamp included), and the writers refuse,
before any file is made, what the loader would still refuse of a set.
``load_code_series`` reads both formats, once, with one ``csv.reader``;
the header row picks the columns. One check of the sample rule (finite
non-negative timestamp, known channel, code in storage range, a read
log's ``rssi_dbm`` empty or finite) runs over each chunk of rows, column
by column, then again row by row over a chunk that fails, so each error
names the first bad ``path:line``. Samples are grouped per channel and
sorted by timestamp; a timestamp repeated on one channel is an error.

``channel_codes`` turns a set of series into one code per channel with
the session's ``window`` and ``estimator``; it is the estimate both the
air baseline (``rfad calibrate``) and ``rfad fingerprint`` (the touched
codes) read, so the two sides of a differential code always agree. A
channel with fewer than ``window`` samples is an error that names it.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import operator
from itertools import chain, compress, islice
from typing import Literal, Mapping, Sequence

from .errors import DataError, NotConvergedError
from .files import csv_text, finite, is_utf8_text, read_text, write_lines
from .hand import FINGERS
from .ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN
from .value import Value, _set

Estimator = Literal["mean", "median"]

DEFAULT_ASYMPTOTIC_SAMPLES = 100


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


class CodeSeries(Value):
    """Timestamped integer sensor codes for one channel.

    Any 1-D sequences or arrays may be given; they are stored as tuples
    of Python floats and ints. The times must be finite, non-negative
    and strictly increasing, and every code an integral number (not a
    bool) in the storage range.
    """

    __slots__ = ("times", "codes")

    def __init__(self, times: tuple, codes: tuple):
        try:
            times = tuple(map(float, _plain(times)))
            codes = tuple(_plain(codes))
        except (TypeError, ValueError):
            raise DataError("times and codes must be 1-D sequences of numbers") from None
        if not set(map(type, codes)) <= {int}:
            codes = tuple(map(_code, codes))
        if len(times) != len(codes):
            raise DataError("times and codes must be 1-D sequences of equal length")
        if not (all(map(math.isfinite, times)) and (not times or times[0] >= 0)
                and all(map(operator.lt, times, times[1:]))):
            raise DataError("timestamps must be finite, non-negative and strictly increasing")
        if codes and not CODE_STORAGE_MIN <= min(codes) <= max(codes) <= CODE_STORAGE_MAX:
            raise DataError(
                f"codes outside storage range [{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")
        _set(self, "times", times)
        _set(self, "codes", codes)

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def _checked(cls, times: list, codes: list) -> "CodeSeries":
        """A series of Python floats and ints that already hold what
        ``__init__`` checks; ``load_code_series`` checks them by chunk."""
        series = object.__new__(cls)
        _set(series, "times", tuple(times))
        _set(series, "codes", tuple(codes))
        return series


def estimate_window(codes: Sequence[int], window: int, estimator: Estimator) -> float:
    """Mean or median of the first ``window`` of the integer ``codes``.

    The median is the middle value of the sorted window, or the mean of
    its two middle values. Integer sums are exact, so both equal, bit
    for bit, what ``np.mean`` and ``np.median`` give for the window.
    """
    check_window(window, len(codes), estimator)
    if estimator == "mean":
        return sum(codes[:window]) / window
    return sorted_median(sorted(codes[:window]))


def check_window(window: int, length: int, estimator: Estimator) -> None:
    """Raise ``DataError`` unless a series of ``length`` codes has a window
    of ``window`` and ``estimator`` names an estimator."""
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    if window > length:
        raise DataError(f"window {window} exceeds series length {length}")
    if estimator not in ("mean", "median"):
        raise DataError(f"unknown estimator {estimator!r}")


def sorted_median(head: Sequence[int]) -> float:
    """Median of the sorted, non-empty integer ``head``."""
    middle = len(head) // 2
    return float(head[middle]) if len(head) % 2 else (head[middle - 1] + head[middle]) / 2


def _dispersion(s1: int, s2: int, m: int) -> float:
    """Population SD of ``m`` integer codes from their exact sum and sum of squares."""
    return math.sqrt((m * s2 - s1 * s1) / (m * m))


def _sums(head) -> tuple[int, int]:
    return sum(head), sum(map(operator.mul, head, head))


def convergence_error(series: CodeSeries, m: int,
                      m_inf: int = DEFAULT_ASYMPTOTIC_SAMPLES) -> float:
    """Population standard deviation over the first ``m`` samples minus
    the asymptotic one over the first ``m_inf`` samples (code units): the
    dispersion error that ``minimum_samples`` walks, bit for bit."""
    if not 2 <= m <= m_inf:
        raise DataError(f"need 2 <= m <= m_inf, got m={m}, m_inf={m_inf}")
    check_window(m_inf, len(series), "mean")   # the dispersion is about the mean
    codes = series.codes
    return _dispersion(*_sums(codes[:m]), m) - _dispersion(*_sums(codes[:m_inf]), m_inf)


def minimum_samples(series: CodeSeries, tolerance: float, m_inf: int,
                    estimator: Estimator) -> int:
    """Smallest window M whose measurement is converged within ``tolerance``.

    For the mean, a window qualifies when ``convergence_error`` is below
    tolerance: the dispersion is measured about the mean, so its
    convergence bounds the mean's stability. The median is not certified
    by the dispersion (the near-Nyquist sawtooth keeps the running median
    pinned to one of its two sampled branches long after the dispersion
    settles), so the running median must also sit within tolerance of its
    asymptotic value, and the median window is never shorter than the
    mean's. One pass walks the windows: running integer sums give each
    dispersion, and a sorted prefix each median.

    Raises NotConvergedError (carrying the final convergence error) if
    no admissible window qualifies.
    """
    # the asymptotic reference is no admissible window (delta[m_inf] = 0
    # identically, which certifies nothing): the windows are 2 .. m_inf - 1
    if m_inf < 3:
        raise DataError(f"m_inf={m_inf} leaves no window between 2 and m_inf - 1")
    check_window(m_inf, len(series), estimator)
    codes, median = series.codes, estimator == "median"
    if median:
        target, prefix = sorted_median(sorted(codes[:m_inf])), [codes[0]]
    asymptotic = _dispersion(*_sums(codes[:m_inf]), m_inf)
    s1, s2 = codes[0], codes[0] * codes[0]
    for m, code in enumerate(codes[1:m_inf - 1], start=2):
        s1, s2 = s1 + code, s2 + code * code
        last = _dispersion(s1, s2, m) - asymptotic
        if median:
            bisect.insort(prefix, code)
        if abs(last) < tolerance and (
                not median or abs(sorted_median(prefix) - target) < tolerance):
            return m
    raise NotConvergedError(f"no window up to {m_inf} samples meets tolerance {tolerance}",
                            delta=last)


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


def _escaped(field: str) -> str:
    """``field`` as text that ``str.format`` turns back into itself."""
    return field.replace("{", "{{").replace("}", "}}")


def _finger_order(series_set: Mapping[str, CodeSeries]) -> list[str]:
    """The channels of ``series_set`` in finger order; what the loader would
    refuse of a set, no series, an unknown channel or an empty series, is
    a ``DataError`` (``CodeSeries`` checks each series' samples)."""
    if not series_set:
        raise DataError("no code series to write")
    for channel, series in series_set.items():
        if channel not in _CHANNELS:
            raise DataError(f"unknown channel {channel!r}")
        if not len(series):
            raise DataError(f"channel {channel} has no samples")
    return sorted(series_set, key=FINGERS.index)


def write_log(series_set: Mapping[str, CodeSeries], path, epcs: Mapping[str, str]) -> None:
    """Write code series that share their timestamps as a reader log: rows
    by timestamp, then in finger order, each tagged with its channel's
    EPC from ``epcs``, with ``rssi_dbm`` empty.

    The lines of one timestamp come from one template, filled in with the
    timestamp and that column of codes; the bytes are those
    ``csv.writer`` writes. Besides what ``write_series`` refuses, a
    ``DataError`` before any file is made refuses series whose timestamps
    differ and a channel whose EPC is missing, no string, holds a line
    break or is not UTF-8 text. ``CodeSeries`` refuses a negative timestamp.
    """
    channels = _finger_order(series_set)
    times = series_set[channels[0]].times
    for channel in channels:
        if channel not in epcs:
            raise DataError(f"no EPC for channel {channel}")
        epc = epcs[channel]
        if not is_utf8_text(epc) or "\r" in epc or "\n" in epc:
            # csv leaves a lone "\r" unquoted, and the reader ends the row there
            raise DataError(f"EPCs must be one-line strings UTF-8 can encode, got {epc!r}")
        if series_set[channel].times != times:
            raise DataError(f"channel {channel} has other timestamps than channel {channels[0]}")
    # csv quotes the constant fields; braces are no CSV syntax, so doubling
    # them first leaves the quoting as it is
    template = "".join(csv_text(["{0}", _escaped(epcs[channel]), channel, f"{{{k}}}", ""], ())
                       for k, channel in enumerate(channels, start=1))
    write_lines(path, READLOG_HEADER, map(template.format, times,
                                          *(series_set[channel].codes for channel in channels)))


def write_series(series_set: Mapping[str, CodeSeries], path) -> None:
    """Write code series, channel by channel in finger order, from one
    line template per channel. What ``load_code_series`` would refuse of
    a set is refused as ``_finger_order`` says, before any file is made;
    ``CodeSeries``, not the writer, refuses a negative timestamp."""
    channels = _finger_order(series_set)
    write_lines(path, SERIES_HEADER, chain.from_iterable(
        map(csv_text(["{0}", channel, "{1}"], ()).format,
            series_set[channel].times, series_set[channel].codes)
        for channel in channels))


def _columns(header: list, rows: list) -> tuple[list, list, list]:
    """Timestamps, channels and codes of the data rows ``rows`` of a file with
    ``header``, blank rows skipped. The sample rule is checked column by
    column, in the order of a row's checks (width, ``rssi_dbm``, numbers,
    timestamp, channel, code range); a ``DataError`` names the rule broken."""
    t_col, channel_col, code_col, rssi_col = _COLUMNS[tuple(header)]
    widths = set(map(len, rows))
    if 0 in widths:
        rows = list(filter(None, rows))
    if not rows:
        return [], [], []
    if widths - {0} != {len(header)}:
        raise DataError(f"expected {len(header)} fields")
    fields = list(zip(*rows))
    try:
        if rssi_col is not None:
            list(map(finite, filter(None, fields[rssi_col])))
        times = list(map(float, fields[t_col]))
        codes = list(map(int, fields[code_col]))
    except ValueError as exc:
        raise DataError("malformed row") from exc
    # a NaN makes the sum NaN, whatever it does to min and max
    if not (0 <= min(times) and max(times) < math.inf and not math.isnan(sum(times))):
        raise DataError("timestamp must be finite and non-negative, got "
                        f"{next(t for t in times if not 0 <= t < math.inf)}")
    try:
        channels = list(map(_CHANNELS.__getitem__, fields[channel_col]))
    except KeyError as exc:
        raise DataError(f"unknown channel {exc.args[0]!r}") from None
    low, high = min(codes), max(codes)
    if not CODE_STORAGE_MIN <= low <= high <= CODE_STORAGE_MAX:
        raise DataError(f"sensor_code {low if low < CODE_STORAGE_MIN else high} "
                        f"outside [{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")
    return times, channels, codes


def load_code_series(path) -> dict[str, CodeSeries]:
    """Per-channel series from a reader log or a code-series file, keyed
    in the order the channels first appear.

    ``_columns`` checks the rows ``_CHUNK_ROWS`` at a time, then a failing
    chunk's rows one by one to name the first bad ``path:line``, the line
    its row starts on; a CSV syntax error is the error if no row before it
    is bad. Each channel's samples are taken out by stride when the rows
    cycle through the channels, as ``write_log`` writes them, else by
    ``itertools.compress``.
    """
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    if tuple(header) not in _COLUMNS:
        raise DataError(f"{path}:1: bad header {header!r}")
    times, channels, codes = [], [], []
    syntax_error = None
    while not syntax_error:
        lineno = reader.line_num + 1   # the line the chunk's first row starts on
        chunk = []
        try:   # extend, unlike list(), keeps the rows read before a syntax error
            chunk.extend(islice(reader, _CHUNK_ROWS))
        except csv.Error as exc:
            syntax_error = DataError(f"{path}:{reader.line_num}: {exc}")
        if not chunk:
            break
        try:
            t, ch, c = _columns(header, chunk)
        except DataError:
            for row in chunk:
                try:
                    _columns(header, [row])
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                # a quoted field may hold line breaks (read_text makes each "\n")
                lineno += 1 + sum(field.count("\n") for field in row)
            raise
        times += t
        channels += ch
        codes += c
    if syntax_error:
        raise syntax_error
    if not times:
        raise DataError(f"{path}: file contains no rows")
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

