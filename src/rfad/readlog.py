"""Code series: their type, their estimate, and their files.

``CodeSeries`` holds the timestamped integer sensor codes of one
channel as tuples of Python floats and ints. ``estimate_window`` is the
one estimator of a channel's code: the mean or the median of the
leading ``window`` codes, in pure Python. Nothing here imports numpy,
so ``rfad calibrate`` and ``rfad fingerprint`` start without it.

Two CSV formats carry the sensor codes, through ``rfad.files``:

* read log: ``timestamp_s,epc,channel,sensor_code,rssi_dbm``
* code series: ``timestamp_s,channel,code``

``load_code_series`` reads both; the header row picks the columns. Each
sample is checked alike (finite non-negative timestamp, known channel,
code in storage range), a read log's ``rssi_dbm`` must be empty or
finite, and each error names ``path:line``. Samples are grouped per
channel and sorted by timestamp; a timestamp repeated on one channel is
an error.

``channel_codes`` turns a set of series into one code per channel with
the session's ``window`` and ``estimator``; it is the estimate both
``calibrate`` (the air baseline) and ``rfad fingerprint`` (the touched
codes) read, so the two sides of a differential code always agree. A
channel with fewer than ``window`` samples is an error that names it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Literal, Mapping, Sequence

from .errors import DataError
from .files import finite, read_csv, read_json, write_csv, write_json
from .fingerprint import CalibrationBaseline
from .hand import FINGERS

CODE_STORAGE_MIN = 0
CODE_STORAGE_MAX = 511

Estimator = Literal["mean", "median"]


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
    channel: str = "I"

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


def estimate_window(codes: Sequence[int], window: int,
                    estimator: Estimator = "mean") -> float:
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
        head = sorted(codes[:window])
        middle = window // 2
        return float(head[middle]) if window % 2 else (head[middle - 1] + head[middle]) / 2
    raise DataError(f"unknown estimator {estimator!r}")


READLOG_HEADER = ["timestamp_s", "epc", "channel", "sensor_code", "rssi_dbm"]
SERIES_HEADER = ["timestamp_s", "channel", "code"]

# header -> columns of (timestamp, channel, code, rssi or None)
_COLUMNS = {tuple(READLOG_HEADER): (0, 2, 3, 4), tuple(SERIES_HEADER): (0, 1, 2, None)}


def _sample(channel: str, timestamp: float, code: int) -> tuple:
    if not 0 <= timestamp < math.inf:
        raise DataError(f"timestamp must be finite and non-negative, got {timestamp}")
    if channel not in FINGERS:
        raise DataError(f"unknown channel {channel!r}")
    if not CODE_STORAGE_MIN <= code <= CODE_STORAGE_MAX:
        raise DataError(
            f"sensor_code {code} outside [{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")
    return channel, timestamp, code


def write_log(block, path) -> None:
    """Write the code block ``(times, channels, epcs, codes)``, one row of
    ``codes`` per channel, as a reader log: rows by timestamp, then in
    ``channels`` order, with ``rssi_dbm`` empty. Lists and numpy arrays
    write the same bytes: timestamps are written as Python floats."""
    times, channels, epcs, codes = block
    rows = [_plain(row) for row in _plain(codes)]
    write_csv(path, READLOG_HEADER, (
        [repr(t), epc, channel, code, ""]
        for t, column in zip(map(float, _plain(times)), zip(*rows))
        for channel, epc, code in zip(channels, epcs, column)))


def _group(samples: Iterable[tuple], source) -> dict[str, CodeSeries]:
    """Per-channel series from ``(channel, t, code)`` triples, sorted by time."""
    grouped: dict[str, list] = {}
    for channel, t, code in samples:
        grouped.setdefault(channel, []).append((t, code))
    out = {}
    for channel, points in grouped.items():
        times, codes = zip(*sorted(points))
        if len(set(times)) != len(times):
            raise DataError(f"{source}: duplicate timestamps on channel {channel}")
        out[channel] = CodeSeries(times, codes, channel)
    return out


def load_code_series(path) -> dict[str, CodeSeries]:
    """Per-channel series from a reader log or a code-series file."""
    rows = read_csv(path, (READLOG_HEADER, SERIES_HEADER))
    _, header = next(rows)
    t_col, channel_col, code_col, rssi_col = _COLUMNS[tuple(header)]
    samples = []
    for lineno, fields in rows:
        try:
            if rssi_col is not None and fields[rssi_col]:
                finite(fields[rssi_col])
            samples.append(_sample(fields[channel_col], float(fields[t_col]),
                                   int(fields[code_col])))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed row") from exc
    if not samples:
        raise DataError(f"{path}: file contains no rows")
    return _group(samples, path)


def write_series(series_set: Mapping[str, CodeSeries], path) -> None:
    write_csv(path, SERIES_HEADER, (
        [repr(t), channel, code]
        for channel in sorted(series_set, key=FINGERS.index)
        for t, code in zip(series_set[channel].times, series_set[channel].codes)))


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
              estimator: Estimator, timestamp: str = "") -> CalibrationBaseline:
    """Air baseline of an untouched-hand acquisition; the channels absent
    from it are its ``gaps``, not defaulted."""
    codes = channel_codes(series_set, window, estimator)
    return CalibrationBaseline(codes=codes, timestamp=timestamp,
                               gaps=tuple(f for f in FINGERS if f not in codes))


def save_baseline(baseline: CalibrationBaseline, path) -> None:
    write_json(path, {"codes": dict(baseline.codes), "timestamp": baseline.timestamp,
                      "gaps": list(baseline.gaps)})


def load_baseline(path) -> CalibrationBaseline:
    return read_json(path, lambda payload: CalibrationBaseline(
        codes=payload["codes"], timestamp=payload.get("timestamp", ""),
        gaps=tuple(payload.get("gaps", ()))))
