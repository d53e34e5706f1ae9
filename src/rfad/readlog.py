"""Reader-log and series persistence, channel codes and calibration.

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
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError
from .files import finite, read_csv, read_json, write_csv, write_json
from .fingerprint import CalibrationBaseline
from .hand import FINGERS
from .signal import (CODE_STORAGE_MAX, CODE_STORAGE_MIN, CodeSeries, Estimator,
                     window_estimates)

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
    ``channels`` order, with ``rssi_dbm`` empty."""
    times, channels, epcs, codes = block
    write_csv(path, READLOG_HEADER, (
        [repr(t), epc, channel, code, ""]
        for t, column in zip(np.asarray(times).tolist(), np.asarray(codes).T.tolist())
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
        out[channel] = CodeSeries(np.array(times), np.array(codes), channel)
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
        [repr(float(t)), channel, int(code)]
        for channel in sorted(series_set, key=FINGERS.index)
        for t, code in zip(series_set[channel].times, series_set[channel].codes)))


def channel_codes(series_set: Mapping[str, CodeSeries], window: int,
                  estimator: Estimator) -> dict[str, float]:
    """``estimator`` over the first ``window`` samples of each channel
    present, in finger order, as one ``window_estimates`` call."""
    channels = [channel for channel in FINGERS if channel in series_set]
    if not channels:
        raise DataError("no channels present in the input")
    for channel in channels:
        if (n := len(series_set[channel])) < window:
            raise DataError(f"channel {channel} has {n} samples, needs >= {window}")
    # equal rows for any window, so that window_estimates judges a bad one
    block = np.stack([series_set[channel].codes[:max(window, 0)] for channel in channels])
    return dict(zip(channels, window_estimates(block, window, estimator).tolist()))


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
