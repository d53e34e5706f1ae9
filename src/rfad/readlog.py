"""Reader-log and series persistence, plus calibration.

Two CSV formats are supported, read and written through ``rfad.files``:

* read log: ``timestamp_s,epc,channel,sensor_code,rssi_dbm``
* code series: ``timestamp_s,channel,code``

Both check each sample alike (finite non-negative timestamp, known
channel, code in storage range) and name ``path:line`` in each error.
Samples are grouped per channel and sorted by timestamp; a timestamp
repeated on one channel is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import DataError
from .files import read_csv, read_json, write_csv, write_json
from .fingerprint import CalibrationBaseline
from .hand import FINGERS
from .signal import CODE_STORAGE_MAX, CODE_STORAGE_MIN, CodeSeries, estimate_code

READLOG_HEADER = ["timestamp_s", "epc", "channel", "sensor_code", "rssi_dbm"]
SERIES_HEADER = ["timestamp_s", "channel", "code"]


def _sample(channel: str, timestamp: float, code: int) -> tuple:
    if not 0 <= timestamp < math.inf:
        raise DataError(f"timestamp must be finite and non-negative, got {timestamp}")
    if channel not in FINGERS:
        raise DataError(f"unknown channel {channel!r}")
    if not CODE_STORAGE_MIN <= code <= CODE_STORAGE_MAX:
        raise DataError(
            f"sensor_code {code} outside [{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")
    return channel, timestamp, code


@dataclass(frozen=True)
class ReadLogRow:
    """One timestamped tag read."""

    timestamp: float
    epc: str
    channel: str
    sensor_code: int
    rssi_dbm: Optional[float] = None

    def __post_init__(self):
        _sample(self.channel, self.timestamp, self.sensor_code)


def write_log(rows: Iterable[ReadLogRow], path) -> None:
    write_csv(path, READLOG_HEADER, (
        [repr(row.timestamp), row.epc, row.channel, row.sensor_code,
         "" if row.rssi_dbm is None else repr(row.rssi_dbm)] for row in rows))


def read_log(path) -> list[ReadLogRow]:
    rows = []
    for lineno, (t, epc, channel, code, rssi) in read_csv(path, READLOG_HEADER):
        try:
            rows.append(ReadLogRow(timestamp=float(t), epc=epc, channel=channel,
                                   sensor_code=int(code),
                                   rssi_dbm=float(rssi) if rssi else None))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed row") from exc
    if not rows:
        raise DataError(f"{path}: read log contains no rows")
    return rows


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


def series_from_rows(rows: Sequence[ReadLogRow],
                     source="<rows>") -> dict[str, CodeSeries]:
    """Group log rows into per-channel series, sorted by timestamp."""
    return _group(((r.channel, r.timestamp, r.sensor_code) for r in rows), source)


def ingest_log(path) -> dict[str, CodeSeries]:
    return series_from_rows(read_log(path), path)


def load_code_series(path) -> dict[str, CodeSeries]:
    """Load per-channel series from either supported CSV format.

    Dispatches on the header line: full reader logs are grouped per
    channel, plain code-series files are read directly.
    """
    # undecodable bytes are reported, with the path, by the full read
    with open(path, "r", encoding="utf-8", errors="replace", newline="") as fh:
        header = fh.readline().strip()
    if header == ",".join(READLOG_HEADER):
        return ingest_log(path)
    return read_series(path)


def write_series(series_set: Mapping[str, CodeSeries], path) -> None:
    write_csv(path, SERIES_HEADER, (
        [repr(float(t)), channel, int(code)]
        for channel in sorted(series_set, key=FINGERS.index)
        for t, code in zip(series_set[channel].times, series_set[channel].codes)))


def read_series(path) -> dict[str, CodeSeries]:
    samples = []
    for lineno, (t, channel, code) in read_csv(path, SERIES_HEADER):
        try:
            samples.append(_sample(channel, float(t), int(code)))
        except DataError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: malformed row") from exc
    if not samples:
        raise DataError(f"{path}: series file contains no rows")
    return _group(samples, path)


def calibrate(series_set: Mapping[str, CodeSeries], window: int = 10,
              timestamp: str = "") -> CalibrationBaseline:
    """Per-channel air baseline from an untouched-hand acquisition.

    Channels absent from the input are reported in ``gaps`` rather than
    silently defaulted.
    """
    codes = {}
    gaps = []
    for channel in FINGERS:
        if channel not in series_set:
            gaps.append(channel)
            continue
        series = series_set[channel]
        if len(series) < window:
            raise DataError(
                f"channel {channel} has {len(series)} samples, needs >= {window}")
        codes[channel] = estimate_code(series, window, "mean")
    if not codes:
        raise DataError("no channels present in calibration input")
    return CalibrationBaseline(codes=codes, timestamp=timestamp, gaps=tuple(gaps))


def save_baseline(baseline: CalibrationBaseline, path) -> None:
    write_json(path, {"codes": dict(baseline.codes), "timestamp": baseline.timestamp,
                      "gaps": list(baseline.gaps)})


def load_baseline(path) -> CalibrationBaseline:
    return read_json(path, lambda payload: CalibrationBaseline(
        codes=payload["codes"], timestamp=payload.get("timestamp", ""),
        gaps=tuple(payload.get("gaps", ()))))
