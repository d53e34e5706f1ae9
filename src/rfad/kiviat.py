"""Radar-chart (Kiviat) export of hand fingerprints as SVG + CSV.

SVG is the single graphic format: self-contained and parseable, so the
emitted attributes can be checked in tests. Imputed or unresponsive
channels are drawn with unfilled markers. A CSV twin with the plotted
values is always written alongside.
"""

from __future__ import annotations

import math
import os
import re
from typing import Sequence

from .errors import DataError
from .files import check_outputs, csv_text, write_text
from .fingerprint import Fingerprint, averaged_fingerprint, fingerprint_label
from .hand import FINGERS

_SIZE = 420
_MARGIN = 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf")
# markup characters of a label, and the whitespace a parser would turn
# into spaces in an attribute value, as character references
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                          "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})
# characters XML 1.0 allows in no form, not even as a reference
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _label(fp: Fingerprint, idx: int) -> str:
    """The chart label of a fingerprint, escaped for an attribute value."""
    label = fingerprint_label(fp, idx)
    if bad := _NOT_XML.search(label):
        raise DataError(f"label {label!r} holds {bad.group()!r}, which XML 1.0 forbids")
    return label.translate(_ESCAPES)


def _axis_angles() -> list[float]:
    # channel I points up; axes proceed clockwise
    return [math.pi / 2 - 2 * math.pi * i / len(FINGERS)
            for i in range(len(FINGERS))]


def _point(value: float, angle: float, scale: float, radius: float):
    r = max(value, 0.0) * scale
    x = _SIZE / 2 + min(r, radius) * math.cos(angle)
    y = _SIZE / 2 - min(r, radius) * math.sin(angle)
    return x, y


def kiviat_svg(fingerprints: Sequence[Fingerprint]) -> str:
    """Render one polygon per fingerprint on shared 5-axis radar axes."""
    if not fingerprints:
        raise DataError("need at least one fingerprint to plot")
    radius = _SIZE / 2 - _MARGIN
    peak = max((max(fp.values.values()) for fp in fingerprints), default=0.0)
    scale = radius / peak if peak > 0 else 0.0
    angles = _axis_angles()
    cx = cy = _SIZE / 2

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    # grid: axes and reference rings
    for frac in (0.25, 0.5, 0.75, 1.0):
        ring = " ".join(
            f"{cx + frac * radius * math.cos(a):.1f},"
            f"{cy - frac * radius * math.sin(a):.1f}" for a in angles)
        parts.append(f'<polygon points="{ring}" fill="none" stroke="#cccccc" '
                     f'stroke-width="1" class="grid"/>')
    for finger, a in zip(FINGERS, angles):
        x2 = cx + radius * math.cos(a)
        y2 = cy - radius * math.sin(a)
        parts.append(f'<line x1="{cx}" y1="{cy}" x2="{x2:.1f}" y2="{y2:.1f}" '
                     f'stroke="#999999" stroke-width="1"/>')
        lx = cx + (radius + 18) * math.cos(a)
        ly = cy - (radius + 18) * math.sin(a)
        parts.append(f'<text x="{lx:.1f}" y="{ly:.1f}" text-anchor="middle" '
                     f'dominant-baseline="middle" font-size="14">{finger}</text>')
    # one polygon + markers per fingerprint
    for idx, fp in enumerate(fingerprints):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = [_point(fp.values[f], a, scale, radius)
               for f, a in zip(FINGERS, angles)]
        point_attr = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        label = _label(fp, idx)
        parts.append(f'<polygon points="{point_attr}" fill="{color}" '
                     f'fill-opacity="0.15" stroke="{color}" stroke-width="2" '
                     f'class="fingerprint" data-label="{label}"/>')
        for finger, (x, y) in zip(FINGERS, pts):
            fill = "none" if fp.imputed[finger] else color
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="5" '
                         f'fill="{fill}" stroke="{color}" stroke-width="2" '
                         f'data-channel="{finger}" data-label="{label}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def kiviat_csv(fingerprints: Sequence[Fingerprint]) -> str:
    rows = []
    for idx, fp in enumerate(fingerprints):
        label = fingerprint_label(fp, idx)
        f_bar = averaged_fingerprint(fp)
        for finger in FINGERS:
            rows.append([label, finger, repr(fp.values[finger]),
                         int(fp.imputed[finger]), repr(f_bar)])
    return csv_text(["label", "channel", "value", "imputed", "averaged"], rows)


def chart_targets(path) -> list[tuple[str, str]]:
    """The chart that ``export_kiviat`` writes for ``path`` (gaining ``.svg`` unless it
    ends in it, in any case) and its ``.csv`` twin, as ``check_outputs`` targets."""
    path = os.fspath(path)
    if not path:  # it would name '.svg'; refuse it as an empty target
        check_outputs([("the chart", path)], ())
    if path[-4:].lower() != ".svg":
        path += ".svg"
    return [("the chart", path), ("its CSV twin", path[:-4] + ".csv")]


def export_kiviat(fingerprints: Sequence[Fingerprint], path) -> str:
    """Write the chart of ``chart_targets(path)`` (SVG) and its CSV twin;
    return the chart's path."""
    targets = chart_targets(path)
    check_outputs(targets, ())
    (_, svg_path), (_, csv_path) = targets
    write_text(svg_path, kiviat_svg(fingerprints))
    write_text(csv_path, kiviat_csv(fingerprints))
    return svg_path
