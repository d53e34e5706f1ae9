"""Radar-chart SVG/CSV export tests (parse the emitted markup)."""

import xml.etree.ElementTree as ET

import pytest

from rfad.errors import DataError
from rfad.fingerprint import Fingerprint
from rfad.hand import FINGERS
from rfad.kiviat import chart_targets, export_kiviat, kiviat_csv, kiviat_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def _fp(values, imputed=(), label=None):
    vals = dict(zip(FINGERS, values))
    imp = {f: f in imputed for f in FINGERS}
    n = sum(1 for f in FINGERS if not imp[f])
    return Fingerprint(values=vals, imputed=imp, n_responsive=n,
                       material_label=label)


def _polygon_area(points_attr):
    pts = [tuple(map(float, p.split(","))) for p in points_attr.split()]
    area = 0.0
    for (x1, y1), (x2, y2) in zip(pts, pts[1:] + pts[:1]):
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


class TestKiviatSvg:
    def test_parses_and_has_five_axes(self):
        root = ET.fromstring(kiviat_svg([_fp([10, 20, 25, 30, 40])]))
        labels = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert labels == list(FINGERS)
        assert len(root.findall(f"{SVG_NS}line")) == 5

    def test_one_polygon_per_fingerprint(self):
        svg = kiviat_svg([_fp([10, 20, 25, 30, 40], label="a"),
                          _fp([5, 5, 5, 5, 5], label="b")])
        root = ET.fromstring(svg)
        polys = [p for p in root.iter(f"{SVG_NS}polygon")
                 if p.get("class") == "fingerprint"]
        assert [p.get("data-label") for p in polys] == ["a", "b"]

    def test_imputed_marker_unfilled(self):
        svg = kiviat_svg([_fp([10, 20, 25, 30, 40], imputed=("III",), label="x")])
        root = ET.fromstring(svg)
        fills = {c.get("data-channel"): c.get("fill")
                 for c in root.iter(f"{SVG_NS}circle")}
        assert fills["III"] == "none"
        assert fills["I"] != "none"

    def test_area_ordering_tracks_permittivity_fixtures(self):
        fps = [_fp([20] * 5, label="oil"), _fp([99] * 5, label="alcohol"),
               _fp([180] * 5, label="water")]
        root = ET.fromstring(kiviat_svg(fps))
        areas = [_polygon_area(p.get("points"))
                 for p in root.iter(f"{SVG_NS}polygon")
                 if p.get("class") == "fingerprint"]
        assert areas[0] < areas[1] < areas[2]

    def test_all_zero_fingerprint_is_valid_degenerate(self):
        root = ET.fromstring(kiviat_svg([_fp([0, 0, 0, 0, 0])]))
        polys = [p for p in root.iter(f"{SVG_NS}polygon")
                 if p.get("class") == "fingerprint"]
        assert _polygon_area(polys[0].get("points")) == 0.0

    def test_needs_at_least_one(self):
        with pytest.raises(DataError):
            kiviat_svg([])


class TestKiviatCsv:
    def test_rows(self):
        text = kiviat_csv([_fp([10.0, 20.0, 25.0, 30.0, 40.0],
                               imputed=("III",), label="x")])
        lines = text.splitlines()
        assert lines[0] == "label,channel,value,imputed,averaged"
        assert len(lines) == 6
        assert lines[3].split(",")[:4] == ["x", "III", "25.0", "1"]

    def test_unlabelled_fingerprint_gets_its_position(self):
        fps = [_fp([10, 20, 25, 30, 40], label="a"), _fp([5, 5, 5, 5, 5])]
        assert kiviat_csv(fps).splitlines()[-1].startswith("fingerprint-2,V,")
        polys = [p for p in ET.fromstring(kiviat_svg(fps)).iter(f"{SVG_NS}polygon")
                 if p.get("class") == "fingerprint"]
        assert [p.get("data-label") for p in polys] == ["a", "fingerprint-2"]

    def test_export_writes_twin_files(self, tmp_path):
        path = tmp_path / "chart.svg"
        export_kiviat([_fp([10, 20, 25, 30, 40])], path)
        assert path.exists()
        assert (tmp_path / "chart.csv").exists()

    @pytest.mark.parametrize("given, chart, twin", [
        ("chart.svg", "chart.svg", "chart.csv"), ("chart", "chart.svg", "chart.csv"),
        ("chart.SVG", "chart.SVG", "chart.csv"), ("chart.csv", "chart.csv.svg", "chart.csv.csv"),
    ], ids=["svg", "suffixless", "upper-svg", "csv"])
    def test_export_writes_the_targets_it_names(self, tmp_path, given, chart, twin):
        assert chart_targets(tmp_path / given) == [("the chart", str(tmp_path / chart)),
                                                   ("its CSV twin", str(tmp_path / twin))]
        assert export_kiviat([_fp([10, 20, 25, 30, 40])], tmp_path / given) == str(
            tmp_path / chart)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([chart, twin])

    def test_an_empty_path_is_refused(self, tmp_path, monkeypatch):
        # it once named the chart '.svg' and its twin '.csv'
        monkeypatch.chdir(tmp_path)
        for call in (lambda: chart_targets(""), lambda: export_kiviat([_fp([10] * 5)], "")):
            with pytest.raises(DataError, match="^the chart: an empty path names no file$"):
                call()
        assert list(tmp_path.iterdir()) == []

    def test_export_deterministic(self, tmp_path):
        fps = [_fp([10, 20, 25, 30, 40], label="m")]
        export_kiviat(fps, tmp_path / "a.svg")
        export_kiviat(fps, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
