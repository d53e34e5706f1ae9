"""Command-line interface tests: pipelines, determinism, exit codes."""

import argparse
import json
import os
import random
from xml.etree import ElementTree

import pytest

from rfad import coupling, population, signal
from rfad.cli import build_parser, main
from rfad.config import DEFAULT_POPULATION_SEED, load_config
from rfad.hand import FINGERS
from rfad.materials import PERMITTIVITY
from rfad.classify import PopulationSpec
from rfad.population import generate_population, save_records
from rfad.readlog import load_code_series, write_log
from rfad.fluctuation import FluctuationModel, material_fluctuation_model, synthesize_series
from rfad.signal import estimate_code


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def air_log(tmp_path):
    """A simulated untouched-hand acquisition, all five channels."""
    path = tmp_path / "air.csv"
    assert run("simulate", "--baseline", "300", "--duration", "70",
               "--seed", "5", "-o", str(path)) == 0
    return path


@pytest.fixture()
def baseline_file(tmp_path, air_log):
    path = tmp_path / "baseline.json"
    assert run("calibrate", str(air_log), "-o", str(path)) == 0
    return path


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run("simulate", "--seed", "9", "--duration", "35",
                       "-o", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_material_preset(self, tmp_path):
        out = tmp_path / "water.csv"
        assert run("simulate", "--material", "deionized_water",
                   "--duration", "70", "-o", str(out)) == 0
        assert out.exists()

    @pytest.mark.parametrize("material", ["lava", "ecoflex_00_30", ""],
                             ids=["lava", "ecoflex", "empty"])
    def test_unknown_material_is_data_error(self, tmp_path, capsys, material):
        # an empty material once wrote an untouched-hand series, with exit 0
        out = tmp_path / "x.csv"
        assert run("simulate", "--material", material, "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            f"rfad: unknown reference material {material!r}; "
            "known: ['deionized_water', 'ethyl_alcohol', 'olive_oil']\n")
        assert not out.exists()

    def test_empty_material_with_baseline_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("simulate", "--material", "", "--baseline", "250", "-o", str(out)) == 1
        assert capsys.readouterr().err.startswith("usage: rfad simulate")
        assert not out.exists()

    @pytest.mark.parametrize("channels", [(), ("--channels", "V")])
    def test_negative_seed_is_data_error(self, tmp_path, capsys, channels):
        # channel V's seed is --seed + 4, which is 2 here
        out = tmp_path / "n.csv"
        assert run("simulate", "--seed", "-2", *channels, "-o", str(out)) == 2
        assert capsys.readouterr().err == "rfad: seed must be non-negative, got -2\n"
        assert not out.exists()

    def test_material_baseline_follows_channel_model(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("span_code.III = 120\n")
        out = tmp_path / "water.csv"
        assert run("--config", str(cfg), "simulate", "--material", "deionized_water",
                   "--channels", "III", "-o", str(out)) == 0
        baseline = load_config(cfg).channel_code("III", 78.0)
        expected = synthesize_series(
            material_fluctuation_model("deionized_water", baseline), 70.0,
            seed=1 + FINGERS.index("III"))
        assert list(load_code_series(out)["III"].codes) == list(expected.codes)

    def test_acquisition_keys_reach_every_series(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("sample_period = 1 s\n")
        water, logs = tmp_path / "water.csv", tmp_path / "logs"
        logs.mkdir()
        assert run("--config", str(cfg), "simulate", "--material", "deionized_water",
                   "-o", str(water)) == 0
        assert run("--config", str(cfg), "stats", "--generate",
                   "--log-dir", str(logs)) == 0
        paths = [water, *sorted(logs.glob("*.csv"))]
        assert len(paths) == 91
        for path in paths:
            for series in load_code_series(path).values():
                assert list(series.times) == [float(i) for i in range(70)]

    @pytest.mark.parametrize("argv, channels", [
        (("--material", "ethyl_alcohol", "--seed", "3"), FINGERS),
        (("--baseline", "120", "--seed", "11", "--channels", "V", "I", "V"), ("I", "V")),
        (("--baseline", "0", "--seed", "2", "--duration", "350"), FINGERS),
        (("--material", "deionized_water", "--seed", str(2 ** 130), "--channels", "IV"),
         ("IV",)),
    ], ids=["material", "baseline-channels", "baseline-0", "seed-over-four-words"])
    def test_channels_equal_the_block_rows(self, tmp_path, argv, channels):
        # simulate draws in pure Python what the campaign's numpy block draws
        out = tmp_path / "s.csv"
        assert run("simulate", *argv, "-o", str(out)) == 0
        series = load_code_series(out)
        assert tuple(series) == tuple(channels)
        config, seed = load_config(), int(argv[argv.index("--seed") + 1])
        duration = float(argv[argv.index("--duration") + 1]) if "--duration" in argv else 70.0
        if argv[0] == "--material":
            model = material_fluctuation_model(argv[1], 0)
            baselines = [config.channel_code(ch, PERMITTIVITY[argv[1]]) for ch in channels]
        else:
            model = FluctuationModel(baseline=int(argv[1]))
            baselines = [int(argv[1])] * len(channels)
        times, codes = signal.synthesize_block(
            model, duration, [seed + FINGERS.index(ch) for ch in channels], baselines)
        assert [list(series[ch].codes) for ch in channels] == codes.tolist()
        assert all(list(series[ch].times) == times.tolist() for ch in channels)

    def test_longest_output_name_is_written(self, tmp_path):
        out = tmp_path / ("a" * 251 + ".csv")
        assert run("simulate", "--baseline", "300", "--duration", "7", "-o", str(out)) == 0
        assert set(load_code_series(out)) == set(FINGERS)
        assert os.listdir(tmp_path) == [out.name]

    def test_channel_subset(self, tmp_path):
        out = tmp_path / "two.csv"
        assert run("simulate", "--channels", "II", "V", "-o", str(out)) == 0
        channels = {line.split(",")[1] for line in
                    out.read_text().splitlines()[1:]}
        assert channels == {"II", "V"}


class TestCalibrate:
    def test_baseline_near_configured_code(self, baseline_file):
        payload = json.loads(baseline_file.read_text())
        assert set(payload["codes"]) == {"I", "II", "III", "IV", "V"}
        for code in payload["codes"].values():
            assert abs(code - 300.0) < 5.0

    def test_baseline_with_a_gap_is_pinned(self, tmp_path, capsys):
        air, baseline = tmp_path / "air.csv", tmp_path / "baseline.json"
        assert run("simulate", "--baseline", "300", "--seed", "5", "--duration", "14",
                   "--channels", "I", "II", "IV", "V", "-o", str(air)) == 0
        capsys.readouterr()
        assert run("calibrate", str(air), "-o", str(baseline)) == 0
        assert capsys.readouterr() == (
            f"baseline for 4 channels -> {baseline}, gaps: III\n", "")
        assert baseline.read_text() == (
            '{\n  "codes": {\n    "I": 299.8,\n    "II": 300.3,\n    "IV": 299.4,\n'
            '    "V": 299.6\n  },\n  "timestamp": "",\n  "gaps": [\n    "III"\n  ]\n}\n')

    def test_missing_log_is_data_error(self, tmp_path):
        assert run("calibrate", str(tmp_path / "nope.csv"),
                   "-o", str(tmp_path / "b.json")) == 2

    def test_obeys_the_estimator(self, tmp_path, air_log):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("estimator = median\n")
        out = tmp_path / "baseline.json"
        assert run("--config", str(cfg), "calibrate", str(air_log), "-o", str(out)) == 0
        series = load_code_series(air_log)
        medians = {ch: estimate_code(series[ch], 10, "median") for ch in FINGERS}
        assert medians != {ch: estimate_code(series[ch], 10, "mean") for ch in FINGERS}
        assert json.loads(out.read_text())["codes"] == medians

    @pytest.mark.parametrize("command", ["calibrate", "fingerprint"])
    def test_short_channel_names_file_and_channel(self, tmp_path, capsys,
                                                  baseline_file, command):
        log = tmp_path / "short.csv"
        log.write_text("timestamp_s,channel,code\n" + "".join(
            f"{0.7 * i!r},{ch},300\n" for ch, n in (("I", 12), ("III", 5))
            for i in range(n)))
        argv = {"calibrate": ["calibrate", log],
                "fingerprint": ["fingerprint", log, "--baseline", baseline_file]}[command]
        capsys.readouterr()
        assert run(*map(str, argv), "-o", str(tmp_path / "out.json")) == 2
        err = capsys.readouterr().err
        assert err == f"rfad: {log}: channel III has 5 samples, needs >= 10\n"


class TestFingerprintAndClassify:
    def test_full_pipeline(self, tmp_path, baseline_file, capsys):
        touched = tmp_path / "touched.csv"
        assert run("simulate", "--material", "deionized_water", "--seed", "2",
                   "--duration", "70", "-o", str(touched)) == 0
        fps = tmp_path / "fps.json"
        assert run("fingerprint", str(touched), "--baseline", str(baseline_file),
                   "--label", "deionized_water", "-o", str(fps)) == 0
        capsys.readouterr()
        assert run("classify", "--fingerprints", str(fps)) == 0
        out = capsys.readouterr().out
        assert "high" in out

    def test_log_and_shuffled_series_agree(self, tmp_path, baseline_file):
        touched = tmp_path / "touched.csv"
        assert run("simulate", "--material", "ethyl_alcohol", "--seed", "3",
                   "-o", str(touched)) == 0
        header, *rows = touched.read_text().splitlines()
        random.Random(0).shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join([header] + rows) + "\n")
        log = tmp_path / "log.csv"
        series = load_code_series(touched)
        write_log(series, log, dict.fromkeys(series, "E280"))
        outputs = []
        for source in (touched, shuffled, log):
            out = tmp_path / f"fp-{source.stem}.json"
            assert run("fingerprint", str(source), "--baseline", str(baseline_file),
                       "-o", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_baseline_gap_names_the_baseline(self, tmp_path, capsys):
        air, baseline = tmp_path / "air.csv", tmp_path / "b.json"
        touched, out = tmp_path / "touched.csv", tmp_path / "f.json"
        assert run("simulate", "--baseline", "300", "--channels", "I", "-o", str(air)) == 0
        assert run("calibrate", str(air), "-o", str(baseline)) == 0
        assert run("simulate", "--material", "olive_oil", "-o", str(touched)) == 0
        capsys.readouterr()
        assert run("fingerprint", str(touched), "--baseline", str(baseline),
                   "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            f"rfad: {baseline}: no calibration baseline for channel II\n")
        assert not out.exists()

    def test_empty_label_is_data_error(self, tmp_path, capsys, air_log, baseline_file):
        # an empty label was once written as "material": "", which classify
        # then printed as fingerprint-1
        out = tmp_path / "f.json"
        capsys.readouterr()
        assert run("fingerprint", str(air_log), "--baseline", str(baseline_file),
                   "--label", "", "-o", str(out)) == 2
        assert capsys.readouterr() == (
            "", "rfad: --label: material label '' must be a non-empty string UTF-8 can encode\n")
        assert not out.exists()

    def test_label_is_refused_before_any_file_is_read(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert run("fingerprint", str(missing / "log.csv"), "--baseline",
                   str(missing / "b.json"), "--label", "", "-o", str(tmp_path / "f.json")) == 2
        assert capsys.readouterr().err == (
            "rfad: --label: material label '' must be a non-empty string UTF-8 can encode\n")

    def test_baseline_without_codes_is_refused_before_the_log_is_read(self, tmp_path, capsys):
        # calibrate never writes one: a log without channels is refused
        baseline, out = tmp_path / "empty.json", tmp_path / "f.json"
        baseline.write_text('{"codes": {}}')
        assert run("fingerprint", str(tmp_path / "missing.csv"), "--baseline", str(baseline),
                   "-o", str(out)) == 2
        assert capsys.readouterr().err == (
            f"rfad: {baseline}: a baseline needs the air code of at least one finger\n")
        assert not out.exists()

    def test_classify_value(self, capsys):
        assert run("classify", "--value", "25") == 0
        assert "low" in capsys.readouterr().out
        assert run("classify", "--value", "100") == 0
        assert "medium" in capsys.readouterr().out

    def test_unclassifiable_value_is_data_error(self, capsys):
        assert run("classify", "--value", "1000") == 2
        assert run("classify", "--value", "nan") == 2
        assert capsys.readouterr().err.endswith("rfad: value nan is not a number\n")

    def test_outer_bounds_follow_the_ladder(self, tmp_path, capsys):
        # water's class mean here is 400, beyond the shipped ladder's 320
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("s_min = 0\ns_max = 500\nbaseline_code = 450\nspan_code = 400\n")
        capsys.readouterr()
        assert run("--config", str(cfg), "classify", "--value", "400") == 0
        assert capsys.readouterr().out == "value: F=400.00 -> high\n"

    def test_classify_requires_an_input(self):
        assert run("classify") == 1

    def test_unlabelled_fingerprint_gets_its_position(self, tmp_path, capsys):
        fps = tmp_path / "fps.json"
        fps.write_text(json.dumps([dict(_fp(), material="oil"), _fp()]))
        capsys.readouterr()
        assert run("classify", "--fingerprints", str(fps)) == 0
        assert capsys.readouterr().out == ("oil: F=10.00 -> low\n"
                                           "fingerprint-2: F=10.00 -> low\n")

    def test_fingerprint_outside_the_classes_prints_no_line(self, tmp_path, capsys):
        # the first fingerprint's line was once printed before the second failed
        fps = tmp_path / "fps.json"
        fps.write_text(json.dumps([dict(_fp(), material="a"),
                                   dict(_fp(), material="b",
                                        values={f: 1000.0 for f in FINGERS})]))
        capsys.readouterr()
        assert run("classify", "--fingerprints", str(fps)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"rfad: {fps}: b: value 1000.0 is 680 outside [-320.0, 320.0]\n"


class TestCoupling:
    def test_default_fixture_summary(self, capsys):
        assert run("coupling") == 0
        out = capsys.readouterr().out
        assert "2.89%" in out

    def test_turn_on_budget(self, capsys):
        assert run("coupling", "--turn-on") == 0
        out = capsys.readouterr().out
        assert "dBm" in out

    def test_empty_matrix_path_is_data_error(self, capsys):
        # an empty --matrix once screened the shipped fixture, with exit 0
        assert run("coupling", "--matrix", "") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "rfad: [Errno 2] No such file or directory: ''\n"

    def test_bad_tau_fails_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run("coupling", "--turn-on", "--tau", "0", "-o", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tau must be in (0, 1]" in captured.err
        assert not out.exists()

    def test_csv_output(self, tmp_path):
        out = tmp_path / "coupling.csv"
        assert run("coupling", "-o", str(out)) == 0
        assert out.read_text().splitlines()[0] == "port,I,II,III,IV,V"

    def test_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("frequency = 867 MHz\nports = I II\n"
                        "50+0j 1+0j\n1+0j 50+0j\n")
        assert run("coupling", "--matrix", str(path)) == 0

    def test_nonfinite_matrix_entry_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "z.txt"
        path.write_text("frequency = 867 MHz\nports = I II\n"
                        "50+0j 1+0j\nnan+0j 50+0j\n")
        assert run("coupling", "--matrix", str(path)) == 2
        assert f"{path}:4:" in capsys.readouterr().err

    @pytest.mark.parametrize("first,place", [
        (b"frequency = 1 parsec\n", ":1: unknown unit"),
        (b"frequency = 1e309 Hz\n", ":1: non-finite"),
        # a frequency takes only frequency units
        (b"frequency = 867 s\n", ":1: unknown unit 's'"),
        (b"frequency = 10 dBm\n", ":1: unknown unit 'dBm'"),
        (b"frequency = 867 MHz  # \xff\n", ": not UTF-8 text")])
    def test_bad_header_is_data_error_naming_the_file(self, tmp_path, capsys,
                                                      first, place):
        path = tmp_path / "z.txt"
        path.write_bytes(first + b"ports = I II\n50+0j 1+0j\n1+0j 50+0j\n")
        assert run("coupling", "--matrix", str(path)) == 2
        assert f"{path}{place}" in capsys.readouterr().err

    # exactly singular, and singular up to rounding (Z + H near [[1, 2], [2, 4]])
    @pytest.mark.parametrize("ports, rows", [
        ("I", "-2.8+76j\n"), ("I II", "-1.8+76j 2+0j\n2+0j 1.2+76j\n")],
        ids=["singular", "near-singular"])
    def test_singular_matrix_is_numerical_error(self, tmp_path, capsys, ports, rows):
        path = tmp_path / "z.txt"
        path.write_text(f"frequency = 867 MHz\nports = {ports}\n{rows}")
        assert run("coupling", "--matrix", str(path)) == 3
        assert "Z + H is singular or near-singular" in capsys.readouterr().err

    def test_repeated_header_is_data_error(self, tmp_path, capsys):
        # the second frequency once replaced the first
        path = tmp_path / "z.txt"
        path.write_text("frequency = 867 MHz\nfrequency = 5 GHz\nports = I II\n"
                        "50+0j 1+0j\n1+0j 50+0j\n")
        assert run("coupling", "--matrix", str(path)) == 2
        assert f"{path}:2: repeated header key 'frequency'" in capsys.readouterr().err


def _flags(*fingers):
    return {f: f in fingers for f in FINGERS}


# Three materials out of sorted order with 3, 2 and 1 trials, a trial where
# no finger responded, which has no fingerprint, and one where all five did.
_HAND_RECORDS = [
    {"subject": "S01", "material": "olive_oil", "fingerprint": None, "responsive": _flags()},
    {"subject": "S01", "material": "deionized_water", "responsive": _flags(*FINGERS),
     "fingerprint": {"values": {"I": 10.0, "II": 12.0, "III": 14.0, "IV": 16.0, "V": 18.0},
                     "imputed": _flags(), "n_responsive": 5}},
    {"subject": "S02", "material": "olive_oil", "responsive": _flags("II", "III"),
     "fingerprint": {"values": {"I": 25.0, "II": 20.0, "III": 30.0, "IV": 25.0, "V": 25.0},
                     "imputed": _flags("I", "IV", "V"), "n_responsive": 2}},
    {"subject": "S02", "material": "ethyl_alcohol", "responsive": _flags("I", "II"),
     "fingerprint": {"values": {"I": 90.0, "II": 80.0, "III": 85.0, "IV": 85.0, "V": 85.0},
                     "imputed": _flags("III", "IV", "V"), "n_responsive": 2}},
    {"subject": "S03", "material": "olive_oil", "responsive": _flags("III", "IV", "V"),
     "fingerprint": {"values": {"I": 30.0, "II": 30.0, "III": 20.0, "IV": 30.0, "V": 40.0},
                     "imputed": _flags("I", "II"), "n_responsive": 3}},
    {"subject": "S03", "material": "deionized_water", "responsive": _flags("I", "II", "IV", "V"),
     "fingerprint": {"values": {"I": 150.0, "II": 160.0, "III": 160.0, "IV": 170.0,
                                "V": 160.0},
                     "imputed": _flags("III"), "n_responsive": 4}},
]

_HAND_REPORT = """\
{
  "trials": 6,
  "ccd_percent": [
    83.33333333333333,
    83.33333333333333,
    50.0,
    33.333333333333336,
    16.666666666666668
  ],
  "per_finger_rates": {
    "I": {
      "deionized_water": 100.0,
      "ethyl_alcohol": 100.0,
      "olive_oil": 0.0
    },
    "II": {
      "deionized_water": 100.0,
      "ethyl_alcohol": 100.0,
      "olive_oil": 33.333333333333336
    },
    "III": {
      "deionized_water": 50.0,
      "ethyl_alcohol": 0.0,
      "olive_oil": 66.66666666666667
    },
    "IV": {
      "deionized_water": 100.0,
      "ethyl_alcohol": 0.0,
      "olive_oil": 33.333333333333336
    },
    "V": {
      "deionized_water": 100.0,
      "ethyl_alcohol": 0.0,
      "olive_oil": 33.333333333333336
    }
  },
  "joint_rates": {
    "I": 50.0,
    "II": 66.66666666666667,
    "III": 50.0,
    "IV": 50.0,
    "V": 50.0
  }
}
"""


class TestStats:
    def test_records_report_is_pinned(self, tmp_path, capsys):
        records = tmp_path / "records.json"
        records.write_text(json.dumps(_HAND_RECORDS))
        capsys.readouterr()
        assert run("stats", "--records", str(records)) == 0
        assert capsys.readouterr().out == _HAND_REPORT

    def test_generate_and_reload(self, tmp_path, capsys):
        records = tmp_path / "records.json"
        report = tmp_path / "report.json"
        assert run("stats", "--generate", "--records-out", str(records),
                   "-o", str(report)) == 0
        payload = json.loads(report.read_text())
        assert payload["trials"] == 90
        assert payload["ccd_percent"][0] == 100.0
        capsys.readouterr()
        assert run("stats", "--records", str(records)) == 0
        again = json.loads(capsys.readouterr().out)
        assert again["ccd_percent"] == payload["ccd_percent"]

    def test_generate_obeys_config(self, tmp_path):
        cfg = tmp_path / "session.cfg"
        cfg.write_text("window = 30\n")
        default, configured = tmp_path / "a.json", tmp_path / "b.json"
        assert run("stats", "--generate", "--records-out", str(default)) == 0
        assert run("--config", str(cfg), "stats", "--generate",
                   "--records-out", str(configured)) == 0
        expected = tmp_path / "expected.json"
        save_records(generate_population(config=load_config(cfg)), expected)
        assert configured.read_bytes() == expected.read_bytes()
        assert configured.read_bytes() != default.read_bytes()

    @pytest.mark.parametrize("make", [None, "file"])
    def test_missing_log_dir_exits_before_simulating(self, tmp_path, capsys,
                                                     monkeypatch, make):
        logs = tmp_path / "logs"
        if make == "file":
            logs.write_text("")
        monkeypatch.setattr(population, "generate_population",
                            lambda *a, **kw: pytest.fail("simulation started"))
        before = sorted(tmp_path.iterdir())
        assert run("stats", "--generate", "--log-dir", str(logs),
                   "--records-out", str(tmp_path / "records.json"),
                   "-o", str(tmp_path / "report.json")) == 2
        err = capsys.readouterr().err
        assert err == f"rfad: --log-dir {logs}: not an existing directory\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_negative_seed_is_data_error(self, tmp_path, capsys):
        records = tmp_path / "records.json"
        assert run("stats", "--generate", "--seed", "-1", "--records-out", str(records)) == 2
        assert capsys.readouterr().err == "rfad: seed must be non-negative, got -1\n"
        assert not records.exists()

    @pytest.mark.parametrize("setting, error", [
        ("window = 200", "the campaign's 70 s series hold 100 samples at sample_period = "
                         "0.7 s; they must hold from window = 200 to 1000000"),
        ("sample_period = 100 s", "the campaign's 70 s series hold 0 samples at "
                                  "sample_period = 100 s; they must hold from window = 10 "
                                  "to 1000000"),
        ("sample_period = 10 us", "the campaign's 70 s series hold over 1000000 samples at "
                                  "sample_period = 1e-05 s; they must hold from window = 10 "
                                  "to 1000000"),
    ], ids=["window", "long-period", "short-period"])
    def test_config_the_campaign_cannot_run_is_refused_by_its_keys(
            self, tmp_path, capsys, monkeypatch, setting, error):
        cfg = tmp_path / "session.cfg"
        cfg.write_text(setting + "\n")
        monkeypatch.setattr(population, "generate_population",
                            lambda *a, **kw: pytest.fail("simulation started"))
        out = tmp_path / "report.json"
        assert run("--config", str(cfg), "stats", "--generate", "-o", str(out)) == 2
        assert capsys.readouterr().err == f"rfad: {error}\n"
        assert os.listdir(tmp_path) == ["session.cfg"]

    def test_window_of_every_campaign_sample_runs(self, tmp_path):
        # 70 s at the default 0.7 s sample period is 100 samples
        cfg = tmp_path / "session.cfg"
        cfg.write_text("window = 100\n")
        assert run("--config", str(cfg), "stats", "--generate") == 0

    @pytest.mark.parametrize("flag", ["--records-out", "-o"])
    def test_missing_output_directory_exits_before_simulating(self, tmp_path, capsys,
                                                              monkeypatch, flag):
        out = tmp_path / "nodir" / "out.json"
        monkeypatch.setattr(population, "generate_population",
                            lambda *a, **kw: pytest.fail("simulation started"))
        assert run("stats", "--generate", flag, str(out)) == 2
        err = capsys.readouterr().err
        assert err == f"rfad: {out}: directory {str(tmp_path / 'nodir')!r} does not exist\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("records_out", ["same.json", "{dir}/same.json"])
    def test_records_out_and_output_must_differ(self, tmp_path, capsys, monkeypatch,
                                                records_out):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(population, "generate_population",
                            lambda *a, **kw: pytest.fail("simulation started"))
        assert run("stats", "--generate", "--records-out", records_out.format(dir=tmp_path),
                   "-o", "same.json") == 2
        err = capsys.readouterr().err
        assert err == "rfad: same.json: --records-out and -o name the same file\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, name", [
        ("--records-out", "subject01_olive_oil_trial1.csv"),
        ("-o", "subject02_ethyl_alcohol_trial3.csv"),
        ("-o", "subject10_deionized_water_trial3.csv"),
    ])
    def test_an_output_that_is_a_log_is_refused(self, tmp_path, capsys, monkeypatch,
                                                flag, name):
        # the file would overwrite, or be overwritten by, the log of that trial
        monkeypatch.chdir(tmp_path)
        (tmp_path / "logs").mkdir()
        monkeypatch.setattr(population, "generate_population",
                            lambda *a, **kw: pytest.fail("simulation started"))
        target = f"{tmp_path}/logs/{name}" if flag == "-o" else f"logs/{name}"
        assert run("stats", "--generate", "--log-dir", "logs", flag, target) == 2
        err = capsys.readouterr().err
        assert err == f"rfad: {target}: {flag} names a reader log of --log-dir\n"
        assert list((tmp_path / "logs").iterdir()) == []

    @pytest.mark.parametrize("spelling", ["./logs/{}", "logs/../logs/{}", "logs//{}",
                                          "link/{}"],
                             ids=["dot", "parent", "double-slash", "symlink"])
    def test_a_log_spelled_another_way_is_refused(self, tmp_path, capsys, monkeypatch,
                                                  spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "logs").mkdir()
        (tmp_path / "link").symlink_to("logs")
        monkeypatch.setattr(population, "generate_population",
                            lambda *a, **kw: pytest.fail("simulation started"))
        target = spelling.format("subject03_ethyl_alcohol_trial2.csv")
        assert run("stats", "--generate", "--log-dir", "logs", "-o", target) == 2
        err = capsys.readouterr().err
        assert err == f"rfad: {target}: -o names a reader log of --log-dir\n"
        assert list((tmp_path / "logs").iterdir()) == []

    @pytest.mark.parametrize("log_dir, target", [
        (None, "subject01_olive_oil_trial1.csv"),  # no log is written
        ("logs", "logs/subject11_olive_oil_trial1.csv"),  # beyond the 10 subjects
        ("logs", "logs/report.json"),
    ])
    def test_an_output_beside_the_logs_is_written(self, tmp_path, monkeypatch,
                                                  log_dir, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "logs").mkdir()
        records = generate_population(PopulationSpec(subjects=1, trials=1))
        monkeypatch.setattr(population, "generate_population", lambda *a, **kw: records)
        log_flags = [] if log_dir is None else ["--log-dir", log_dir]
        assert run("stats", "--generate", *log_flags, "-o", target) == 0
        assert json.loads((tmp_path / target).read_text())["trials"] == len(records)

    @pytest.mark.parametrize("flag", ["--records-out", "-o"])
    def test_an_output_that_is_a_directory_is_refused(self, tmp_path, capsys, monkeypatch,
                                                      flag):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "logs").mkdir()
        monkeypatch.setattr(population, "generate_population",
                            lambda *a, **kw: pytest.fail("simulation started"))
        assert run("stats", "--generate", "--log-dir", "logs", flag, "logs") == 2
        assert capsys.readouterr().err == "rfad: logs: is a directory, not a file\n"
        assert list((tmp_path / "logs").iterdir()) == []

    def test_a_log_that_is_a_directory_is_refused_before_simulating(self, tmp_path, capsys,
                                                                    monkeypatch):
        # the 90 log names pass the output-place check before the campaign
        # runs; 36 logs were once written before this one was refused
        monkeypatch.chdir(tmp_path)
        (tmp_path / "logs" / "subject05_olive_oil_trial1.csv").mkdir(parents=True)
        assert run("stats", "--generate", "--log-dir", "logs", "-o", "rep.json") == 2
        assert capsys.readouterr() == (
            "", "rfad: logs/subject05_olive_oil_trial1.csv: is a directory, not a file\n")
        assert os.listdir(tmp_path / "logs") == ["subject05_olive_oil_trial1.csv"]
        assert os.listdir(tmp_path) == ["logs"]

    def test_a_source_is_required(self, capsys, monkeypatch):
        monkeypatch.setattr(population, "generate_population",
                            lambda *a, **kw: pytest.fail("simulation started"))
        assert run("stats") == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rfad stats")
        assert "one of the arguments --records --generate is required" in err

    def test_records_and_generate_exclude_each_other(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(population, "generate_population",
                            lambda *a, **kw: pytest.fail("simulation started"))
        assert run("stats", "--generate", "--records", str(tmp_path / "r.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rfad stats")
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("flags, named", [
        (["--seed", "5"], "--seed"),
        (["--log-dir", "nodir"], "--log-dir"),
        (["--records-out", "nodir/x.json"], "--records-out"),
        (["--seed", "5", "--log-dir", "nodir", "--records-out", "nodir/x.json", "--seed", "6"],
         "--seed, --log-dir, --records-out"),
        (["--records-out=nodir/x.json"], "--records-out"),
    ])
    def test_records_refuses_the_generate_flags(self, tmp_path, capsys, flags, named):
        records, report = tmp_path / "r.json", tmp_path / "report.json"
        save_records(generate_population(PopulationSpec(subjects=1)), records)
        capsys.readouterr()
        assert run("stats", "--records", str(records), *flags, "-o", str(report)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rfad stats")
        assert f"error: {named}: not allowed with --records" in err
        assert not report.exists()

    def test_deterministic_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("stats", "--generate", "-o", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_defaults_to_the_shipped_seed(self):
        args = build_parser().parse_args(["stats", "--generate"])
        assert args.seed == DEFAULT_POPULATION_SEED == 20

    def test_generate_without_seed_writes_the_shipped_seed_records(self, tmp_path):
        default, seeded = tmp_path / "default.json", tmp_path / "seeded.json"
        assert run("stats", "--generate", "--records-out", str(default)) == 0
        assert run("stats", "--generate", "--seed", "20", "--records-out", str(seeded)) == 0
        assert default.read_bytes() == seeded.read_bytes()

    def test_record_whose_fingerprint_disagrees_is_data_error(self, tmp_path, capsys):
        # all five fingers said responsive, but the fingerprint read only I
        one_read = dict(_fp(), imputed={f: f != "I" for f in FINGERS}, n_responsive=1)
        bad = tmp_path / "records.json"
        bad.write_text(json.dumps([_as_record(one_read)]))
        assert run("stats", "--records", str(bad)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "disagree" in err

    def test_record_without_fingerprint_that_claims_a_responder_is_data_error(
            self, tmp_path, capsys):
        claims = _flags("II")
        bad = tmp_path / "records.json"
        bad.write_text(json.dumps([_as_record(_fp()), {"subject": "S02", "material": "olive_oil",
                                                       "responsive": claims}]))
        report = tmp_path / "report.json"
        assert run("stats", "--records", str(bad), "-o", str(report)) == 2
        assert capsys.readouterr().err == (
            f"rfad: {bad}: entry 1: responsive flags {claims} disagree with a record "
            f"without a fingerprint, in which no finger responded\n")
        assert not report.exists()


class TestExport:
    def test_kiviat_svg_and_csv(self, tmp_path, baseline_file):
        touched = tmp_path / "touched.csv"
        fps = tmp_path / "fps.json"
        assert run("simulate", "--material", "olive_oil", "--seed", "4",
                   "--duration", "70", "-o", str(touched)) == 0
        assert run("fingerprint", str(touched), "--baseline", str(baseline_file),
                   "-o", str(fps)) == 0
        out = tmp_path / "chart.svg"
        assert run("export", str(fps), "-o", str(out)) == 0
        assert out.exists()
        assert (tmp_path / "chart.csv").exists()

    @pytest.mark.parametrize("given, written", [
        ("chart.svg", "chart.svg"), ("chart", "chart.svg"), ("chart.SVG", "chart.SVG")])
    def test_names_the_svg_it_wrote(self, tmp_path, capsys, given, written):
        fps = tmp_path / "fps.json"
        fps.write_text(json.dumps([_fp()]))
        assert run("export", str(fps), "-o", str(tmp_path / given)) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / written} (+ CSV twin)\n"
        assert (tmp_path / written).exists()
        assert (tmp_path / "chart.csv").exists()

    def test_label_with_markup_characters(self, tmp_path):
        label = 'a"b<&c>'
        fps = tmp_path / "fps.json"
        fps.write_text(json.dumps([dict(_fp(), material=label)]))
        out = tmp_path / "chart.svg"
        assert run("export", str(fps), "-o", str(out)) == 0
        root = ElementTree.parse(out).getroot()
        labels = {e.get("data-label") for e in root if e.get("data-label") is not None}
        assert labels == {label}

    def test_label_with_whitespace_reads_back_exactly(self, tmp_path):
        label = "a\nb\tc\rd  e"
        fps = tmp_path / "fps.json"
        fps.write_text(json.dumps([dict(_fp(), material=label)]))
        out = tmp_path / "chart.svg"
        assert run("export", str(fps), "-o", str(out)) == 0
        root = ElementTree.parse(out).getroot()
        labels = {e.get("data-label") for e in root if e.get("data-label") is not None}
        assert labels == {label}

    @pytest.mark.parametrize("char", ["\x00", "\x01", "\x0b", "\x1f", "\ufffe", "\ud800"])
    def test_label_xml_forbids_is_a_data_error(self, tmp_path, capsys, char):
        label = f"x{char}y"
        fps = tmp_path / "fps.json"
        fps.write_text(json.dumps([dict(_fp(), material=label)]))
        assert run("export", str(fps), "-o", str(tmp_path / "chart.svg")) == 2
        assert repr(label) in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fps.json"]

    def test_average_past_the_float_range_is_refused(self, tmp_path, capsys):
        # each value is finite, so the fingerprint loads, but their mean is inf,
        # which the CSV twin's averaged column could not hold
        fps = tmp_path / "big.json"
        fps.write_text(json.dumps([_fp(), dict(_fp(), material="olive_oil",
                                               values=dict.fromkeys(FINGERS, 1e308))]))
        assert run("export", str(fps), "-o", str(tmp_path / "c.svg")) == 2
        assert capsys.readouterr().err == (
            f"rfad: {fps}: olive_oil: averaged value inf is not finite\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.json"]

    @pytest.mark.parametrize("given", ["outdir/", ".", ".."],
                             ids=["trailing-slash", "dot", "dot-dot"])
    def test_directory_path_is_refused_as_the_chart(self, tmp_path, monkeypatch, capsys,
                                                    given):
        # each once named a file that is no chart: 'outdir/.svg', './.svg', '...svg'
        work = tmp_path / "work"
        (work / "outdir").mkdir(parents=True)
        (work / "fps.json").write_text(json.dumps([_fp()]))
        monkeypatch.chdir(work)
        before = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*"))
        assert run("export", "fps.json", "-o", given) == 2
        assert capsys.readouterr() == ("", f"rfad: {given}: is a directory, not a file\n")
        assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == before


def _as_record(fp):
    """A fingerprint that is also a trial record, so one list serves every command."""
    return dict(fp, subject="S01", material="olive_oil",
                responsive={f: True for f in FINGERS}, fingerprint=fp)


def _fp(imputed=False):
    """Five values of 10.0, each flagged ``imputed``, counted as five responsive."""
    return {"values": {f: 10.0 for f in FINGERS},
            "imputed": {f: imputed for f in FINGERS}, "n_responsive": 5}


# A fingerprint with a string among its values.
_STRING_FP = dict(_fp(), values={f: "a" if f == "I" else 10.0 for f in FINGERS})
# One responsive finger, counted as five.
_MISCOUNTED_FP = dict(_fp(), imputed={f: f != "I" for f in FINGERS})


def _baseline(**fields):
    return json.dumps(dict({"codes": {f: 300 for f in FINGERS}}, **fields))


# Each malformed JSON input, as a baseline object and as a list of records.
_BAD_JSON = {
    "malformed": ('{"codes": {"I": 1', '[{"values": '),
    "missing-field": ('{"timestamp": ""}', '[{}]'),
    "list-for-object": ('[]', '[[]]'),
    "nan": ('{"codes": {"I": NaN}}', '[{"values": {"I": NaN}}]'),
    "string-value": ('{"codes": {"I": "a"}}', json.dumps([_as_record(_STRING_FP)])),
    "miscounted": (_baseline(gaps=["I"]), json.dumps([_as_record(_MISCOUNTED_FP)])),
    "non-bool-flag": (_baseline(codes={f: True for f in FINGERS}),
                      json.dumps([_as_record(_fp(imputed="no"))])),
    "deep-nesting": ("[" * 200_000, "[" * 200_000),
    # a key given twice, once read as its last value
    "repeated-key": ('{"codes": {"I": 999.5, ' + _baseline()[len('{"codes": {'):],
                     '[{"subject": "S02", ' + json.dumps([_as_record(_fp())])[len("[{"):]),
}


class TestJsonKinds:
    """A JSON file of another kind is refused by the kind expected and the
    JSON it holds, not by a Python error about indexing it."""

    @pytest.fixture()
    def files(self, tmp_path, air_log, baseline_file):
        fps = tmp_path / "fps.json"
        assert run("fingerprint", str(air_log), "--baseline", str(baseline_file),
                   "-o", str(fps)) == 0
        scalar = tmp_path / "scalar.json"
        scalar.write_text("7\n")
        strings = tmp_path / "strings.json"
        strings.write_text('["a"]\n')
        empty = tmp_path / "empty.json"
        empty.write_text("[]\n")
        return {"baseline": baseline_file, "fps": fps, "scalar": scalar,
                "strings": strings, "empty": empty, "log": air_log,
                "out": tmp_path / "out.json"}

    @pytest.mark.parametrize("argv, given, error", [
        (["classify", "--fingerprints", "{given}"], "baseline",
         "expected a fingerprint list (a JSON array), found an object"),
        (["export", "{given}", "-o", "{out}"], "baseline",
         "expected a fingerprint list (a JSON array), found an object"),
        (["stats", "--records", "{given}"], "baseline",
         "expected a record list (a JSON array), found an object"),
        (["fingerprint", "{log}", "--baseline", "{given}", "-o", "{out}"], "fps",
         "expected a baseline object (a JSON object), found an array"),
        (["fingerprint", "{log}", "--baseline", "{given}", "-o", "{out}"], "scalar",
         "expected a baseline object (a JSON object), found a number"),
        (["stats", "--records", "{given}"], "strings",
         "entry 0 of the record list is a string, not an object"),
        (["classify", "--fingerprints", "{given}"], "scalar",
         "expected a fingerprint list (a JSON array), found a number"),
        (["classify", "--fingerprints", "{given}"], "empty", "the fingerprint list is empty"),
        (["export", "{given}", "-o", "{out}"], "empty", "the fingerprint list is empty"),
        (["stats", "--records", "{given}"], "empty", "the record list is empty"),
    ])
    def test_wrong_kind_names_what_was_expected(self, files, capsys, argv, given, error):
        paths = dict(files, given=files[given])
        capsys.readouterr()
        assert run(*[arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err == f"rfad: {files[given]}: {error}\n"
        assert not files["out"].exists()


class TestJsonFieldTypes:
    """A field of the wrong JSON type is refused by the path, the entry
    and the field, not by a Python error about using it."""

    @pytest.mark.parametrize("command, payload, error", [
        ("stats", [dict(_as_record(_fp()), fingerprint=5)],
         "entry 0: field 'fingerprint' must be an object or null, found a number"),
        ("stats", [_as_record(_fp()), dict(_as_record(_fp()), responsive=["I"])],
         "entry 1: field 'responsive' must be an object, found an array"),
        ("stats", [_as_record(dict(_fp(), values=5))],
         "entry 0: field 'values' must be an object, found a number"),
        ("classify", [dict(_fp(), values=5)],
         "entry 0: field 'values' must be an object, found a number"),
        ("classify", [_fp(), _fp(), dict(_fp(), imputed="no")],
         "entry 2: field 'imputed' must be an object, found a string"),
        ("export", [dict(_fp(), n_responsive=True)],
         "entry 0: field 'n_responsive' must be a number, found a boolean"),
        ("export", [dict(_fp(), n_responsive=None)],
         "entry 0: field 'n_responsive' must be a number, found null"),
        # four fingers not imputed: int() would have made 4.9 the count 4
        ("classify", [dict(_fp(), imputed=dict(_fp()["imputed"], I=True), n_responsive=4.9)],
         "entry 0: field 'n_responsive' must be 4, the number of fingers not imputed, "
         "found 4.9"),
        ("stats", [_as_record(_fp()), _as_record(dict(_fp(), n_responsive=5.5))],
         "entry 1: field 'n_responsive' must be 5, the number of fingers not imputed, "
         "found 5.5"),
        ("classify", [_fp(), dict(_fp(), material=5)],
         "entry 1: field 'material' must be a string or null, found a number"),
        ("export", [dict(_fp(), material=["oil"])],
         "entry 0: field 'material' must be a string or null, found an array"),
        ("classify", [{"imputed": {}}], "entry 0: missing field 'values'"),
        ("fingerprint", {"codes": 5}, "field 'codes' must be an object, found a number"),
        ("fingerprint", {"codes": {f: 300 for f in FINGERS}, "gaps": "I"},
         "field 'gaps' must be an array, found a string"),
        ("fingerprint", {"codes": {f: 300 for f in FINGERS}, "timestamp": 0},
         "field 'timestamp' must be a string, found a number"),
        ("fingerprint", {"codes": {"I": "a"}},
         "baseline code 'a' for channel I must be a number in the storage range"),
        # {} is a fingerprint without its fields; only null or no field means none
        ("stats", [dict(_as_record(_fp()), fingerprint={})], "entry 0: missing field 'values'"),
    ], ids=["stats-fingerprint-number", "stats-responsive-array", "stats-values-number",
            "classify-values-number", "classify-imputed-string", "export-n-responsive-boolean",
            "export-n-responsive-null", "classify-n-responsive-4.9", "stats-n-responsive-5.5",
            "classify-material-number", "export-material-array", "classify-values-missing",
            "baseline-codes-number", "baseline-gaps-string", "baseline-timestamp-number",
            "baseline-code-string", "stats-fingerprint-empty-object"])
    def test_wrong_type_names_path_entry_and_field(self, tmp_path, capsys, air_log,
                                                    command, payload, error):
        given = tmp_path / "given.json"
        given.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = {"stats": ["stats", "--records", given],
                "classify": ["classify", "--fingerprints", given],
                "export": ["export", given, "-o", out],
                "fingerprint": ["fingerprint", air_log, "--baseline", given, "-o", out],
                }[command]
        capsys.readouterr()
        assert run(*map(str, argv)) == 2
        assert capsys.readouterr().err.startswith(f"rfad: {given}: {error}")
        assert not out.exists()

    def test_valid_files_load_as_before(self, tmp_path, capsys):
        records = tmp_path / "records.json"
        no_responder = dict(_as_record(_fp()), responsive=_flags(), fingerprint=None)
        no_field = {k: v for k, v in no_responder.items() if k != "fingerprint"}
        records.write_text(json.dumps([_as_record(_fp()), no_responder, no_field]))
        assert run("stats", "--records", str(records)) == 0
        fps = tmp_path / "fps.json"
        fps.write_text(json.dumps([dict(_fp(), n_responsive=5.0)]))
        assert run("classify", "--fingerprints", str(fps)) == 0


# Four values of 10.0 and an imputed V that is not their mean.
_NOT_THE_MEAN_FP = dict(_fp(), material="olive_oil", values=dict(_fp()["values"], V=999.0),
                        imputed={f: f == "V" for f in FINGERS}, n_responsive=4)


class TestImputedValueIsTheMean:
    """An imputed finger's value is the mean of the fingers not imputed: a
    file that holds another value is refused where it is read, by the path
    and the entry, not classified, drawn or counted with that value."""

    @pytest.mark.parametrize("command, payload", [
        ("classify", [_fp(), _NOT_THE_MEAN_FP]),
        ("export", [_fp(), _NOT_THE_MEAN_FP]),
        ("stats", [_as_record(_fp()), dict(_as_record(_NOT_THE_MEAN_FP),
                                           responsive={f: f != "V" for f in FINGERS})]),
    ], ids=["classify", "export", "stats-records"])
    def test_imputed_value_not_the_mean_is_refused(self, tmp_path, capsys, command, payload):
        given = tmp_path / "given.json"
        given.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = {"classify": ["classify", "--fingerprints", given],
                "export": ["export", given, "-o", out],
                "stats": ["stats", "--records", given, "-o", out]}[command]
        assert run(*map(str, argv)) == 2
        assert capsys.readouterr() == ("", (
            f"rfad: {given}: entry 1: field 'values' of imputed finger V must be 10.0, "
            f"the mean of the fingers not imputed, found 999.0\n"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["given.json"]


class TestValuesNoFileCanHold:
    """Text that UTF-8 cannot encode (a lone surrogate, from a JSON escape
    or an undecodable byte of the command line) and integers beyond the
    float range are refused where they enter: exit 2, a message naming
    the path and the entry, and no output."""

    @pytest.mark.parametrize("command, payload, error", [
        ("classify", [_fp(), dict(_fp(), material="\ud800")],
         "entry 1: material label '\\ud800' must be a non-empty string UTF-8 can encode"),
        ("export", [dict(_fp(), material="oil\udcff")],
         "entry 0: material label 'oil\\udcff' must be a non-empty string UTF-8 "
         "can encode"),
        # an explicit id: the message as its id would be over 200 characters
        pytest.param("stats", [dict(_as_record(_fp()), subject="\ud800")],
                     "entry 0: trial record subject and material must be non-empty strings "
                     "UTF-8 can encode, got '\\ud800' and 'olive_oil'",
                     id="stats-subject-not-utf8"),
        ("stats", [_as_record(dict(_fp(), material="\udfff"))],
         "entry 0: material label '\\udfff' must be a non-empty string"),
        ("classify", [dict(_fp(), values={**_fp()["values"], "II": 10 ** 400})],
         "entry 0: fingerprint values must be finite numbers"),
    ])
    def test_input_file_is_refused(self, tmp_path, capsys, command, payload, error):
        given = tmp_path / "given.json"
        given.write_text(json.dumps(payload))
        out = tmp_path / "out"
        argv = {"stats": ["stats", "--records", given, "-o", out],
                "classify": ["classify", "--fingerprints", given],
                "export": ["export", given, "-o", out]}[command]
        assert run(*map(str, argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"rfad: {given}: {error}")
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["given.json"]

    def test_label_utf8_cannot_encode_is_refused(self, tmp_path, capsys, air_log,
                                                 baseline_file):
        # what Python makes of the command-line bytes b"oil\xff"
        out = tmp_path / "fps.json"
        capsys.readouterr()
        assert run("fingerprint", str(air_log), "--baseline", str(baseline_file),
                   "--label", "oil\udcff", "-o", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.err == ("rfad: --label: material label 'oil\\udcff' must be "
                                "a non-empty string UTF-8 can encode\n")
        assert captured.out == ""
        assert not out.exists()


class TestNoArguments:
    """Each subcommand run without arguments: ``coupling`` screens the
    shipped fixture, and every other subcommand exits 1 with its usage."""

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "fingerprint", "classify",
                                         "coupling", "stats", "export"])
    def test_subcommand_without_arguments(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        status = run(command)
        out, err = capsys.readouterr()
        if command == "coupling":
            report = coupling.normalize_coupling(coupling.REFERENCE_COUPLING_MAGNITUDES)
            assert status == 0
            assert (out, err) == (coupling.coupling_summary(report, FINGERS) + "\n", "")
        else:
            assert (status, out) == (1, "")
            assert err.startswith(f"usage: rfad {command}")
        assert os.listdir(tmp_path) == []


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(_BAD_JSON))
    @pytest.mark.parametrize("command", ["classify", "export", "stats", "fingerprint"])
    def test_malformed_json_is_data_error(self, tmp_path, capsys, air_log,
                                          command, case):
        as_object, as_list = _BAD_JSON[case]
        bad = tmp_path / "bad.json"
        bad.write_text(as_object if command == "fingerprint" else as_list)
        argv = {
            "classify": ["classify", "--fingerprints", bad],
            "export": ["export", bad, "-o", tmp_path / "chart.svg"],
            "stats": ["stats", "--records", bad],
            "fingerprint": ["fingerprint", air_log, "--baseline", bad,
                            "-o", tmp_path / "fp.json"],
        }[command]
        capsys.readouterr()
        assert run(*map(str, argv)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err

    def _refused_output(self, tmp_path, capsys, air_log, command, out, message):
        """Run ``command`` with ``-o out``: exit 2 with ``message``, before
        any work, so nothing is printed and no file is made."""
        inputs = {
            "stats": tmp_path / "records.json",
            "fingerprint": tmp_path / "baseline.json",
            "export": tmp_path / "fps.json",
        }
        argv = {
            "simulate": ["simulate", "-o", out],
            "calibrate": ["calibrate", air_log, "-o", out],
            "fingerprint": ["fingerprint", air_log, "--baseline", inputs["fingerprint"],
                            "-o", out],
            "coupling": ["coupling", "--turn-on", "-o", out],
            "stats": ["stats", "--records", inputs["stats"], "-o", out],
            "export": ["export", inputs["export"], "-o", out],
        }[command]
        if command == "stats":
            save_records(generate_population(PopulationSpec(subjects=1)), inputs["stats"])
        elif command == "fingerprint":
            assert run("calibrate", str(air_log), "-o", str(inputs["fingerprint"])) == 0
        elif command == "export":
            inputs["export"].write_text(json.dumps([_fp()]))
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run(*map(str, argv)) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""  # a failed run prints no report
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "fingerprint", "coupling",
                                         "stats", "export"])
    def test_missing_output_directory_is_data_error(self, tmp_path, capsys, air_log,
                                                    command):
        out = tmp_path / "nodir" / ("chart.svg" if command == "export" else "out")
        self._refused_output(
            tmp_path, capsys, air_log, command, out,
            f"rfad: {out}: directory {str(tmp_path / 'nodir')!r} does not exist\n")

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "fingerprint", "coupling",
                                         "stats", "export"])
    def test_directory_output_is_data_error(self, tmp_path, capsys, air_log, command):
        # refused before any work: coupling -o DIR once printed its summary first
        out = tmp_path / ("chart.svg" if command == "export" else "out")
        out.mkdir()
        self._refused_output(tmp_path, capsys, air_log, command, out,
                             f"rfad: {out}: is a directory, not a file\n")
        assert list(out.iterdir()) == []

    def test_repeated_baseline_key_is_refused_by_the_key(self, tmp_path, capsys, air_log):
        # the last value, 199.9, was once read as channel II's air code
        baseline, out = tmp_path / "b.json", tmp_path / "f.json"
        baseline.write_text('{"codes": {"I": 300, "II": 999.5, "III": 300, "II": 199.9, '
                            '"IV": 300, "V": 300}}\n')
        capsys.readouterr()
        assert run("fingerprint", str(air_log), "--baseline", str(baseline),
                   "-o", str(out)) == 2
        assert capsys.readouterr() == ("", f"rfad: {baseline}: repeated key 'II'\n")
        assert not out.exists()

    def test_no_arguments_is_usage_error(self):
        assert run() == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_bad_config_path_is_data_error(self, tmp_path):
        assert run("--config", str(tmp_path / "nope.cfg"),
                   "classify", "--value", "10") == 2

    def test_repeated_config_key_is_data_error(self, tmp_path, capsys):
        # the second window once replaced the first
        path = tmp_path / "rep.cfg"
        path.write_text("window = 5\nwindow = 20\n")
        assert run("--config", str(path), "classify", "--value", "50") == 2
        captured = capsys.readouterr()
        assert captured.err == f"rfad: {path}:2: repeated key 'window'\n"
        assert captured.out == ""


class TestOutputsReplaceNoInput:
    """An output that resolves to a file the command reads, its log,
    baseline, matrix, records or ``--config``, is refused before any work,
    as is an ``export`` whose CSV twin cannot be written."""

    @pytest.fixture()
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("simulate", "--seed", "5", "-o", "air.csv") == 0
        assert run("calibrate", "air.csv", "-o", "baseline.json") == 0
        save_records(generate_population(PopulationSpec(subjects=1)), "records.json")
        (tmp_path / "z.txt").write_text(
            "frequency = 867 MHz\nports = I II\n50+0j 1+0j\n1+0j 50+0j\n")
        (tmp_path / "c.cfg").write_text("window = 10\n")
        (tmp_path / "fps.json").write_text(json.dumps([_fp()]))
        return tmp_path

    @staticmethod
    def _refused(workdir, capsys, argv, err):
        """``argv`` exits 2 with ``err`` and no stdout, and leaves every
        file of ``workdir`` as it was."""
        before = {path.name: path.is_dir() or path.read_bytes() for path in workdir.iterdir()}
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", err)
        assert {path.name: path.is_dir() or path.read_bytes()
                for path in workdir.iterdir()} == before

    @pytest.mark.parametrize("argv, target", [
        ("calibrate air.csv -o air.csv", "air.csv"),
        ("calibrate air.csv -o ./air.csv", "./air.csv"),
        ("fingerprint air.csv --baseline baseline.json -o air.csv", "air.csv"),
        ("fingerprint air.csv --baseline baseline.json -o baseline.json", "baseline.json"),
        ("coupling --matrix z.txt -o z.txt", "z.txt"),
        ("stats --records records.json -o records.json", "records.json"),
        ("--config c.cfg simulate -o c.cfg", "c.cfg"),
        ("--config c.cfg calibrate air.csv -o c.cfg", "c.cfg"),
    ], ids=["calibrate-log", "calibrate-dot-log", "fingerprint-log", "fingerprint-baseline",
            "coupling-matrix", "stats-records", "simulate-config", "calibrate-config"])
    def test_an_output_that_names_an_input_is_refused(self, workdir, capsys, argv, target):
        self._refused(workdir, capsys, argv.split(), f"rfad: {target}: -o names an input\n")

    def test_export_checks_its_csv_twin_before_writing_the_chart(self, workdir, capsys):
        # the chart was once written before its twin was refused
        (workdir / "chart.csv").mkdir()
        self._refused(workdir, capsys, ["export", "fps.json", "-o", "chart.svg"],
                      "rfad: chart.csv: is a directory, not a file\n")
        assert not (workdir / "chart.svg").exists()
        assert os.listdir(workdir / "chart.csv") == []

    @pytest.mark.parametrize("given, out, target, name", [
        ("fps.csv", "fps", "fps.csv", "its CSV twin"),
        ("fps.csv", "fps.SVG", "fps.csv", "its CSV twin"),
        ("fps.svg", "fps.svg", "fps.svg", "the chart"),
        ("fps.svg", "./fps", "./fps.svg", "the chart"),
    ], ids=["twin-suffixless", "twin-upper-svg", "chart", "chart-suffixless"])
    def test_export_that_would_replace_its_fingerprints_is_refused(
            self, workdir, capsys, given, out, target, name):
        # the twin once replaced the fingerprints it was drawn from, with exit 0
        (workdir / given).write_bytes((workdir / "fps.json").read_bytes())
        self._refused(workdir, capsys, ["export", given, "-o", out],
                      f"rfad: {target}: {name} names an input\n")

    def test_export_checks_its_targets_before_it_reads(self, workdir, capsys):
        # air.csv is no fingerprint list: read first, it would be refused as JSON
        self._refused(workdir, capsys, ["export", "air.csv", "-o", "air"],
                      "rfad: air.csv: its CSV twin names an input\n")

    def test_export_that_would_replace_its_config_is_refused(self, workdir, capsys):
        (workdir / "chart.csv").write_text("window = 10\n")
        self._refused(workdir, capsys, ["--config", "chart.csv", "export", "fps.json",
                                        "-o", "chart"],
                      "rfad: chart.csv: its CSV twin names an input\n")


class TestEmptyOutputPath:
    """An empty output path names no file: every command refuses it by its
    flag before any work. It was once taken as absent by some commands
    (stdout, or no file), as ``.svg`` by ``export``, and as a file to
    replace by others, after all their work."""

    @pytest.fixture()
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("simulate", "--seed", "5", "-o", "air.csv") == 0
        assert run("calibrate", "air.csv", "-o", "baseline.json") == 0
        save_records(generate_population(PopulationSpec(subjects=1)), "records.json")
        (tmp_path / "fps.json").write_text(json.dumps([_fp()]))
        return tmp_path

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "-o", ""], "-o"),
        (["calibrate", "air.csv", "-o", ""], "-o"),
        (["fingerprint", "air.csv", "--baseline", "baseline.json", "-o", ""], "-o"),
        (["coupling", "-o", ""], "-o"),
        (["stats", "--records", "records.json", "-o", ""], "-o"),
        (["stats", "--generate", "-o", ""], "-o"),
        (["stats", "--generate", "--records-out", "", "-o", "r.json"], "--records-out"),
        (["export", "fps.json", "-o", ""], "the chart"),
    ], ids=["simulate", "calibrate", "fingerprint", "coupling", "stats-records",
            "stats-generate", "stats-records-out", "export"])
    def test_empty_output_is_refused(self, workdir, capsys, argv, flag):
        before = {path.name: path.read_bytes() for path in workdir.iterdir()}
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", f"rfad: {flag}: an empty path names no file\n")
        assert {path.name: path.read_bytes() for path in workdir.iterdir()} == before


# Each mode of each subcommand, as the arguments that select it ("{name}"
# stands for an input file), and the output every mode needs where one is
# required.
_MODES = {
    "simulate": ["", "--material olive_oil"],
    "calibrate": ["{air}"],
    "fingerprint": ["{touched} --baseline {baseline}"],
    "classify": ["--fingerprints {fps}", "--value 50"],
    "coupling": ["", "--turn-on", "--matrix {matrix}"],
    "stats": ["--records {records}", "--generate"],
    "export": ["{fps}"],
}
_REQUIRED_OUTPUT = {"simulate": "out.csv", "calibrate": "out.json",
                    "fingerprint": "out.json", "export": "out.svg"}
# Every other flag of a subcommand, with a value that is not its default.
_FLAGS = {
    "simulate": {"--baseline": "250", "--duration": "35", "--seed": "2",
                 "--material": "ethyl_alcohol", "--channels": "I III"},
    "fingerprint": {"--label": "olive_oil"},
    "coupling": {"--matrix": "{matrix}", "--turn-on": "", "--tau": "0.5",
                 "-o": "out.csv"},
    "stats": {"--seed": "3", "--log-dir": "logs", "--records-out": "records.json",
              "-o": "report.json"},
}
# The flags that their mode would not read, so refuses.
_REFUSED = {
    ("simulate", "--material olive_oil", "--baseline"),
    ("coupling", "", "--tau"),
    ("coupling", "--matrix {matrix}", "--tau"),
    ("stats", "--records {records}", "--seed"),
    ("stats", "--records {records}", "--log-dir"),
    ("stats", "--records {records}", "--records-out"),
}
_FLAG_CASES = [(command, mode, flag) for command, modes in _MODES.items()
               for mode in modes for flag in _FLAGS.get(command, {})
               if flag not in mode.split()]


@pytest.fixture(scope="module")
def guard_inputs(tmp_path_factory):
    """The input files the modes of ``_MODES`` read, by name."""
    from rfad.coupling import ImpedanceMatrix, save_impedance_matrix
    work = tmp_path_factory.mktemp("inputs")
    paths = {name: work / name for name in ("air.csv", "touched.csv", "baseline.json",
                                            "fps.json", "records.json", "matrix.txt")}
    run("simulate", "--baseline", "300", "--seed", "5", "-o", str(paths["air.csv"]))
    run("simulate", "--material", "olive_oil", "--seed", "4", "-o", str(paths["touched.csv"]))
    run("calibrate", str(paths["air.csv"]), "-o", str(paths["baseline.json"]))
    run("fingerprint", str(paths["touched.csv"]), "--baseline", str(paths["baseline.json"]),
        "-o", str(paths["fps.json"]))
    save_records(generate_population(PopulationSpec(subjects=1)), paths["records.json"])
    save_impedance_matrix(ImpedanceMatrix([[50 - 2j, 5j], [5j, 40 + 1j]], 867e6, ("I", "II")),
                          paths["matrix.txt"])
    assert all(path.exists() for path in paths.values())
    return {name.split(".")[0]: str(path) for name, path in paths.items()}


class TestEveryFlagChangesAnOutputOrIsRefused:
    """A flag that its mode does not read is a usage error, not silently
    ignored: in each mode of each subcommand, every flag either changes
    the printed report or a written file, or exits 1 with the usage and
    writes nothing."""

    def test_table_covers_every_flag(self):
        subcommands = next(action.choices for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        for command, parser in subcommands.items():
            flags = {action.option_strings[0] for action in parser._actions
                     if action.option_strings} - {"-h"}
            in_modes = {arg for mode in _MODES[command] for arg in mode.split()
                        if arg.startswith("-")}
            required = {"-o"} if command in _REQUIRED_OUTPUT else set()
            assert flags == set(_FLAGS.get(command, {})) | in_modes | required, command

    @staticmethod
    def _outcome(workdir, monkeypatch, capsys, command, args, inputs):
        """Exit status, stdout and every file written, of one run in an
        empty ``workdir`` (but for an empty ``logs`` directory)."""
        (workdir / "logs").mkdir(parents=True)
        monkeypatch.chdir(workdir)
        argv = [command, *(arg.format(**inputs) for arg in args.split())]
        if command in _REQUIRED_OUTPUT:
            argv += ["-o", _REQUIRED_OUTPUT[command]]
        capsys.readouterr()
        status = main(argv)
        out, err = capsys.readouterr()
        files = {path.relative_to(workdir).as_posix(): path.read_bytes()
                 for path in sorted(workdir.rglob("*")) if path.is_file()}
        return status, out, err, files

    @pytest.mark.parametrize("command, mode, flag", _FLAG_CASES)
    def test_flag_changes_an_output_or_is_refused(self, tmp_path, monkeypatch, capsys,
                                                   guard_inputs, command, mode, flag):
        args = f"{mode} {flag} {_FLAGS[command][flag]}"
        status, out, _, files = self._outcome(tmp_path / "base", monkeypatch, capsys,
                                              command, mode, guard_inputs)
        assert status == 0
        flagged = self._outcome(tmp_path / "flagged", monkeypatch, capsys,
                                command, args, guard_inputs)
        if (command, mode, flag) in _REFUSED:
            assert flagged[0] == 1
            assert flagged[2].startswith(f"usage: rfad {command}")
            assert f"error: {flag}: not allowed" in flagged[2]
            assert flagged[1] == "" and flagged[3] == {}
        else:
            assert flagged[0] == 0
            assert (flagged[1], flagged[3]) != (out, files)

    @pytest.mark.parametrize("argv", [
        "coupling --matrix nomatrix.txt --tau 0.5 -o out.csv",
        "stats --records records.json --seed 3 -o out.json",
        "stats --records records.json --log-dir . -o out.json",
        "stats --records records.json --records-out out2.json -o out.json",
    ], ids=["coupling-tau", "stats-seed", "stats-log-dir", "stats-records-out"])
    def test_flag_is_refused_before_any_input_is_read(self, tmp_path, monkeypatch, capsys,
                                                      argv):
        # the matrix and records named here do not exist: a run that read them would exit 2
        monkeypatch.chdir(tmp_path)
        assert run(*argv.split()) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"usage: rfad {argv.split()[0]}")
        assert os.listdir(tmp_path) == []

    def test_channels_needs_a_channel(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run("simulate", "--channels", "-o", str(out)) == 1
        assert capsys.readouterr().err.startswith("usage: rfad simulate")
        assert not out.exists()
