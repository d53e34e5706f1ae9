"""Command-line interface tests: pipelines, determinism, exit codes."""

import json
import random
from xml.etree import ElementTree

import pytest

from rfad import population, signal
from rfad.cli import build_parser, main
from rfad.config import load_config
from rfad.hand import FINGERS
from rfad.materials import load_materials
from rfad.population import (DEFAULT_POPULATION_SEED, PopulationSpec, generate_population,
                             save_records)
from rfad.readlog import load_code_series, write_log
from rfad.signal import (FluctuationModel, estimate_code, material_fluctuation_model,
                         synthesize_series)


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

    def test_unknown_material_is_data_error(self, tmp_path):
        assert run("simulate", "--material", "lava",
                   "-o", str(tmp_path / "x.csv")) == 2

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

    @pytest.mark.parametrize("argv", [
        ("--material", "ethyl_alcohol", "--seed", "3"),
        ("--baseline", "120", "--seed", "11", "--channels", "V", "I", "V"),
    ])
    def test_channels_made_in_one_block_equal_single_series(self, tmp_path, monkeypatch,
                                                            argv):
        calls = []
        block = signal.synthesize_block
        monkeypatch.setattr(signal, "synthesize_block",
                            lambda *a, **kw: calls.append(a) or block(*a, **kw))
        out = tmp_path / "s.csv"
        assert run("simulate", *argv, "-o", str(out)) == 0
        assert len(calls) == 1
        series = load_code_series(out)
        config, seed = load_config(), int(argv[argv.index("--seed") + 1])
        for channel in series:
            if argv[0] == "--material":
                eps = load_materials()["ethyl_alcohol"].epsilon
                model = material_fluctuation_model(
                    "ethyl_alcohol", config.channel_code(channel, eps))
            else:
                model = FluctuationModel(baseline=120)
            expected = synthesize_series(model, 70.0, seed + FINGERS.index(channel))
            assert series[channel].codes == expected.codes
        assert list(series) == (list(FINGERS) if argv[0] == "--material" else ["I", "V"])

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
        write_log((series["I"].times, list(series), ["E280"] * len(series),
                   [s.codes for s in series.values()]), log)
        outputs = []
        for source in (touched, shuffled, log):
            out = tmp_path / f"fp-{source.stem}.json"
            assert run("fingerprint", str(source), "--baseline", str(baseline_file),
                       "-o", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_classify_value(self, capsys):
        assert run("classify", "--value", "25") == 0
        assert "low" in capsys.readouterr().out
        assert run("classify", "--value", "100") == 0
        assert "medium" in capsys.readouterr().out

    def test_unclassifiable_value_is_data_error(self):
        assert run("classify", "--value", "1000") == 2

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


class TestCoupling:
    def test_default_fixture_summary(self, capsys):
        assert run("coupling") == 0
        out = capsys.readouterr().out
        assert "2.89%" in out

    def test_turn_on_budget(self, capsys):
        assert run("coupling", "--turn-on") == 0
        out = capsys.readouterr().out
        assert "dBm" in out

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

    def test_singular_matrix_is_numerical_error(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("frequency = 867 MHz\nports = I\n-2.8+76j\n")
        assert run("coupling", "--matrix", str(path)) == 3


class TestStats:
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

    def test_record_whose_fingerprint_disagrees_is_data_error(self, tmp_path, capsys):
        # all five fingers said responsive, but the fingerprint read only I
        one_read = dict(_fp(), imputed={f: f != "I" for f in FINGERS}, n_responsive=1)
        bad = tmp_path / "records.json"
        bad.write_text(json.dumps([_as_record(one_read)]))
        assert run("stats", "--records", str(bad)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "disagree" in err


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
        return {"baseline": baseline_file, "fps": fps, "scalar": scalar,
                "strings": strings, "log": air_log, "out": tmp_path / "out.json"}

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
    ])
    def test_wrong_kind_names_what_was_expected(self, files, capsys, argv, given, error):
        paths = dict(files, given=files[given])
        capsys.readouterr()
        assert run(*[arg.format(**paths) for arg in argv]) == 2
        assert capsys.readouterr().err == f"rfad: {files[given]}: {error}\n"
        assert not files["out"].exists()


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

    @pytest.mark.parametrize("command", ["simulate", "calibrate", "coupling", "stats"])
    def test_missing_output_directory_is_data_error(self, tmp_path, capsys, air_log,
                                                    command):
        out = tmp_path / "nodir" / "out"
        argv = {
            "simulate": ["simulate", "-o", out],
            "calibrate": ["calibrate", air_log, "-o", out],
            "coupling": ["coupling", "--turn-on", "-o", out],
            "stats": ["stats", "--records", tmp_path / "records.json", "-o", out],
        }[command]
        if command == "stats":
            save_records(generate_population(PopulationSpec(subjects=1)),
                         tmp_path / "records.json")
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run(*map(str, argv)) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"rfad: {out}: directory {str(tmp_path / 'nodir')!r} does not exist\n")
        assert captured.out == ""  # a failed run prints no report
        assert sorted(tmp_path.iterdir()) == before

    def test_no_arguments_is_usage_error(self):
        assert run() == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert run("frobnicate") == 1

    def test_bad_config_path_is_data_error(self, tmp_path):
        assert run("--config", str(tmp_path / "nope.cfg"),
                   "classify", "--value", "10") == 2
