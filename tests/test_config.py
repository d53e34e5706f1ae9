"""Unit parsing, configuration loading, and materials-table tests."""

import contextlib
import dataclasses
import hashlib
import io

import pytest

from rfad.cli import main
from rfad.config import (_KEYS, SessionConfig, default_config, default_config_text,
                         load_config, parse_config_text)
from rfad.errors import DataError
from rfad.hand import FINGERS
from rfad.ic import EU_RFID_FREQUENCY
from rfad.materials import REFERENCE_LIQUIDS, load_materials
from rfad.units import (dbm_from_watts, parse_complex_quantity, parse_quantity,
                        watts_from_dbm)

# Guard against accidental drift of the shipped constants catalog. If a
# default deliberately changes, update this digest together with the
# documented constants below.
DEFAULTS_SHA256 = "5aa73c090ea3deeb2e25acb52b569875d005eaf44a9cbaa69654d2458a97a4a4"


class TestUnits:
    def test_scalar_quantities(self):
        assert parse_quantity("867 MHz") == pytest.approx(867e6)
        assert parse_quantity("1.9 pF") == pytest.approx(1.9e-12)
        assert parse_quantity("3.1 fF") == pytest.approx(3.1e-15)
        assert parse_quantity("0.482 mS") == pytest.approx(0.482e-3)
        assert parse_quantity("0.7 s") == pytest.approx(0.7)
        assert parse_quantity("10 uW") == pytest.approx(10e-6)
        assert parse_quantity("42") == pytest.approx(42.0)

    def test_case_sensitivity(self):
        # seconds and siemens must stay distinct
        assert parse_quantity("2 s") == 2.0
        assert parse_quantity("2 S") == 2.0
        assert parse_quantity("2 ms") == pytest.approx(2e-3)
        assert parse_quantity("2 mS") == pytest.approx(2e-3)
        with pytest.raises(DataError):
            parse_quantity("2 HZ")

    def test_dbm(self):
        assert parse_quantity("0 dBm") == pytest.approx(1e-3)
        assert parse_quantity("25 dBm") == pytest.approx(316.2e-3, rel=1e-3)

    def test_complex_quantities(self):
        assert parse_complex_quantity("2.8-76j Ohm") == pytest.approx(2.8 - 76j)
        assert parse_complex_quantity("1+1j kOhm") == pytest.approx(1000 + 1000j)
        assert parse_complex_quantity("3j") == pytest.approx(3j)

    def test_bad_quantities(self):
        for text in ("", "pF", "1.2 parsec", "2,5 pF"):
            with pytest.raises(DataError):
                parse_quantity(text)
        with pytest.raises(DataError):
            parse_complex_quantity("1+1j dBm")

    def test_dbm_round_trip(self):
        assert dbm_from_watts(watts_from_dbm(13.0)) == pytest.approx(13.0)
        with pytest.raises(DataError):
            dbm_from_watts(0.0)


class TestParseConfigText:
    def test_units_and_comments(self):
        values = parse_config_text(
            "# comment\nsample_period = 500 ms\nwindow = 12  # inline\n")
        assert values["sample_period"] == pytest.approx(0.5)
        assert values["window"] == 12

    def test_per_channel_override(self):
        values = parse_config_text("span_code = 150\nspan_code.III = 120\n")
        assert values["span_code"] == pytest.approx(150.0)
        assert values["span_code.III"] == pytest.approx(120.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    def test_unknown_channel_rejected(self):
        with pytest.raises(DataError, match="channel suffix"):
            parse_config_text("span_code.VI = 120\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(DataError, match=":2:"):
            parse_config_text("window = 10\nnot a pair\n")

    @pytest.mark.parametrize("line", [
        "window.II = 5",
        "span_code = nan",
        "transducer_gain.I = inf",
        "estimator = bogus",
        "window = 0",
        "span_epsilon = 1",
        "span_epsilon = 0.5",
        "span_epsilon.IV = 1",
        "span_code = 0",
        "span_code.II = -5",
        "baseline_code = 600",
        "baseline_code.IV = 79",
        "eps_half = -2",
        "eps_half.V = -1",
        "s_min = 500",
        "s_min = -1",
        "s_max = 299",
        "sample_period = 0 s",
        "sawtooth_frequency = -0.7 Hz",
        "ic_sensitivity = 0 W",
        "ic_load = 0-76j Ohm",
        "transducer_gain.II = 0",
        "sample_period.III = 1 s",
        "sawtooth_frequency = 1 parsec",
        # deleted keys: they cancelled out of every sensor code
        "freq = 1 parsec",
        "freq.III = 1 Hz",
        "c_min = 1.9 pF",
        "c_step = 3.1 fF",
        "g_ic = 0.482 mS",
        "g_a = 0.482 mS",
        "g_a.III = 0.5 mS",
    ])
    def test_invalid_line_rejected_with_position(self, tmp_path, capsys, line):
        path = tmp_path / "session.cfg"
        path.write_text(line + "\n")
        assert main(["--config", str(path), "classify", "--value", "10"]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("line", [
        "freq = 867 MHz", "c_min = 1.9 pF", "c_step = 3.1 fF",
        "g_ic = 0.482 mS", "g_a = 0.482 mS", "g_a.III = 0.5 mS"])
    def test_deleted_key_is_unknown(self, tmp_path, capsys, line):
        # these keys cancelled out of every sensor code and were removed
        path = tmp_path / "session.cfg"
        path.write_text("window = 10\n" + line + "\n")
        assert main(["--config", str(path), "classify", "--value", "10"]) == 2
        assert f"{path}:2: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("s_min = 500\n", ":1: s_min = 500 must be below s_max = 400"),
        ("baseline_code.III = 450\n",
         ":1: baseline_code.III = 450 outside [s_min, s_max] = [80, 400]"),
        # the shipped baseline_code = 300 leaves the range set on line 2
        ("window = 10\ns_max = 250\n",
         ":2: baseline_code = 300 outside [s_min, s_max] = [80, 250]"),
        ("s_max = 500\nbaseline_code = 450\n", None),
    ])
    def test_cross_key_rules_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "session.cfg"
        path.write_text(text)
        if message is None:
            assert load_config(path).air_code("I") == 450
            return
        with pytest.raises(DataError) as info:
            load_config(path)
        assert str(info.value) == f"{path}{message}"

    def test_undecodable_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "session.cfg"
        path.write_bytes(b"window = 10  # \xff\n")
        assert main(["--config", str(path), "classify", "--value", "10"]) == 2
        assert f"{path}: not UTF-8 text" in capsys.readouterr().err


class TestDefaults:
    def test_constants_catalog(self):
        config = default_config()
        assert config.frequency == pytest.approx(867e6)
        assert config.ic.c_min == pytest.approx(1.9e-12)
        assert config.ic.c_step == pytest.approx(3.1e-15)
        assert (config.ic.s_min, config.ic.s_max) == (80, 400)
        assert config.ic.g_ic == pytest.approx(0.482e-3)
        assert config.ic_load == pytest.approx(2.8 - 76j)
        assert config.ic_sensitivity == pytest.approx(10e-6)
        assert config.sawtooth_frequency == pytest.approx(0.7)
        assert config.sample_period == pytest.approx(0.7)
        assert config.window == 10
        assert config.estimator == "mean"

    def test_acquisition_window_identity(self):
        config = default_config()
        assert config.window * config.sample_period == pytest.approx(7.0)

    def test_catalog_checksum(self):
        digest = hashlib.sha256(default_config_text().encode("utf-8")).hexdigest()
        assert digest == DEFAULTS_SHA256

    def test_per_channel_models_and_gains(self):
        config = default_config()
        assert set(config.antenna_models) == set(FINGERS)
        assert set(config.transducer_gains) == set(FINGERS)
        assert all(g > 0 for g in config.transducer_gains.values())

    def test_class_means_ordered(self):
        means = default_config().class_means()
        assert list(means) == list(REFERENCE_LIQUIDS)
        values = [means[m] for m in REFERENCE_LIQUIDS]
        assert values == sorted(values)
        assert values[0] < values[1] < values[2]

    def test_class_means_average_the_five_channels(self, tmp_path):
        path = tmp_path / "session.cfg"
        path.write_text("span_code.III = 120\n")
        config = load_config(path)
        materials = load_materials()
        means = config.class_means()
        for name in REFERENCE_LIQUIDS:
            eps = materials[name].epsilon
            expected = sum(config.air_code(c) - config.channel_code(c, eps)
                           for c in FINGERS) / len(FINGERS)
            assert means[name] == pytest.approx(expected)
        assert means != default_config().class_means()

    def test_default_classes(self):
        classes = default_config().classes()
        assert [c.label for c in classes] == ["low", "medium", "high"]


class TestLoadConfig:
    def test_overlay_file(self, tmp_path):
        path = tmp_path / "session.cfg"
        path.write_text("window = 20\n")
        config = load_config(path)
        assert config.window == 20

    def test_shared_key_replaces_per_channel_defaults(self, tmp_path):
        # the shipped gains are per channel; a shared setting used to be
        # shadowed by them
        path = tmp_path / "session.cfg"
        path.write_text("transducer_gain.II = 1e-3\ntransducer_gain = 2e-3\n")
        gains = load_config(path).transducer_gains
        assert gains == {**{c: 2e-3 for c in FINGERS}, "II": 1e-3}

    def test_none_is_pure_defaults(self):
        assert load_config(None) == default_config()

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.cfg")


class TestMaterials:
    def test_reference_liquids_shipped(self):
        table = load_materials()
        assert table["olive_oil"].epsilon == 3.0
        assert table["olive_oil"].conductivity == pytest.approx(0.026)
        assert table["ethyl_alcohol"].epsilon == 17.0
        assert table["ethyl_alcohol"].conductivity == pytest.approx(1e-5)
        assert table["deionized_water"].epsilon == 78.0
        assert table["deionized_water"].conductivity == pytest.approx(0.05)

    def test_liquids_in_permittivity_order(self):
        table = load_materials()
        eps = [table[m].epsilon for m in REFERENCE_LIQUIDS]
        assert eps == sorted(eps)


class TestSessionConfigIsValue:
    def test_frozen(self):
        config = default_config()
        with pytest.raises(AttributeError):
            config.window = 99

    def test_frequency_is_a_constant(self):
        assert "frequency" not in {f.name for f in dataclasses.fields(SessionConfig)}
        assert default_config().frequency == EU_RFID_FREQUENCY

    def test_build_requires_transducer_gain(self):
        text = default_config_text()
        stripped = "\n".join(line for line in text.splitlines()
                             if not line.startswith("transducer_gain"))
        from rfad.config import build_config
        with pytest.raises(DataError, match="transducer_gain"):
            build_config(parse_config_text(stripped))


# One valid setting per key, away from its shipped value.
_PERTURBED = {
    "s_min": "s_min = 150",   # clamps water's touched code (120)
    # clamps the one pressed code above the air code (302) of the seed-1 campaign
    "s_max": "s_max = 300",
    "ic_load": "ic_load = 10-76j Ohm",
    "ic_sensitivity": "ic_sensitivity = 20 uW",
    "baseline_code": "baseline_code = 310",
    "span_code": "span_code = 150",
    "span_epsilon": "span_epsilon = 50",
    "eps_half": "eps_half = 10",
    "transducer_gain": "transducer_gain = 2e-3",
    "sawtooth_frequency": "sawtooth_frequency = 0.5 Hz",
    "sample_period": "sample_period = 1 s",
    "window": "window = 12",
    "estimator": "estimator = median",
}

_SESSION = [
    ["simulate", "--baseline", "300", "-o", "air.csv"],
    ["simulate", "--material", "deionized_water", "-o", "touched.csv"],
    ["calibrate", "air.csv", "-o", "baseline.json"],
    ["fingerprint", "touched.csv", "--baseline", "baseline.json", "-o", "fps.json"],
    ["classify", "--value", "59.5"],
    ["coupling", "--turn-on"],
    ["coupling", "--matrix", "z.txt"],
    ["stats", "--generate", "--seed", "1", "--records-out", "records.json"],
]


def _session(directory, config_line=None):
    """Stdout and output files of ``_SESSION`` run in ``directory``."""
    directory.mkdir()
    argv = []
    if config_line is not None:
        (directory / "session.cfg").write_text(config_line + "\n")
        argv = ["--config", str(directory / "session.cfg")]
    (directory / "z.txt").write_text(
        "frequency = 867 MHz\nports = I II III\n"
        "50+10j 3+1j 1+0j\n3+1j 45+5j 2+1j\n1+0j 2+1j 60-20j\n")
    outputs = {}
    for step in _SESSION:
        paths = [str(directory / a) if a.endswith((".csv", ".json", ".txt")) else a
                 for a in step]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + paths) == 0, step
        outputs[" ".join(step)] = out.getvalue().replace(str(directory), "")
    for path in directory.iterdir():
        outputs[path.name] = path.read_bytes()
    del outputs["z.txt"]
    outputs.pop("session.cfg", None)
    return outputs


@pytest.fixture(scope="module")
def shipped_session(tmp_path_factory):
    return _session(tmp_path_factory.mktemp("guard") / "shipped")


class TestEveryKeyChangesAnOutput:
    def test_table_covers_the_keys(self):
        assert set(_PERTURBED) == set(_KEYS)

    @pytest.mark.parametrize("key", sorted(_KEYS))
    def test_key_changes_an_output(self, tmp_path, shipped_session, key):
        perturbed = _session(tmp_path / "perturbed", _PERTURBED[key])
        assert set(perturbed) == set(shipped_session)
        assert [name for name in perturbed
                if perturbed[name] != shipped_session[name]]
