"""Unit parsing, configuration loading, and materials-table tests."""

import hashlib

import pytest

from rfad.cli import main
from rfad.config import (SessionConfig, default_config, default_config_text,
                         load_config, parse_config_text)
from rfad.errors import DataError
from rfad.hand import FINGERS
from rfad.materials import REFERENCE_LIQUIDS, load_materials
from rfad.units import (dbm_from_watts, parse_complex_quantity, parse_quantity,
                        watts_from_dbm)

# Guard against accidental drift of the shipped constants catalog. If a
# default deliberately changes, update this digest together with the
# documented constants below.
DEFAULTS_SHA256 = "c7d96ba0e6854ad6242e48851d37ea0a1d49d5506968941ee10b14d39fdd0452"


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
            "# comment\nfreq = 915 MHz\nwindow = 12  # inline\n")
        assert values["freq"] == pytest.approx(915e6)
        assert values["window"] == 12

    def test_per_channel_override(self):
        values = parse_config_text("g_a = 0.4 mS\ng_a.III = 0.5 mS\n")
        assert values["g_a"] == pytest.approx(0.4e-3)
        assert values[("g_a", "III")] == pytest.approx(0.5e-3)

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown key"):
            parse_config_text("bogus = 1\n")

    def test_unknown_channel_rejected(self):
        with pytest.raises(DataError, match="channel suffix"):
            parse_config_text("g_a.VI = 0.4 mS\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(DataError, match=":2:"):
            parse_config_text("freq = 867 MHz\nnot a pair\n")

    @pytest.mark.parametrize("line", [
        "window.II = 5",
        "freq.III = 1 Hz",
        "span_code = nan",
        "transducer_gain.I = inf",
        "estimator = bogus",
        "window = 0",
        "freq = 1 parsec",
        "span_epsilon = 1",
        "span_epsilon = 0.5",
        "span_epsilon.IV = 1",
        "span_code = 0",
        "span_code.II = -5",
    ])
    def test_invalid_line_rejected_with_position(self, tmp_path, capsys, line):
        path = tmp_path / "session.cfg"
        path.write_text(line + "\n")
        assert main(["--config", str(path), "classify", "--value", "10"]) == 2
        err = capsys.readouterr().err
        assert f"{path}:1: " in err
        assert "Traceback" not in err

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
        path.write_text("window = 20\ng_a.II = 0.6 mS\n")
        config = load_config(path)
        assert config.window == 20
        assert config.antenna_models["II"].g_a == pytest.approx(0.6e-3)
        assert config.antenna_models["I"].g_a == pytest.approx(0.482e-3)

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

    def test_build_requires_transducer_gain(self):
        text = default_config_text()
        stripped = "\n".join(line for line in text.splitlines()
                             if not line.startswith("transducer_gain"))
        from rfad.config import build_config
        with pytest.raises(DataError, match="transducer_gain"):
            build_config(parse_config_text(stripped))
