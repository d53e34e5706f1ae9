"""Unit parsing, configuration loading, and materials-table tests."""

import contextlib
import dataclasses
import hashlib
import importlib
import inspect
import io
import pkgutil

import pytest

import rfad
from rfad.cli import main
from rfad.config import _KEYS, SessionConfig, _entries, default_config_text, load_config
from rfad.errors import DataError
from rfad.hand import FINGERS
from rfad.ic import C_MIN, C_STEP, EU_RFID_FREQUENCY, G_A, G_IC
from rfad.materials import PERMITTIVITY, REFERENCE_LIQUIDS
from rfad.units import (dbm_from_watts, parse_complex_quantity, parse_quantity,
                        watts_from_dbm)

# Guard against accidental drift of the shipped constants catalog. If a
# default deliberately changes, update this digest together with the
# documented constants below.
DEFAULTS_SHA256 = "1712c13f13c427b04445503b747c508b990fb1a7628502a6899bc5874f5735a9"


class TestUnits:
    def test_scalar_quantities(self):
        assert parse_quantity("867 MHz", "frequency") == pytest.approx(867e6)
        assert parse_quantity("0.7 s", "time") == pytest.approx(0.7)
        assert parse_quantity("500 ms", "time") == pytest.approx(0.5)
        assert parse_quantity("10 uW", "power") == pytest.approx(10e-6)
        assert parse_quantity("42", "time") == pytest.approx(42.0)

    def test_case_sensitivity(self):
        assert parse_quantity("2 s", "time") == 2.0
        assert parse_quantity("2 ms", "time") == pytest.approx(2e-3)
        for text in ("2 S", "2 mS", "2 MS"):
            with pytest.raises(DataError):
                parse_quantity(text, "time")
        with pytest.raises(DataError):
            parse_quantity("2 HZ", "frequency")

    def test_dbm(self):
        assert parse_quantity("0 dBm", "power") == pytest.approx(1e-3)
        assert parse_quantity("25 dBm", "power") == pytest.approx(316.2e-3, rel=1e-3)

    def test_complex_quantities(self):
        assert parse_complex_quantity("2.8-76j Ohm") == pytest.approx(2.8 - 76j)
        assert parse_complex_quantity("1+1j kOhm") == pytest.approx(1000 + 1000j)
        assert parse_complex_quantity("3j") == pytest.approx(3j)

    def test_bad_quantities(self):
        for text in ("", "pF", "1.2 parsec", "2,5 pF"):
            with pytest.raises(DataError):
                parse_quantity(text, "time")
        with pytest.raises(DataError):
            parse_complex_quantity("1+1j dBm")

    @pytest.mark.parametrize("text,dimension", [
        ("0.7 pF", "time"), ("10 Hz", "power"), ("0.7 s", "frequency"),
        ("1 dBm", "time"), ("1 kOhm", "power"), ("1 W", "impedance"),
        ("1.9 pF", "frequency"), ("0.482 mS", "power"), ("1 F", "time"), ("1 S", "power")])
    def test_unit_of_another_dimension_rejected(self, text, dimension):
        with pytest.raises(DataError, match=f"unknown unit .* \\(units of {dimension}: "):
            if dimension == "impedance":
                parse_complex_quantity(text)
            else:
                parse_quantity(text, dimension)

    def test_dbm_round_trip(self):
        assert dbm_from_watts(watts_from_dbm(13.0)) == pytest.approx(13.0)
        with pytest.raises(DataError):
            dbm_from_watts(0.0)


def _values(text: str) -> dict:
    """The settings of config ``text`` by key as written, in SI units."""
    return {key: value for key, value, _ in _entries(text, "<config>")}


class TestParseConfigText:
    def test_units_and_comments(self):
        values = _values(
            "# comment\nsample_period = 500 ms\nwindow = 12  # inline\n")
        assert values["sample_period"] == pytest.approx(0.5)
        assert values["window"] == 12

    def test_per_channel_override(self):
        values = _values("span_code = 150\nspan_code.III = 120\n")
        assert values["span_code"] == pytest.approx(150.0)
        assert values["span_code.III"] == pytest.approx(120.0)

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError, match="unknown key"):
            _values("bogus = 1\n")

    def test_unknown_channel_rejected(self):
        with pytest.raises(DataError, match="channel suffix"):
            _values("span_code.VI = 120\n")

    def test_malformed_line_reports_position(self):
        with pytest.raises(DataError, match=":2:"):
            _values("window = 10\nnot a pair\n")

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
        "s_max = 512",
        "s_max = 600",
        "sample_period = 0 s",
        "sawtooth_frequency = -0.7 Hz",
        "ic_sensitivity = 0 W",
        "ic_load = 0-76j Ohm",
        "transducer_gain.II = 0",
        "sample_period.III = 1 s",
        "sawtooth_frequency = 1 parsec",
        # finite, but the sawtooth phase of the longest series overflows
        "sawtooth_frequency = 1e308 Hz",
        # a unit of another dimension
        "sample_period = 0.7 pF",
        "sample_period = 1 Hz",
        "sawtooth_frequency = 0.7 s",
        "ic_sensitivity = 10 Hz",
        "ic_sensitivity = 10 s",
        "ic_load = 2.8-76j uW",
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
        # the register holds codes 0..511 only
        ("s_max = 600\nbaseline_code = 550\n",
         ":1: s_max = 600 above the code storage maximum 511"),
        ("s_min = -1\n", ":1: s_min = -1 below the code storage minimum 0"),
        ("s_max = 511\nbaseline_code = 511\n", None),
        # the later of the two acquisition lines is named
        pytest.param("sawtooth_frequency = 1e300 Hz\nwindow = 10\nsample_period = 1e10 s\n",
                     ":3: sample_period = 1e+10 s and sawtooth_frequency = 1e+300 Hz "
                     "overflow the sawtooth phase over 1000000 samples",
                     id="sawtooth-phase-overflow"),
    ])
    def test_cross_key_rules_name_the_file(self, tmp_path, text, message):
        path = tmp_path / "session.cfg"
        path.write_text(text)
        if message is None:
            baseline_code = int(text.rpartition("baseline_code = ")[2])
            assert load_config(path).air_code("I") == baseline_code
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
        config = load_config()
        assert config.frequency == pytest.approx(867e6)
        assert C_MIN == pytest.approx(1.9e-12)
        assert C_STEP == pytest.approx(3.1e-15)
        assert (config.ic.s_min, config.ic.s_max) == (80, 400)
        assert G_IC == G_A == pytest.approx(0.482e-3)
        assert config.ic_load == pytest.approx(2.8 - 76j)
        assert config.ic_sensitivity == pytest.approx(10e-6)
        assert config.sawtooth_frequency == pytest.approx(0.7)
        assert config.sample_period == pytest.approx(0.7)
        assert config.window == 10
        assert config.estimator == "mean"

    def test_acquisition_window_identity(self):
        config = load_config()
        assert config.window * config.sample_period == pytest.approx(7.0)

    def test_catalog_checksum(self):
        digest = hashlib.sha256(default_config_text().encode("utf-8")).hexdigest()
        assert digest == DEFAULTS_SHA256

    def test_per_channel_models_and_gains(self):
        config = load_config()
        assert set(config.antenna_models) == set(FINGERS)
        assert set(config.transducer_gains) == set(FINGERS)
        assert all(g > 0 for g in config.transducer_gains.values())

    def test_class_means_ordered(self):
        means = load_config().class_means()
        assert list(means) == list(REFERENCE_LIQUIDS)
        values = [means[m] for m in REFERENCE_LIQUIDS]
        assert values == sorted(values)
        assert values[0] < values[1] < values[2]

    def test_class_means_average_the_five_channels(self, tmp_path):
        path = tmp_path / "session.cfg"
        path.write_text("span_code.III = 120\n")
        config = load_config(path)
        means = config.class_means()
        for name, eps in PERMITTIVITY.items():
            expected = sum(config.air_code(c) - config.channel_code(c, eps)
                           for c in FINGERS) / len(FINGERS)
            assert means[name] == pytest.approx(expected)
        assert means != load_config().class_means()

    def test_default_classes(self):
        classes = load_config().classes()
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

    def test_shipped_defaults_as_a_user_file_change_nothing(self, tmp_path):
        path = tmp_path / "defaults.cfg"
        path.write_text(default_config_text())
        assert load_config(path) == load_config(None)

    def test_shipped_defaults_are_checked_as_a_user_file(self, monkeypatch):
        text = default_config_text().replace("s_max = 400", "s_max = 600")
        monkeypatch.setattr("rfad.config.default_config_text", lambda: text)
        line = text.splitlines().index("s_max = 600") + 1
        with pytest.raises(DataError, match=rf"^defaults\.cfg:{line}: s_max = 600 above"):
            load_config()

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("key", ["window.", "span_code."])
    def test_empty_channel_suffix_names_its_line(self, tmp_path, key):
        # a dot with no channel after it was once no setting at all
        path = tmp_path / "session.cfg"
        path.write_text(f"{key} = 3\n")
        with pytest.raises(DataError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:1: unknown channel suffix in {key!r}"

    @pytest.mark.parametrize("text, line, key", [
        ("window = 5\nwindow = 20\n", 2, "window"),
        ("span_code.III = 120\n# a comment\nspan_code = 150\nspan_code.III = 130\n",
         4, "span_code.III"),
        ("sample_period = 0.7 s\nsample_period = 700 ms\n", 2, "sample_period"),
    ], ids=["window", "channel-suffix", "same-value-other-unit"])
    def test_repeated_key_names_its_line(self, tmp_path, text, line, key):
        path = tmp_path / "session.cfg"
        path.write_text(text)
        with pytest.raises(DataError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:{line}: repeated key {key!r}"

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"],
                             ids=["vt", "ff", "fs", "gs", "rs", "nel", "line-sep", "para-sep"])
    def test_line_numbers_count_line_feeds_only(self, tmp_path, char):
        # str.splitlines also ends a line at each of these, which once put
        # the bad value on line 3
        path = tmp_path / "session.cfg"
        path.write_text(f"window = 12{char}\nwindow = 0\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_config(path)
        assert str(info.value) == f"{path}:2: bad value for 'window': must be > 0, got 0"


class TestMaterials:
    def test_reference_liquids_shipped(self):
        assert PERMITTIVITY["olive_oil"] == 3.0
        assert PERMITTIVITY["ethyl_alcohol"] == 17.0
        assert PERMITTIVITY["deionized_water"] == 78.0

    def test_liquids_in_permittivity_order(self):
        assert REFERENCE_LIQUIDS == tuple(PERMITTIVITY)
        eps = [PERMITTIVITY[m] for m in REFERENCE_LIQUIDS]
        assert eps == sorted(eps)


class TestSessionConfigIsValue:
    def test_frozen(self):
        config = load_config()
        with pytest.raises(AttributeError):
            config.window = 99

    def test_frequency_is_a_constant(self):
        assert "frequency" not in {f.name for f in dataclasses.fields(SessionConfig)}
        assert load_config().frequency == EU_RFID_FREQUENCY

    def test_build_requires_transducer_gain(self):
        text = default_config_text()
        stripped = "\n".join(line for line in text.splitlines()
                             if not line.startswith("transducer_gain"))
        from rfad.config import build_config
        with pytest.raises(DataError, match="transducer_gain"):
            build_config(_values(stripped))


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


# The only parameters or fields of rfad that may default a config key, each
# with the reason it keeps the default.
_KEY_DEFAULTS_KEPT = {
    # the benchmark and acceptance criteria 4-5 build series and fluctuation
    # presets without a session config
    ("rfad.signal", "FluctuationModel", "sample_period"),
    ("rfad.signal", "FluctuationModel", "sawtooth_frequency"),
    ("rfad.signal", "material_fluctuation_model", "sample_period"),
    ("rfad.signal", "material_fluctuation_model", "sawtooth_frequency"),
}


def _key_defaults():
    """``(module, callable, parameter)`` of every public function and class
    of rfad whose signature defaults a parameter named after a config key."""
    found = set()
    for info in pkgutil.iter_modules(rfad.__path__, "rfad."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (name.startswith("_") or not (inspect.isroutine(obj) or inspect.isclass(obj))
                    or obj.__module__ != module.__name__):
                continue
            try:
                parameters = inspect.signature(obj).parameters.values()
            except (TypeError, ValueError):
                continue
            found |= {(module.__name__, name, p.name) for p in parameters
                      if p.name in _KEYS and p.default is not inspect.Parameter.empty}
    return found


def test_config_keys_have_no_second_default():
    # the shipped defaults file is the one source of a key's value
    assert _key_defaults() == _KEY_DEFAULTS_KEPT
