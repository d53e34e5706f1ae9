"""Contract fuzzing of ``cli.main``: random text and bytes as each input
file, and random numbers as each numeric argument.

Whatever the input holds, a command ends with an exit code in {0, 1, 2, 3},
prints no traceback, raises nothing out of ``main`` and leaves no
temporary ``*.tmp`` file. Examples are derandomized, so a run is
repeatable, and bounded, so the module runs in a few seconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfad.cli import main
from rfad.config import _KEYS
from rfad.hand import FINGERS

FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)

_NUMBERS = ["0", "1", "-1", "0.7", "200", "511", "512", "1e308", "-1e308", "1e-308",
            "nan", "inf", "-inf", "1" + "0" * 400, ""]


def _run(content: bytes, *argv) -> None:
    """Run ``rfad`` with ``content`` as the file ``in``; check the contract."""
    with tempfile.TemporaryDirectory() as work:
        source = os.path.join(work, "in")
        with open(source, "wb") as fh:
            fh.write(content)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(dir=work, src=source) for arg in argv])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        assert not [name for name in os.listdir(work) if name.endswith(".tmp")]


def _text(lines: list) -> bytes:
    return "\n".join(lines).encode()


_noise = st.binary(max_size=200) | st.text(max_size=200).map(str.encode)

# ---------------------------------------------------------------------------
# CSV given to calibrate and fingerprint
# ---------------------------------------------------------------------------

_csv_field = (st.sampled_from(_NUMBERS + list(FINGERS) + ["VI", "x", '"', "a,b"])
              | st.text(max_size=6))
_csv_header = st.sampled_from(["timestamp_s,epc,channel,sensor_code,rssi_dbm",
                               "timestamp_s,channel,code", "timestamp_s,channel"])
_csv_rows = st.lists(st.lists(_csv_field, min_size=2, max_size=6).map(",".join),
                     max_size=30)
_csv = _noise | st.builds(lambda h, rows: _text([h] + rows), _csv_header, _csv_rows)


def _baseline(work: str) -> str:
    path = os.path.join(work, "baseline.json")
    with open(path, "w") as fh:
        json.dump({"codes": {f: 300 for f in FINGERS}}, fh)
    return path


@FUZZ
@given(_csv)
def test_calibrate_csv(content):
    _run(content, "calibrate", "{src}", "-o", "{dir}/baseline.json")


@FUZZ
@given(_csv)
def test_fingerprint_csv(content):
    with tempfile.TemporaryDirectory() as work:
        _run(content, "fingerprint", "{src}", "--baseline", _baseline(work),
             "-o", "{dir}/fp.json")


# ---------------------------------------------------------------------------
# JSON given to classify --fingerprints and stats --records
# ---------------------------------------------------------------------------

_leaf = (st.none() | st.booleans() | st.integers(min_value=-10 ** 400, max_value=10 ** 400)
         | st.floats() | st.text(max_size=4) | st.sampled_from(FINGERS))
_per_finger = st.fixed_dictionaries({f: _leaf for f in FINGERS}) | st.dictionaries(
    st.text(max_size=3), _leaf, max_size=6)
_fingerprint = st.fixed_dictionaries(
    {"values": _per_finger, "imputed": _per_finger, "n_responsive": _leaf},
    optional={"material": _leaf})
_record = st.builds(lambda fp, extra: dict(fp, **extra), _fingerprint, st.fixed_dictionaries(
    {"subject": _leaf, "material": _leaf, "responsive": _per_finger,
     "fingerprint": _fingerprint | _leaf}))
_any_json = st.recursive(_leaf, lambda inner: st.lists(inner, max_size=3)
                         | st.dictionaries(st.text(max_size=3), inner, max_size=3),
                         max_leaves=8)
_json = _noise | (_any_json | st.lists(_record, max_size=3)).map(
    lambda doc: json.dumps(doc).encode())


@FUZZ
@given(_json)
@example(b"[" * 200_000)
def test_classify_fingerprints_json(content):
    _run(content, "classify", "--fingerprints", "{src}")


@FUZZ
@given(_json)
@example(b"[" * 200_000)
def test_stats_records_json(content):
    _run(content, "stats", "--records", "{src}")


@FUZZ
@given(_json)
@example(b"[" * 200_000)
def test_export_fingerprints_json(content):
    _run(content, "export", "{src}", "-o", "{dir}/chart.svg")


_baseline_json = st.fixed_dictionaries(
    {"codes": _per_finger},
    optional={"timestamp": _leaf, "gaps": st.lists(_leaf, max_size=3) | _leaf})
_baseline_doc = _noise | (_any_json | _baseline_json).map(lambda doc: json.dumps(doc).encode())


def _log(work: str) -> str:
    """A valid code series of all five fingers, 12 samples each."""
    path = os.path.join(work, "log.csv")
    with open(path, "w") as fh:
        fh.write("timestamp_s,channel,code\n")
        for i in range(12):
            fh.writelines(f"{0.7 * i},{f},{250 + i}\n" for f in FINGERS)
    return path


@FUZZ
@given(_baseline_doc)
@example(b"[" * 200_000)
def test_fingerprint_baseline_json(content):
    with tempfile.TemporaryDirectory() as work:
        _run(content, "fingerprint", _log(work), "--baseline", "{src}",
             "-o", "{dir}/fp.json")


# ---------------------------------------------------------------------------
# numeric arguments
# ---------------------------------------------------------------------------

def _number(values):
    return st.sampled_from(_NUMBERS) | values.map(repr)


# Up to 300 s: a few hundred samples per channel. Longer durations that
# pass the sample limit only make the run slow; the tokens of _NUMBERS
# (1e308, inf, nan, 10**400) cover the rejected ones.
_duration = _number(st.floats(min_value=-10.0, max_value=300.0))
_code = _number(st.integers(min_value=-10 ** 30, max_value=10 ** 30)
                | st.integers(min_value=-5, max_value=520))
_seed = _number(st.integers(min_value=-10 ** 30, max_value=10 ** 30))
_tau = _number(st.floats())


@FUZZ
@given(_duration, _code, _seed, st.sampled_from([[], ["--material", "olive_oil"]]))
@example("1e9", "200", "1", [])
@example("nan", "200", "1", [])
@example("70", "200", "-5", [])
@example("70", "1" + "0" * 23, "1", [])
@example("70", "200", "1", ["--channels", "I"])
def test_simulate_numbers(duration, baseline, seed, extra):
    _run(b"", "simulate", "--duration", duration, "--baseline", baseline, "--seed", seed,
         *extra, "-o", "{dir}/series.csv")


# each example simulates the default 90-trial campaign, so fewer of them
@settings(FUZZ, max_examples=12)
@given(_seed)
@example("-1")
def test_stats_seed(seed):
    _run(b"", "stats", "--generate", "--seed", seed)


@FUZZ
@given(_tau)
@example("5e-324")
def test_coupling_tau(tau):
    _run(b"", "coupling", "--turn-on", "--tau", tau)


# ---------------------------------------------------------------------------
# coupling --matrix file
# ---------------------------------------------------------------------------

_quantity = st.sampled_from(_NUMBERS) | st.sampled_from(
    ["867 MHz", "1 parsec", "1e300 dBm", "-5 dBm", "0 Hz", "1e308 GHz"]) | st.text(max_size=8)
_token = st.sampled_from(["50+0j", "1+0j", "-2.8+76j", "0j", "1e308+1e308j", "nan+0j", "x",
                          "1e-308+0j"]) | st.sampled_from(_NUMBERS)
_matrix = _noise | st.builds(
    lambda freq, ports, rows: _text([f"frequency = {freq}", "ports = " + " ".join(ports)]
                                    + [" ".join(row) for row in rows]),
    _quantity, st.lists(st.sampled_from(FINGERS) | st.text(max_size=3), max_size=4),
    st.lists(st.lists(_token, min_size=1, max_size=4), max_size=4))


@FUZZ
@given(_matrix)
@example(b"frequency = 867 MHz\xff\nports = I\n50+0j\n")
def test_coupling_matrix(content):
    _run(content, "coupling", "--matrix", "{src}")


# ---------------------------------------------------------------------------
# --config file
# ---------------------------------------------------------------------------

_config_value = _quantity | st.sampled_from(
    ["1.9 pF", "3.1 fF", "0.4 mS", "2.8-76j Ohm", "10 uW", "mean", "median", "80", "400"])
_config_line = st.builds(lambda key, suffix, value: f"{key}{suffix} = {value}",
                         st.sampled_from(sorted(_KEYS)), st.sampled_from(["", ".III", ".VI"]),
                         _config_value)
_config = _noise | st.lists(_config_line, max_size=4).map(_text)


@FUZZ
@given(_config)
@example(b"window = 10\xff\n")
def test_config_classify(content):
    _run(content, "--config", "{src}", "classify", "--value", "100")


@FUZZ
@given(_config)
def test_config_coupling(content):
    _run(content, "--config", "{src}", "coupling", "--turn-on")
