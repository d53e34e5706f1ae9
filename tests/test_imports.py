"""Which modules each command loads.

Each rfad call is a short process, and loading code is most of its
start-up time, so a command loads only the modules it runs.
``simulate``, ``calibrate``, ``fingerprint``, ``classify``, ``export`` and
``stats --records`` do no array work (``simulate`` draws numpy's normal
stream in the pure-Python ``fluctuation``), so they must run without numpy
in ``sys.modules``; the array commands load it inside the command. Of the
rfad modules, ``import rfad.cli`` loads only what parsing the command
line and loading the config need, and each command adds the ones it
runs: only ``export`` loads ``kiviat``, ``classify``, ``export`` and
``stats --records`` load no ``readlog``, and ``simulate``, which writes
no baseline, loads no ``fingerprint``. The shipped defaults are read as
any other file is, so start-up loads no ``importlib.resources``. Window
sizing, the campaign's layout and the seed check are pure Python too, so
``stats --generate`` refuses a bad output place or seed before it loads
numpy. The value
types are plain slotted classes, so no command imports ``dataclasses``
(which loads ``inspect``, ``ast`` and ``dis``) or runs the methods it
writes, and a command without numpy, which loads ``inspect`` itself,
loads no ``inspect``. Each case runs in a fresh interpreter, because
this test process has all of them loaded already.
"""

import json
import os
import subprocess
import sys

import pytest

import rfad
from rfad.hand import FINGERS

SRC = os.path.dirname(os.path.dirname(rfad.__file__))

_FP = {"material": "olive_oil", "values": {f: 10.0 for f in FINGERS},
       "imputed": {f: f == "V" for f in FINGERS}, "n_responsive": 4}
_RECORD = {"subject": "S01", "material": "olive_oil",
           "responsive": {f: f != "V" for f in FINGERS}, "fingerprint": _FP}


def _series_csv(base: int) -> str:
    """A code-series file: twelve samples on each channel."""
    return "timestamp_s,channel,code\n" + "".join(
        f"{0.7 * i!r},{f},{base + i % 3}\n" for f in FINGERS for i in range(12))


def _last_line(cwd, script: str, *flags: str) -> str:
    """Run ``script`` in a fresh interpreter started with ``flags``; the
    last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *flags, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _numpy_loaded(cwd, script: str) -> bool:
    """Run ``script`` in a fresh interpreter; whether numpy got imported."""
    return _last_line(cwd, script + "\nimport sys; print('numpy' in sys.modules)") == "True"


def _command(*argv) -> str:
    return f"from rfad.cli import main\nassert main({list(argv)!r}) == 0"


@pytest.fixture()
def work(tmp_path):
    (tmp_path / "fps.json").write_text(json.dumps([_FP]))
    (tmp_path / "records.json").write_text(json.dumps([_RECORD]))
    (tmp_path / "air.csv").write_text(_series_csv(300))
    (tmp_path / "touched.csv").write_text(_series_csv(260))
    (tmp_path / "baseline.json").write_text(
        json.dumps({"codes": {f: 300.0 for f in FINGERS}, "timestamp": "", "gaps": []}))
    return tmp_path


@pytest.mark.parametrize("script", [
    "import rfad",
    "import rfad.cli",
    _command("classify", "--value", "50"),
    _command("classify", "--fingerprints", "fps.json"),
    _command("export", "fps.json", "-o", "chart.svg"),
    _command("stats", "--records", "records.json"),
    _command("calibrate", "air.csv", "-o", "b.json"),
    _command("fingerprint", "touched.csv", "--baseline", "baseline.json", "-o", "f.json"),
    _command("simulate", "--duration", "7", "-o", "x.csv"),
    _command("simulate", "--material", "deionized_water", "--channels", "II", "V",
             "-o", "x.csv"),
], ids=["import-rfad", "import-cli", "classify-value", "classify-fingerprints",
        "export", "stats-records", "calibrate", "fingerprint", "simulate",
        "simulate-material"])
def test_command_runs_without_numpy(work, script):
    assert not _numpy_loaded(work, script)


def test_window_sizing_and_campaign_layout_run_without_numpy(tmp_path):
    # how many samples make a reading stable, and the campaign's trials and
    # their reader logs, are pure Python
    script = ("from rfad.classify import PopulationSpec, campaign_trials, log_name\n"
              "from rfad.readlog import CodeSeries, convergence_error, minimum_samples\n"
              "series = CodeSeries([0.7 * i for i in range(120)], [150, 152, 149, 151] * 30)\n"
              "assert minimum_samples(series, 1.0, 100, 'median') == 2\n"
              "assert convergence_error(series, 4) == 0.0\n"
              "trials = list(campaign_trials(PopulationSpec()))\n"
              "assert len(trials) == 90\n"
              "assert log_name(*trials[-1]) == 'subject10_deionized_water_trial3.csv'")
    assert not _numpy_loaded(tmp_path, script)


@pytest.mark.parametrize("argv", [
    ["stats", "--generate", "--records-out", "missing/r.json"],
    ["stats", "--generate", "--seed", "-1"],
    ["--config", "window.cfg", "stats", "--generate"],
    ["--config", "period.cfg", "stats", "--generate"],
], ids=["output-place", "negative-seed", "config-window", "config-sample-period"])
def test_refused_generate_loads_no_numpy(work, argv):
    # every output place of stats --generate, its seed, and the series its
    # config gives the campaign, are checked before the campaign's numpy is loaded
    (work / "window.cfg").write_text("window = 200\n")
    (work / "period.cfg").write_text("sample_period = 100 s\n")
    script = f"from rfad.cli import main\nassert main({argv!r}) == 2"
    assert not _numpy_loaded(work, script)


@pytest.mark.parametrize("script", [_command("coupling"), _command("stats", "--generate")],
                         ids=["coupling", "stats-generate"])
def test_array_command_loads_numpy(work, script):
    # the probe itself works: a command that does array work does load numpy
    assert _numpy_loaded(work, script)


def test_start_up_loads_no_importlib_resources(tmp_path):
    # -S: a site .pth file that imports importlib.resources would hide the import
    script = ("import sys, rfad.cli\n"
              "rfad.cli.load_config()\n"
              "print('importlib.resources' in sys.modules)")
    assert _last_line(tmp_path, script, "-S") == "False"


def test_import_rfad_loads_no_submodule(tmp_path):
    # the package holds only its version; each caller imports the module it uses
    script = "import sys, rfad\nprint([m for m in sys.modules if m.startswith('rfad.')])"
    assert _last_line(tmp_path, script) == "[]"


# What ``import rfad.cli`` loads: the parser, the config and its checks.
_START = {"cli", "config", "errors", "files", "hand", "ic", "materials", "units", "value"}


@pytest.mark.parametrize("script, added", [
    ("import rfad.cli", set()),
    (_command("classify", "--value", "50"), {"classify", "fingerprint"}),
    (_command("classify", "--fingerprints", "fps.json"), {"classify", "fingerprint"}),
    (_command("export", "fps.json", "-o", "chart.svg"), {"fingerprint", "kiviat"}),
    (_command("stats", "--records", "records.json"), {"classify", "fingerprint"}),
    (_command("calibrate", "air.csv", "-o", "b.json"), {"fingerprint", "readlog"}),
    (_command("fingerprint", "touched.csv", "--baseline", "baseline.json", "-o", "f.json"),
     {"fingerprint", "readlog"}),
    (_command("simulate", "--duration", "7", "-o", "x.csv"), {"fluctuation", "readlog"}),
    (_command("coupling"), {"coupling"}),
    (_command("stats", "--generate"),
     {"classify", "fingerprint", "fluctuation", "population", "readlog", "signal"}),
], ids=["import-cli", "classify-value", "classify-fingerprints", "export", "stats-records",
        "calibrate", "fingerprint", "simulate", "coupling", "stats-generate"])
def test_command_loads_only_the_rfad_modules_it_runs(work, script, added):
    # each module a command does not run would cost its compile time in every process
    line = _last_line(work, script + "\nimport sys\nprint(' '.join(sorted("
                            "m[5:] for m in sys.modules if m.startswith('rfad.'))))")
    assert set(line.split()) == _START | added


_NO_CODE_GENERATION = {"dataclasses", "inspect"}


@pytest.mark.parametrize("script, absent", [
    ("import rfad.cli", _NO_CODE_GENERATION),
    (_command("classify", "--value", "50"), _NO_CODE_GENERATION),
    (_command("classify", "--fingerprints", "fps.json"), _NO_CODE_GENERATION),
    (_command("export", "fps.json", "-o", "chart.svg"), _NO_CODE_GENERATION),
    (_command("stats", "--records", "records.json"), _NO_CODE_GENERATION),
    (_command("calibrate", "air.csv", "-o", "b.json"), _NO_CODE_GENERATION),
    (_command("fingerprint", "touched.csv", "--baseline", "baseline.json", "-o", "f.json"),
     _NO_CODE_GENERATION),
    (_command("simulate", "--duration", "7", "-o", "x.csv"), _NO_CODE_GENERATION),
    # numpy imports inspect, so an array command saves only dataclasses
    (_command("coupling"), {"dataclasses"}),
    (_command("stats", "--generate"), {"dataclasses"}),
], ids=["import-cli", "classify-value", "classify-fingerprints", "export", "stats-records",
        "calibrate", "fingerprint", "simulate", "coupling", "stats-generate"])
def test_command_loads_no_dataclasses(work, script, absent):
    # importing dataclasses takes milliseconds, and each class it makes execs its methods
    line = _last_line(work, script + f"\nimport sys\nprint(sorted({sorted(absent)!r}"
                                     f" & sys.modules.keys()))")
    assert line == "[]"
