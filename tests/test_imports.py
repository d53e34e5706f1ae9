"""Which commands load numpy.

Each rfad call is a short process, and importing numpy is most of its
start-up time. ``calibrate``, ``fingerprint``, ``classify``, ``export``
and ``stats --records`` do no array work, so they must run without numpy
in ``sys.modules``; the array commands load it inside the command. Each
case runs in a fresh interpreter, because this test process has numpy
loaded already.
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


def _numpy_loaded(cwd, script: str) -> bool:
    """Run ``script`` in a fresh interpreter; whether numpy got imported."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script + "\nimport sys; print('numpy' in sys.modules)"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


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
], ids=["import-rfad", "import-cli", "classify-value", "classify-fingerprints",
        "export", "stats-records", "calibrate", "fingerprint"])
def test_command_runs_without_numpy(work, script):
    assert not _numpy_loaded(work, script)


def test_array_command_loads_numpy(work):
    # the probe itself works: a command that synthesizes does load numpy
    assert _numpy_loaded(work, _command("simulate", "--duration", "7", "-o", "x.csv"))
