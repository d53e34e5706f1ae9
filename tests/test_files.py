"""The file layer: atomic writes and byte-identical outputs."""

import hashlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from rfad.cli import main
from rfad.coupling import ImpedanceMatrix, save_impedance_matrix
from rfad.errors import DataError
from rfad.files import check_outputs, csv_text, json_text, write_json, write_lines, write_text
from rfad.readlog import CodeSeries, write_log, write_series
from rfad.signal import FluctuationModel, amplitude_spectrum, synthesize_series

# SHA-256 of every output at the shipped seeds. An intended format change
# updates these together with a note of what changed.
GOLDEN_SHA256 = {
    "air.csv":
        "550293965f819dd0be729ef74281b403c400f310af5e2a2c5051584224d208eb",
    "touched.csv":
        "0210b32df52c0a2c2e10b3560c8501cca4e253b014a1d6f47553f598fb002ec6",
    "baseline.json":
        "6724112b529841e1595bda15daa7d542f7e792c3a3256eda7251b48acd82a058",
    "fps.json":
        "653b505a85ccf516d8a831341798b24a8d3691d8a1ccd3ebd5b0dd9da1ee6b82",
    "chart.svg":
        "374ebb1db763c3ac44d8b46724dde4d94d8f89b68eb3beb07299a8933319fafc",
    "chart.csv":
        "38a83183de4fd79f9bec340dae23dc9bde690f95498ee71dd9db9ca367d96c71",
    "coupling.csv":
        "40afa53b79e5e8bc256847e55c41bc3ea67d933d2889b097b9c9c19fc16452c5",
    "records.json":
        "a170aa8d5f89aac3a5d1e9b94133847d9653dee5c19181a22c3fde48797af4b8",
    "report.json":
        "4a786c6fc3adc895086934b11ebb4a57b33b304107820d9ac801be0d5094e673",
    "logs":
        "6119e02cf0275979201284a1093078f25fd5f563c18daa4e732fed9c746ac5f2",
    "matrix.txt":
        "48732f0dd848de3cc8410285106b5c0123e2b15a3df2699fddd5ca53806105a8",
    "spectrum.csv":
        "db80a2ba5c00e7feedc798160d8eaf5242451db6d4faa9db1ea05759f603aa25",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestWriter:
    def test_golden_outputs(self, tmp_path, capsys):
        def run(*argv):
            assert main([str(a) for a in argv]) == 0

        p = tmp_path
        run("simulate", "--baseline", "300", "-o", p / "air.csv")
        run("simulate", "--material", "deionized_water", "--seed", "2",
            "-o", p / "touched.csv")
        run("calibrate", p / "air.csv", "-o", p / "baseline.json")
        run("fingerprint", p / "touched.csv", "--baseline", p / "baseline.json",
            "--label", "deionized_water", "-o", p / "fps.json")
        run("export", p / "fps.json", "-o", p / "chart.svg")
        run("coupling", "--turn-on", "-o", p / "coupling.csv")
        (p / "logs").mkdir()
        run("stats", "--generate", "--records-out", p / "records.json",
            "-o", p / "report.json", "--log-dir", p / "logs")
        z = ImpedanceMatrix(np.array([[50 + 10j, 1.5 - 0.25j],
                                      [1.5 - 0.25j, 42.125 - 7j]]),
                            frequency=867e6, port_labels=("I", "II"))
        save_impedance_matrix(z, p / "matrix.txt")
        # the amplitude spectrum, pinned through the rows its values give
        freqs, amps = amplitude_spectrum(synthesize_series(FluctuationModel(), 70.0, seed=1))
        write_text(p / "spectrum.csv", csv_text(
            ["freq_hz", "amplitude"],
            ([repr(float(f)), repr(float(a))] for f, a in zip(freqs, amps))))
        capsys.readouterr()

        logs = sorted((p / "logs").iterdir())
        assert len(logs) == 90
        digests = {name: _sha256((p / name).read_bytes())
                   for name in GOLDEN_SHA256 if name != "logs"}
        digests["logs"] = _sha256(b"".join(
            log.name.encode() + b"\0" + log.read_bytes() for log in logs))
        assert digests == GOLDEN_SHA256

    @pytest.mark.parametrize("kind", ["file", "directory"])
    def test_stale_tmp_neither_blocks_nor_changes(self, tmp_path, kind):
        target = tmp_path / "out.csv"
        stale = tmp_path / "out.csv.tmp"
        stale_file = stale
        if kind == "directory":
            stale.mkdir()
            stale_file = stale / "inner"
        stale_file.write_bytes(b"stale")
        write_text(target, "a,b\n")
        assert target.read_bytes() == b"a,b\n"
        assert stale_file.read_bytes() == b"stale"
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "out.csv.tmp"]
        stale_file.unlink()
        if kind == "directory":
            assert os.listdir(stale) == []
            stale.rmdir()

    def test_failed_write_keeps_target_and_cleans_up(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\n")
        with pytest.raises(UnicodeEncodeError):
            write_text(target, "new\n\ud800")
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_json_refuses_what_no_loader_reads(self, tmp_path, value):
        with pytest.raises(DataError, match="^a NaN or an infinity cannot be written as JSON$"):
            json_text({"x": [1.0, value]})
        target = tmp_path / "out.json"
        target.write_bytes(b"old\n")
        message = f"{target}: a NaN or an infinity cannot be written as JSON"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            write_json(target, {"x": [1.0, value]})
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.json"]

    @pytest.mark.parametrize("parent", ["nodir", "file"])
    def test_missing_directory_is_named(self, tmp_path, parent):
        (tmp_path / "file").write_text("")
        target = tmp_path / parent / "out.csv"
        with pytest.raises(DataError) as excinfo:
            write_text(target, "x\n")
        assert str(excinfo.value) == (
            f"{target}: directory {str(tmp_path / parent)!r} does not exist")
        assert os.listdir(tmp_path) == ["file"]

    def test_directory_target_is_named(self, tmp_path):
        target = tmp_path / "out.csv"
        target.mkdir()
        with pytest.raises(DataError) as excinfo:
            write_text(target, "x\n")
        assert str(excinfo.value) == f"{target}: is a directory, not a file"
        assert os.listdir(tmp_path) == ["out.csv"]
        assert os.listdir(target) == []

    def test_write_lines_names_a_directory_target(self, tmp_path):
        target = tmp_path / "log.csv"
        target.mkdir()
        with pytest.raises(DataError, match=f"^{re.escape(str(target))}: is a directory"):
            write_lines(target, ["t_s", "code"], iter(["0.0,300\n"]))
        assert os.listdir(tmp_path) == ["log.csv"]
        assert os.listdir(target) == []

    def test_link_to_a_directory_is_a_directory_target(self, tmp_path):
        (tmp_path / "dir").mkdir()
        target = tmp_path / "link"
        target.symlink_to("dir")
        with pytest.raises(DataError, match=f"^{re.escape(str(target))}: is a directory"):
            write_text(target, "x\n")
        assert sorted(os.listdir(tmp_path)) == ["dir", "link"]
        assert target.is_symlink() and os.listdir(target) == []

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        written = tmp_path / "written.txt"
        write_text(written, "x")
        assert os.stat(written).st_mode == os.stat(plain).st_mode

    def test_failed_line_keeps_target_and_cleans_up(self, tmp_path):
        def lines():
            yield "1,a\n"
            raise RuntimeError("line source failed")
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\n")
        with pytest.raises(RuntimeError, match="^line source failed$"):
            write_lines(target, ["n", "s"], lines())
        assert target.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["out.csv"]

    @pytest.mark.parametrize("writer", ["write_log", "write_series"])
    def test_reader_logs_stream_to_the_file(self, tmp_path, writer):
        # 200k rows, 40k timestamps on each of the five channels: the text
        # is never held in memory at once
        times = [0.7 * i for i in range(40_000)]
        series_set = {channel: CodeSeries(times, [(i + k) % 512 for i in range(40_000)])
                      for k, channel in enumerate(("I", "II", "III", "IV", "V"))}
        path = tmp_path / "log.csv"
        tracemalloc.start()
        try:
            if writer == "write_log":
                write_log(series_set, path,
                          {channel: "E28000000000000000000000" for channel in series_set})
            else:
                write_series(series_set, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 3_000_000
        assert peak < size / 20


class TestCheckOutputs:
    def test_a_none_path_is_skipped(self, tmp_path):
        check_outputs([("--records-out", None), ("-o", tmp_path / "out.json")],
                      [None, tmp_path / "in.json"])
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("target", ["./dir/same.json", "link/same.json"],
                             ids=["dot", "symlink"])
    def test_two_flags_that_resolve_to_one_file_are_refused(self, tmp_path, monkeypatch,
                                                            target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        (tmp_path / "link").symlink_to("dir")
        with pytest.raises(DataError) as excinfo:
            check_outputs([("--records-out", "dir/same.json"), ("-o", target)], [])
        assert str(excinfo.value) == f"{target}: --records-out and -o name the same file"
        assert sorted(os.listdir(tmp_path)) == ["dir", "link"]

    @pytest.mark.parametrize("target", ["in.csv", "./in.csv", "sub/../in.csv"])
    def test_a_target_that_names_an_input_is_refused(self, tmp_path, monkeypatch, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        with pytest.raises(DataError) as excinfo:
            check_outputs([("-o", target)], ["other.cfg", "in.csv"])
        assert str(excinfo.value) == f"{target}: -o names an input"

    def test_a_flag_that_names_a_target_named_by_what_it_is(self, tmp_path):
        log = str(tmp_path / "subject01_olive_oil_trial1.csv")
        with pytest.raises(DataError) as excinfo:
            check_outputs([("a reader log of --log-dir", log), ("-o", log)], [])
        assert str(excinfo.value) == f"{log}: -o names a reader log of --log-dir"

    def test_an_empty_path_is_refused_by_its_flag(self, tmp_path, monkeypatch):
        # an empty path was once taken as absent by some commands and
        # replaced by others, through a temporary file '.<hex>.tmp'
        monkeypatch.chdir(tmp_path)
        with pytest.raises(DataError) as excinfo:
            check_outputs([("-o", "out.json"), ("--records-out", "")], [])
        assert str(excinfo.value) == "--records-out: an empty path names no file"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("bad, error", [
        ("nodir/out.json", "nodir/out.json: directory 'nodir' does not exist"),
        ("dir", "dir: is a directory, not a file")], ids=["missing-directory", "directory"])
    def test_the_directory_errors_come_first(self, tmp_path, monkeypatch, bad, error):
        # -o names the input, but the later target's place is refused first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "dir").mkdir()
        with pytest.raises(DataError) as excinfo:
            check_outputs([("-o", "in.json"), ("--records-out", bad)], ["in.json"])
        assert str(excinfo.value) == error
