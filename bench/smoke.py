"""Smoke test of the benchmark: every workload at a tiny size.

    python3 bench/smoke.py          # or: python -m pytest bench/smoke.py

Runs each workload for one second untraced and traced, and checks that
every metric of ``registry.py`` is reported with its unit, that no
operation failed, and that BENCHMARK.json and METRICS.md agree with the
registry. The file name keeps it out of the default test collection.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import registry  # noqa: E402


def _run(workload, trace, out_dir):
    out = os.path.join(out_dir, f"{workload}-{trace}.json")
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seconds", "1", "--seed", "3", "--trace", str(trace),
                           "--out", out], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out, encoding="utf-8") as fh:
        return json.loads(proc.stdout.splitlines()[-1]), json.load(fh)


def test_benchmark_json_matches_registry():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == registry.benchmark_json()


def test_metrics_document_names_every_metric():
    with open(os.path.join(HERE, "METRICS.md"), encoding="utf-8") as fh:
        text = fh.read()
    for m in (*registry.END_TO_END, *registry.NAMED, *registry.PER_LAYER):
        assert f"`{m.name}`" in text, m.name


def test_every_workload_reports_every_metric():
    with tempfile.TemporaryDirectory() as out_dir:
        for workload in registry.WORKLOADS:
            for trace, table in ((0, registry.END_TO_END), (1, registry.PER_LAYER)):
                last, result = _run(workload, trace, out_dir)
                assert set(last) == {"correct", "attempted", "failed", "metrics"}
                assert last["correct"] and last["failed"] == 0, result["failures"]
                assert result["named"]["error_rate"] == 0
                assert {k: v["unit"] for k, v in last["metrics"].items()} == \
                    {m.name: m.unit for m in table}
                assert all(isinstance(v["value"], float) for v in last["metrics"].values())
                named = {m.name for m in registry.NAMED
                         if m.workload == "all" or workload in m.workload.split()}
                assert set(result["named"]) == named


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
