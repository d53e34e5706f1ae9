"""The four closed-loop workloads, their inputs and their output checks.

Each workload is one client that starts its next iteration only after
the previous one has finished. Every input derives from the workload
seed: iteration inputs come from ``random.Random("<seed>:<workload>:<i>")``
(string seeding is stable across Python versions), and numpy draws are
seeded from it. ``session-cli`` and ``campaign-logs`` cycle through a
fixed number of inputs, so that at the default seed every output file
they write can be compared with the SHA-256 digests in ``golden.json``.

The program is called only through its public functions, looked up on
their modules at call time so that the traced run's wrappers see the
calls, and through the ``rfad`` command line as child processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from rfad import (classify, config as rconfig, coupling, fingerprint, ic,
                  population, readlog, signal)
from rfad.hand import FINGERS

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
BOOTSTRAP = os.path.join(HERE, "rfad_traced.py")
# what the ``rfad`` console script runs
CONSOLE = "import sys; from rfad.cli import main; sys.exit(main())"
CLI_TIMEOUT_S = 120

LIQUIDS = ("olive_oil", "ethyl_alcohol", "deionized_water")

SESSION_INPUTS = 6          # session-cli cycles through this many sessions
AIR_BASELINE_CODE = 300     # the README's air acquisition
MC_HANDS = 300              # hands per campaign-mc batch
PROBE_MC_HANDS = 60         # hands in the one-iteration probe of a traced run
CAMPAIGN_INPUTS = 3         # campaign-logs cycles through this many campaigns
WINDOW_TOLERANCE = 1.0      # code units, as in acceptance criterion 4
COUPLING_PORTS = (5, 64)

# Input preparation and output checks call the unwrapped functions, so
# that a traced run records only the work being measured.
_synthesize_input = signal.synthesize_series
_reliability_check = classify.reliability_report


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@dataclass
class Sample:
    """One iteration: its wall time and the work it did, as
    ``kind -> (count, seconds spent on that work)``."""

    latency: float
    work: dict
    hostspeed_s: float = 0.0     # the host-speed kernel's time around it


@dataclass
class Context:
    """State shared by the iterations of one run."""

    workload: str
    seed: int
    workdir: str
    env: dict
    golden: dict | None = None      # digests to check, at the default seed
    recording: bool = False         # fill ``golden`` instead of checking it
    mc_hands: int = MC_HANDS
    tracer: spans.Tracer | None = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    classified: int = 0
    classified_correct: int = 0
    cli_marks: list = field(default_factory=list)
    sizes: dict = field(default_factory=dict)

    def __post_init__(self):
        self.config = rconfig.load_config()
        self.expected_class = {m: cls.label for cls in self.config.classes()
                               for m in cls.reference_materials}
        self.air_baseline = air_baseline(self.config)

    def rng(self, i: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.workload}:{i}")

    def op(self, ok: bool, what: str) -> None:
        """Count one operation; a failed output check fails it."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def add_size(self, key: str, n: int) -> None:
        self.sizes[key] = self.sizes.get(key, 0) + n

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.workdir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def check_golden(self, key: str, digests: dict) -> None:
        if self.golden is None:
            return
        table = self.golden.setdefault(self.workload, {})
        if self.recording:
            table[key] = digests
            return
        expected = table.get(key)
        bad = sorted(n for n in set(digests) | set(expected or {})
                     if (expected or {}).get(n) != digests.get(n))
        self.op(expected is not None and not bad,
                f"golden digests of {self.workload} input {key}: "
                f"{'missing' if expected is None else 'differ for ' + ', '.join(bad[:5])}")

    def run_cli(self, args: list, cwd: str) -> subprocess.CompletedProcess:
        """One ``rfad`` process; traced, through the bootstrap."""
        step = args[0]
        if self.tracer is None:
            argv = [sys.executable, "-c", CONSOLE, *args]
        else:
            spans_path = os.path.join(cwd, f".spans-{step}.json")
            argv = [sys.executable, "-X", "importtime", BOOTSTRAP, spans_path, *args]
            idx = self.tracer.open(f"cli.step.{step}")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=cwd, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        finally:
            if self.tracer is not None:
                self.tracer.close(idx)
        if self.tracer is not None and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as fh:
                payload = json.load(fh)
            os.remove(spans_path)
            self.tracer.merge(payload, idx)
            numpy = re.search(r"\|\s*(\d+) \|\s*numpy\s*$", proc.stderr, re.M)
            self.cli_marks.append({
                "step": step, "interp_s": payload["marks"]["start"] - t0,
                "import_s": payload["marks"]["import_s"],
                "numpy_import_s": int(numpy.group(1)) * 1e-6 if numpy else 0.0})
        return proc

    def cli_ok(self, proc) -> bool:
        return proc.returncode == 0 and "Traceback" not in proc.stderr

    def cli_failure(self, proc, args) -> str:
        tail = [ln for ln in proc.stderr.splitlines() if not ln.startswith("import time:")]
        return f"rfad {' '.join(args)}: exit {proc.returncode}: {' | '.join(tail[-3:])}"


def _digests(directory: str) -> dict:
    return {name: sha256(os.path.join(directory, name))
            for name in sorted(os.listdir(directory)) if not name.startswith(".")}


def _data_rows(path) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


# ---------------------------------------------------------------------------
# session-cli
# ---------------------------------------------------------------------------

def session_cli(ctx: Context, i: int) -> Sample:
    """simulate (air) -> calibrate -> simulate --material -> fingerprint
    -> classify -> export, each a fresh rfad process."""
    key = i % SESSION_INPUTS
    r = ctx.rng(key)
    material = LIQUIDS[key % len(LIQUIDS)]
    air_duration = round(r.uniform(70.0, 240.0), 1)
    duration = round(r.uniform(70.0, 240.0), 1)
    steps = [
        ["simulate", "--baseline", str(AIR_BASELINE_CODE), "--duration", str(air_duration),
         "--seed", str(r.randrange(1, 10 ** 6)), "-o", "air.csv"],
        ["calibrate", "air.csv", "-o", "baseline.json"],
        ["simulate", "--material", material, "--duration", str(duration),
         "--seed", str(r.randrange(1, 10 ** 6)), "-o", "touched.csv"],
        ["fingerprint", "touched.csv", "--baseline", "baseline.json",
         "--label", material, "-o", "fps.json"],
        ["classify", "--fingerprints", "fps.json"],
        ["export", "fps.json", "-o", "chart.svg"],
    ]
    cwd = ctx.fresh_dir("session")
    classify_out = ""
    t0 = time.perf_counter()
    for args in steps:
        proc = ctx.run_cli(args, cwd)
        ok = ctx.cli_ok(proc)
        what = ctx.cli_failure(proc, args)
        if ok and args[0] == "classify":
            classify_out = proc.stdout
            label = ctx.expected_class[material]
            ok = bool(re.fullmatch(rf"{material}: F=\S+ -> {label}\n", proc.stdout))
            what = f"classify printed {proc.stdout.strip()!r}, expected class {label}"
            ctx.classified += 1
            ctx.classified_correct += ok
        ctx.op(ok, what)
        if not ok:
            return None
    latency = time.perf_counter() - t0
    ctx.add_size("sessions", 1)
    ctx.add_size("rows", _data_rows(os.path.join(cwd, "air.csv"))
                 + _data_rows(os.path.join(cwd, "touched.csv")))
    digests = _digests(cwd)
    digests["classify.stdout"] = hashlib.sha256(classify_out.encode()).hexdigest()
    ctx.check_golden(str(key), digests)
    return Sample(latency, {})


# ---------------------------------------------------------------------------
# campaign-mc
# ---------------------------------------------------------------------------

def _population_ok(records, report, spec) -> bool:
    expected = spec.subjects * len(spec.materials) * spec.trials
    ccd = report.ccd
    return (len(records) == expected
            and all(r.fingerprint is not None and r.fingerprint.material_label == r.material
                    for r in records)
            and ccd[0] == 100.0
            and all(a >= b for a, b in zip(ccd, ccd[1:])))


def campaign_mc(ctx: Context, i: int) -> Sample:
    """A Monte Carlo classification batch over the three liquids, then a
    campaign without logs and its reliability report."""
    r = ctx.rng(i)
    mc_seed, pop_seed = r.randrange(2 ** 31), r.randrange(2 ** 31)
    spec = population.PopulationSpec()
    t0 = time.perf_counter()
    accuracy = population.monte_carlo_classification(ctx.mc_hands, mc_seed,
                                                     config=ctx.config)
    t1 = time.perf_counter()
    records = population.generate_population(spec, seed=pop_seed, config=ctx.config)
    report = classify.reliability_report(records)
    t2 = time.perf_counter()
    ctx.classified += ctx.mc_hands
    ctx.classified_correct += round(accuracy * ctx.mc_hands)
    ctx.op(accuracy >= 0.99, f"Monte Carlo accuracy {accuracy} < 0.99 (seed {mc_seed})")
    ctx.op(_population_ok(records, report, spec),
           f"population or reliability report inconsistent (seed {pop_seed})")
    ctx.add_size("hands", ctx.mc_hands)
    ctx.add_size("trials", len(records))
    return Sample(t2 - t0, {"hands": (ctx.mc_hands, t1 - t0),
                            "trials": (len(records), t2 - t1)})


# ---------------------------------------------------------------------------
# campaign-logs
# ---------------------------------------------------------------------------

def air_baseline(config) -> fingerprint.CalibrationBaseline:
    """Air codes of the configured channels, as the campaign computes them."""
    return fingerprint.CalibrationBaseline(codes={
        ch: float(ic.sensor_code(config.ic, ic.antenna_response(
            config.antenna_models[ch], 1.0)).code) for ch in FINGERS})


def _log_names(records, spec) -> list:
    """Log file name of each record, in the order the campaign wrote them."""
    return [f"subject{int(rec.subject[1:]):02d}_{rec.material}_trial{n % spec.trials + 1}.csv"
            for n, rec in enumerate(records)]


def ingest(ctx: Context, path, label):
    """Reader log -> per-channel series -> windowed codes -> fingerprint."""
    series = readlog.load_code_series(path)
    readings = []
    for ch in FINGERS:
        if ch in series:
            code = signal.estimate_code(series[ch], ctx.config.window,
                                        ctx.config.estimator)
            readings.append(fingerprint.ChannelReading(ch, code, True))
        else:
            readings.append(fingerprint.ChannelReading(ch, None, False))
    fp = fingerprint.build_fingerprint(readings, ctx.air_baseline, material_label=label)
    return fp, sum(len(s) for s in series.values())


def campaign_logs(ctx: Context, i: int) -> Sample:
    """``rfad stats --generate --log-dir`` as one process, then every
    reader log read back in-process and checked against its trial record."""
    key = i % CAMPAIGN_INPUTS
    pop_seed = ctx.rng(key).randrange(2 ** 31)
    cwd = ctx.fresh_dir("campaign")
    os.makedirs(os.path.join(cwd, "logs"))
    t0 = time.perf_counter()
    args = ["stats", "--generate", "--seed", str(pop_seed), "--log-dir", "logs",
            "--records-out", "records.json", "-o", "report.json"]
    proc = ctx.run_cli(args, cwd)
    stats_s = time.perf_counter() - t0
    ok = ctx.cli_ok(proc)
    ctx.op(ok, ctx.cli_failure(proc, args))
    if not ok:
        return None
    spec = population.PopulationSpec()
    records = population.load_records(os.path.join(cwd, "records.json"))
    names = _log_names(records, spec)
    t1 = time.perf_counter()
    fps, rows = [], 0
    for name, rec in zip(names, records):
        fp, n = ingest(ctx, os.path.join(cwd, "logs", name), rec.material)
        fps.append(fp)
        rows += n
    ingest_s = time.perf_counter() - t1
    for name, rec, fp in zip(names, records, fps):
        ctx.op(fingerprint.fingerprint_record(fp)
               == fingerprint.fingerprint_record(rec.fingerprint),
               f"fingerprint re-read from {name} differs from its trial record")
    with open(os.path.join(cwd, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    ctx.op(report["trials"] == len(records) == len(os.listdir(os.path.join(cwd, "logs")))
           and tuple(report["ccd_percent"]) == _reliability_check(records).ccd,
           f"stats report disagrees with its records (seed {pop_seed})")
    ctx.add_size("trials", len(records))
    ctx.add_size("rows", rows)
    digests = _digests(os.path.join(cwd, "logs"))
    for name in ("records.json", "report.json"):
        digests[name] = sha256(os.path.join(cwd, name))
    ctx.check_golden(str(key), digests)
    return Sample(stats_s + ingest_s, {"trials": (len(records), stats_s),
                                       "rows": (rows, ingest_s)})


# ---------------------------------------------------------------------------
# analysis-sweep
# ---------------------------------------------------------------------------

def impedance_matrix(config, n: int, seed: int) -> coupling.ImpedanceMatrix:
    """A reciprocal, passive n-port: symmetric R positive definite, symmetric X."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    resistance = a @ a.T * (5.0 / n) + 20.0 * np.eye(n)
    b = rng.normal(scale=30.0, size=(n, n))
    labels = FINGERS if n == len(FINGERS) else tuple(f"P{k + 1}" for k in range(n))
    return coupling.ImpedanceMatrix(resistance + 0.5j * (b + b.T),
                                    frequency=config.frequency, port_labels=labels)


def _scattering_ok(k: np.ndarray) -> bool:
    scale = np.abs(k).max()
    reciprocal = np.abs(k - k.T).max() <= 1e-9 * scale
    passive = np.linalg.svd(k, compute_uv=False).max() <= 1.0 + 1e-9
    return bool(reciprocal and passive)


def analysis_sweep(ctx: Context, i: int) -> Sample:
    """Window sizing of one series per liquid (m_inf in [100, 400]) and
    one coupling screen per port count."""
    r = ctx.rng(i)
    inputs = []
    for liquid in LIQUIDS:
        m_inf = r.randint(100, 400)
        model = signal.material_fluctuation_model(liquid, baseline=r.randint(150, 350))
        inputs.append((liquid, m_inf, _synthesize_input(
            model, (m_inf + 2) * model.sample_period, seed=r.randrange(2 ** 31))))
    matrices = [impedance_matrix(ctx.config, n, r.randrange(2 ** 31)) for n in COUPLING_PORTS]
    load = coupling.PortLoad(ctx.config.ic_load)
    cwd = ctx.fresh_dir("sweep")

    sizing_s = 0.0
    for liquid, m_inf, series in inputs:
        t0 = time.perf_counter()
        m_mean = signal.minimum_samples(series, WINDOW_TOLERANCE, m_inf, "mean")
        m_median = signal.minimum_samples(series, WINDOW_TOLERANCE, m_inf, "median")
        freq = signal.dominant_frequency(series)
        sizing_s += time.perf_counter() - t0
        nyquist_hz = 0.5 / (series.times[1] - series.times[0])
        ctx.op(m_mean <= m_median and freq is not None
               and 0.0 < freq <= nyquist_hz * (1 + 1e-9),
               f"{liquid} m_inf={m_inf}: mean window {m_mean}, median window "
               f"{m_median}, dominant frequency {freq}")
    screen_s = 0.0
    for z in matrices:
        path = os.path.join(cwd, f"z{z.n_ports}.txt")
        t0 = time.perf_counter()
        coupling.save_impedance_matrix(z, path)
        loaded = coupling.load_impedance_matrix(path)
        k = coupling.power_wave_scattering(loaded, load)
        report = coupling.normalize_coupling(k)
        screen_s += time.perf_counter() - t0
        ctx.op(_scattering_ok(k) and abs(report.normalized_magnitudes.max() - 100.0) <= 1e-9,
               f"{z.n_ports}-port scattering matrix not reciprocal and passive, "
               "or its normalized peak is not 100")
    ctx.add_size("series_samples", sum(len(s) for _, _, s in inputs))
    ctx.add_size("ports", sum(COUPLING_PORTS))
    return Sample(sizing_s + screen_s, {"sizings": (len(inputs), sizing_s),
                                        "screens": (len(matrices), screen_s)})


# ---------------------------------------------------------------------------
# registry of runnable workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    iterate: Callable[[Context, int], Sample | None]
    setup_modules: tuple        # what a fresh process of this workload imports
    in_process: bool            # the benchmark process itself runs the program
    hostspeed: str              # "kernel" in-process or "process": see hostspeed.py
    rates: dict                 # named rate metric -> work kind
    latency_metric: str = ""    # named metric that reports latency_s


WORKLOADS = {
    "session-cli": Workload(session_cli, ("rfad.cli",), False, "process", {},
                            latency_metric="session_s"),
    "campaign-mc": Workload(campaign_mc, ("rfad.population", "rfad.classify"), True, "kernel",
                            {"mc_hands_per_s": "hands", "population_trials_per_s": "trials"}),
    "campaign-logs": Workload(campaign_logs,
                              ("rfad.cli", "rfad.population", "rfad.readlog"), True,
                              "process",
                              {"population_trials_per_s": "trials", "ingest_rows_per_s": "rows"}),
    "analysis-sweep": Workload(analysis_sweep, ("rfad.signal", "rfad.coupling"), True, "kernel",
                               {"window_sizing_per_s": "sizings",
                                "coupling_screens_per_s": "screens"}),
}
