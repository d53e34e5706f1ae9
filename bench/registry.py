"""The benchmark's workloads and metrics, in one table.

``BENCHMARK.json`` is written from this table (``run.py
--write-benchmark-json``), the smoke test checks runs against it, and
``METRICS.md`` documents it, with the module each per-layer metric
measures and the end-to-end metric it should move. Each per-layer metric
names the workload that owns it; a traced run of any other workload
measures it with a short probe of that workload (see ``run.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 20
DEFAULT_SEED = 1        # the seed whose outputs golden.json records

WORKLOADS = {
    "session-cli": "what an analyst types: six fresh rfad processes per session, "
                   "so process start, imports, config and file formats dominate",
    "campaign-mc": "the in-process numeric core (population, ic, signal, "
                   "fingerprint, classify) with no file IO",
    "campaign-logs": "the same simulation, but every sample is written to a "
                     "reader log by rfad stats and parsed back, so readlog dominates",
    "analysis-sweep": "window sizing and coupling screens, which no other "
                      "workload reaches",
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None
    workload: str = ""          # per-layer: the workload that owns the metric


# Gated on every workload: a change may worsen each by at most its bound
# (a share of the parent's median). ``latency_rel`` is an iteration's wall
# time over the host-speed kernel's time around it (``hostspeed.py``),
# which cancels the drift of a shared host's speed; METRICS.md says what
# an iteration is on each workload.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("latency_rel", "ratio", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

# The named end-to-end figures, in wall time, printed and written with
# --out; the gated ones above are derived from them.
NAMED = (
    Metric("setup_s", "s", "lower", workload="all"),
    Metric("latency_s", "s", "lower", workload="all"),
    Metric("hostspeed_s", "s", "lower", workload="all"),
    Metric("session_s", "s", "lower", workload="session-cli"),
    Metric("mc_hands_per_s", "1/s", "higher", workload="campaign-mc"),
    Metric("population_trials_per_s", "1/s", "higher",
           workload="campaign-mc campaign-logs"),
    Metric("ingest_rows_per_s", "rows/s", "higher", workload="campaign-logs"),
    Metric("window_sizing_per_s", "1/s", "higher", workload="analysis-sweep"),
    Metric("coupling_screens_per_s", "1/s", "higher", workload="analysis-sweep"),
    Metric("error_rate", "ratio", "lower", workload="all"),
    Metric("peak_rss_mb", "MB", "lower", workload="all"),
)

CLI_STEPS = ("simulate", "calibrate", "fingerprint", "classify", "export", "stats")


PER_LAYER = (
    Metric("cli.interp_s", "s", "lower", workload="session-cli"),
    Metric("cli.numpy_import_s", "s", "lower", workload="session-cli"),
    Metric("cli.import_s", "s", "lower", workload="session-cli"),
    *(Metric(f"cli.step_s.{step}", "s", "lower",
             workload="campaign-logs" if step == "stats" else "session-cli")
      for step in CLI_STEPS),
    Metric("cli.step_p90_s", "s", "lower", workload="session-cli"),
    Metric("config.load_config_us", "us", "lower", workload="session-cli"),
    Metric("config.class_means.calls", "count", "lower", workload="session-cli"),
    Metric("ic.sensor_code.calls_per_hand", "count", "lower", workload="campaign-mc"),
    Metric("ic.sensor_code_us", "us", "lower", workload="campaign-mc"),
    Metric("ic.antenna_response_us", "us", "lower", workload="campaign-mc"),
    Metric("signal.synthesize_series_us", "us", "lower", workload="campaign-mc"),
    Metric("signal.samples_synthesized", "count", "lower", workload="campaign-mc"),
    Metric("signal.samples_used_ratio", "ratio", "higher", workload="campaign-mc"),
    Metric("signal.estimate_code_us", "us", "lower", workload="campaign-mc"),
    Metric("signal.minimum_samples_us.mean", "us", "lower", workload="analysis-sweep"),
    Metric("signal.minimum_samples_us.median", "us", "lower", workload="analysis-sweep"),
    Metric("signal.dominant_frequency_us", "us", "lower", workload="analysis-sweep"),
    Metric("readlog.read_rows_per_s", "rows/s", "higher", workload="campaign-logs"),
    Metric("readlog.write_rows_per_s", "rows/s", "higher", workload="campaign-logs"),
    Metric("readlog.bytes_written", "B", "lower", workload="campaign-logs"),
    Metric("readlog.series_from_rows_us", "us", "lower", workload="campaign-logs"),
    Metric("fingerprint.build_us", "us", "lower", workload="campaign-mc"),
    Metric("fingerprint.imputed_fraction", "ratio", "lower", workload="campaign-mc"),
    Metric("classify.classify_us", "us", "lower", workload="campaign-mc"),
    Metric("classify.reliability_report_us", "us", "lower", workload="campaign-mc"),
    Metric("classify.accuracy", "ratio", "higher", workload="campaign-mc"),
    Metric("population.simulate_hand_us", "us", "lower", workload="campaign-mc"),
    Metric("population.simulate_hand_self_us", "us", "lower", workload="campaign-mc"),
    Metric("population.generate_population_s", "s", "lower", workload="campaign-mc"),
    Metric("population.save_records_s", "s", "lower", workload="campaign-logs"),
    Metric("coupling.power_wave_scattering_us.n5", "us", "lower", workload="analysis-sweep"),
    Metric("coupling.power_wave_scattering_us.n64", "us", "lower", workload="analysis-sweep"),
    Metric("coupling.load_impedance_matrix_us", "us", "lower", workload="analysis-sweep"),
    Metric("coupling.normalize_coupling_us", "us", "lower", workload="analysis-sweep"),
    Metric("kiviat.kiviat_svg_us", "us", "lower", workload="session-cli"),
    Metric("kiviat.export_s", "s", "lower", workload="session-cli"),
    Metric("trace.overhead_ratio", "ratio", "lower", workload="all"),
)


def benchmark_json() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }

