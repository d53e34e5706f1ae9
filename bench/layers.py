"""Per-layer metrics of a traced run, computed from its spans and counters.

A metric is ``None`` when the run recorded nothing it is computed from;
``run.py`` then measures it with a probe of the workload that owns it.
Count metrics are per traced iteration of the workload.
"""

from __future__ import annotations

import statistics

from spans import Tracer


def _median(values, scale=1.0):
    return statistics.median(values) * scale if values else None


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(tracer: Tracer, iterations: int, cli_marks: list,
                  classified: int, classified_correct: int) -> dict:
    names = tracer.names
    nid, parent = tracer.name_id, tracer.parent
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    n = len(dur)

    by_name: dict[str, list[int]] = {}
    for i, k in enumerate(nid):
        by_name.setdefault(names[k], []).append(i)
    child_time = [0.0] * n
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += dur[i]
    # parents precede their children, so one forward pass marks every
    # span that runs inside simulate_hand
    hand = tracer.name_id_of("population.simulate_hand")
    in_hand = [False] * n
    for i in range(n):
        p = parent[i]
        in_hand[i] = nid[i] == hand or (p >= 0 and in_hand[p])

    def durations(name):
        return [dur[i] for i in by_name.get(name, ())]

    def med(name, scale=1e6):
        return _median(durations(name), scale)

    def calls(name):
        return len(by_name[name]) / iterations if name in by_name else None

    def counter(name):
        return tracer.counters[name] / iterations if name in tracer.counters else None

    c = tracer.counters
    steps = [name for name in by_name if name.startswith("cli.step.")]
    step_durations = sorted(d for name in steps for d in durations(name))
    hands = by_name.get("population.simulate_hand", ())
    synthesized = c.get("signal.samples_synthesized", 0.0)
    used = c.get("signal.samples_estimated", 0.0) + c.get("readlog.rows_written", 0.0)

    out = {
        "cli.interp_s": _median([m["interp_s"] for m in cli_marks]),
        "cli.numpy_import_s": _median([m["numpy_import_s"] for m in cli_marks]),
        "cli.import_s": _median([m["import_s"] for m in cli_marks]),
        "cli.step_p90_s": (statistics.quantiles(step_durations, n=10)[-1]
                           if len(step_durations) > 1 else _median(step_durations)),
        "config.load_config_us": med("config.load_config"),
        "config.class_means.calls": calls("config.class_means"),
        "ic.sensor_code.calls_per_hand": _ratio(
            sum(1 for i in by_name.get("ic.sensor_code", ()) if in_hand[i]), len(hands)),
        "ic.sensor_code_us": med("ic.sensor_code"),
        "ic.antenna_response_us": med("ic.antenna_response"),
        "signal.synthesize_series_us": med("signal.synthesize_series"),
        "signal.samples_synthesized": counter("signal.samples_synthesized"),
        "signal.samples_used_ratio": (min(1.0, used / synthesized) if synthesized else None),
        "signal.estimate_code_us": med("signal.estimate_code"),
        "signal.minimum_samples_us.mean": med("signal.minimum_samples.mean"),
        "signal.minimum_samples_us.median": med("signal.minimum_samples.median"),
        "signal.dominant_frequency_us": med("signal.dominant_frequency"),
        "readlog.read_rows_per_s": _ratio(c.get("readlog.rows_read", 0.0),
                                          sum(durations("readlog.read"))),
        "readlog.write_rows_per_s": _ratio(c.get("readlog.rows_written", 0.0),
                                           sum(durations("readlog.write"))),
        "readlog.bytes_written": counter("readlog.bytes_written"),
        "readlog.series_from_rows_us": med("readlog.series_from_rows"),
        "fingerprint.build_us": med("fingerprint.build"),
        "fingerprint.imputed_fraction": _ratio(c.get("fingerprint.imputed", 0.0),
                                               c.get("fingerprint.fingers", 0.0)),
        "classify.classify_us": med("classify.classify"),
        "classify.reliability_report_us": med("classify.reliability_report"),
        "classify.accuracy": _ratio(classified_correct, classified),
        "population.simulate_hand_us": med("population.simulate_hand"),
        "population.simulate_hand_self_us": _median(
            [dur[i] - child_time[i] for i in hands], 1e6),
        "population.generate_population_s": med("population.generate_population", 1.0),
        "population.save_records_s": med("population.save_records", 1.0),
        "coupling.power_wave_scattering_us.n5": med("coupling.power_wave_scattering.n5"),
        "coupling.power_wave_scattering_us.n64": med("coupling.power_wave_scattering.n64"),
        "coupling.load_impedance_matrix_us": med("coupling.load_impedance_matrix"),
        "coupling.normalize_coupling_us": med("coupling.normalize_coupling"),
        "kiviat.kiviat_svg_us": med("kiviat.kiviat_svg"),
        "kiviat.export_s": med("kiviat.export", 1.0),
    }
    for name in steps:
        out[f"cli.step_s.{name[len('cli.step.'):]}"] = med(name, 1.0)
    return out
