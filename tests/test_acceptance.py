"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (run pytest with -s or rely on
captured output on failure) and asserts the criterion at its stated
tolerance. Fixtures and seeds are pinned so the whole module is
deterministic.
"""

import math
import time

import numpy as np

from rfad.coupling import (REFERENCE_COUPLING_MAGNITUDES, normalize_coupling,
                           turn_on_power)
from rfad.config import load_config as default_config
from rfad.fingerprint import (CalibrationBaseline, ChannelReading,
                              build_fingerprint, pressure_uncertainty,
                              propagated_uncertainty)
from rfad.hand import FINGERS
from rfad.ic import antenna_response, power_transfer
from rfad.population import (DEFAULT_POPULATION_SEED, generate_population,
                             monte_carlo_classification)
from rfad.classify import reliability_report
from rfad.readlog import DEFAULT_ASYMPTOTIC_SAMPLES, minimum_samples
from rfad.signal import (dominant_frequency, material_fixture_series, synthesize_series,
                         FluctuationModel)
from rfad.units import dbm_from_watts

import test_properties


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_coupling_reproduction():
    start = time.perf_counter()
    report = normalize_coupling(REFERENCE_COUPLING_MAGNITUDES)
    elapsed = time.perf_counter() - start
    # 2.89 / 100 is the exact quotient; the decimal literal 0.0289 is one
    # floating-point ulp away, so both identities are pinned
    ok = (report.max_offdiag_ratio == 2.89 / 100.0
          and abs(report.max_offdiag_ratio - 0.0289) < 1e-15
          and report.max_offdiag_ratio <= 0.03
          and elapsed < 1.0)
    _report("coupling reproduction: worst off-diagonal ratio 0.0289", ok,
            f"ratio={report.max_offdiag_ratio!r}")


def test_criterion_2_power_transfer_screen():
    start = time.perf_counter()
    config = default_config()
    worst = 1.0
    for channel in FINGERS:
        model = config.antenna_models[channel]
        for eps in (1.0, 3.0, 17.0, 78.0):
            tau = power_transfer(config.ic, antenna_response(model, eps))
            worst = min(worst, tau)
    elapsed = time.perf_counter() - start
    ok = worst > 0.85 and elapsed < 1.0
    _report("power transfer > 0.85 at 867 MHz on all five channels", ok,
            f"worst tau={worst:.4f}")


def test_criterion_3_turn_on_screen():
    start = time.perf_counter()
    config = default_config()
    levels = {ch: dbm_from_watts(turn_on_power(0.85, gain, config.ic_sensitivity))
              for ch, gain in config.transducer_gains.items()}
    elapsed = time.perf_counter() - start
    worst = max(levels.values())
    ok = worst <= 25.0 and elapsed < 1.0
    _report("turn-on power <= 25 dBm on every channel", ok,
            f"worst={worst:.2f} dBm")


def test_criterion_4_convergence_windows():
    start = time.perf_counter()
    details = []
    ok = True
    for material in ("olive_oil", "ethyl_alcohol", "deionized_water"):
        series = material_fixture_series(material)
        m_mean = minimum_samples(series, 1.0, DEFAULT_ASYMPTOTIC_SAMPLES, "mean")
        m_median = minimum_samples(series, 1.0, DEFAULT_ASYMPTOTIC_SAMPLES, "median")
        ok = ok and m_mean <= 10 and m_mean <= m_median
        details.append(f"{material}: mean {m_mean}, median {m_median}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report("convergence window <= 10 samples, mean <= median", ok,
            "; ".join(details))


def test_criterion_5_dominant_frequency():
    start = time.perf_counter()
    series = synthesize_series(FluctuationModel(), 70.0, seed=5)
    freq = dominant_frequency(series)
    elapsed = time.perf_counter() - start
    bin_width = 1.0 / 70.0
    ok = freq is not None and abs(freq - 0.7) <= bin_width and elapsed < 1.0
    _report("dominant fluctuation frequency 0.7 Hz (+- one bin)", ok,
            f"freq={freq}")


def test_criterion_6_uncertainty_halving():
    baseline = CalibrationBaseline(codes={f: 300.0 for f in FINGERS})
    readings = [ChannelReading(channel=f, code=260.0, responsive=True)
                for f in FINGERS]
    fp = build_fingerprint(readings, baseline)
    ratio = propagated_uncertainty(fp) / pressure_uncertainty(40.0)
    ok = abs(ratio - 1.0 / math.sqrt(5)) <= 1e-12
    _report("five-channel uncertainty reduced by exactly 1/sqrt(5)", ok,
            f"ratio={ratio!r}")


def test_criterion_7_population_statistics():
    start = time.perf_counter()
    records = generate_population(seed=DEFAULT_POPULATION_SEED)
    report = reliability_report(records)
    elapsed = time.perf_counter() - start
    targets = {"I": 20.0, "II": 50.0, "III": 70.0, "IV": 30.0, "V": 50.0}
    ok = (len(records) == 90
          and report.ccd[0] == 100.0
          and abs(report.ccd[1] - 90.0) <= 5.0
          and abs(report.ccd[2] - 60.0) <= 10.0
          and report.ccd[4] == 0.0
          and all(abs(report.joint_rates[f] - targets[f]) <= 10.0
                  for f in FINGERS)
          and elapsed < 5.0)
    rates = ", ".join(f"{f}={report.joint_rates[f]:.1f}" for f in FINGERS)
    _report("population CCD and per-finger rates within tolerance", ok,
            f"ccd={tuple(round(c, 1) for c in report.ccd)}; {rates}")


def test_criterion_8_end_to_end_classification():
    start = time.perf_counter()
    accuracy = monte_carlo_classification(1000, seed=7)
    elapsed = time.perf_counter() - start
    ok = accuracy >= 0.99 and elapsed < 30.0
    _report("end-to-end classification >= 99% over 1000 hands", ok,
            f"accuracy={100 * accuracy:.1f}%, {elapsed:.1f}s")


def test_criterion_9_property_suites():
    failures = {name: fn() for name, fn in test_properties.SUITES.items()}
    total = sum(failures.values())
    ok = total == 0 and len(failures) == 9
    bad = ", ".join(n for n, f in failures.items() if f) or "none"
    _report("nine randomized property suites, 1000 cases each, zero failures",
            ok, f"failing suites: {bad}")
