"""Randomized property suites (seeded, >= 1000 cases each).

Each suite is a plain function returning the number of failing cases so
the acceptance gate can re-run them; the pytest wrappers assert zero.
"""

import math

import numpy as np
import pytest

from rfad.classify import reliability_report
from rfad.config import load_config
from rfad.coupling import ImpedanceMatrix, PortLoad, power_wave_scattering
from rfad.fingerprint import (CalibrationBaseline, ChannelReading,
                              build_fingerprint)
from rfad.hand import FINGERS
from rfad.ic import (CODE_STORAGE_MAX, AutoTuneIC, antenna_response,
                     calibrated_antenna_model, ic_susceptance, sensor_code)
from rfad.readlog import (CodeSeries, convergence_error, load_code_series, write_log,
                          write_series)
from rfad.fluctuation import FluctuationModel, synthesize_series

from test_classify import record_of

N_CASES = 1000


def _random_ic(rng):
    s_min = int(rng.integers(0, 100))
    # one draw per bound, the upper one capped at the top of the code register
    s_max = min(s_min + int(rng.integers(10, 500)), CODE_STORAGE_MAX)
    return AutoTuneIC(s_min=s_min, s_max=s_max)


def run_saturation_clamping(n=N_CASES, seed=101):
    """sensor_code always lands inside [s_min, s_max] with a coherent flag."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n):
        ic = _random_ic(rng)
        b_a = float(rng.uniform(-5e-2, 5e-2))
        result = sensor_code(ic, b_a)
        ok = ic.s_min <= result.code <= ic.s_max
        if result.saturated == "low":
            ok = ok and result.code == ic.s_min
        elif result.saturated == "high":
            ok = ok and result.code == ic.s_max
        failures += not ok
    return failures


def run_code_round_trip(n=N_CASES, seed=102):
    """b_a placed exactly on a ladder step inverts to that step."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n):
        ic = _random_ic(rng)
        s_star = int(rng.integers(ic.s_min, ic.s_max + 1))
        result = sensor_code(ic, -ic_susceptance(ic, s_star))
        failures += not (result.code == s_star and result.saturated == "none")
    return failures


def run_delta_s_monotonicity(n=N_CASES, seed=103):
    """Differential code is non-decreasing in permittivity."""
    rng = np.random.default_rng(seed)
    failures = 0
    ic = load_config().ic
    for _ in range(n):
        model = calibrated_antenna_model(
            ic,
            baseline_code=int(rng.integers(200, 400)),
            span_code=float(rng.uniform(50.0, 250.0)),
            span_epsilon=78.0,
            eps_half=float(rng.uniform(5.0, 60.0)))
        eps = np.sort(rng.uniform(1.0, 100.0, size=4))
        s_air = sensor_code(ic, antenna_response(model, 1.0)).code
        deltas = [s_air - sensor_code(ic, antenna_response(model, float(e))).code
                  for e in eps]
        failures += any(b < a for a, b in zip(deltas, deltas[1:]))
    return failures


def run_conjugate_match_null(n=N_CASES, seed=104):
    """Scalar power-wave reflection vanishes exactly at conjugate match."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n):
        z_c = complex(rng.uniform(0.5, 100.0), rng.uniform(-100.0, 100.0))
        z = ImpedanceMatrix(np.array([[z_c.conjugate()]]), frequency=867e6,
                            port_labels=("I",))
        k = power_wave_scattering(z, PortLoad(z_c))[0, 0]
        failures += not abs(k) < 1e-10
    return failures


def run_passivity_screen(n=N_CASES, seed=105):
    """Passive reciprocal Z with positive-real loads keeps ||K||_2 <= 1."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n):
        n_ports = int(rng.integers(2, 6))
        a = rng.normal(size=(n_ports, n_ports))
        r = a @ a.T  # symmetric PSD resistance part
        x = rng.normal(scale=30.0, size=(n_ports, n_ports))
        z = ImpedanceMatrix(r + 1j * (x + x.T), frequency=867e6,
                            port_labels=tuple(FINGERS[:n_ports]))
        loads = [PortLoad(complex(rng.uniform(0.5, 80.0),
                                  rng.uniform(-80.0, 80.0)))
                 for _ in range(n_ports)]
        k = power_wave_scattering(z, loads)
        failures += not np.linalg.svd(k, compute_uv=False).max() <= 1 + 1e-9
    return failures


def run_ccd_monotonicity(n=N_CASES, seed=106):
    """CCD(m) is non-increasing in m and bounded by [0, 100]."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n):
        n_records = int(rng.integers(1, 30))
        records = []
        for i in range(n_records):
            flags = rng.random(5) < rng.uniform(0.1, 0.9)
            records.append(record_of(f"S{i}", "olive_oil", dict(zip(FINGERS, map(bool, flags)))))
        result = reliability_report(records).ccd
        ok = all(a >= b for a, b in zip(result, result[1:]))
        ok = ok and all(0.0 <= v <= 100.0 for v in result)
        failures += not ok
    return failures


def run_imputation_mean_preservation(n=N_CASES, seed=107):
    """Post-imputation mean equals the responsive-channel mean."""
    rng = np.random.default_rng(seed)
    baseline = CalibrationBaseline(codes={f: 300.0 for f in FINGERS})
    failures = 0
    for _ in range(n):
        n_resp = int(rng.integers(1, 6))
        responsive = rng.choice(5, size=n_resp, replace=False)
        readings = []
        touched = {}
        for i, f in enumerate(FINGERS):
            if i in responsive:
                touched[f] = float(rng.uniform(80.0, 400.0))
                readings.append(ChannelReading(channel=f, code=touched[f],
                                               responsive=True))
            else:
                readings.append(ChannelReading(channel=f, code=None,
                                               responsive=False))
        fp = build_fingerprint(readings, baseline)
        resp_mean = sum(300.0 - c for c in touched.values()) / len(touched)
        full_mean = sum(fp.values[f] for f in FINGERS) / 5
        failures += not math.isclose(resp_mean, full_mean, rel_tol=0, abs_tol=1e-9)
    return failures


def run_delta_at_asymptote(n=N_CASES, seed=108):
    """convergence_error(series, m_inf, m_inf) is identically zero."""
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(n):
        model = FluctuationModel(
            baseline=int(rng.integers(100, 400)),
            sawtooth_amplitude=float(rng.uniform(0.0, 5.0)),
            transient_amplitude=float(rng.uniform(0.0, 10.0)),
            noise_sd=float(rng.uniform(0.0, 3.0)))
        m_inf = int(rng.integers(20, 101))
        series = synthesize_series(model, (m_inf + 1) * 0.7,
                                   seed=int(rng.integers(0, 2 ** 31)))
        failures += convergence_error(series, m_inf, m_inf) != 0.0
    return failures


def run_log_round_trip(n=N_CASES, seed=109, tmp_dir=None):
    """Random code series over shared timestamps, written as a reader log
    (write_log) and as a code-series file in shuffled row order
    (write_series), load back from both as their times and codes."""
    import tempfile
    import os
    rng = np.random.default_rng(seed)
    failures = 0
    with tempfile.TemporaryDirectory(dir=tmp_dir) as work:
        log, series = os.path.join(work, "log.csv"), os.path.join(work, "series.csv")
        for _ in range(n):
            n_samples = int(rng.integers(1, 8))
            times = np.sort(rng.uniform(0.0, 100.0, size=n_samples))
            channels = [f for f in FINGERS if rng.random() < 0.5] or ["III"]
            codes = rng.integers(0, 512, size=(len(channels), n_samples))
            epcs = [f"E280{int(rng.integers(0, 2**32)):08X}" for _ in channels]
            series_set = {ch: CodeSeries(times, row) for ch, row in zip(channels, codes)}
            write_log(series_set, log, dict(zip(channels, epcs)))
            write_series(series_set, series)
            with open(series) as fh:
                header, *rows = fh.readlines()
            rng.shuffle(rows)
            with open(series, "w") as fh:
                fh.writelines([header] + rows)
            loaded = [load_code_series(path) for path in (log, series)]
            failures += not all(
                set(got) == set(channels) and all(
                    np.array_equal(got[ch].times, times)
                    and np.array_equal(got[ch].codes, row)
                    for ch, row in zip(channels, codes))
                for got in loaded)
    return failures


SUITES = {
    "saturation clamping": run_saturation_clamping,
    "sensor-code round-trip": run_code_round_trip,
    "differential-code monotonicity": run_delta_s_monotonicity,
    "conjugate-match null": run_conjugate_match_null,
    "passivity screen": run_passivity_screen,
    "CCD monotonicity": run_ccd_monotonicity,
    "imputation mean-preservation": run_imputation_mean_preservation,
    "zero error at the asymptote": run_delta_at_asymptote,
    "log export/ingest round-trip": run_log_round_trip,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_property_suite(name):
    assert SUITES[name]() == 0
