"""Series synthesis, spectrum, and convergence-window tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfad import signal as signal_module
from rfad.errors import DataError, NotConvergedError
from rfad.materials import REFERENCE_LIQUIDS
from rfad.ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN, MAX_SERIES_SAMPLES
from rfad.readlog import CodeSeries, convergence_error, minimum_samples
from rfad.readlog import DEFAULT_ASYMPTOTIC_SAMPLES as M_INF
from rfad.fluctuation import FluctuationModel, material_fluctuation_model, synthesize_series
from rfad.signal import (amplitude_spectrum, dominant_frequency, estimate_code, pcg64_states,
                         synthesize_block)
from rfad.signal import _normal_rows


FIXTURE_SEED = 10


def material_fixture_series(material: str) -> CodeSeries:
    """The canonical seeded series of a reference liquid: 70 s at baseline 200."""
    return synthesize_series(material_fluctuation_model(material, 200), 70.0, seed=FIXTURE_SEED)


def _series(codes, dt=0.7):
    codes = np.asarray(codes)
    return CodeSeries(times=np.arange(len(codes)) * dt, codes=codes)


class TestCodeSeries:
    def test_rejects_nonincreasing_times(self):
        with pytest.raises(DataError, match="strictly increasing"):
            CodeSeries(times=np.array([0.0, 1.0, 1.0]), codes=np.array([1, 2, 3]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_times(self, bad):
        with pytest.raises(DataError, match="finite"):
            CodeSeries(times=np.array([0.0, bad]), codes=np.array([200, 201]))

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(DataError, match="storage range"):
            _series([100, 600])
        with pytest.raises(DataError):
            _series([-1, 100])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DataError):
            CodeSeries(times=np.array([0.0, 1.0]), codes=np.array([1]))

    def test_rejects_fractional_codes(self):
        with pytest.raises(DataError, match="integers"):
            CodeSeries(times=[0.0, 0.7], codes=[200.7, 201])

    def test_rejects_bool_codes(self):
        with pytest.raises(DataError, match="integers"):
            CodeSeries(times=[0.0, 0.7], codes=[True, 201])
        with pytest.raises(DataError, match="integers"):
            CodeSeries(times=[0.0, 0.7], codes=np.array([True, False]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_codes(self, bad):
        with pytest.raises(DataError, match="integers"):
            CodeSeries(times=[0.0, 0.7], codes=[bad, 201])

    def test_stores_python_numbers(self):
        series = CodeSeries(times=np.array([0.0, 0.7]), codes=[np.int64(200), 201.0])
        assert series.times == (0.0, 0.7) and series.codes == (200, 201)
        assert [type(v) for v in series.times + series.codes] == [float, float, int, int]


class TestSynthesize:
    def test_all_amplitudes_zero_is_constant(self):
        model = FluctuationModel(baseline=200, sawtooth_amplitude=0.0,
                                 transient_amplitude=0.0, noise_sd=0.0)
        series = synthesize_series(model, 70.0, seed=4)
        assert set(series.codes) == {200}

    def test_deterministic_for_fixed_seed(self):
        model = FluctuationModel()
        a = synthesize_series(model, 70.0, seed=123)
        b = synthesize_series(model, 70.0, seed=123)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.times, b.times)

    def test_seed_changes_noise(self):
        model = FluctuationModel(noise_sd=2.0)
        a = synthesize_series(model, 70.0, seed=1)
        b = synthesize_series(model, 70.0, seed=2)
        assert not np.array_equal(a.codes, b.codes)

    def test_noise_free_sawtooth_is_periodic_on_grid(self):
        # 0.5 Hz sampled at 0.1 s: the 2 s period is exactly 20 samples
        model = FluctuationModel(baseline=200, sawtooth_amplitude=3.0,
                                 sawtooth_frequency=0.5, transient_amplitude=0.0,
                                 noise_sd=0.0, sample_period=0.1)
        series = synthesize_series(model, 8.0, seed=0)
        assert np.array_equal(series.codes[:-20], series.codes[20:])

    def test_duration_below_one_period_rejected(self):
        with pytest.raises(DataError):
            synthesize_series(FluctuationModel(), 0.5, seed=0)

    @pytest.mark.parametrize("params", [
        dict(sample_period=float("nan")),
        dict(noise_sd=float("inf")),
        dict(sawtooth_amplitude=float("nan")),
        dict(sawtooth_frequency=float("inf")),
        dict(transient_amplitude=float("-inf")),
        dict(transient_duration=float("nan")),
        # finite, but the sawtooth phase of a long series overflows
        dict(sawtooth_frequency=1e308),
        # finite, but the code before noise overflows
        dict(transient_amplitude=1e308, sawtooth_amplitude=1e308),
    ])
    def test_non_finite_model_rejected(self, params):
        with pytest.raises(DataError, match="must be finite"):
            FluctuationModel(**params)

    def test_codes_clamped_to_storage_range(self):
        model = FluctuationModel(baseline=508, transient_amplitude=50.0,
                                 noise_sd=0.0)
        series = synthesize_series(model, 70.0, seed=0)
        assert max(series.codes) == CODE_STORAGE_MAX


class TestNormalPrefix:
    """Window-only synthesis draws k noise values where the full series
    draws n. numpy does not document that a seeded Generator gives the
    same first values for both; if a numpy release changes that, these
    fail instead of every seeded output drifting silently."""

    @pytest.mark.parametrize("sd", sorted(
        {FluctuationModel().noise_sd,
         *(material_fluctuation_model(m, 0).noise_sd for m in REFERENCE_LIQUIDS)}))
    def test_short_draw_is_prefix_of_long_draw(self, sd):
        n = 100
        for seed in (0, 1, 7, 12345, 2 ** 31 - 1):
            full = np.random.default_rng(seed).normal(0.0, sd, size=n)
            for k in (1, 2, 10, 33, n - 1):
                short = np.random.default_rng(seed).normal(0.0, sd, size=k)
                assert np.array_equal(short, full[:k]), (seed, k)


# One seed word; two to four words (zero-padded to the pool of four);
# more than four words, which take numpy's extra mixing rounds.
_SEEDS = st.one_of(st.integers(0, 2 ** 31 - 1), st.integers(2 ** 32, 2 ** 128 - 1),
                   st.integers(2 ** 128, 2 ** 300))


class TestSeedingKernel:
    """``pcg64_states`` re-implements numpy's seeding. Nothing in numpy's
    interface promises that it matches, so it is held to numpy here."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(_SEEDS, max_size=6))
    def test_equals_pcg64_state(self, seeds):
        got = pcg64_states(seeds)
        assert len(got) == len(seeds)
        for seed, (state, inc) in zip(seeds, got):
            assert np.random.PCG64(seed).state["state"] == {"state": state, "inc": inc}

    def test_word_boundaries_in_one_batch(self):
        seeds = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64, 2 ** 96,
                 2 ** 128 - 1, 2 ** 128, 2 ** 160 - 1, 2 ** 160, 2 ** 200 + 5]
        assert pcg64_states(seeds) == [
            tuple(np.random.PCG64(seed).state["state"].values()) for seed in seeds]

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(_SEEDS, max_size=4), st.integers(0, 40),
           st.sampled_from([0.0, 1e-300, 0.4, 0.8, 1.0, 1.5, 33.0]))
    def test_normal_rows_equal_default_rng(self, seeds, k, sd):
        rows = _normal_rows(seeds, sd, k)
        assert rows.shape == (len(seeds), k)
        for row, seed in zip(rows, seeds):
            # bytes, so that the sign of each zero counts too
            expected = np.random.default_rng(seed).normal(0.0, sd, size=k)
            assert row.tobytes() == expected.tobytes()


class TestSynthesizeBlock:
    def test_rows_equal_single_series(self):
        model = material_fluctuation_model("deionized_water", baseline=0)
        seeds, baselines = [3, 99, 2 ** 30], [150, 260, 400]
        times, codes = synthesize_block(model, 70.0, seeds, baselines=baselines)
        for row, seed, base in zip(codes, seeds, baselines):
            one = synthesize_series(material_fluctuation_model("deionized_water", base),
                                    70.0, seed=seed)
            assert np.array_equal(row, one.codes)
            assert np.array_equal(times, one.times)

    def test_window_only_block_is_leading_columns(self):
        for material in ("olive_oil", "ethyl_alcohol", "deionized_water"):
            model = material_fluctuation_model(material, baseline=0)
            seeds, baselines = [5, 6, 7, 8], [100, 200, 300, 509]
            t_full, full = synthesize_block(model, 70.0, seeds, baselines=baselines)
            t_cut, cut = synthesize_block(model, 70.0, seeds, baselines=baselines,
                                          samples=10)
            assert cut.shape == (4, 10)
            assert np.array_equal(cut, full[:, :10])
            assert np.array_equal(t_cut, t_full[:10])

    def test_samples_beyond_series_length_give_full_series(self):
        _, codes = synthesize_block(FluctuationModel(), 7.0, [1], [200], samples=50)
        assert codes.shape == (1, 10)

    @pytest.mark.parametrize("duration, period, seeds, baselines", [
        (float("nan"), 0.7, [1], [200]),
        (float("inf"), 0.7, [1], [200]),
        (1e308, 0.7, [1], [200]),
        (70.0, 1e-308, [1], [200]),
        # one sample over the limit: without the check this would allocate
        # several 8 MB arrays, which the traced peak below would show
        (MAX_SERIES_SAMPLES + 1.0, 1.0, [1], [200]),
        (70.0, 0.7, [-5], [200]),
        # numpy would broadcast one row to two
        (70.0, 0.7, [1], [200, 300]),
        (70.0, 0.7, [1, 2], [250]),
        (70.0, 0.7, [1, -1], [200, 200]),
        (70.0, 0.7, [1], [10 ** 23]),
        (70.0, 0.7, [1, 2], [200, CODE_STORAGE_MAX + 1]),
        (70.0, 0.7, [1], [-1]),
    ])
    def test_bad_arguments_rejected_before_allocating(self, duration, period,
                                                      seeds, baselines):
        model = FluctuationModel(sample_period=period)
        tracemalloc.start()
        try:
            with pytest.raises(DataError):
                synthesize_block(model, duration, seeds, baselines=baselines)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_series_at_the_sample_limit_is_made(self):
        model = FluctuationModel(sample_period=1.0, noise_sd=0.0)
        times, codes = synthesize_block(model, float(MAX_SERIES_SAMPLES), [1], [200],
                                        samples=3)
        assert codes.shape == (1, 3)
        assert times.tolist() == [0.0, 1.0, 2.0]


class TestSpectrum:
    def test_dominant_frequency_of_default_fixture(self):
        series = synthesize_series(FluctuationModel(), 70.0, seed=5)
        # 100 samples at 0.7 s: bin width 1/70 Hz; 0.7 Hz aliases onto
        # bin 49 of the one-sided spectrum and must dominate
        assert dominant_frequency(series) == pytest.approx(0.7, abs=1 / 70)

    def test_constant_series_has_no_dominant_component(self):
        assert dominant_frequency(_series([200] * 64)) is None

    def test_alternating_series_peaks_at_nyquist(self):
        codes = 200 + np.array([1, -1] * 32)
        series = _series(codes, dt=0.5)
        assert dominant_frequency(series) == pytest.approx(1.0)  # Nyquist of 2 Hz

    def test_minimum_sample_count(self):
        with pytest.raises(DataError, match="16"):
            dominant_frequency(_series([200] * 8))

    def test_nonuniform_sampling_rejected(self):
        series = CodeSeries(times=np.array([0.0, 0.7, 1.4, 2.5] + list(np.arange(4, 20.0))),
                            codes=np.full(20, 200))
        with pytest.raises(DataError, match="jitter"):
            amplitude_spectrum(series)


class TestConvergenceError:
    def test_zero_at_asymptote(self):
        series = synthesize_series(FluctuationModel(), 70.0, seed=8)
        assert convergence_error(series, 100) == 0.0

    def test_constant_series(self):
        assert convergence_error(_series([150] * 100), 10) == 0.0

    def test_matches_two_pass_sigma(self):
        series = synthesize_series(FluctuationModel(), 70.0, seed=8)
        x = np.asarray(series.codes, dtype=float)

        def sigma(m):
            mu = sum(x[:m]) / m
            return (sum((v - mu) ** 2 for v in x[:m]) / m) ** 0.5

        for m in (2, 10, 37, 99):
            assert convergence_error(series, m) == pytest.approx(
                sigma(m) - sigma(100), abs=1e-12)

    def test_range_checks(self):
        series = synthesize_series(FluctuationModel(), 70.0, seed=8)
        with pytest.raises(DataError):
            convergence_error(series, 1)
        with pytest.raises(DataError):
            convergence_error(series, 101)
        with pytest.raises(DataError):
            convergence_error(_series([1] * 50), 10)

    def test_short_series_reads_as_in_minimum_samples(self):
        # one window rule, one message: it once read "m_inf=100 exceeds series length 50"
        series = _series([150] * 50)
        for call in (lambda: convergence_error(series, 10),
                     lambda: minimum_samples(series, 1.0, 100, "mean")):
            with pytest.raises(DataError, match="^window 100 exceeds series length 50$"):
                call()


def _exact_sd(codes, m: int) -> float:
    """The population SD of the first ``m`` codes from exact integer sums,
    recomputed from scratch."""
    head = [int(c) for c in codes[:m]]
    s1, s2 = sum(head), sum(c * c for c in head)
    return math.sqrt((m * s2 - s1 * s1) / (m * m))


def _numpy_sd(codes, m: int) -> float:
    """The former dispersion: ``np.std`` of the window as floats."""
    return float(np.std(np.asarray(codes[:m], dtype=float)))


def _per_window_minimum_samples(series, tolerance, m_inf=100, estimator="mean",
                                sd=_exact_sd):
    """The sizing loop that recomputes both dispersions and the median for
    every window (the reference for ``minimum_samples``)."""
    if len(series) < m_inf:
        raise DataError(f"series length {len(series)} below m_inf={m_inf}")
    if estimator == "median":
        target = estimate_code(series, m_inf, "median")
    last = None
    # the asymptotic reference itself is not an admissible window
    # (delta[m_inf] = 0 identically, which certifies nothing)
    for m in range(2, m_inf):
        last = sd(series.codes, m) - sd(series.codes, m_inf)
        settled = (estimator == "mean"
                   or abs(estimate_code(series, m, "median") - target) < tolerance)
        if abs(last) < tolerance and settled:
            return m
    raise NotConvergedError(
        f"no window up to {m_inf} samples meets tolerance {tolerance}",
        delta=last)


def _outcome(sizing, *args, **kwargs):
    try:
        return sizing(*args, **kwargs)
    except NotConvergedError as exc:
        return ("not converged", str(exc), exc.delta)


class TestMinimumSamples:
    @pytest.mark.parametrize("estimator", ["mean", "median"])
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(m_inf=st.integers(3, 400), extra=st.integers(0, 20),
           seed=st.integers(0, 2 ** 32 - 1), base=st.integers(0, 511),
           noise=st.floats(0.0, 30.0), drift=st.floats(-0.5, 0.5),
           tolerance=st.floats(1e-3, 20.0))
    def test_matches_the_per_window_loop(self, estimator, m_inf, extra, seed, base, noise,
                                         drift, tolerance):
        rng = np.random.default_rng(seed)
        n = m_inf + extra
        codes = np.clip(np.rint(base + drift * np.arange(n) + rng.normal(0, noise, n)),
                        CODE_STORAGE_MIN, CODE_STORAGE_MAX).astype(int)
        series = _series(codes)
        expected = _outcome(_per_window_minimum_samples, series, tolerance, m_inf, estimator)
        got = _outcome(minimum_samples, series, tolerance, m_inf, estimator)
        assert got == expected
        assert type(got) is type(expected)
        # the np.std dispersion gives the same window: a flip is a failure
        former = _outcome(_per_window_minimum_samples, series, tolerance, m_inf, estimator,
                          sd=_numpy_sd)
        assert type(got) is type(former)
        if isinstance(former, int):
            assert got == former
        else:
            assert got[1] == former[1]
            assert got[2] == pytest.approx(former[2], rel=0, abs=1e-9)

    def test_constant_series_converges_immediately(self):
        assert minimum_samples(_series([150] * 100), 1.0, M_INF, "mean") == 2

    def test_tolerance_monotonicity(self):
        for mat in ("olive_oil", "ethyl_alcohol", "deionized_water"):
            series = material_fixture_series(mat)
            assert (minimum_samples(series, 2.0, M_INF, "mean")
                    <= minimum_samples(series, 1.0, M_INF, "mean"))

    def test_fixture_windows(self):
        for mat in ("olive_oil", "ethyl_alcohol", "deionized_water"):
            series = material_fixture_series(mat)
            m_mean = minimum_samples(series, 1.0, M_INF, "mean")
            m_median = minimum_samples(series, 1.0, M_INF, "median")
            assert m_mean <= 10
            assert abs(convergence_error(series, 10)) < 1.0
            assert m_median >= m_mean

    def test_not_converged_carries_delta(self):
        # strongly drifting series never settles within tolerance
        codes = 100 + np.arange(100)
        with pytest.raises(NotConvergedError) as excinfo:
            minimum_samples(_series(codes), 0.1, M_INF, "mean")
        assert excinfo.value.delta is not None

    @pytest.mark.parametrize("estimator", ["mean", "median"])
    @pytest.mark.parametrize("m_inf", [2, 1, 0, -1])
    def test_asymptotic_window_below_three_is_data_error(self, m_inf, estimator):
        # windows run from 2 to m_inf - 1; below m_inf = 3 there is none
        with pytest.raises(DataError, match="no window"):
            minimum_samples(_series([150] * 10), 1.0, m_inf, estimator)

    def test_needs_full_asymptotic_window(self):
        with pytest.raises(DataError):
            minimum_samples(_series([1] * 50), 1.0, M_INF, "mean")

    def test_unknown_estimator_is_data_error(self):
        with pytest.raises(DataError, match="unknown estimator 'mode'"):
            minimum_samples(_series([150] * 100), 1.0, M_INF, "mode")

    def test_uses_no_numpy(self):
        # window sizing and its dispersion are integer arithmetic on the codes,
        # in readlog (tests/test_imports.py runs them without numpy); signal
        # binds the same function
        assert signal_module.minimum_samples is minimum_samples
        series = _series([150, 152, 149, 151] * 30)
        assert minimum_samples(series, 1.0, M_INF, "median") == 2
        assert convergence_error(series, 4) == 0.0


class TestEstimateCode:
    def test_mean_oracle(self):
        assert estimate_code(_series([200, 202, 198, 200]), 4, "mean") == 200.0

    def test_median_robust_to_outlier(self):
        codes = [200] * 11
        codes[4] = 400
        assert estimate_code(_series(codes), 11, "median") == 200.0

    def test_window_one(self):
        series = _series([217, 5, 9])
        assert estimate_code(series, 1, "mean") == 217.0
        assert estimate_code(series, 1, "median") == 217.0

    def test_window_checks(self):
        series = _series([1, 2, 3])
        with pytest.raises(DataError):
            estimate_code(series, 0, "mean")
        with pytest.raises(DataError):
            estimate_code(series, 4, "mean")
        with pytest.raises(DataError):
            estimate_code(series, 2, "mode")

    def test_period_averaging_recovers_baseline(self):
        # zero noise, integer number of sawtooth periods in the window
        model = FluctuationModel(baseline=200, sawtooth_amplitude=2.0,
                                 sawtooth_frequency=0.5, transient_amplitude=0.0,
                                 noise_sd=0.0, sample_period=0.1)
        series = synthesize_series(model, 8.0, seed=0)
        assert abs(estimate_code(series, 40, "mean") - 200.0) <= 0.5


class TestMaterialFixtures:
    def test_unknown_material_rejected(self):
        with pytest.raises(DataError, match="olive_oil"):
            material_fluctuation_model("granite", 200)

    def test_fixture_determinism(self):
        a = material_fixture_series("deionized_water")
        b = material_fixture_series("deionized_water")
        assert np.array_equal(a.codes, b.codes)

    def test_fixture_dominant_frequency(self):
        for mat in ("olive_oil", "ethyl_alcohol", "deionized_water"):
            series = material_fixture_series(mat)
            assert dominant_frequency(series) == pytest.approx(0.7, abs=1 / 70)
