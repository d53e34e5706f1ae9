"""Synthetic campaign generation and end-to-end simulation tests."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfad import ic as _ic
from rfad.classify import classify, reliability_report
from rfad.config import default_config, load_config
from rfad.errors import DataError, UnclassifiableError
from rfad.fingerprint import (CalibrationBaseline, ChannelReading,
                              averaged_fingerprint, build_fingerprint,
                              readings)
from rfad.hand import FINGERS
from rfad.materials import load_materials
from rfad.population import (DEFAULT_CLASS_SDS, DEFAULT_POPULATION_SEED,
                             PopulationSpec, _Chain, _chunk_hands,
                             _averaged, _draw_responsive, _simulate,
                             generate_population, load_records,
                             monte_carlo_classification, save_records)
from rfad.readlog import estimate_window, load_code_series
from rfad.signal import (CODE_STORAGE_MAX, CODE_STORAGE_MIN, _sawtooth,
                         material_fluctuation_model)

# ---------------------------------------------------------------------------
# Oracle: the hand-by-hand chain as first written (one full series per
# channel, one sensor-code evaluation per responsive channel). The
# batched core must reproduce it draw for draw.
# ---------------------------------------------------------------------------


def _oracle_draw_responsive(rng, spec):
    m = 1 + int(rng.choice(len(FINGERS), p=np.asarray(spec.count_probs)))
    weights = np.array([spec.finger_weights[f] for f in FINGERS], dtype=float)
    # weighted sampling without replacement (exponential race)
    keys = rng.exponential(size=len(FINGERS)) / weights
    chosen = np.argsort(keys)[:m]
    return [FINGERS[i] for i in sorted(chosen)]


def _oracle_air_baseline(config):
    codes = {}
    for channel in FINGERS:
        model = config.antenna_models[channel]
        state = _ic.antenna_response(model, 1.0)
        codes[channel] = float(_ic.sensor_code(config.ic, state).code)
    return CalibrationBaseline(codes=codes)


def _oracle_synthesize_codes(model, duration, seed):
    n = int(math.floor(duration / model.sample_period))
    t = np.arange(n) * model.sample_period
    values = (model.baseline
              + model.transient_amplitude * np.exp(-t / model.transient_duration)
              + model.sawtooth_amplitude * _sawtooth(t * model.sawtooth_frequency))
    if model.noise_sd > 0:
        rng = np.random.default_rng(seed)
        values = values + np.rint(rng.normal(0.0, model.noise_sd, size=n))
    codes = np.clip(np.rint(values), CODE_STORAGE_MIN, CODE_STORAGE_MAX).astype(int)
    return t, codes


def _oracle_estimate(codes, window, estimator):
    x = codes[:window].astype(float)
    return float(np.mean(x)) if estimator == "mean" else float(np.median(x))


def _oracle_simulate_hand(material, rng, config, spec, responsive=None):
    materials = load_materials()
    eps = materials[material].epsilon
    baseline = _oracle_air_baseline(config)
    if responsive is None:
        responsive = _oracle_draw_responsive(rng, spec)
    hand_offset = rng.normal(0.0, spec.class_sds.get(material, 0.0))
    readings = []
    log_rows = []
    for channel in FINGERS:
        if channel not in responsive:
            readings.append(ChannelReading(channel=channel, code=None,
                                           responsive=False))
            continue
        model = config.antenna_models[channel]
        touched = _ic.sensor_code(config.ic, _ic.antenna_response(model, eps)).code
        jitter = rng.normal(0.0, spec.channel_jitter_sd)
        target = int(round(touched - hand_offset - jitter))
        target = min(max(target, config.ic.s_min), config.ic.s_max)
        fluct = material_fluctuation_model(material, baseline=target)
        times, codes = _oracle_synthesize_codes(
            fluct, spec.series_duration, seed=int(rng.integers(0, 2 ** 31)))
        code = _oracle_estimate(codes, config.window, config.estimator)
        readings.append(ChannelReading(channel=channel, code=code, responsive=True))
        for t, c in zip(times, codes):
            log_rows.append((channel, float(t), int(c)))
    return readings, log_rows, baseline


def _one_hand(material, rng, config, spec, responsive=None):
    """One hand through the batched core, in the oracle's return shape:
    ``(readings, log_rows, baseline)`` with ``(channel, t, code)`` rows."""
    chain = _Chain(config, spec)
    estimates, channels, times, codes = next(
        _simulate(chain, rng, [material], responsive, full_series=True))
    log_rows = [(channel, t, c) for channel, row in zip(channels, codes.tolist())
                for t, c in zip(times.tolist(), row)]
    return readings(estimates), log_rows, chain.baseline


# SHA-256 of save_records output of the default campaign, recorded from
# the hand-by-hand chain before the batched core replaced it.
RECORDS_SHA256 = {
    1: "ca8cabfe3a24c459b7f272f9807c2b48b7e37b88bc1f9632a9976dd46c56f486",
    2: "2d95eff05c264bc14f9d6e1e88f4fa76b1e09d66716e25c2adb55c9f773d6dd9",
    3: "2827f6a30715a8c3013acf752006820a1386453d46b98e817a738f725cd8770f",
    DEFAULT_POPULATION_SEED:
        "a170aa8d5f89aac3a5d1e9b94133847d9653dee5c19181a22c3fde48797af4b8",
}


class TestPopulationSpec:
    def test_default_campaign_shape(self):
        spec = PopulationSpec()
        assert spec.subjects == 10
        assert spec.trials == 3
        assert len(spec.materials) == 3
        # 10 subjects x 3 materials x 3 trials x 5 channels
        assert spec.subjects * len(spec.materials) * spec.trials * len(FINGERS) == 450

    def test_validation(self):
        with pytest.raises(DataError):
            PopulationSpec(subjects=0)
        with pytest.raises(DataError):
            PopulationSpec(materials=())
        with pytest.raises(DataError):
            PopulationSpec(count_probs=(0.5, 0.5, 0.5, 0.0, 0.0))
        with pytest.raises(DataError):
            PopulationSpec(class_sds={"olive_oil": -1.0})

    @pytest.mark.parametrize("materials, message", [
        (("silbione",), "'silbione'"),
        (("foo",), "'foo'"),
        (("olive_oil", "foo", "water"), "'foo', 'water'"),
    ])
    def test_materials_must_be_reference_liquids(self, materials, message):
        with pytest.raises(DataError, match=f"^not a reference liquid: {message}$"):
            PopulationSpec(materials=materials, subjects=1, trials=1)

    @pytest.mark.parametrize("count_probs", [
        (0.1, 0.3, 0.55, 0.05, 1e-6),       # sums to 1 + 1e-6
        (0.1, 0.3, 0.55, 0.05 - 1e-7, 0.0),
        (0.1, 0.3, 0.55, 0.05, float("nan")),
        (0.1, 0.3, 0.65, -0.05, 0.0),
        (0.1, 0.3, 0.55, 0.05, float("inf")),
        (0.1, 0.3, 0.6),
        (0.1, 0.3, 0.55, 0.05, 0.0, 0.0),
        (0.1, 0.3, 0.55, 0.05, None),
        ("a", 0.3, 0.55, 0.05, 0.1),
    ])
    def test_count_probs_rejected_as_choice_rejected_them(self, count_probs):
        with pytest.raises(DataError, match="count_probs"):
            PopulationSpec(count_probs=count_probs)

    def test_count_probs_within_tolerance_run(self):
        spec = PopulationSpec(count_probs=(0.1, 0.3, 0.55, 0.05, 1e-9))
        assert monte_carlo_classification(30, seed=2, spec=spec) >= 0.9


class TestSimulateHand:
    def test_forced_responsive_set(self):
        config = default_config()
        rng = np.random.default_rng(0)
        readings, log_rows, baseline = _one_hand(
            "olive_oil", rng, config, PopulationSpec(),
            responsive=("II", "III"))
        by_channel = {r.channel: r for r in readings}
        assert by_channel["II"].responsive and by_channel["III"].responsive
        assert not by_channel["I"].responsive
        assert {ch for ch, _, _ in log_rows} == {"II", "III"}
        assert set(baseline.codes) == set(FINGERS)

    def test_fingerprint_lands_near_class_mean(self):
        config = default_config()
        spec = PopulationSpec(class_sds={m: 0.0 for m in
                                         ("olive_oil", "ethyl_alcohol",
                                          "deionized_water")},
                              channel_jitter_sd=0.0)
        rng = np.random.default_rng(1)
        means = config.class_means()
        for material, expected in means.items():
            readings, _, baseline = _one_hand(
                material, rng, config, spec, responsive=FINGERS)
            fp = build_fingerprint(readings, baseline)
            assert averaged_fingerprint(fp) == pytest.approx(expected, abs=3.0)


class TestStreamPreservation:
    """The batched core against the hand-by-hand oracle, draw for draw."""

    @pytest.mark.parametrize("seed", [5, 17, 123])
    def test_monte_carlo_hands_match_oracle(self, seed):
        config, spec = default_config(), PopulationSpec()
        materials = [spec.materials[i % len(spec.materials)] for i in range(150)]
        oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        chain = _Chain(config, spec)
        for material, (estimates, _, _, codes) in zip(
                materials, _simulate(chain, rng, materials)):
            expected, _, baseline = _oracle_simulate_hand(
                material, oracle_rng, config, spec)
            assert readings(estimates) == expected
            assert chain.baseline == baseline
            assert codes.shape[1] == config.window
            assert (build_fingerprint(readings(estimates), chain.baseline, material)
                    == build_fingerprint(expected, baseline, material))
        # no draw added or lost
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("full_series", [False, True])
    def test_hands_beyond_one_chunk_match_oracle(self, full_series):
        config, spec = default_config(), PopulationSpec()
        chain = _Chain(config, spec)
        n = _chunk_hands(chain, full_series) + 7
        # materials in no fixed order, so a chunk's blocks differ in size
        pick = np.random.default_rng(0).integers(0, len(spec.materials), size=n)
        materials = [spec.materials[i] for i in pick]
        oracle_rng, rng = np.random.default_rng(31), np.random.default_rng(31)
        for material, (estimates, channels, times, codes) in zip(
                materials, _simulate(chain, rng, materials, full_series=full_series)):
            expected, log_rows, _ = _oracle_simulate_hand(material, oracle_rng, config, spec)
            assert readings(estimates) == expected
            rows = [(channel, t, c) for channel, row in zip(channels, codes.tolist())
                    for t, c in zip(times.tolist(), row)]
            if not full_series:
                assert codes.shape[1] == config.window
                log_rows = [r for channel in channels
                            for r in [r for r in log_rows if r[0] == channel][:config.window]]
            assert rows == log_rows
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("count_probs", [
        (0.0, 0.0, 1.0, 0.0, 0.0),
        (0.5, 0.0, 0.0, 0.0, 0.5),
        (0.0, 0.0, 0.0, 0.0, 1.0),
        (0.0, 0.25, 0.0, 0.75, 0.0),
    ])
    def test_draw_responsive_matches_oracle_with_zero_probabilities(self, count_probs):
        spec = PopulationSpec(count_probs=count_probs)
        chain = _Chain(default_config(), spec)
        oracle_rng, rng = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(500):
            assert _draw_responsive(rng, chain) == _oracle_draw_responsive(oracle_rng, spec)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("responsive", [None, ("II", "III"), FINGERS])
    def test_simulate_hand_matches_oracle(self, responsive):
        config, spec = default_config(), PopulationSpec()
        for seed in (0, 1, 2):
            for material in spec.materials:
                got = _one_hand(material, np.random.default_rng(seed), config,
                                spec, responsive=responsive)
                assert got == _oracle_simulate_hand(
                    material, np.random.default_rng(seed), config, spec,
                    responsive=responsive)

    @pytest.mark.parametrize("seed", sorted(RECORDS_SHA256))
    def test_saved_records_byte_identical(self, seed, tmp_path):
        path = tmp_path / "records.json"
        save_records(generate_population(seed=seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == RECORDS_SHA256[seed]

    def test_log_rows_match_oracle(self, tmp_path):
        config, spec = default_config(), PopulationSpec(subjects=1, trials=1)
        generate_population(spec, seed=9, config=config, out_dir=tmp_path)
        rng = np.random.default_rng(9)
        for material in spec.materials:
            _, log_rows, _ = _oracle_simulate_hand(material, rng, config, spec)
            # file order, which load_code_series would hide by sorting
            lines = (tmp_path / f"subject01_{material}_trial1.csv").read_text().splitlines()
            rows = [line.split(",") for line in lines[1:]]
            assert [(float(r[0]), r[2], int(r[3])) for r in rows] == [
                (t, ch, c) for ch, t, c in sorted(log_rows, key=lambda r: (r[1], r[0]))]

    def test_records_independent_of_log_output(self, tmp_path):
        spec = PopulationSpec(subjects=2, trials=2)
        assert (generate_population(spec, seed=4, out_dir=tmp_path)
                == generate_population(spec, seed=4))


    @pytest.mark.parametrize("window", [0, -1])
    def test_bad_window_is_a_data_error(self, window):
        config = dataclasses.replace(default_config(), window=window)
        with pytest.raises(DataError, match="window must be >= 1"):
            generate_population(PopulationSpec(subjects=1, trials=1), config=config)
        with pytest.raises(DataError, match="window must be >= 1"):
            monte_carlo_classification(3, seed=1, config=config)


class TestGeneratePopulation:
    def test_record_count_and_determinism(self):
        a = generate_population(seed=DEFAULT_POPULATION_SEED)
        b = generate_population(seed=DEFAULT_POPULATION_SEED)
        assert len(a) == 90  # 10 subjects x 3 materials x 3 trials
        assert a == b

    def test_reliability_statistics_structure(self):
        records = generate_population(seed=DEFAULT_POPULATION_SEED)
        report = reliability_report(records)
        assert report.ccd[0] == 100.0  # every hand read at least once
        assert report.ccd[4] == 0.0    # never all five
        assert all(a >= b for a, b in zip(report.ccd, report.ccd[1:]))
        assert set(report.joint_rates) == set(FINGERS)

    def test_different_seeds_differ(self):
        a = generate_population(seed=1)
        b = generate_population(seed=2)
        assert a != b

    def test_log_files_emitted_and_readable(self, tmp_path):
        spec = PopulationSpec(subjects=1, trials=1)
        records = generate_population(spec, seed=3, out_dir=tmp_path)
        files = sorted(tmp_path.glob("*.csv"))
        assert len(files) == 3  # one per material
        responsive = set(load_code_series(files[0]))
        record = [r for r in records
                  if files[0].name.find(r.material) >= 0][0]
        assert responsive == {f for f in FINGERS if record.responsive[f]}

    def test_log_files_byte_identical_across_runs(self, tmp_path):
        spec = PopulationSpec(subjects=1, trials=1)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            generate_population(spec, seed=3, out_dir=tmp_path / sub)
        for f in (tmp_path / "a").glob("*.csv"):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()


class TestRecordPersistence:
    def test_round_trip(self, tmp_path):
        records = generate_population(PopulationSpec(subjects=2, trials=1), seed=5)
        path = tmp_path / "records.json"
        save_records(records, path)
        assert load_records(path) == records


class TestMonteCarlo:
    @pytest.mark.parametrize("n_hands", [0, -3])
    def test_needs_a_hand(self, n_hands):
        with pytest.raises(DataError, match="at least one hand"):
            monte_carlo_classification(n_hands, seed=1)

    def test_small_run_accuracy(self):
        # 60 hands, 20 per material; the calibrated margins are ~3 SD
        assert monte_carlo_classification(60, seed=17) >= 0.95

    def test_classes_follow_a_wider_ladder(self, tmp_path):
        # water's class mean here is 400, beyond the shipped ladder's 320
        path = tmp_path / "wide.cfg"
        path.write_text("s_min = 0\ns_max = 500\nbaseline_code = 450\nspan_code = 400\n")
        assert monte_carlo_classification(60, seed=17, config=load_config(path)) >= 0.95

    # recorded from the per-hand readings/build_fingerprint path; triple
    # the class SDs so that some hands land in the wrong class
    _WIDE = PopulationSpec(class_sds={m: 3 * sd for m, sd in DEFAULT_CLASS_SDS.items()})

    @pytest.mark.parametrize("estimator, n_hands, seed, correct, chunks", [
        ("mean", 300, 7, 275, 1),
        ("median", 300, 7, 274, 1),
        ("mean", 1400, 8, 1250, 2),
    ])
    def test_exact_accuracy(self, estimator, n_hands, seed, correct, chunks):
        config = dataclasses.replace(default_config(), estimator=estimator)
        chunk = _chunk_hands(_Chain(config, self._WIDE), False)
        assert math.ceil(n_hands / chunk) == chunks
        assert (monte_carlo_classification(n_hands, seed, spec=self._WIDE, config=config)
                == correct / n_hands)

    def test_window_longer_than_series(self):
        # 70 s at the default 0.7 s sample period is 100 samples
        config = dataclasses.replace(default_config(), window=1000)
        with pytest.raises(DataError, match="^window 1000 exceeds series length 100$"):
            monte_carlo_classification(3, seed=1, config=config)
        with pytest.raises(DataError, match="^window 1000 exceeds series length 100$"):
            generate_population(PopulationSpec(subjects=1, trials=1), config=config)


_CLASSES = default_config().classes()
# the class thresholds and the outer bounds +-span, and the floats beside them
_EDGES = sorted({x for cls in _CLASSES for bound in (cls.lower, cls.upper)
                 for x in (math.nextafter(bound, -math.inf), bound,
                           math.nextafter(bound, math.inf))})


@st.composite
def _touched_codes(draw):
    """Touched codes of 1-5 responsive fingers: a window estimate of integer
    codes, or the code whose differential code is a class edge."""
    air = draw(st.lists(st.integers(0, 511), min_size=5, max_size=5))
    responsive = draw(st.lists(st.sampled_from(FINGERS), min_size=1, max_size=5,
                               unique=True))
    estimator = draw(st.sampled_from(["mean", "median"]))
    codes = {}
    for channel in sorted(responsive, key=FINGERS.index):
        if draw(st.booleans()):
            codes[channel] = air[FINGERS.index(channel)] - draw(st.sampled_from(_EDGES))
        else:
            window = draw(st.lists(st.integers(0, 511), min_size=1, max_size=12))
            codes[channel] = estimate_window(window, len(window), estimator)
    return CalibrationBaseline(codes=dict(zip(FINGERS, map(float, air)))), codes


def _label(f_bar):
    try:
        return classify(f_bar, _CLASSES)
    except UnclassifiableError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(_touched_codes())
def test_monte_carlo_average_matches_the_fingerprint_objects(case):
    """The Monte Carlo's per-hand average is, bit for bit, the averaged
    fingerprint of the objects it no longer builds, and gets its label."""
    baseline, codes = case
    f_bar = _averaged(codes, baseline.codes)
    expected = averaged_fingerprint(build_fingerprint(readings(codes), baseline))
    assert f_bar == expected
    assert _label(f_bar) == _label(expected)
