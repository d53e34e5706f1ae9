"""Synthetic campaign generation and end-to-end simulation tests."""

import hashlib
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfad import ic as _ic
from rfad.classify import (PopulationSpec, classify, default_classes, log_name,
                           reliability_report)
from rfad.config import load_config
from rfad.errors import DataError, UnclassifiableError
from rfad.fingerprint import (CalibrationBaseline, ChannelReading,
                              averaged_fingerprint, build_fingerprint,
                              readings)
from rfad.hand import FINGERS
from rfad.materials import PERMITTIVITY, REFERENCE_LIQUIDS
from rfad import population
from rfad.population import (DEFAULT_CLASS_SDS, DEFAULT_COUNT_PROBS,
                             DEFAULT_POPULATION_SEED,
                             _chunk_hands, _averaged, _imputed, _class_indices,
                             _draw_responsive, _simulate, _window_estimates,
                             generate_population, load_records,
                             monte_carlo_classification, save_records)
from rfad.ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN
from rfad.readlog import estimate_window, load_code_series
from rfad.fluctuation import material_fluctuation_model

# ---------------------------------------------------------------------------
# Oracle: the hand-by-hand chain as first written (one full series per
# channel, one sensor-code evaluation per responsive channel). The
# batched core must reproduce it draw for draw. It reads the model's
# constants when it runs, so a test that patches one patches both.
# ---------------------------------------------------------------------------


def _oracle_draw_responsive(rng):
    m = 1 + int(rng.choice(len(FINGERS), p=np.asarray(population.DEFAULT_COUNT_PROBS)))
    weights = np.array([population.DEFAULT_FINGER_WEIGHTS[f] for f in FINGERS], dtype=float)
    # weighted sampling without replacement (exponential race)
    keys = rng.exponential(size=len(FINGERS)) / weights
    chosen = np.argsort(keys)[:m]
    return [FINGERS[i] for i in sorted(chosen)]


def _oracle_air_baseline(config):
    codes = {}
    for channel in FINGERS:
        model = config.antenna_models[channel]
        b_a = _ic.antenna_response(model, 1.0)
        codes[channel] = float(_ic.sensor_code(config.ic, b_a).code)
    return CalibrationBaseline(codes=codes)


def _oracle_synthesize_codes(model, duration, seed):
    n = int(math.floor(duration / model.sample_period))
    t = np.arange(n) * model.sample_period
    phase = t * model.sawtooth_frequency
    values = (model.baseline
              + model.transient_amplitude * np.exp(-t / model.transient_duration)
              + model.sawtooth_amplitude * (-2.0 * (phase - np.floor(phase + 0.5))))
    if model.noise_sd > 0:
        rng = np.random.default_rng(seed)
        values = values + np.rint(rng.normal(0.0, model.noise_sd, size=n))
    codes = np.clip(np.rint(values), CODE_STORAGE_MIN, CODE_STORAGE_MAX).astype(int)
    return t, codes


def _oracle_estimate(codes, window, estimator):
    x = codes[:window].astype(float)
    return float(np.mean(x)) if estimator == "mean" else float(np.median(x))


def _oracle_simulate_hand(material, rng, config):
    eps = PERMITTIVITY[material]
    baseline = _oracle_air_baseline(config)
    responsive = _oracle_draw_responsive(rng)
    hand_offset = rng.normal(0.0, population.DEFAULT_CLASS_SDS[material])
    readings = []
    log_rows = []
    for channel in FINGERS:
        if channel not in responsive:
            readings.append(ChannelReading(channel=channel, code=None,
                                           responsive=False))
            continue
        model = config.antenna_models[channel]
        touched = _ic.sensor_code(config.ic, _ic.antenna_response(model, eps)).code
        jitter = rng.normal(0.0, population.CHANNEL_JITTER_SD)
        target = int(round(touched - hand_offset - jitter))
        target = min(max(target, config.ic.s_min), config.ic.s_max)
        fluct = material_fluctuation_model(material, baseline=target)
        times, codes = _oracle_synthesize_codes(
            fluct, population.SERIES_DURATION, seed=int(rng.integers(0, 2 ** 31)))
        code = _oracle_estimate(codes, config.window, config.estimator)
        readings.append(ChannelReading(channel=channel, code=code, responsive=True))
        for t, c in zip(times, codes):
            log_rows.append((channel, float(t), int(c)))
    return readings, log_rows, baseline


def _oracle_deltas(readings, baseline):
    """The oracle hand's differential codes: air minus the window estimate
    of each responsive channel, by name."""
    return {r.channel: baseline.codes[r.channel] - r.code for r in readings if r.responsive}


def _per_hand(chunks):
    """The hands of ``_simulate``'s chunks one at a time, as
    ``(deltas, channels, times, codes)``: the differential code of each
    responsive channel by name, and one row of ``codes`` per responsive
    channel."""
    for chunk in chunks:
        assert (chunk.deltas[~chunk.responsive] == 0.0).all()
        assert np.isfinite(chunk.deltas).all()
        row = 0
        for flags, values in zip(chunk.responsive.tolist(), chunk.deltas.tolist()):
            deltas = {f: v for f, v, flag in zip(FINGERS, values, flags) if flag}
            yield deltas, list(deltas), chunk.times, chunk.codes[row:row + len(deltas)]
            row += len(deltas)
        assert row == len(chunk.codes)


def _one_hand(material, rng, config):
    """One hand through the batched core, as ``(deltas, log_rows)`` with
    ``(channel, t, code)`` rows: compare with ``_oracle_hand``."""
    deltas, channels, times, codes = next(
        _per_hand(_simulate(config, rng, [material], full_series=True)))
    log_rows = [(channel, t, c) for channel, row in zip(channels, codes.tolist())
                for t, c in zip(times.tolist(), row)]
    return deltas, log_rows


def _oracle_hand(material, rng, config):
    """The oracle's next hand in ``_one_hand``'s return shape."""
    hand, log_rows, baseline = _oracle_simulate_hand(material, rng, config)
    return _oracle_deltas(hand, baseline), log_rows


def _layered(tmp_path, setting: str):
    """The session of the shipped defaults under a config file of one ``setting``."""
    path = tmp_path / "session.cfg"
    path.write_text(setting + "\n")
    return load_config(path)


def _assert_oracle_hand(hand, material, oracle_rng, config):
    """One hand of ``_per_hand`` against the oracle's next hand: the same
    differential codes, and the same log rows, or their first ``window``
    codes."""
    deltas, channels, times, codes = hand
    expected, log_rows = _oracle_hand(material, oracle_rng, config)
    assert deltas == expected
    if codes.shape[1] == config.window:
        log_rows = [r for channel in channels
                    for r in [r for r in log_rows if r[0] == channel][:config.window]]
    assert [(channel, t, c) for channel, row in zip(channels, codes.tolist())
            for t, c in zip(times.tolist(), row)] == log_rows


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

    def test_the_spec_is_the_campaign_shape(self):
        assert list(PopulationSpec.__slots__) == ["subjects", "trials", "materials"]

    def test_validation(self):
        with pytest.raises(DataError):
            PopulationSpec(subjects=0)
        with pytest.raises(DataError):
            PopulationSpec(materials=())

    @pytest.mark.parametrize("materials, message", [
        (("silbione",), "'silbione'"),
        (("foo",), "'foo'"),
        (("olive_oil", "foo", "water"), "'foo', 'water'"),
    ])
    def test_materials_must_be_reference_liquids(self, materials, message):
        with pytest.raises(DataError, match=f"^not a reference liquid: {message}$"):
            PopulationSpec(materials=materials, subjects=1, trials=1)

    @pytest.mark.parametrize("materials, repeated", [
        (("olive_oil", "olive_oil"), "olive_oil"),
        (("ethyl_alcohol", "deionized_water", "deionized_water", "ethyl_alcohol"),
         "deionized_water"),
    ])
    def test_repeated_material_is_refused(self, materials, repeated):
        # a second trial of the same material would overwrite its reader log
        # and merge into the first in the per-material rates
        with pytest.raises(DataError, match=f"^material '{repeated}' is repeated$"):
            PopulationSpec(materials=materials, subjects=1, trials=1)

    def test_zero_channel_jitter_runs(self, monkeypatch):
        monkeypatch.setattr(population, "CHANNEL_JITTER_SD", 0.0)
        assert monte_carlo_classification(30, seed=2) >= 0.9

    def test_count_probs_within_tolerance_run(self, monkeypatch):
        monkeypatch.setattr(population, "DEFAULT_COUNT_PROBS", (0.1, 0.3, 0.55, 0.05, 1e-9))
        assert monte_carlo_classification(30, seed=2) >= 0.9


class TestModelConstants:
    """The model's numbers are constants that nothing checks when it runs;
    these are the rules each must keep for its draw to mean what it says."""

    def test_count_probs_are_a_distribution_choice_accepts(self):
        # the draw replays Generator.choice(5, p=DEFAULT_COUNT_PROBS)
        probs = np.asarray(DEFAULT_COUNT_PROBS, dtype=float)
        assert probs.shape == (len(FINGERS),)
        assert np.isfinite(probs).all() and (probs >= 0).all()
        assert abs(probs.sum() - 1.0) <= math.sqrt(np.finfo(np.float64).eps)
        np.random.default_rng(0).choice(len(FINGERS), p=probs)

    def test_finger_weights_cover_the_fingers_and_are_positive(self):
        weights = population.DEFAULT_FINGER_WEIGHTS
        assert list(weights) == list(FINGERS)
        assert all(math.isfinite(w) and w > 0 for w in weights.values())

    def test_class_sds_cover_the_reference_liquids(self):
        assert set(DEFAULT_CLASS_SDS) == set(REFERENCE_LIQUIDS)
        assert all(math.isfinite(sd) and sd >= 0 for sd in DEFAULT_CLASS_SDS.values())

    def test_channel_jitter_sd_is_finite_and_non_negative(self):
        assert math.isfinite(population.CHANNEL_JITTER_SD)
        assert population.CHANNEL_JITTER_SD >= 0

    def test_series_duration_holds_the_default_window(self):
        config = load_config()
        assert math.isfinite(population.SERIES_DURATION)
        # 70 s at the default 0.7 s sample period is 100 samples
        assert population.SERIES_DURATION / config.sample_period >= config.window


class TestLogName:
    @pytest.mark.parametrize("subject, material, trial, name", [
        (0, "olive_oil", 0, "subject01_olive_oil_trial1.csv"),
        (1, "ethyl_alcohol", 2, "subject02_ethyl_alcohol_trial3.csv"),
        (9, "deionized_water", 2, "subject10_deionized_water_trial3.csv"),
    ])
    def test_numbers_count_from_one(self, subject, material, trial, name):
        assert log_name(subject, material, trial) == name

    def test_the_logs_written_are_the_names(self, tmp_path):
        spec = PopulationSpec(subjects=2, trials=2)
        generate_population(spec, seed=3, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            log_name(s, m, t) for s in range(spec.subjects)
            for m in spec.materials for t in range(spec.trials))


class TestSimulateHand:
    def test_fingerprint_lands_near_class_mean(self, monkeypatch):
        config = load_config()
        # all five fingers respond, with no pressure spread
        monkeypatch.setattr(population, "DEFAULT_CLASS_SDS",
                            dict.fromkeys(DEFAULT_CLASS_SDS, 0.0))
        monkeypatch.setattr(population, "CHANNEL_JITTER_SD", 0.0)
        monkeypatch.setattr(population, "DEFAULT_COUNT_PROBS", (0, 0, 0, 0, 1))
        rng = np.random.default_rng(1)
        means = config.class_means()
        for material, expected in means.items():
            deltas, _ = _one_hand(material, rng, config)
            assert list(deltas) == list(FINGERS)
            assert math.fsum(deltas.values()) / len(FINGERS) == pytest.approx(expected, abs=3.0)


class TestStreamPreservation:
    """The batched core against the hand-by-hand oracle, draw for draw."""

    @pytest.mark.parametrize("seed", [5, 17, 123])
    def test_monte_carlo_hands_match_oracle(self, seed):
        config = load_config()
        materials = [REFERENCE_LIQUIDS[i % 3] for i in range(150)]
        oracle_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for material, (deltas, _, _, codes) in zip(
                materials, _per_hand(_simulate(config, rng, materials))):
            expected, _, baseline = _oracle_simulate_hand(material, oracle_rng, config)
            assert deltas == _oracle_deltas(expected, baseline)
            assert codes.shape[1] == config.window
            fp = build_fingerprint(expected, baseline, material)
            assert deltas == {f: fp.values[f] for f in FINGERS if not fp.imputed[f]}
        # no draw added or lost
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("full_series", [False, True])
    def test_hands_beyond_one_chunk_match_oracle(self, full_series):
        config = load_config()
        n = _chunk_hands(config, full_series) + 7
        # materials in no fixed order, so a chunk's blocks differ in size
        pick = np.random.default_rng(0).integers(0, 3, size=n)
        materials = [REFERENCE_LIQUIDS[i] for i in pick]
        oracle_rng, rng = np.random.default_rng(31), np.random.default_rng(31)
        for material, (deltas, channels, times, codes) in zip(
                materials, _per_hand(_simulate(config, rng, materials,
                                               full_series=full_series))):
            expected, log_rows = _oracle_hand(material, oracle_rng, config)
            assert deltas == expected
            rows = [(channel, t, c) for channel, row in zip(channels, codes.tolist())
                    for t, c in zip(times.tolist(), row)]
            if not full_series:
                assert codes.shape[1] == config.window
                log_rows = [r for channel in channels
                            for r in [r for r in log_rows if r[0] == channel][:config.window]]
            assert rows == log_rows
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("full_series", [False, True])
    def test_seed_draw_takes_the_half_word_kept_on_entry(self, full_series):
        """The generator holds the upper half of a 64-bit word when
        ``_simulate`` starts: the first series seed is drawn from it."""
        config = load_config()
        materials = [REFERENCE_LIQUIDS[i % 3] for i in range(40)]
        oracle_rng, rng = np.random.default_rng(12), np.random.default_rng(12)
        assert rng.integers(2 ** 31) == oracle_rng.integers(2 ** 31)
        assert rng.bit_generator.state["has_uint32"] == 1
        for material, hand in zip(materials, _per_hand(
                _simulate(config, rng, materials, full_series=full_series))):
            _assert_oracle_hand(hand, material, oracle_rng, config)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert rng.integers(2 ** 31) == oracle_rng.integers(2 ** 31)

    @pytest.mark.parametrize("full_series", [False, True])
    def test_chunks_that_end_on_a_kept_half_word(self, monkeypatch, full_series):
        """Chunks of three hands, some of which end after an odd number of
        seed draws: each writes the kept half back, and after each chunk
        the generator is where the oracle is after the same hands."""
        config = load_config()
        row = population.SERIES_DURATION / config.sample_period if full_series else config.window
        monkeypatch.setattr(population, "_CHUNK_SAMPLES", int(3 * len(FINGERS) * row))
        assert _chunk_hands(config, full_series) == 3
        materials = [REFERENCE_LIQUIDS[i % 3] for i in range(60)]
        oracle_rng, rng = np.random.default_rng(44), np.random.default_rng(44)
        hands, kept = iter(materials), []
        for chunk in _simulate(config, rng, materials, full_series=full_series):
            for hand in _per_hand([chunk]):
                _assert_oracle_hand(hand, next(hands), oracle_rng, config)
            state = rng.bit_generator.state
            assert state == oracle_rng.bit_generator.state
            kept.append(state["has_uint32"])
        assert len(kept) == 20 and 0 in kept and 1 in kept

    @pytest.mark.parametrize("sd", [0.0, 1e-300, 0.37, 2.0, 5.0, 11.0, 33.0])
    def test_scaled_standard_normal_is_the_normal_draw(self, sd):
        rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(2000):
            # repr, so that the sign of a zero counts too
            assert repr(0.0 + sd * rng.standard_normal()) == repr(oracle_rng.normal(0.0, sd))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("count_probs", [
        (0.0, 0.0, 1.0, 0.0, 0.0),
        (0.5, 0.0, 0.0, 0.0, 0.5),
        (0.0, 0.0, 0.0, 0.0, 1.0),
        (0.0, 0.25, 0.0, 0.75, 0.0),
    ])
    def test_draw_responsive_matches_oracle_with_zero_probabilities(self, monkeypatch,
                                                                    count_probs):
        monkeypatch.setattr(population, "DEFAULT_COUNT_PROBS", count_probs)
        # the count CDF scaled to end at 1, as numpy's choice scales it
        cdf = np.cumsum(np.asarray(count_probs, dtype=float))
        count_cdf = (cdf / cdf[-1]).tolist()
        weights = [float(population.DEFAULT_FINGER_WEIGHTS[f]) for f in FINGERS]
        oracle_rng, rng = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(500):
            assert ([FINGERS[i] for i in _draw_responsive(rng, count_cdf, weights)]
                    == _oracle_draw_responsive(oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("count_probs", [
        DEFAULT_COUNT_PROBS, (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)])
    def test_simulate_hand_matches_oracle(self, monkeypatch, count_probs):
        monkeypatch.setattr(population, "DEFAULT_COUNT_PROBS", count_probs)
        config = load_config()
        for seed in (0, 1, 2):
            for material in REFERENCE_LIQUIDS:
                got = _one_hand(material, np.random.default_rng(seed), config)
                assert got == _oracle_hand(material, np.random.default_rng(seed), config)

    @pytest.mark.parametrize("seed", sorted(RECORDS_SHA256))
    def test_saved_records_byte_identical(self, seed, tmp_path):
        path = tmp_path / "records.json"
        save_records(generate_population(seed=seed), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == RECORDS_SHA256[seed]

    def test_log_rows_match_oracle(self, tmp_path):
        config, spec = load_config(), PopulationSpec(subjects=1, trials=1)
        generate_population(spec, seed=9, config=config, out_dir=tmp_path)
        rng = np.random.default_rng(9)
        for material in spec.materials:
            _, log_rows, _ = _oracle_simulate_hand(material, rng, config)
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
        # no config file may set it (load_config refuses it), so the fields are copied
        config = load_config()
        config = type(config)(**{name: getattr(config, name) for name in config.__slots__}
                              | {"window": window})
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

    def test_negative_seed_is_data_error(self):
        with pytest.raises(DataError, match="seed must be non-negative, got -1"):
            monte_carlo_classification(3, -1)
        with pytest.raises(DataError, match="seed must be non-negative, got -1"):
            generate_population(seed=-1)

    def test_small_run_accuracy(self):
        # 60 hands, 20 per material; the calibrated margins are ~3 SD
        assert monte_carlo_classification(60, seed=17) >= 0.95

    def test_classes_follow_a_wider_ladder(self, tmp_path):
        # water's class mean here is 400, beyond the shipped ladder's 320
        path = tmp_path / "wide.cfg"
        path.write_text("s_min = 0\ns_max = 500\nbaseline_code = 450\nspan_code = 400\n")
        assert monte_carlo_classification(60, seed=17, config=load_config(path)) >= 0.95

    def test_takes_no_spec(self):
        assert list(inspect.signature(monte_carlo_classification).parameters) == [
            "n_hands", "seed", "config"]

    def test_hands_cycle_the_reference_liquids(self, monkeypatch):
        simulate, given = population._simulate, []

        def recording(config, rng, materials, **kw):
            given.append(list(materials))
            return simulate(config, rng, materials, **kw)

        monkeypatch.setattr(population, "_simulate", recording)
        monte_carlo_classification(7, seed=1)
        assert given == [[REFERENCE_LIQUIDS[i % 3] for i in range(7)]]

    # SHA-256 of the averaged fingerprints of 3000 hands, recorded when the
    # model's values were still fields of PopulationSpec
    _AVERAGED_SHA256 = {
        0: "01e54ac5be6ecb6760eaf98bc39147ec0bdadbc757806463d1a0551f1c7fec76",
        1: "ecad5d87fa1335e7fc4c49f480c79c832e5f1d8440893876f0348a9b70a2a73e",
        2: "180929335460fd70976039ba8e53c29dd13d535cfeb0beec91dc3afecb3c1b75",
        3: "d8e09b4b910a1260f5ae9841260eefd130968704de5831861881250b91104230",
        4: "fcb83b6f1968e428b52c6fd1202040014b33b888d924426928bd987a2ba38610",
    }

    @pytest.mark.parametrize("seed", sorted(_AVERAGED_SHA256))
    def test_averaged_fingerprints_byte_identical(self, seed):
        materials = [REFERENCE_LIQUIDS[i % 3] for i in range(3000)]
        digest = hashlib.sha256()
        for chunk in _simulate(load_config(), np.random.default_rng(seed), materials):
            digest.update(_averaged(chunk.deltas, chunk.responsive).tobytes())
        assert digest.hexdigest() == self._AVERAGED_SHA256[seed]

    # recorded from the per-hand readings/build_fingerprint path; triple
    # the class SDs so that some hands land in the wrong class
    _WIDE = {m: 3 * sd for m, sd in DEFAULT_CLASS_SDS.items()}

    @pytest.mark.parametrize("estimator, n_hands, seed, correct, chunks", [
        ("mean", 300, 7, 275, 1),
        ("median", 300, 7, 274, 1),
        ("mean", 1400, 8, 1250, 2),
    ])
    def test_exact_accuracy(self, monkeypatch, tmp_path, estimator, n_hands, seed, correct,
                            chunks):
        monkeypatch.setattr(population, "DEFAULT_CLASS_SDS", self._WIDE)
        config = _layered(tmp_path, f"estimator = {estimator}")
        chunk = _chunk_hands(config, False)
        assert math.ceil(n_hands / chunk) == chunks
        assert monte_carlo_classification(n_hands, seed, config=config) == correct / n_hands

    def test_window_longer_than_series(self, tmp_path):
        # 70 s at the default 0.7 s sample period is 100 samples
        config = _layered(tmp_path, "window = 1000")
        with pytest.raises(DataError, match="^window 1000 exceeds series length 100$"):
            monte_carlo_classification(3, seed=1, config=config)
        with pytest.raises(DataError, match="^window 1000 exceeds series length 100$"):
            generate_population(PopulationSpec(subjects=1, trials=1), config=config)


_CLASSES = load_config().classes()
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
    """The Monte Carlo's average of a hand's row is, bit for bit, the
    averaged fingerprint of the objects it no longer builds, and gets its
    label."""
    baseline, codes = case
    responsive = np.array([[f in codes for f in FINGERS]])
    deltas = np.array([[baseline.codes[f] - codes[f] if f in codes else 0.0 for f in FINGERS]])
    f_bar = _averaged(deltas, responsive)
    fp = build_fingerprint(readings(codes), baseline)
    expected = averaged_fingerprint(fp)
    assert f_bar.tolist() == [expected]
    assert _imputed(deltas, responsive).tolist() == [[fp.values[f] for f in FINGERS]]
    try:
        label = _CLASSES[_class_indices(f_bar, _CLASSES)[0]].label
    except UnclassifiableError as exc:
        label = str(exc)
    assert label == _label(expected)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(st.lists(st.integers(0, 511), min_size=12, max_size=12), min_size=1,
                max_size=6), st.integers(1, 12), st.sampled_from(["mean", "median"]))
def test_window_estimates_match_estimate_window(rows, window, estimator):
    got = _window_estimates(np.array(rows), window, estimator)
    assert got.tolist() == [estimate_window(row, window, estimator) for row in rows]


class TestChunkOracle:
    """The Monte Carlo's chunk path against the scalar path of the
    hand-by-hand oracle: readings -> build_fingerprint ->
    averaged_fingerprint -> classify, hand by hand, across a chunk
    boundary."""

    @pytest.mark.parametrize("seed", [2, 11, 40])
    @pytest.mark.parametrize("estimator", ["mean", "median"])
    @pytest.mark.parametrize("class_sds", [DEFAULT_CLASS_SDS,
                                           dict.fromkeys(DEFAULT_CLASS_SDS, 0.0)])
    def test_average_and_label_per_hand(self, monkeypatch, tmp_path, seed, estimator,
                                        class_sds):
        monkeypatch.setattr(population, "DEFAULT_CLASS_SDS", class_sds)
        config = _layered(tmp_path, f"estimator = {estimator}")
        classes = config.classes()
        n = _chunk_hands(config, False) + 4
        materials = [REFERENCE_LIQUIDS[i % 3] for i in range(n)]
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        chunks = list(_simulate(config, rng, materials))
        assert len(chunks) == 2
        f_bars = [_averaged(c.deltas, c.responsive) for c in chunks]
        labels = np.concatenate([_class_indices(f_bar, classes) for f_bar in f_bars])
        f_bars = np.concatenate(f_bars)
        for material, f_bar, label in zip(materials, f_bars.tolist(), labels.tolist()):
            hand, _, baseline = _oracle_simulate_hand(material, oracle_rng, config)
            expected = averaged_fingerprint(build_fingerprint(hand, baseline))
            assert f_bar == expected
            assert classes[label].label == classify(expected, classes)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_first_hand_outside_the_classes_raises_as_classify_does(self, monkeypatch):
        # hands 5 and 8 of the second chunk land beyond +-span
        chunk = _chunk_hands(load_config(), False)
        averaged, pushed = population._averaged, []

        def pushing(deltas, responsive):
            f_bar = averaged(deltas, responsive)
            if pushed:
                f_bar[5] = -1000.5
                f_bar[8] = 2000.0
            pushed.append(len(f_bar))
            return f_bar

        monkeypatch.setattr(population, "_averaged", pushing)
        span = load_config().classes()[-1].upper
        message = f"value -1000.5 is {1000.5 - span:.3g} outside [{-span}, {span}]"
        with pytest.raises(UnclassifiableError, match=f"^{re.escape(message)}$") as exc:
            monte_carlo_classification(chunk + 20, seed=3)
        assert exc.value.distance == 1000.5 - span
        assert pushed == [chunk, 20]

    def test_class_indices_follow_classify(self):
        classes = default_classes({"a": 10.0, "b": 50.0, "c": 90.0}, span=200.0)
        f_bar = np.array([-200.0, 29.999, 30.0, 69.9, 70.0, 200.0])
        assert _class_indices(f_bar, classes).tolist() == [
            [cls.label for cls in classes].index(classify(x, classes)) for x in f_bar.tolist()]
        with pytest.raises(UnclassifiableError, match="^value 200.5 is 0.5 outside"):
            _class_indices(np.array([0.0, 200.5, -300.0]), classes)
