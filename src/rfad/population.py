"""Synthetic test-population generation and end-to-end simulation.

Reproduces, at desk scale, the statistics of a volunteer campaign: how
many fingers of a hand respond per trial, which fingers those tend to
be, and the per-material spread of the averaged fingerprint caused by
uncontrolled touch pressure. Every draw is seeded and deterministic.
"""

from __future__ import annotations

import bisect
import math
import operator
import os
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

import numpy as np

# The record files and the default seed live beside TrialRecord, where
# commands that never simulate find them without numpy; they stay bound
# here for callers that persist what generate_population returns.
from .classify import (DEFAULT_POPULATION_SEED, MaterialClass, TrialRecord,  # noqa: F401
                       classify, load_records, save_records)
from .config import SessionConfig, load_config
from .errors import DataError
from .fingerprint import CalibrationBaseline, Fingerprint, total
from .hand import FINGERS
from .materials import REFERENCE_LIQUIDS, load_materials
from .readlog import CodeSeries, Estimator, check_window, write_log
from .signal import material_fluctuation_model, synthesize_block

# P(exactly m of 5 fingers respond), m = 1..5. At least one finger always
# responds; all five never do.
DEFAULT_COUNT_PROBS = (0.10, 0.30, 0.55, 0.05, 0.0)

# Relative propensity of each finger to respond (middle finger most
# reliable, thumb least). Tuned so the seeded default run lands on the
# target joint rates.
DEFAULT_FINGER_WEIGHTS = {"I": 14.5, "II": 47.0, "III": 77.0, "IV": 24.0, "V": 37.0}

# Population spread of the averaged fingerprint per reference liquid.
DEFAULT_CLASS_SDS = {"olive_oil": 5.0, "ethyl_alcohol": 11.0, "deionized_water": 11.0}

# How far the count probabilities may sum from 1: the tolerance of
# numpy's ``Generator.choice``, whose draw ``_draw_responsive`` makes.
_PROB_SUM_TOLERANCE = math.sqrt(np.finfo(np.float64).eps)

# Most series samples one material block of a chunk of hands holds. A
# chunk takes as many hands as fit at five channels each, so memory stays
# bounded however long the series are, and the seeding of each block is
# shared by enough rows to be cheap per hand.
_CHUNK_SAMPLES = 1 << 16


@dataclass(frozen=True)
class PopulationSpec:
    """Shape of a synthetic measurement campaign."""

    subjects: int = 10
    trials: int = 3
    materials: tuple = REFERENCE_LIQUIDS
    count_probs: tuple = DEFAULT_COUNT_PROBS
    finger_weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_FINGER_WEIGHTS))
    class_sds: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CLASS_SDS))
    channel_jitter_sd: float = 2.0
    series_duration: float = 70.0

    def __post_init__(self):
        if self.subjects < 1 or self.trials < 1 or not self.materials:
            raise DataError("population spec needs subjects, trials and materials")
        if unknown := [m for m in self.materials if m not in REFERENCE_LIQUIDS]:
            raise DataError(f"not a reference liquid: {', '.join(map(repr, unknown))}")
        probs = _floats(self.count_probs)
        if (len(probs) != len(FINGERS) or not all(p >= 0 for p in probs)
                or not abs(math.fsum(probs) - 1.0) <= _PROB_SUM_TOLERANCE):
            raise DataError(f"count_probs must be 5 non-negative values summing to 1 "
                            f"within {_PROB_SUM_TOLERANCE:.2g}, got {self.count_probs!r}")
        weights = _floats(self.finger_weights.get(f) for f in FINGERS)
        if (set(self.finger_weights) != set(FINGERS)
                or not all(0 < w < math.inf for w in weights)):
            raise DataError(f"finger_weights need a positive finite weight for each "
                            f"finger and no other key, got {dict(self.finger_weights)!r}")
        if not all(0 <= sd < math.inf
                   for sd in _floats(self.class_sds.get(m) for m in self.materials)):
            raise DataError(f"class_sds need a finite non-negative SD for each material, "
                            f"got {dict(self.class_sds)!r}")
        if not 0 <= _floats([self.channel_jitter_sd])[0] < math.inf:
            raise DataError(f"channel_jitter_sd must be a finite non-negative SD, "
                            f"got {self.channel_jitter_sd!r}")
        if not 0 < _floats([self.series_duration])[0] < math.inf:
            raise DataError(f"series_duration must be a finite positive number of seconds, "
                            f"got {self.series_duration!r}")


def _floats(values) -> list[float]:
    """``values`` as floats; ``[nan]``, which fails every range check, if
    one of them is not a number."""
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        return [math.nan]


def _rng(seed: int) -> np.random.Generator:
    """The run's generator; a seed is a non-negative integer."""
    if seed < 0:
        raise DataError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def _epc(subject: int, material_idx: int, trial: int, finger: str) -> str:
    return (f"E280{subject:02X}{material_idx:02X}{trial:02X}"
            f"{FINGERS.index(finger):02X}").ljust(24, "0")


class _Chain:
    """Per-run constants of the sensing chain: they depend only on the
    config, the spec and the touched material, never on a draw."""

    def __init__(self, config: SessionConfig, spec: PopulationSpec):
        self.config = config
        self.spec = spec
        self.baseline = CalibrationBaseline(
            codes={channel: float(config.air_code(channel)) for channel in FINGERS})
        self.air = np.array([self.baseline.codes[f] for f in FINGERS])
        # entry m: P(at most m + 1 fingers respond), scaled to end at 1
        # as numpy's ``choice`` scales it
        cdf = np.cumsum(np.asarray(spec.count_probs, dtype=float))
        self.count_cdf = (cdf / cdf[-1]).tolist()
        self.weights = [float(spec.finger_weights[f]) for f in FINGERS]
        eps = {name: material.epsilon for name, material in load_materials().items()}
        # per material of the spec: the touched code of each channel, and the
        # fluctuation preset, whose baseline is a placeholder (each
        # synthesized row gets its own)
        self.touched = {name: tuple(config.channel_code(ch, eps[name]) for ch in FINGERS)
                        for name in spec.materials}
        self.fluctuation = {name: material_fluctuation_model(
            name, baseline=0, sample_period=config.sample_period,
            sawtooth_frequency=config.sawtooth_frequency) for name in spec.materials}


def _draw_responsive(rng: np.random.Generator, chain: _Chain) -> list[int]:
    """Indices of the hand's responsive fingers, in finger order."""
    # the draw numpy's choice(5, p=count_probs) makes: one uniform, placed
    # on the cumulative probabilities
    m = 1 + bisect.bisect_right(chain.count_cdf, rng.random())
    # weighted sampling without replacement (exponential race); a Python
    # float quotient is the IEEE quotient numpy's division gives
    keys = list(map(operator.truediv, rng.exponential(size=len(FINGERS)).tolist(),
                    chain.weights))
    return sorted(sorted(range(len(FINGERS)), key=keys.__getitem__)[:m])


def _chunk_hands(chain: _Chain, full_series: bool) -> int:
    """Hands per chunk: as many as fit ``_CHUNK_SAMPLES`` at five rows each."""
    row = chain.spec.series_duration / chain.config.sample_period
    if not full_series:
        row = min(row, chain.config.window)
    return max(1, int(_CHUNK_SAMPLES // (len(FINGERS) * max(row, 1.0))))


class _Chunk(NamedTuple):
    """A chunk of simulated hands as arrays, one row per hand and one
    column per finger: which fingers responded, and the window estimate
    of each responsive finger's code (NaN where none). ``codes`` holds
    the code series, one row per responsive finger in hand order, then
    finger order (the order of ``responsive``'s true entries), over the
    time base ``times``."""

    responsive: np.ndarray
    estimates: np.ndarray
    times: np.ndarray
    codes: np.ndarray


def _window_estimates(codes: np.ndarray, window: int, estimator: Estimator) -> np.ndarray:
    """``estimate_window`` of each row of the integer ``codes``, bit for
    bit: the exact integer sum of the window divided by ``window``, or
    the middle value(s) of the sorted window."""
    check_window(window, codes.shape[1], estimator)
    head = codes[:, :window]
    if estimator == "mean":
        return head.sum(axis=1) / window
    ordered, middle = np.sort(head, axis=1), window // 2
    if window % 2:
        return ordered[:, middle].astype(float)
    return (ordered[:, middle - 1] + ordered[:, middle]) / 2


def _simulate(chain: _Chain, rng: np.random.Generator, materials: Sequence[str],
              full_series: bool = False) -> Iterator[_Chunk]:
    """The sensing chain for a batch of hands, one ``_Chunk`` at a time.

    The scalar draws of each hand keep one order, which every seeded
    output depends on: the responsive set (a uniform for the count, then
    ``exponential``), the hand's pressure offset, then per responsive
    channel in finger order its jitter and its series seed. Each normal
    draw is taken as ``0.0 + sd * standard_normal()``, the value and the
    stream of ``normal(0.0, sd)``. Each series seed is the value of
    ``integers(2 ** 31)``, which on PCG64 is ``next_uint32() >> 1``
    (Lemire's method never rejects a range of 2**31): the low half of a
    fresh 64-bit word from ``random_raw``, whose high half the generator
    keeps for its next 32-bit draw, or that kept half. No other draw
    here reads the kept half, so each chunk reads it from
    ``bit_generator.state`` once and writes it back after its draws. The
    series themselves come from their own seeds, so they are made after
    the draws of a chunk of hands, one ``synthesize_block`` per material;
    without ``full_series`` only the estimation window is made.
    """
    config, spec = chain.config, chain.spec
    s_min, s_max = config.ic.s_min, config.ic.s_max
    jitter_sd = spec.channel_jitter_sd
    samples = None if full_series else config.window
    size = _chunk_hands(chain, full_series)
    bits = rng.bit_generator
    for start in range(0, len(materials), size):
        names = materials[start:start + size]
        state = bits.state
        kept, upper = state["has_uint32"], state["uinteger"]
        # hand * 5 + finger of each series row of the chunk, in row order;
        # per material, its rows, their target codes and their seeds
        positions = []
        blocks = {material: ([], [], []) for material in names}
        for hand, material in enumerate(names):
            touched, (rows, targets, seeds) = chain.touched[material], blocks[material]
            chosen = _draw_responsive(rng, chain)
            hand_offset = 0.0 + spec.class_sds[material] * rng.standard_normal()
            for finger in chosen:
                jitter = 0.0 + jitter_sd * rng.standard_normal()
                target = round(touched[finger] - hand_offset - jitter)
                targets.append(min(max(target, s_min), s_max))
                if kept:
                    seeds.append(upper >> 1)
                else:
                    word = bits.random_raw()
                    seeds.append((word & 0xFFFFFFFF) >> 1)
                    upper = word >> 32
                kept ^= 1
                rows.append(len(positions))
                positions.append(hand * len(FINGERS) + finger)
        state = bits.state
        state["has_uint32"], state["uinteger"] = kept, upper
        bits.state = state
        codes = None
        for material, (rows, targets, seeds) in blocks.items():
            times, block = synthesize_block(chain.fluctuation[material],
                                            spec.series_duration, seeds,
                                            baselines=targets, samples=samples)
            if codes is None:  # every material shares the session's time base
                codes = np.empty((len(positions), block.shape[1]), dtype=block.dtype)
            codes[rows] = block
        shape = (len(names), len(FINGERS))
        responsive = np.zeros(shape[0] * shape[1], dtype=bool)
        responsive[positions] = True
        estimates = np.full(responsive.shape, math.nan)
        estimates[positions] = _window_estimates(codes, config.window, config.estimator)
        responsive, estimates = responsive.reshape(shape), estimates.reshape(shape)
        yield _Chunk(responsive, estimates, times, codes)


def generate_population(spec: PopulationSpec = PopulationSpec(),
                        seed: int = DEFAULT_POPULATION_SEED,
                        config: Optional[SessionConfig] = None,
                        out_dir=None) -> list[TrialRecord]:
    """Deterministically generate the trial records of a campaign.

    With ``out_dir`` set, one reader-log CSV per trial is written
    alongside (byte-identical across runs with the same seed).
    """
    if config is None:
        config = load_config()
    chain = _Chain(config, spec)
    trials = [(subject, material_idx, material, trial)
              for subject in range(spec.subjects)
              for material_idx, material in enumerate(spec.materials)
              for trial in range(spec.trials)]
    records, next_trial = [], iter(trials).__next__
    for chunk in _simulate(chain, _rng(seed), [t[2] for t in trials],
                           full_series=out_dir is not None):
        row, times = 0, chunk.times.tolist()
        for flags, values in zip(chunk.responsive.tolist(),
                                 _imputed(chunk.estimates, chunk.responsive, chain.air).tolist()):
            subject, material_idx, material, trial = next_trial()
            fp = Fingerprint(values=dict(zip(FINGERS, values)),
                             imputed={f: not flag for f, flag in zip(FINGERS, flags)},
                             n_responsive=flags.count(True), material_label=material)
            records.append(TrialRecord(
                subject=f"S{subject + 1:02d}", material=material,
                responsive=dict(zip(FINGERS, flags)), fingerprint=fp))
            if out_dir is not None:
                channels = [f for f, flag in zip(FINGERS, flags) if flag]
                name = f"subject{subject + 1:02d}_{material}_trial{trial + 1}.csv"
                write_log({ch: CodeSeries(times, codes) for ch, codes
                           in zip(channels, chunk.codes[row:row + len(channels)])},
                          os.path.join(out_dir, name),
                          {ch: _epc(subject, material_idx, trial, ch) for ch in channels})
            row += fp.n_responsive
    return records


def _imputed(estimates: np.ndarray, responsive: np.ndarray, air: np.ndarray) -> np.ndarray:
    """The five differential codes of each hand of a chunk, bit for bit
    the values ``build_fingerprint`` gives: air minus estimate, and the
    unresponsive fingers filled with the mean of the responsive ones. The
    sum is made by ``fingerprint.total`` over the columns, so that every
    hand's sum is added finger by finger, left to right from 0.0 (a
    missing finger adds 0.0, which changes no sum)."""
    deltas = np.where(responsive, air - estimates, 0.0)
    fill = total(deltas.T) / np.count_nonzero(responsive, axis=1)
    return np.where(responsive, deltas, fill[:, None])


def _averaged(estimates: np.ndarray, responsive: np.ndarray, air: np.ndarray) -> np.ndarray:
    """The averaged fingerprint of each hand of a chunk, bit for bit what
    ``averaged_fingerprint`` gives: the ``_imputed`` values summed by
    ``fingerprint.total`` over the columns, divided by five."""
    return total(_imputed(estimates, responsive, air).T) / len(FINGERS)


def _class_indices(f_bar: np.ndarray, classes: Sequence[MaterialClass]) -> np.ndarray:
    """The index of the class ``classify`` gives each averaged fingerprint:
    the number of inner thresholds at or below it. The first value outside
    the outer bounds goes to ``classify``, which raises for it."""
    outside = (f_bar < classes[0].lower) | (f_bar > classes[-1].upper)
    if outside.any():
        classify(float(f_bar[outside.argmax()]), classes)
    return np.searchsorted([cls.lower for cls in classes[1:]], f_bar, side="right")


def monte_carlo_classification(n_hands: int, seed: int,
                               spec: PopulationSpec = PopulationSpec(),
                               config: Optional[SessionConfig] = None) -> float:
    """Fraction of simulated hands classified into the right class."""
    if n_hands < 1:
        raise DataError(f"need at least one hand, got n_hands={n_hands}")
    if config is None:
        config = load_config()
    classes = config.classes()
    expected = {material: i for i, cls in enumerate(classes)
                for material in cls.reference_materials}
    chain = _Chain(config, spec)
    hand_materials = [spec.materials[i % len(spec.materials)] for i in range(n_hands)]
    targets = np.array([expected[material] for material in hand_materials])
    correct = start = 0
    for chunk in _simulate(chain, _rng(seed), hand_materials):
        labels = _class_indices(_averaged(chunk.estimates, chunk.responsive, chain.air),
                                classes)
        correct += int(np.count_nonzero(labels == targets[start:start + len(labels)]))
        start += len(labels)
    return correct / n_hands
