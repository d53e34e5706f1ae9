"""Synthetic test-population generation and end-to-end simulation.

Reproduces, at desk scale, the statistics of a volunteer campaign: how
many fingers of a hand respond per trial, which fingers those tend to
be, and the per-material spread of the averaged fingerprint caused by
uncontrolled touch pressure. Every draw is seeded and deterministic.
"""

from __future__ import annotations

import bisect
import math
import os
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

# The record files and the default seed live beside TrialRecord, where
# commands that never simulate find them without numpy; they stay bound
# here for callers that persist what generate_population returns.
from .classify import (DEFAULT_POPULATION_SEED, TrialRecord, classify,  # noqa: F401
                       load_records, save_records)
from .config import SessionConfig, load_config
from .errors import DataError
from .fingerprint import (CalibrationBaseline, build_fingerprint, imputed_values,
                          readings)
from .hand import FINGERS
from .materials import REFERENCE_LIQUIDS, load_materials
from .readlog import estimate_window, write_log
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
        # entry m: P(at most m + 1 fingers respond), scaled to end at 1
        # as numpy's ``choice`` scales it
        cdf = np.cumsum(np.asarray(spec.count_probs, dtype=float))
        self.count_cdf = (cdf / cdf[-1]).tolist()
        self.weights = np.array([spec.finger_weights[f] for f in FINGERS], dtype=float)
        eps = {name: material.epsilon for name, material in load_materials().items()}
        # per material of the spec: the touched code of each channel, and the
        # fluctuation preset, whose baseline is a placeholder (each
        # synthesized row gets its own)
        self.touched = {name: tuple(config.channel_code(ch, eps[name]) for ch in FINGERS)
                        for name in spec.materials}
        self.fluctuation = {name: material_fluctuation_model(
            name, baseline=0, sample_period=config.sample_period,
            sawtooth_frequency=config.sawtooth_frequency) for name in spec.materials}


def _draw_responsive(rng: np.random.Generator, chain: _Chain) -> list[str]:
    # the draw numpy's choice(5, p=count_probs) makes: one uniform, placed
    # on the cumulative probabilities
    m = 1 + bisect.bisect_right(chain.count_cdf, rng.random())
    # weighted sampling without replacement (exponential race)
    keys = (rng.exponential(size=len(FINGERS)) / chain.weights).tolist()
    chosen = sorted(range(len(FINGERS)), key=keys.__getitem__)[:m]
    return [FINGERS[i] for i in sorted(chosen)]


def _chunk_hands(chain: _Chain, full_series: bool) -> int:
    """Hands per chunk: as many as fit ``_CHUNK_SAMPLES`` at five rows each."""
    row = chain.spec.series_duration / chain.config.sample_period
    if not full_series:
        row = min(row, chain.config.window)
    if not math.isfinite(row):
        return 1  # synthesize_block rejects the duration
    return max(1, int(_CHUNK_SAMPLES // (len(FINGERS) * max(row, 1.0))))


def _simulate(chain: _Chain, rng: np.random.Generator, materials: Sequence[str],
              full_series: bool = False):
    """The sensing chain for a batch of hands, one code block per hand.

    The scalar draws of each hand keep one order, which every seeded
    output depends on: the responsive set (a uniform for the count, then
    ``exponential``), the hand's pressure
    offset, then per responsive channel in finger order its jitter and
    its series seed. The series themselves come from their own seeds,
    so they are made in a second pass over a chunk of hands, one
    ``synthesize_block`` per material; without ``full_series`` only the
    estimation window is made. Yields ``(estimates, channels, times,
    codes)`` per hand: the windowed code of each responsive channel by
    name, and one row of ``codes`` per responsive channel.
    """
    config, spec = chain.config, chain.spec
    s_min, s_max = config.ic.s_min, config.ic.s_max
    samples = None if full_series else config.window
    chunk = _chunk_hands(chain, full_series)
    for start in range(0, len(materials), chunk):
        hands = []
        for material in materials[start:start + chunk]:
            touched = chain.touched[material]
            chosen = _draw_responsive(rng, chain)
            hand_offset = rng.normal(0.0, spec.class_sds[material])
            channels, targets, seeds = [], [], []
            for channel, code in zip(FINGERS, touched):
                if channel not in chosen:
                    continue
                jitter = rng.normal(0.0, spec.channel_jitter_sd)
                target = int(round(code - hand_offset - jitter))
                targets.append(min(max(target, s_min), s_max))
                seeds.append(int(rng.integers(0, 2 ** 31)))
                channels.append(channel)
            hands.append((material, channels, targets, seeds))
        out = [None] * len(hands)
        for material in dict.fromkeys(hand[0] for hand in hands):
            mine = [i for i, hand in enumerate(hands) if hand[0] == material]
            times, codes = synthesize_block(
                chain.fluctuation[material], spec.series_duration,
                [seed for i in mine for seed in hands[i][3]],
                baselines=[target for i in mine for target in hands[i][2]],
                samples=samples)
            windows = codes[:, :config.window].tolist()
            row = 0
            for i in mine:
                channels = hands[i][1]
                end = row + len(channels)
                estimates = {channel: estimate_window(w, config.window, config.estimator)
                             for channel, w in zip(channels, windows[row:end])}
                out[i] = estimates, channels, times, codes[row:end]
                row = end
        yield from out


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
    hands = _simulate(chain, _rng(seed), [t[2] for t in trials],
                      full_series=out_dir is not None)
    records = []
    for (subject, material_idx, material, trial), hand in zip(trials, hands):
        estimates, channels, times, codes = hand
        fp = build_fingerprint(readings(estimates), chain.baseline, material)
        records.append(TrialRecord(
            subject=f"S{subject + 1:02d}", material=material,
            responsive={f: f in estimates for f in FINGERS}, fingerprint=fp))
        if out_dir is not None:
            epcs = [_epc(subject, material_idx, trial, ch) for ch in channels]
            # rows ordered by (timestamp, channel): finger order I..V is also
            # the channels' name order
            name = f"subject{subject + 1:02d}_{material}_trial{trial + 1}.csv"
            write_log((times, channels, epcs, codes), os.path.join(out_dir, name))
    return records


def _averaged(estimates: Mapping[str, float], air: Mapping[str, float]) -> float:
    """A hand's averaged fingerprint from its windowed codes, without building one."""
    deltas = {channel: air[channel] - code for channel, code in estimates.items()}
    return sum(imputed_values(deltas)) / len(FINGERS)


def monte_carlo_classification(n_hands: int, seed: int,
                               spec: PopulationSpec = PopulationSpec(),
                               config: Optional[SessionConfig] = None) -> float:
    """Fraction of simulated hands classified into the right class."""
    if n_hands < 1:
        raise DataError(f"need at least one hand, got n_hands={n_hands}")
    if config is None:
        config = load_config()
    classes = config.classes()
    expected = {material: cls.label for cls in classes
                for material in cls.reference_materials}
    chain = _Chain(config, spec)
    air = chain.baseline.codes
    hand_materials = [spec.materials[i % len(spec.materials)] for i in range(n_hands)]
    correct = 0
    for material, (estimates, _, _, _) in zip(
            hand_materials, _simulate(chain, _rng(seed), hand_materials)):
        correct += classify(_averaged(estimates, air), classes) == expected[material]
    return correct / n_hands

