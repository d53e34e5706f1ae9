"""Synthetic test-population generation and end-to-end simulation.

Reproduces, at desk scale, the statistics of a volunteer campaign: how
many fingers of a hand respond per trial, which fingers those tend to
be, and the per-material spread of the averaged fingerprint caused by
uncontrolled touch pressure. Every draw is seeded and deterministic.
The model's numbers are module constants; the campaign's layout, its
shape and the order of its trials, is ``rfad.classify``'s.
"""

from __future__ import annotations

import bisect
import operator
import os
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

# The record files and the campaign's layout live in the numpy-free classify;
# they stay bound here for callers that simulate a campaign and persist it.
from .classify import (SERIES_DURATION, MaterialClass, PopulationSpec, TrialRecord,  # noqa: F401
                       campaign_trials, classify, load_records, log_name, save_records)
from .config import DEFAULT_POPULATION_SEED, SessionConfig, check_seed, load_config
from .errors import DataError
from .fingerprint import Fingerprint, total
from .fluctuation import material_fluctuation_model
from .hand import FINGERS
from .materials import PERMITTIVITY, REFERENCE_LIQUIDS
from .readlog import CodeSeries, Estimator, check_window, write_log
from .signal import synthesize_block

# P(exactly m of 5 fingers respond), m = 1..5. At least one finger always
# responds; all five never do.
DEFAULT_COUNT_PROBS = (0.10, 0.30, 0.55, 0.05, 0.0)

# Relative propensity of each finger to respond (middle finger most
# reliable, thumb least). Tuned so the seeded default run lands on the
# target joint rates.
DEFAULT_FINGER_WEIGHTS = {"I": 14.5, "II": 47.0, "III": 77.0, "IV": 24.0, "V": 37.0}

# Population spread of the averaged fingerprint per reference liquid.
DEFAULT_CLASS_SDS = {"olive_oil": 5.0, "ethyl_alcohol": 11.0, "deionized_water": 11.0}

# SD of each responsive channel's own pressure jitter, in codes.
CHANNEL_JITTER_SD = 2.0

# Most series samples one material block of a chunk of hands holds. A
# chunk takes as many hands as fit at five channels each, so memory stays
# bounded however long the series are, and the seeding of each block is
# shared by enough rows to be cheap per hand.
_CHUNK_SAMPLES = 1 << 16


def _rng(seed: int) -> np.random.Generator:
    """The run's generator, from a seed ``check_seed`` accepts."""
    check_seed(seed)
    return np.random.default_rng(seed)


def _epc(subject: int, material_idx: int, trial: int, finger: str) -> str:
    return (f"E280{subject:02X}{material_idx:02X}{trial:02X}"
            f"{FINGERS.index(finger):02X}").ljust(24, "0")


def _draw_responsive(rng: np.random.Generator, count_cdf: list[float],
                     weights: list[float]) -> list[int]:
    """Indices of the hand's responsive fingers, in finger order."""
    # the draw numpy's choice(5, p=DEFAULT_COUNT_PROBS) makes: one uniform, placed
    # on the cumulative probabilities
    m = 1 + bisect.bisect_right(count_cdf, rng.random())
    # weighted sampling without replacement (exponential race); a Python
    # float quotient is the IEEE quotient numpy's division gives
    keys = list(map(operator.truediv, rng.exponential(size=len(FINGERS)).tolist(), weights))
    return sorted(sorted(range(len(FINGERS)), key=keys.__getitem__)[:m])


def _chunk_hands(config: SessionConfig, full_series: bool) -> int:
    """Hands per chunk: as many as fit ``_CHUNK_SAMPLES`` at five rows each."""
    row = SERIES_DURATION / config.sample_period
    if not full_series:
        row = min(row, config.window)
    return max(1, int(_CHUNK_SAMPLES // (len(FINGERS) * max(row, 1.0))))


class _Chunk(NamedTuple):
    """A chunk of simulated hands as arrays, one row per hand and one
    column per finger: which fingers responded, and each finger's
    differential code, the air code minus the window estimate of its
    code series (0.0 where the finger did not respond). ``codes`` holds
    the code series, one row per responsive finger in hand order, then
    finger order (the order of ``responsive``'s true entries), over the
    time base ``times``."""

    responsive: np.ndarray
    deltas: np.ndarray
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


def _simulate(config: SessionConfig, rng: np.random.Generator, materials: Sequence[str],
              full_series: bool = False) -> Iterator[_Chunk]:
    """The sensing chain for a batch of hands, one ``_Chunk`` at a time.

    The scalar draws of each hand keep one order, which every seeded
    output depends on: the responsive set (a uniform for the count, then
    ``exponential``), the hand's pressure offset, then per responsive
    channel in finger order its jitter and its series seed. Each normal
    draw is taken as ``0.0 + sd * standard_normal()``, the value and the
    stream of ``normal(0.0, sd)``. Each series seed is the value of
    ``integers(2 ** 31)``, which on PCG64 is ``next_uint32() >> 1``
    (Lemire's method never rejects a range of 2**31), drawn through the
    generator's ``ctypes`` interface. The series themselves come from
    their own seeds, so they are made after the draws of a chunk of
    hands, one ``synthesize_block`` per material; without
    ``full_series`` only the estimation window is made.
    """
    # per-run constants of the sensing chain: they depend only on the
    # config and the touched material, never on a draw
    air = np.array([float(config.air_code(f)) for f in FINGERS])
    # entry m: P(at most m + 1 fingers respond), scaled to end at 1
    # as numpy's ``choice`` scales it
    cdf = np.cumsum(np.asarray(DEFAULT_COUNT_PROBS, dtype=float))
    count_cdf = (cdf / cdf[-1]).tolist()
    weights = [float(DEFAULT_FINGER_WEIGHTS[f]) for f in FINGERS]
    # per reference liquid: the touched code of each channel, and the
    # fluctuation preset, whose baseline is a placeholder (each
    # synthesized row gets its own)
    touched = {name: tuple(config.channel_code(ch, PERMITTIVITY[name]) for ch in FINGERS)
               for name in REFERENCE_LIQUIDS}
    fluctuation = {name: material_fluctuation_model(
        name, baseline=0, sample_period=config.sample_period,
        sawtooth_frequency=config.sawtooth_frequency) for name in REFERENCE_LIQUIDS}
    s_min, s_max = config.ic.s_min, config.ic.s_max
    class_sds, jitter_sd = DEFAULT_CLASS_SDS, CHANNEL_JITTER_SD
    samples = None if full_series else config.window
    size = _chunk_hands(config, full_series)
    bits = rng.bit_generator.ctypes
    next_uint32, state = bits.next_uint32, bits.state
    for start in range(0, len(materials), size):
        names = materials[start:start + size]
        # hand * 5 + finger of each series row of the chunk, in row order;
        # per material, its rows, their target codes and their seeds
        positions = []
        blocks = {material: ([], [], []) for material in names}
        for hand, material in enumerate(names):
            rows, targets, seeds = blocks[material]
            chosen = _draw_responsive(rng, count_cdf, weights)
            hand_offset = 0.0 + class_sds[material] * rng.standard_normal()
            for finger in chosen:
                jitter = 0.0 + jitter_sd * rng.standard_normal()
                target = round(touched[material][finger] - hand_offset - jitter)
                targets.append(min(max(target, s_min), s_max))
                seeds.append(next_uint32(state) >> 1)
                rows.append(len(positions))
                positions.append(hand * len(FINGERS) + finger)
        codes = None
        for material, (rows, targets, seeds) in blocks.items():
            times, block = synthesize_block(fluctuation[material],
                                            SERIES_DURATION, seeds,
                                            baselines=targets, samples=samples)
            if codes is None:  # every material shares the session's time base
                codes = np.empty((len(positions), block.shape[1]), dtype=block.dtype)
            codes[rows] = block
        responsive = np.zeros((len(names), len(FINGERS)), dtype=bool)
        responsive.flat[positions] = True
        # the rows of codes are in the order of responsive's true entries
        deltas = np.where(responsive, air, 0.0)
        deltas[responsive] -= _window_estimates(codes, config.window, config.estimator)
        yield _Chunk(responsive, deltas, times, codes)


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
    trials = list(campaign_trials(spec))
    records, next_trial = [], iter(trials).__next__
    for chunk in _simulate(config, _rng(seed), [material for _, material, _ in trials],
                           full_series=out_dir is not None):
        row, times = 0, chunk.times.tolist()
        for flags, deltas in zip(chunk.responsive.tolist(), chunk.deltas.tolist()):
            subject, material, trial = next_trial()
            fp = Fingerprint({f: d for f, d, flag in zip(FINGERS, deltas, flags) if flag},
                             material)
            records.append(TrialRecord(f"S{subject + 1:02d}", material, fp))
            if out_dir is not None:
                channels = list(fp.deltas)
                write_log({ch: CodeSeries(times, codes) for ch, codes
                           in zip(channels, chunk.codes[row:row + len(channels)])},
                          os.path.join(out_dir, log_name(subject, material, trial)),
                          {ch: _epc(subject, spec.materials.index(material), trial, ch)
                           for ch in channels})
            row += fp.n_responsive
    return records


def _imputed(deltas: np.ndarray, responsive: np.ndarray) -> np.ndarray:
    """The five differential codes of each hand of a chunk, bit for bit
    the values of its ``Fingerprint``: the chunk's ``deltas``, with
    the unresponsive fingers filled with the mean of the responsive ones.
    The sum is made by ``fingerprint.total`` over the columns, so that
    every hand's sum is added finger by finger, left to right from 0.0 (a
    missing finger adds 0.0, which changes no sum)."""
    fill = total(deltas.T) / np.count_nonzero(responsive, axis=1)
    return np.where(responsive, deltas, fill[:, None])


def _averaged(deltas: np.ndarray, responsive: np.ndarray) -> np.ndarray:
    """The averaged fingerprint of each hand of a chunk, bit for bit what
    ``averaged_fingerprint`` gives: the ``_imputed`` values summed by
    ``fingerprint.total`` over the columns, divided by five."""
    return total(_imputed(deltas, responsive).T) / len(FINGERS)


def _class_indices(f_bar: np.ndarray, classes: Sequence[MaterialClass]) -> np.ndarray:
    """The index of the class ``classify`` gives each averaged fingerprint:
    the number of inner thresholds at or below it. The first value outside
    the outer bounds goes to ``classify``, which raises for it."""
    outside = (f_bar < classes[0].lower) | (f_bar > classes[-1].upper)
    if outside.any():
        classify(float(f_bar[outside.argmax()]), classes)
    return np.searchsorted([cls.lower for cls in classes[1:]], f_bar, side="right")


def monte_carlo_classification(n_hands: int, seed: int,
                               config: Optional[SessionConfig] = None) -> float:
    """Fraction of simulated hands classified into the right class; the
    hands cycle through the reference liquids."""
    if n_hands < 1:
        raise DataError(f"need at least one hand, got n_hands={n_hands}")
    if config is None:
        config = load_config()
    classes = config.classes()
    expected = {material: i for i, cls in enumerate(classes)
                for material in cls.reference_materials}
    hand_materials = [REFERENCE_LIQUIDS[i % len(REFERENCE_LIQUIDS)] for i in range(n_hands)]
    targets = np.array([expected[material] for material in hand_materials])
    correct = start = 0
    for chunk in _simulate(config, _rng(seed), hand_materials):
        labels = _class_indices(_averaged(chunk.deltas, chunk.responsive), classes)
        correct += int(np.count_nonzero(labels == targets[start:start + len(labels)]))
        start += len(labels)
    return correct / n_hands
