"""Sensor-code time series as arrays: the campaign's noise and the
spectrum, in numpy.

The fluctuation model, its material presets, a series' shape (time base,
transient and sawtooth) and one series at a time live in the numpy-free
``rfad.fluctuation``, whose normal stream is numpy's;
``synthesize_block`` takes its shape from there and draws the noise of
many rows at once with numpy's own generator. The series type, its
estimator and window sizing live in the numpy-free ``rfad.readlog``.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
# numpy's SeedSequence constants, which pcg64_states applies to many seeds at once
from .fluctuation import _HASH_A, _HASH_B, _MASK32, _MIX_LEFT, _MIX_RIGHT, _POOL_WORDS
from .fluctuation import check_rows, pcg64_seeded, pcg64_state, series_shape
# the model and the series live in fluctuation; bench/workloads.py looks them up here
from .fluctuation import (FluctuationModel, material_fluctuation_model,  # noqa: F401
                          synthesize_series)
from .ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN
# window sizing lives in readlog; bench/workloads.py calls it from here
from .readlog import CodeSeries, Estimator, estimate_window, minimum_samples  # noqa: F401

_MIX_L, _MIX_R = np.uint32(_MIX_LEFT), np.uint32(_MIX_RIGHT)


def _hash_constants(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The multiplier of each of ``n`` successive hash steps before and
    after it advances, as ``(n, 1)`` columns. The sequence is the same
    for every seed, so it is worked out once, in Python integers."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


def _hashmix(words: np.ndarray, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    value = (words ^ pre) * post
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = _MIX_L * x - _MIX_R * y
    return value ^ (value >> np.uint32(16))


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.PCG64(seed)`` for each non-negative
    integer seed.

    Where every seed is below 2**128, so that its words fill numpy's
    ``SeedSequence`` pool of four, the hashing of
    ``rfad.fluctuation.pcg64_state`` is done for all seeds at once, each
    step as uint32 array arithmetic, which wraps as numpy's C code does. A
    call with a wider seed, which takes numpy's extra mixing rounds, hands
    each seed to ``pcg64_state``. The equality with ``PCG64(seed).state``
    is pinned by tests, not implied by numpy's interface.
    """
    seeds = [int(seed) for seed in seeds]
    if max(seeds, default=0) >> 32 * _POOL_WORDS:
        return [pcg64_state(seed) for seed in seeds]
    raw = b"".join(seed.to_bytes(4 * _POOL_WORDS, "little") for seed in seeds)
    words = np.frombuffer(raw, dtype="<u4").reshape(len(seeds), _POOL_WORDS).T.astype(np.uint32)
    pre, post = _hash_constants(*_HASH_A, _POOL_WORDS * _POOL_WORDS)
    pool = _hashmix(words, pre[:_POOL_WORDS], post[:_POOL_WORDS])
    step = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != src]
        hashed = _hashmix(pool[src], pre[step:step + len(dst)], post[step:step + len(dst)])
        pool[dst] = _mix(pool[dst], hashed)
        step += len(dst)
    pre, post = _hash_constants(*_HASH_B, 2 * _POOL_WORDS)
    state_words = _hashmix(np.tile(pool, (2, 1)), pre, post)
    # pairs of 32-bit words, low word first, make the 64-bit words
    columns = np.ascontiguousarray(state_words.T, dtype="<u4").view("<u8").T.tolist()
    return [pcg64_seeded(*words) for words in zip(*columns)]


def _normal_rows(seeds, sd: float, k: int) -> np.ndarray:
    """Row ``i`` is ``np.random.default_rng(seeds[i]).normal(0.0, sd, size=k)``.

    ``pcg64_states`` seeds all rows at once, and one generator is set to
    each row's state in turn, instead of one generator built per row."""
    rows = np.empty((len(seeds), k))
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for row, (state, inc) in zip(rows, pcg64_states(seeds)):
        bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                               "state": {"state": state, "inc": inc}}
        generator.standard_normal(out=row)
    # normal(0.0, sd) is 0.0 + sd * standard_normal(), draw for draw
    return 0.0 + sd * rows


def synthesize_block(model: FluctuationModel, duration: float, seeds, baselines,
                     samples: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sensor-code series of several channels that share one time base.

    Row ``i`` of the returned ``(rows, k)`` codes is row ``i`` of
    ``rfad.fluctuation.synthesize_rows``: the series ``synthesize_series``
    gives for ``model`` with its baseline replaced by ``baselines[i]`` and
    seed ``seeds[i]``. Both take the time base, transient and sawtooth
    from ``series_shape``; only the noise is drawn here, by
    ``_normal_rows``. With ``samples`` set, only the first ``samples``
    values of each series are made: the noise of row ``i`` is
    ``default_rng(seeds[i]).normal(size=k)``, whose first values do not
    depend on ``k`` (pinned by the tests), so the truncated rows equal the
    leading columns of the full ones. Returns ``(times, codes)``.

    Every argument is checked, by ``check_rows``, before any array is
    allocated.
    """
    n = check_rows(model, duration, seeds, baselines)
    k = n if samples is None else max(0, min(samples, n))
    times, transient, sawtooth = map(np.array, series_shape(model, k))
    values = (np.asarray(baselines)[:, None] + transient) + sawtooth
    if model.noise_sd > 0:
        values = values + np.rint(_normal_rows(seeds, model.noise_sd, k))
    codes = np.clip(np.rint(values), CODE_STORAGE_MIN, CODE_STORAGE_MAX).astype(int)
    return times, codes


def amplitude_spectrum(series: CodeSeries) -> tuple[np.ndarray, np.ndarray]:
    """One-sided amplitude spectrum of the mean-removed series, with a
    rectangular window; bin resolution is 1 / (N * sample period)."""
    _check_uniform(series)
    x = np.asarray(series.codes, dtype=float)
    amps = np.abs(np.fft.rfft(x - x.mean())) / len(x)
    return np.fft.rfftfreq(len(x), series.times[1] - series.times[0]), amps


def dominant_frequency(series: CodeSeries) -> float | None:
    """Frequency of the largest non-DC spectral bin, or None for a series
    with no fluctuating component."""
    if len(series) < 16:
        raise DataError(f"need at least 16 samples, got {len(series)}")
    freqs, amps = amplitude_spectrum(series)
    nondc = amps[1:]
    # codes are non-negative, so the largest is the largest magnitude
    if nondc.max() <= 1e-12 * max(1.0, max(series.codes)):
        return None
    return float(freqs[1 + int(np.argmax(nondc))])


def _check_uniform(series: CodeSeries) -> None:
    if len(series) < 2:
        raise DataError("need at least 2 samples")
    dts = np.diff(np.asarray(series.times))
    jitter = np.abs(dts - dts.mean()).max()
    if jitter > 1e-6 * dts.mean():
        raise DataError(f"non-uniform sampling: max timestamp jitter {jitter:.3g} s")


def estimate_code(series: CodeSeries, window: int, estimator: Estimator) -> float:
    """Mean or median sensor code over the first ``window`` samples."""
    return estimate_window(series.codes, window, estimator)
