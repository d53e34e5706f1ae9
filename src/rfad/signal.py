"""Sensor-code time series: synthesis and spectrum, in numpy.

A freshly touched sensor shows a decaying transient, then settles into a
sawtooth fluctuation (charge/discharge of the tuning capacitor during
interrogation) on top of the material-dependent baseline. The series
type, its estimator and window sizing live in the numpy-free
``rfad.readlog``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN, MAX_SERIES_SAMPLES
# window sizing lives in readlog; bench/workloads.py calls it from here
from .readlog import CodeSeries, Estimator, estimate_window, minimum_samples  # noqa: F401

DEFAULT_SAMPLE_PERIOD = 0.7
DEFAULT_SAWTOOTH_FREQUENCY = 0.7


@dataclass(frozen=True)
class FluctuationModel:
    """Parameters of the synthetic sensor-code generator."""

    baseline: int = 200
    sawtooth_amplitude: float = 2.0
    sawtooth_frequency: float = DEFAULT_SAWTOOTH_FREQUENCY
    transient_duration: float = 1.5  # exponential decay constant, seconds
    transient_amplitude: float = 3.0
    noise_sd: float = 1.0
    sample_period: float = DEFAULT_SAMPLE_PERIOD

    def __post_init__(self):
        # every parameter finite, and so the code before noise and the sawtooth
        # phase of the longest series: synthesize_block's arrays need no check
        if not all(map(math.isfinite, (
                self.transient_duration, self.noise_sd,
                CODE_STORAGE_MAX + self.transient_amplitude + self.sawtooth_amplitude,
                MAX_SERIES_SAMPLES * self.sample_period * self.sawtooth_frequency))):
            raise DataError(f"fluctuation parameters must be finite, and so must the "
                            f"peak code and sawtooth phase they give: {self}")
        if min(self.sawtooth_frequency, self.sample_period, self.transient_duration) <= 0:
            raise DataError("sawtooth frequency, sample period and transient time "
                            "constant must be positive")
        if min(self.sawtooth_amplitude, self.transient_amplitude, self.noise_sd) < 0:
            raise DataError("amplitudes must be non-negative")


def _sawtooth(phase: np.ndarray) -> np.ndarray:
    """Unit-amplitude sawtooth, a slow fall from 1 to -1 and a sharp reset:
    the charge/discharge cycle of the tuning capacitor (the orientation
    fixes only the sign convention, not the spectrum)."""
    return -2.0 * (phase - np.floor(phase + 0.5))


# numpy's SeedSequence: the pool size, its hash constants and multipliers,
# and PCG64's 128-bit LCG multiplier
_POOL_WORDS = 4
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX_LEFT, _MIX_RIGHT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


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
    value = _MIX_LEFT * x - _MIX_RIGHT * y
    return value ^ (value >> np.uint32(16))


def pcg64_states(seeds) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``np.random.PCG64(seed)`` for each non-negative
    integer seed, all seeds hashed at once.

    Follows numpy's ``SeedSequence``: the seed's little-endian 32-bit
    words are hashed into a pool of four (a shorter seed behaves as if
    padded with zero words), the pool words are mixed with each other,
    and each word beyond the fourth (seeds >= 2**128) is mixed into all
    of them; ``generate_state`` then hashes out four 64-bit words, and
    PCG64's ``set_seed`` takes the first two as the initial state and
    the last two as the stream. The hash steps are uint32 array
    arithmetic over all seeds, which wraps as numpy's C code does. The
    equality with ``PCG64(seed).state`` is pinned by tests, not implied
    by numpy's interface.
    """
    seeds = [int(seed) for seed in seeds]
    width = max(_POOL_WORDS, -(-max(seeds, default=0).bit_length() // 32))
    raw = b"".join(seed.to_bytes(4 * width, "little") for seed in seeds)
    words = np.frombuffer(raw, dtype="<u4").reshape(len(seeds), width).T.astype(np.uint32)
    pre, post = _hash_constants(*_HASH_A, _POOL_WORDS * width)
    pool = _hashmix(words[:_POOL_WORDS], pre[:_POOL_WORDS], post[:_POOL_WORDS])
    step = _POOL_WORDS
    for src in range(_POOL_WORDS):
        dst = [i for i in range(_POOL_WORDS) if i != src]
        hashed = _hashmix(pool[src], pre[step:step + len(dst)], post[step:step + len(dst)])
        pool[dst] = _mix(pool[dst], hashed)
        step += len(dst)
    for src in range(_POOL_WORDS, width):
        hashed = _hashmix(words[src], pre[step:step + _POOL_WORDS],
                          post[step:step + _POOL_WORDS])
        # a seed's word count ends at its highest non-zero word
        pool = np.where((words[src:] != 0).any(axis=0), _mix(pool, hashed), pool)
        step += _POOL_WORDS
    pre, post = _hash_constants(*_HASH_B, 2 * _POOL_WORDS)
    state_words = _hashmix(np.tile(pool, (2, 1)), pre, post)
    # pairs of 32-bit words, low word first, make the 64-bit words
    columns = np.ascontiguousarray(state_words.T, dtype="<u4").view("<u8").T.tolist()
    states = []
    for seed_hi, seed_lo, seq_hi, seq_lo in zip(*columns):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULTIPLIER + inc) & _MASK128
        states.append((state, inc))
    return states


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


def synthesize_series(model: FluctuationModel, duration: float, seed: int) -> CodeSeries:
    """Deterministically generate a sensor-code series of the given duration."""
    times, codes = synthesize_block(model, duration, [seed], [model.baseline])
    return CodeSeries(times.tolist(), codes[0].tolist())


def synthesize_block(model: FluctuationModel, duration: float, seeds, baselines,
                     samples: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sensor-code series of several channels that share one time base.

    Row ``i`` of the returned ``(rows, k)`` codes is the series
    ``synthesize_series`` gives for ``model`` with its baseline replaced
    by ``baselines[i]`` and seed ``seeds[i]``. With ``samples`` set, only
    the first ``samples`` values of each series are made: the noise of row
    ``i`` is ``default_rng(seeds[i]).normal(size=k)``, whose first values
    do not depend on ``k`` (pinned by the tests), so the truncated rows
    equal the leading columns of the full ones (see ``_normal_rows``).
    Returns ``(times, codes)``.

    Every argument is checked before any array is allocated: a series
    may hold at most ``MAX_SERIES_SAMPLES`` samples, there must be one
    baseline per seed, seeds must be non-negative and baselines inside the
    code storage range.
    """
    if not math.isfinite(duration) or duration < model.sample_period:
        raise DataError(f"duration must be finite and cover at least one sample "
                        f"period ({model.sample_period} s), got {duration}")
    if duration / model.sample_period > MAX_SERIES_SAMPLES:
        raise DataError(f"{duration} s at {model.sample_period} s per sample exceeds "
                        f"the limit of {MAX_SERIES_SAMPLES} samples per series")
    if len(seeds) != len(baselines):
        raise DataError(f"{len(seeds)} series seeds for {len(baselines)} baselines")
    if any(seed < 0 for seed in seeds):
        raise DataError(f"series seeds must be non-negative, got {list(seeds)}")
    if not all(CODE_STORAGE_MIN <= b <= CODE_STORAGE_MAX for b in baselines):
        raise DataError(f"baseline codes {list(baselines)} outside storage range "
                        f"[{CODE_STORAGE_MIN}, {CODE_STORAGE_MAX}]")
    n = int(math.floor(duration / model.sample_period))
    k = n if samples is None else max(0, min(samples, n))
    t = np.arange(n) * model.sample_period
    # computed over the full series, then cut, so that every value is the
    # one the full series holds
    transient = model.transient_amplitude * np.exp(-t / model.transient_duration)
    sawtooth = model.sawtooth_amplitude * _sawtooth(t * model.sawtooth_frequency)
    base = np.asarray(baselines)[:, None]
    values = (base + transient[:k]) + sawtooth[:k]
    if model.noise_sd > 0:
        values = values + np.rint(_normal_rows(seeds, model.noise_sd, k))
    codes = np.clip(np.rint(values), CODE_STORAGE_MIN, CODE_STORAGE_MAX).astype(int)
    return t[:k], codes


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


# ---------------------------------------------------------------------------
# material fixtures
# ---------------------------------------------------------------------------

# Fluctuation/noise grows with the permittivity of the touched liquid,
# which is what pushes the minimum stable window up for water. The touch
# transient decays faster than one sample period, so the early-window
# dispersion is dominated by the initial jump.
_MATERIAL_FLUCTUATION = {
    "olive_oil": dict(sawtooth_amplitude=1.5, transient_amplitude=4.0,
                      transient_duration=0.35, noise_sd=0.4),
    "ethyl_alcohol": dict(sawtooth_amplitude=2.0, transient_amplitude=5.5,
                          transient_duration=0.35, noise_sd=0.8),
    "deionized_water": dict(sawtooth_amplitude=2.5, transient_amplitude=7.5,
                            transient_duration=0.35, noise_sd=1.5),
}

DEFAULT_FIXTURE_SEED = 10


def material_fluctuation_model(
        material: str, baseline: int, *,
        sample_period: float = DEFAULT_SAMPLE_PERIOD,
        sawtooth_frequency: float = DEFAULT_SAWTOOTH_FREQUENCY) -> FluctuationModel:
    """Fluctuation preset for one of the reference liquids, sampled and
    swept at the given acquisition settings."""
    try:
        params = _MATERIAL_FLUCTUATION[material]
    except KeyError:
        raise DataError(f"no fluctuation preset for {material!r}; "
                        f"known: {sorted(_MATERIAL_FLUCTUATION)}") from None
    return FluctuationModel(baseline=baseline, sample_period=sample_period,
                            sawtooth_frequency=sawtooth_frequency, **params)


def material_fixture_series(material: str, baseline: int = 200, duration: float = 70.0,
                            seed: int = DEFAULT_FIXTURE_SEED) -> CodeSeries:
    """Canonical seeded series for one of the reference liquids."""
    return synthesize_series(material_fluctuation_model(material, baseline),
                             duration, seed=seed)
