"""Sensor-code series in pure Python: the fluctuation model, its material
presets, and numpy's normal stream, draw for draw.

A freshly touched sensor shows a decaying transient, then settles into a
sawtooth fluctuation (charge/discharge of the tuning capacitor during
interrogation) on top of the material-dependent baseline. The series
type, its estimator and window sizing live in ``rfad.readlog``. A
series' time base, transient and sawtooth are made once, by
``series_shape``, for ``synthesize_rows`` here and for the campaign's
``rfad.signal.synthesize_block``, which draws only the noise as arrays.

The noise of the series with seed ``s`` is
``numpy.random.default_rng(s).normal(0.0, sd, size=n)``, made here without
numpy by ``standard_normal``. It follows numpy's ``SeedSequence`` into
``PCG64`` (``pcg64_state``), PCG64's XSL-RR 128/64 output (O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", 2014) and numpy's ``random_standard_normal``,
the ziggurat method of Marsaglia & Tsang (J. Stat. Softw. 5(8), 2000), with
its wedge and tail branches. The ziggurat's tables (``ZIGGURAT_KI``,
``ZIGGURAT_WI`` and ``ZIGGURAT_FI``) are numpy's ``ki_double``,
``wi_double`` and ``fi_double``, read bit for bit from the ``.rodata`` of
the member ``src_distributions_distributions.c.o`` of
``numpy/random/lib/libnpyrandom.a`` in the numpy 2.4.6 wheel, and stored
in ``data/ziggurat.txt``. The tables and the algorithm are numpy's, under
numpy's BSD 3-clause licence (its ziggurat derives from Julia's, under the
MIT licence); the data file carries both notices in full. Nothing in numpy's interface
promises this equality, so the tests pin it against numpy.

Every float operation of numpy's C code is done here in the same order,
and the wedge test calls the same C library ``exp``.
"""

from __future__ import annotations

import math
import os

from .errors import DataError
from .files import read_text
from .ic import CODE_STORAGE_MAX, CODE_STORAGE_MIN, MAX_SERIES_SAMPLES
from .readlog import CodeSeries
from .value import Value, _set

DEFAULT_SAMPLE_PERIOD = 0.7
DEFAULT_SAWTOOTH_FREQUENCY = 0.7


class FluctuationModel(Value):
    """Parameters of the synthetic sensor-code generator."""

    __slots__ = ("baseline", "sawtooth_amplitude", "sawtooth_frequency", "transient_duration",
                 "transient_amplitude", "noise_sd", "sample_period")

    def __init__(self, baseline: int = 200, sawtooth_amplitude: float = 2.0,
                 sawtooth_frequency: float = DEFAULT_SAWTOOTH_FREQUENCY,
                 transient_duration: float = 1.5,  # exponential decay constant, seconds
                 transient_amplitude: float = 3.0, noise_sd: float = 1.0,
                 sample_period: float = DEFAULT_SAMPLE_PERIOD):
        _set(self, "baseline", baseline)
        _set(self, "sawtooth_amplitude", sawtooth_amplitude)
        _set(self, "sawtooth_frequency", sawtooth_frequency)
        _set(self, "transient_duration", transient_duration)
        _set(self, "transient_amplitude", transient_amplitude)
        _set(self, "noise_sd", noise_sd)
        _set(self, "sample_period", sample_period)
        # every parameter finite, and so the code before noise and the sawtooth
        # phase of the longest series: a series' values need no check
        if not all(map(math.isfinite, (
                transient_duration, noise_sd,
                CODE_STORAGE_MAX + transient_amplitude + sawtooth_amplitude,
                MAX_SERIES_SAMPLES * sample_period * sawtooth_frequency))):
            raise DataError(f"fluctuation parameters must be finite, and so must the "
                            f"peak code and sawtooth phase they give: {self}")
        if min(sawtooth_frequency, sample_period, transient_duration) <= 0:
            raise DataError("sawtooth frequency, sample period and transient time "
                            "constant must be positive")
        if min(sawtooth_amplitude, transient_amplitude, noise_sd) < 0:
            raise DataError("amplitudes must be non-negative")


def check_rows(model: FluctuationModel, duration: float, seeds, baselines) -> int:
    """The sample count of series of ``duration`` seconds under ``model``,
    one per seed and baseline, after every argument is checked: a series
    may hold at most ``MAX_SERIES_SAMPLES`` samples, there must be one
    baseline per seed, seeds must be non-negative and baselines inside the
    code storage range."""
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
    return int(math.floor(duration / model.sample_period))


def series_shape(model: FluctuationModel,
                 k: int) -> tuple[list[float], list[float], list[float]]:
    """The time base, transient and sawtooth of the first ``k`` samples of
    a series under ``model``: what every row adds to its baseline, before
    noise. Each value depends on its sample index only, so the first
    ``k`` values of a longer series are these."""
    times = [i * model.sample_period for i in range(k)]
    transient = [model.transient_amplitude * math.exp(-t / model.transient_duration)
                 for t in times]
    # a slow fall from 1 to -1 and a sharp reset: the charge/discharge
    # cycle of the tuning capacitor
    phases = [t * model.sawtooth_frequency for t in times]
    sawtooth = [model.sawtooth_amplitude * (-2.0 * (p - math.floor(p + 0.5))) for p in phases]
    return times, transient, sawtooth


def synthesize_rows(model: FluctuationModel, duration: float, seeds,
                    baselines) -> tuple[list[float], list[list[int]]]:
    """Sensor-code series of several channels that share one time base.

    Row ``i`` of the returned codes is the series ``synthesize_series``
    gives for ``model`` with its baseline replaced by ``baselines[i]`` and
    seed ``seeds[i]``, and equals row ``i`` of
    ``rfad.signal.synthesize_block``. Returns ``(times, rows)``.
    """
    n = check_rows(model, duration, seeds, baselines)
    times, transient, sawtooth = series_shape(model, n)
    rows = []
    sd, inf = model.noise_sd, math.inf
    for seed, base in zip(seeds, baselines):
        if sd > 0:
            # numpy's normal(0.0, sd) is 0.0 + sd * standard_normal(), whose
            # zero sign no rounded code keeps. round() is rint, half to even,
            # for a finite value; numpy's rint leaves an infinite one (a huge
            # sd) as it is
            values = [(base + tr) + sw + (round(y) if -inf < (y := sd * z) < inf else y)
                      for tr, sw, z in zip(transient, sawtooth, standard_normal(seed, n))]
        else:
            values = [(base + tr) + sw for tr, sw in zip(transient, sawtooth)]
        # the bounds are integers, so clipping before rounding is rounding before it
        rows.append([round(min(max(v, CODE_STORAGE_MIN), CODE_STORAGE_MAX)) for v in values])
    return times, rows


def synthesize_series(model: FluctuationModel, duration: float, seed: int) -> CodeSeries:
    """Deterministically generate a sensor-code series of the given duration."""
    times, rows = synthesize_rows(model, duration, [seed], [model.baseline])
    return CodeSeries(times, rows[0])


# ---------------------------------------------------------------------------
# numpy's normal stream: SeedSequence, PCG64 and the ziggurat
# ---------------------------------------------------------------------------

# numpy's SeedSequence: the pool size, its hash constants and multipliers,
# and PCG64's 128-bit LCG multiplier
_POOL_WORDS = 4
_HASH_A = (0x43B0D7E5, 0x931E8875)
_HASH_B = (0x8B51F9DD, 0x58F38DED)
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def pcg64_seeded(seed_hi: int, seed_lo: int, seq_hi: int, seq_lo: int) -> tuple[int, int]:
    """``(state, inc)`` of PCG64 after its ``set_seed``, from the four 64-bit
    words ``SeedSequence.generate_state`` gives: the first two make the
    initial state, the last two the stream."""
    inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
    return ((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULTIPLIER + inc) & _MASK128, inc


def pcg64_state(seed: int) -> tuple[int, int]:
    """``(state, inc)`` of ``numpy.random.PCG64(seed)`` for a non-negative
    integer seed.

    The seed's little-endian 32-bit words are hashed into a pool of four (a
    shorter seed is padded with zero words), the pool words are mixed with
    each other, and each word beyond the fourth (seeds >= 2**128) is mixed
    into all of them; four 64-bit words are then hashed out of the pool.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_WORDS - len(words))
    const, mult = _HASH_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_LEFT * x - _MIX_RIGHT * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in words[:_POOL_WORDS]]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, mult = _HASH_B
    state_words = [hashmix(pool[i % _POOL_WORDS]) for i in range(2 * _POOL_WORDS)]
    # pairs of 32-bit words, low word first, make the 64-bit words
    return pcg64_seeded(*(state_words[i] | state_words[i + 1] << 32 for i in range(0, 8, 2)))


def _read_ziggurat() -> tuple[tuple[int, ...], tuple[float, ...], tuple[float, ...]]:
    rows = [line.split() for line in read_text(
        os.path.join(os.path.dirname(__file__), "data", "ziggurat.txt")).splitlines()
        if not line.startswith("#")]
    return (tuple(int(ki, 16) for ki, _, _ in rows),
            tuple(float.fromhex(wi) for _, wi, _ in rows),
            tuple(float.fromhex(fi) for _, _, fi in rows))


ZIGGURAT_KI, ZIGGURAT_WI, ZIGGURAT_FI = _read_ziggurat()
# the start of the normal's tail, and its inverse
_ZIGGURAT_R = 3.6541528853610087963519472518
_ZIGGURAT_INV_R = 0.27366123732975827203338247596


def _next_double(state: int, inc: int) -> tuple[float, int]:
    """numpy's next double in [0, 1), the top 53 bits of PCG64's next
    output, and the state after it: PCG64 advances its state, then outputs
    it through XSL-RR 128/64."""
    state = (state * _PCG64_MULTIPLIER + inc) & _MASK128
    high = state >> 64
    low = (high ^ state) & _MASK64
    rot = high >> 58
    bits = (low >> rot | low << 64 - rot) & _MASK64
    return (bits >> 11) * (1.0 / 9007199254740992.0), state


def _slow_normal(state: int, inc: int, idx: int, rabs: int, x: float):
    """The ziggurat's rare branches, entered where ``rabs`` is not inside
    layer ``idx``: the tail (layer 0) returns a draw; a wedge returns ``x``
    or ``None``, to draw again. Returns ``(draw or None, state)``."""
    if idx == 0:
        while True:
            # 1 - u, not u, so that the log is never of 0
            u, state = _next_double(state, inc)
            xx = -_ZIGGURAT_INV_R * math.log1p(-u)
            u, state = _next_double(state, inc)
            yy = -math.log1p(-u)
            if yy + yy > xx * xx:
                return (-(_ZIGGURAT_R + xx) if rabs >> 8 & 1 else _ZIGGURAT_R + xx), state
    u, state = _next_double(state, inc)
    fi = ZIGGURAT_FI
    if (fi[idx - 1] - fi[idx]) * u + fi[idx] < math.exp(-0.5 * x * x):
        return x, state
    return None, state


def standard_normal(seed: int, k: int) -> list[float]:
    """``numpy.random.default_rng(seed).standard_normal(k)`` as a list, for a
    non-negative integer seed."""
    state, inc = pcg64_state(int(seed))
    ki, wi = ZIGGURAT_KI, ZIGGURAT_WI
    mult, mask64, mask128 = _PCG64_MULTIPLIER, _MASK64, _MASK128
    draws = []
    append = draws.append
    while len(draws) < k:
        # PCG64's step and output, as in _next_double: these lines run once a draw
        state = (state * mult + inc) & mask128
        high = state >> 64
        low = (high ^ state) & mask64
        rot = high >> 58
        bits = (low >> rot | low << 64 - rot) & mask64
        # the low byte picks the layer, the next bit the sign, 52 bits the value
        idx = bits & 0xFF
        rabs = bits >> 9 & 0xFFFFFFFFFFFFF
        x = rabs * wi[idx]
        if bits & 0x100:
            x = -x
        if rabs < ki[idx]:
            append(x)
            continue
        x, state = _slow_normal(state, inc, idx, rabs, x)
        if x is not None:
            append(x)
    return draws


# ---------------------------------------------------------------------------
# material presets
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
