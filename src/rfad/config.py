"""Session configuration: parsing, defaults, and the derived models.

Configuration files are plain key-value text with explicit unit
suffixes. ``_KEYS`` is the one table of keys: how each value parses
(a quantity takes only the units of its dimension) and whether it may
carry a per-channel dotted suffix, e.g. ``span_code.III = 120``. Values
must be finite and inside each key's range; ``load_config`` checks the
rules that join keys: those on the codes, and a finite sawtooth phase.
The shipped defaults file is the single source for every default
constant; it is parsed and checked as a user file is.
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import TYPE_CHECKING, Mapping

from . import ic as _ic
from .errors import DataError
from .files import finite, read_text
from .hand import FINGERS
from .materials import PERMITTIVITY
from .units import parse_complex_quantity, parse_quantity
from .value import Value, _set

if TYPE_CHECKING:
    from .classify import MaterialClass

DEFAULTS_RESOURCE = "defaults.cfg"

# Seed of the default synthetic campaign (``rfad stats --generate``).
DEFAULT_POPULATION_SEED = 20


def _above(parse, bound: float):
    """``parse``, accepting only values whose real part (the value
    itself unless complex) is greater than ``bound``."""
    def checked(text: str):
        value = parse(text)
        if not value.real > bound:
            part = "real part " if isinstance(value, complex) else ""
            raise ValueError(f"{part}must be > {bound:g}, got {value:g}")
        return value
    return checked


def _estimator(text: str) -> str:
    if text not in ("mean", "median"):
        raise ValueError("must be 'mean' or 'median'")
    return text


# key -> (parser, may carry a channel suffix)
_KEYS = {
    "s_min": (int, False),
    "s_max": (int, False),
    "ic_load": (_above(parse_complex_quantity, 0), False),
    "ic_sensitivity": (_above(partial(parse_quantity, dimension="power"), 0), False),
    "baseline_code": (int, True),
    "span_code": (_above(finite, 0), True),
    "span_epsilon": (_above(finite, 1), True),
    "eps_half": (_above(finite, -1), True),
    "transducer_gain": (_above(finite, 0), True),
    "sawtooth_frequency": (_above(partial(parse_quantity, dimension="frequency"), 0),
                           False),
    "sample_period": (_above(partial(parse_quantity, dimension="time"), 0), False),
    "window": (_above(int, 0), False),
    "estimator": (_estimator, False),
}


def default_config_text() -> str:
    return read_text(os.path.join(os.path.dirname(__file__), "data", DEFAULTS_RESOURCE))


def _entries(text: str, source: str):
    """``(key, value, lineno)`` for each setting of ``text``, counting lines at
    line feeds only (``str.splitlines`` also counts form feeds and more)."""
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        base, dot, channel = key.partition(".")
        if base not in _KEYS:
            raise DataError(f"{source}:{lineno}: unknown key {key!r}")
        parse, per_channel = _KEYS[base]
        # "window." names no channel: the dot, not the suffix, marks a channel key
        if dot and (not per_channel or channel not in FINGERS):
            raise DataError(f"{source}:{lineno}: unknown channel suffix in {key!r}")
        try:
            parsed = parse(value)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
        yield key, parsed, lineno


class SessionConfig(Value):
    """Fully resolved session parameters and derived per-channel models."""

    frequency = _ic.EU_RFID_FREQUENCY  # the carrier cancels out of every code: not a key

    __slots__ = ("ic", "ic_load", "ic_sensitivity", "antenna_models", "transducer_gains",
                 "sawtooth_frequency", "sample_period", "window", "estimator")

    def __init__(self, ic: _ic.AutoTuneIC, ic_load: complex, ic_sensitivity: float,
                 antenna_models: Mapping, transducer_gains: Mapping, sawtooth_frequency: float,
                 sample_period: float, window: int, estimator: str):
        _set(self, "ic", ic)
        _set(self, "ic_load", ic_load)
        _set(self, "ic_sensitivity", ic_sensitivity)
        _set(self, "antenna_models", antenna_models)
        _set(self, "transducer_gains", transducer_gains)
        _set(self, "sawtooth_frequency", sawtooth_frequency)
        _set(self, "sample_period", sample_period)
        _set(self, "window", window)
        _set(self, "estimator", estimator)

    def channel_code(self, channel: str, epsilon: float) -> int:
        """Sensor code of one channel touching relative permittivity ``epsilon``."""
        model = self.antenna_models[channel]
        return _ic.sensor_code(self.ic, _ic.antenna_response(model, epsilon)).code

    def air_code(self, channel: str) -> int:
        """Sensor code of one untouched channel (eps = 1)."""
        return self.channel_code(channel, _ic.EPSILON_MIN)

    def class_means(self) -> dict[str, float]:
        """Differential-code means of the reference liquids, averaged
        over the five channels' models."""
        air = [self.air_code(channel) for channel in FINGERS]
        return {name: sum(a - self.channel_code(channel, eps)
                          for channel, a in zip(FINGERS, air)) / len(FINGERS)
                for name, eps in PERMITTIVITY.items()}

    def classes(self) -> list[MaterialClass]:
        """The reference liquids' classes, bounded by the largest
        differential code the ladder allows, ``±(s_max - s_min)``."""
        from .classify import default_classes
        return default_classes(self.class_means(), float(self.ic.s_max - self.ic.s_min))


def _channel_value(values: dict, key: str, channel: str):
    value = values.get(f"{key}.{channel}", values.get(key))
    if value is None:
        raise DataError(f"missing {key} for channel {channel}")
    return value


def build_config(values: dict) -> SessionConfig:
    """The session from parsed values: the ladder and antenna physics keep
    their defaults, and each channel's model fits its code-domain targets."""
    ic = _ic.AutoTuneIC(s_min=values["s_min"], s_max=values["s_max"])
    models = {}
    gains = {}
    for channel in FINGERS:
        models[channel] = _ic.calibrated_antenna_model(ic=ic, **{
            key: _channel_value(values, key, channel)
            for key in ("baseline_code", "span_code", "span_epsilon", "eps_half")})
        gains[channel] = _channel_value(values, "transducer_gain", channel)
    return SessionConfig(
        ic=ic, ic_load=values["ic_load"],
        ic_sensitivity=values["ic_sensitivity"],
        antenna_models=models, transducer_gains=gains,
        sawtooth_frequency=values["sawtooth_frequency"],
        sample_period=values["sample_period"],
        window=values["window"], estimator=values["estimator"])


def _check_rules(values: dict, source: str, lines: dict) -> None:
    """The rules that join keys: ``s_min < s_max`` inside the code
    register, every ``baseline_code`` inside ``[s_min, s_max]``, and a
    sawtooth phase that stays finite over the longest series. An error
    names the last line of ``source`` that set one of the keys involved."""
    s_min, s_max = values["s_min"], values["s_max"]
    period, frequency = values["sample_period"], values["sawtooth_frequency"]
    rules = [(("s_min",), s_min >= _ic.CODE_STORAGE_MIN,
              f"s_min = {s_min} below the code storage minimum {_ic.CODE_STORAGE_MIN}"),
             (("s_max",), s_max <= _ic.CODE_STORAGE_MAX,
              f"s_max = {s_max} above the code storage maximum {_ic.CODE_STORAGE_MAX}"),
             (("s_min", "s_max"), s_min < s_max,
              f"s_min = {s_min} must be below s_max = {s_max}")]
    rules += [((key, "s_min", "s_max"), s_min <= code <= s_max,
               f"{key} = {code} outside [s_min, s_max] = [{s_min}, {s_max}]")
              for key, code in values.items() if key.startswith("baseline_code")]
    rules.append((("sample_period", "sawtooth_frequency"),
                  math.isfinite(_ic.MAX_SERIES_SAMPLES * period * frequency),
                  f"sample_period = {period:g} s and sawtooth_frequency = {frequency:g} Hz "
                  f"overflow the sawtooth phase over {_ic.MAX_SERIES_SAMPLES} samples"))
    for keys, ok, message in rules:
        if not ok:
            line = max(lines.get(key, 0) for key in keys)
            raise DataError(f"{source}:{line}: {message}")


def load_config(path=None) -> SessionConfig:
    """The shipped defaults, with an optional config file layered on top.
    Each layer is parsed and checked alike, sets a key at most once, and
    must keep the rules that join keys."""
    sources = [(DEFAULTS_RESOURCE, default_config_text())]
    if path is not None:
        sources.append((str(path), read_text(path)))
    values = {}
    for source, text in sources:
        layer, lines = {}, {}
        for key, value, lineno in _entries(text, source):
            if key in layer:
                raise DataError(f"{source}:{lineno}: repeated key {key!r}")
            layer[key], lines[key] = value, lineno
        # a key set without a suffix replaces the values of every channel
        values = {key: value for key, value in values.items()
                  if key.partition(".")[0] not in layer} | layer
        _check_rules(values, source, lines)
    return build_config(values)
