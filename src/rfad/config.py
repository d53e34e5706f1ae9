"""Session configuration: parsing, defaults, and the derived models.

Configuration files are plain key-value text with explicit unit
suffixes. ``_KEYS`` is the one table of keys: how each value parses
and whether it may carry a per-channel dotted suffix, e.g.
``g_a.III = 0.5 mS``. Values must be finite. The shipped defaults file
is the single source for every default constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from . import classify as _classify
from . import ic as _ic
from .errors import DataError
from .files import finite, read_text
from .hand import FINGERS
from .materials import REFERENCE_LIQUIDS, load_materials
from .units import parse_complex_quantity, parse_quantity

DEFAULTS_RESOURCE = "defaults.cfg"


def _above(parse, bound: float):
    """``parse``, accepting only values greater than ``bound``."""
    def checked(text: str):
        value = parse(text)
        if not value > bound:
            raise ValueError(f"must be > {bound:g}, got {value:g}")
        return value
    return checked


def _estimator(text: str) -> str:
    if text not in ("mean", "median"):
        raise ValueError("must be 'mean' or 'median'")
    return text


# key -> (parser, may carry a channel suffix)
_KEYS = {
    "freq": (parse_quantity, False),
    "c_min": (parse_quantity, False),
    "c_step": (parse_quantity, False),
    "s_min": (int, False),
    "s_max": (int, False),
    "g_ic": (parse_quantity, False),
    "ic_load": (parse_complex_quantity, False),
    "ic_sensitivity": (parse_quantity, False),
    "g_a": (parse_quantity, True),
    "baseline_code": (int, True),
    "span_code": (_above(finite, 0), True),
    "span_epsilon": (_above(finite, 1), True),
    "eps_half": (finite, True),
    "transducer_gain": (finite, True),
    "sawtooth_frequency": (parse_quantity, False),
    "sample_period": (parse_quantity, False),
    "window": (_above(int, 0), False),
    "estimator": (_estimator, False),
}


def default_config_text() -> str:
    return (resources.files("rfad") / "data" / DEFAULTS_RESOURCE).read_text("utf-8")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key-value config text into a flat dict of SI values.

    Per-channel keys come back as ``(base_key, channel)`` tuples.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        base, _, channel = key.partition(".")
        if base not in _KEYS:
            raise DataError(f"{source}:{lineno}: unknown key {key!r}")
        parse, per_channel = _KEYS[base]
        if channel and (not per_channel or channel not in FINGERS):
            raise DataError(f"{source}:{lineno}: unknown channel suffix in {key!r}")
        try:
            parsed = parse(value)
        except (ValueError, OverflowError) as exc:
            raise DataError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from None
        values[(base, channel) if channel else base] = parsed
    return values


@dataclass(frozen=True)
class SessionConfig:
    """Fully resolved session parameters and derived per-channel models."""

    frequency: float
    ic: _ic.AutoTuneIC
    ic_load: complex
    ic_sensitivity: float
    antenna_models: Mapping[str, _ic.AntennaModel]
    transducer_gains: Mapping[str, float]
    sawtooth_frequency: float
    sample_period: float
    window: int
    estimator: str

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
        materials = load_materials()
        air = [self.air_code(channel) for channel in FINGERS]
        return {name: sum(a - self.channel_code(channel, materials[name].epsilon)
                          for channel, a in zip(FINGERS, air)) / len(FINGERS)
                for name in REFERENCE_LIQUIDS}

    def classes(self) -> list[_classify.MaterialClass]:
        return _classify.default_classes(self.class_means())


def _channel_value(values: dict, key: str, channel: str):
    value = values.get((key, channel), values.get(key))
    if value is None:
        raise DataError(f"missing {key} for channel {channel}")
    return value


def build_config(values: dict) -> SessionConfig:
    ic = _ic.AutoTuneIC(
        c_min=values["c_min"], c_step=values["c_step"],
        s_min=values["s_min"], s_max=values["s_max"], g_ic=values["g_ic"])
    frequency = values["freq"]
    models = {}
    gains = {}
    for channel in FINGERS:
        models[channel] = _ic.calibrated_antenna_model(
            ic=ic, frequency=frequency,
            g_a=_channel_value(values, "g_a", channel),
            baseline_code=_channel_value(values, "baseline_code", channel),
            span_code=_channel_value(values, "span_code", channel),
            span_epsilon=_channel_value(values, "span_epsilon", channel),
            eps_half=_channel_value(values, "eps_half", channel))
        gains[channel] = _channel_value(values, "transducer_gain", channel)
    return SessionConfig(
        frequency=frequency, ic=ic, ic_load=values["ic_load"],
        ic_sensitivity=values["ic_sensitivity"],
        antenna_models=models, transducer_gains=gains,
        sawtooth_frequency=values["sawtooth_frequency"],
        sample_period=values["sample_period"],
        window=values["window"], estimator=values["estimator"])


def default_config() -> SessionConfig:
    return load_config()


def load_config(path=None) -> SessionConfig:
    """Defaults, with an optional config file layered on top."""
    values = parse_config_text(default_config_text(), DEFAULTS_RESOURCE)
    if path is not None:
        values.update(parse_config_text(read_text(path), str(path)))
    return build_config(values)
