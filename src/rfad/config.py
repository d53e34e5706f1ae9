"""Session configuration: parsing, defaults, and the derived models.

Configuration files are plain key-value text with explicit unit
suffixes. Per-channel overrides use a dotted suffix, e.g.
``g_a.III = 0.5 mS``. The shipped defaults file is the single source
for every default constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from typing import Mapping

from . import classify as _classify
from . import ic as _ic
from .errors import DataError
from .hand import FINGERS
from .materials import REFERENCE_LIQUIDS, load_materials
from .units import parse_complex_quantity, parse_quantity

DEFAULTS_RESOURCE = "defaults.cfg"

_QUANTITY_KEYS = {
    "freq", "c_min", "c_step", "g_ic", "g_a", "ic_sensitivity",
    "sawtooth_frequency", "sample_period",
}
_INT_KEYS = {"s_min", "s_max", "window", "baseline_code"}
_FLOAT_KEYS = {"span_code", "span_epsilon", "eps_half", "transducer_gain"}
_COMPLEX_KEYS = {"ic_load"}
_STR_KEYS = {"estimator"}


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
        if channel and channel not in FINGERS:
            raise DataError(f"{source}:{lineno}: unknown channel suffix {channel!r}")
        try:
            if base in _QUANTITY_KEYS:
                parsed = parse_quantity(value)
            elif base in _INT_KEYS:
                parsed = int(value)
            elif base in _COMPLEX_KEYS:
                parsed = parse_complex_quantity(value)
            elif base in _FLOAT_KEYS:
                parsed = float(value)
            elif base in _STR_KEYS:
                parsed = value
            else:
                raise DataError(f"{source}:{lineno}: unknown key {key!r}")
        except DataError:
            raise
        except ValueError as exc:
            raise DataError(f"{source}:{lineno}: bad value for {key!r}") from exc
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
        """Differential-code means of the reference liquids under the
        calibrated default model (shared across channels)."""
        materials = load_materials()
        channel = FINGERS[0]
        s_air = self.air_code(channel)
        return {name: float(s_air - self.channel_code(channel, materials[name].epsilon))
                for name in REFERENCE_LIQUIDS}

    def classes(self) -> list[_classify.MaterialClass]:
        return _classify.default_classes(self.class_means())


def _channel_value(values: dict, key: str, channel: str, fallback=None):
    if (key, channel) in values:
        return values[(key, channel)]
    if key in values:
        return values[key]
    return fallback


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
        gain = _channel_value(values, "transducer_gain", channel)
        if gain is None:
            raise DataError(f"missing transducer_gain for channel {channel}")
        gains[channel] = gain
    return SessionConfig(
        frequency=frequency, ic=ic, ic_load=values["ic_load"],
        ic_sensitivity=values["ic_sensitivity"],
        antenna_models=models, transducer_gains=gains,
        sawtooth_frequency=values["sawtooth_frequency"],
        sample_period=values["sample_period"],
        window=values["window"], estimator=values["estimator"])


def default_config() -> SessionConfig:
    return build_config(parse_config_text(default_config_text(), DEFAULTS_RESOURCE))


def load_config(path=None) -> SessionConfig:
    """Defaults, with an optional config file layered on top."""
    values = parse_config_text(default_config_text(), DEFAULTS_RESOURCE)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read(), str(path)))
    return build_config(values)
