"""Multi-channel auto-tuning RFID dielectric sensing toolkit."""

from .hand import FINGERS
from .ic import (AntennaModel, AntennaState, AutoTuneIC, SensorCode,
                 antenna_response, calibrated_antenna_model, capacitance,
                 ic_susceptance, power_transfer, sensor_code)
from .config import SessionConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "FINGERS",
    "AntennaModel", "AntennaState", "AutoTuneIC", "SensorCode",
    "antenna_response", "calibrated_antenna_model", "capacitance",
    "ic_susceptance", "power_transfer", "sensor_code",
    "SessionConfig", "load_config",
    "__version__",
]
