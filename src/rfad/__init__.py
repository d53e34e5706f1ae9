"""Multi-channel auto-tuning RFID dielectric sensing toolkit."""

__version__ = "0.1.0"
