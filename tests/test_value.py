"""The contract of rfad's value types.

Every value type is a slotted subclass of ``rfad.value.Value``: its
fields are its constructor's parameters, in order, and no field changes
after ``__init__``. It compares, hashes and prints as the frozen
dataclass it replaces did, and keeps that dataclass's constructor, which
the benchmark harness and the tests call.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfad.classify import MaterialClass, PopulationSpec, ReliabilityReport, TrialRecord
from rfad.config import SessionConfig, load_config
from rfad.coupling import CouplingReport, ImpedanceMatrix, PortLoad
from rfad.errors import DataError
from rfad.fingerprint import CalibrationBaseline, ChannelReading, Fingerprint
from rfad.hand import FINGERS
from rfad.ic import EU_RFID_FREQUENCY, AntennaModel, AutoTuneIC, SensorCode
from rfad.readlog import CodeSeries
from rfad.fluctuation import FluctuationModel
from rfad.value import Value

_CONFIG = load_config()
_FP = Fingerprint({f: 10.0 for f in FINGERS[:4]}, "olive_oil")
_MATRIX = ImpedanceMatrix(np.eye(2) * (50 + 1j), frequency=867e6, port_labels=("a", "b"))

# one value of each type, and its constructor's parameters without annotations
_VALUES = [
    (MaterialClass("low", -320.0, 59.5, ("olive_oil",)),
     "(label, lower, upper, reference_materials=())"),
    (TrialRecord("S01", "olive_oil", _FP), "(subject, material, fingerprint=None)"),
    (PopulationSpec(),
     "(subjects=10, trials=3, materials=('olive_oil', 'ethyl_alcohol', 'deionized_water'))"),
    (ReliabilityReport((100.0,) * 5, {f: {"olive_oil": 100.0} for f in FINGERS},
                       dict.fromkeys(FINGERS, 100.0)),
     "(ccd, per_finger_rates, joint_rates)"),
    (ChannelReading("I", 300.0, True), "(channel, code, responsive)"),
    (CalibrationBaseline({"I": 300.0}), "(codes)"),
    (_FP, "(deltas, material_label=None)"),
    (_CONFIG, "(ic, ic_load, ic_sensitivity, antenna_models, transducer_gains, "
              "sawtooth_frequency, sample_period, window, estimator)"),
    (_CONFIG.ic, "(*, s_min, s_max)"),
    (_CONFIG.antenna_models["I"], "(b_ref, k, eps_half)"),
    (SensorCode(250, "none"), "(code, saturated)"),
    (CodeSeries([0.0, 0.7], [300, 301]), "(times, codes)"),
    (FluctuationModel(),
     "(baseline=200, sawtooth_amplitude=2.0, sawtooth_frequency=0.7, transient_duration=1.5, "
     "transient_amplitude=3.0, noise_sd=1.0, sample_period=0.7)"),
    (PortLoad(10 - 150j), "(z_c)"),
    (_MATRIX, "(z, frequency, port_labels=('I', 'II', 'III', 'IV', 'V'))"),
    (CouplingReport(np.eye(2), 0.0), "(normalized_magnitudes, max_offdiag_ratio)"),
]
_IDS = [type(value).__name__ for value, _ in _VALUES]


def _fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


class _Sub(SensorCode):
    __slots__ = ()


_SMALL_VALUES = st.one_of(
    st.builds(SensorCode, st.integers(0, 2), st.sampled_from(["none", "low"])),
    st.builds(_Sub, st.integers(0, 2), st.sampled_from(["none", "low"])),
    st.builds(AntennaModel, st.sampled_from([0.0, -1e-3]), st.sampled_from([0, 1e-4]),
              st.sampled_from([2.0, 3])),
    st.builds(ChannelReading, st.sampled_from(FINGERS[:2]), st.just(None), st.just(False)),
    st.builds(MaterialClass, st.sampled_from(["low", "high"]), st.sampled_from([-1.0, 0]),
              st.just(1.0), st.sampled_from([(), ("olive_oil",)])),
)


class TestValueTypes:
    @pytest.mark.parametrize("value, shape", _VALUES, ids=_IDS)
    def test_constructor_keeps_its_parameters(self, value, shape):
        signature = inspect.signature(type(value))
        bare = signature.replace(
            parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
            return_annotation=signature.empty)
        assert str(bare) == shape
        assert list(signature.parameters) == list(type(value).__slots__)

    @pytest.mark.parametrize("value", [v for v, _ in _VALUES], ids=_IDS)
    def test_no_field_changes_and_no_instance_has_a_dict(self, value):
        assert isinstance(value, Value) and not hasattr(value, "__dict__")
        before = _fields(value)
        for name in (*type(value).__slots__, "other"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(value, name, 1)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(value, name)
        assert all(a is b for a, b in zip(_fields(value), before))

    @pytest.mark.parametrize("value", [v for v, _ in _VALUES], ids=_IDS)
    def test_repr_is_the_frozen_dataclass_repr(self, value):
        cls = type(value)
        oracle = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
        oracle.__qualname__ = cls.__qualname__
        assert repr(value) == repr(oracle(*_fields(value)))

    def test_exact_reprs(self):
        assert repr(SensorCode(250, "none")) == "SensorCode(code=250, saturated='none')"
        assert repr(AutoTuneIC(s_min=100, s_max=400)) == "AutoTuneIC(s_min=100, s_max=400)"
        assert repr(PopulationSpec()) == ("PopulationSpec(subjects=10, trials=3, materials="
                                          "('olive_oil', 'ethyl_alcohol', 'deionized_water'))")
        assert repr(CodeSeries([0, 0.7], [300, 301])) == (
            "CodeSeries(times=(0.0, 0.7), codes=(300, 301))")

    def test_fluctuation_error_embeds_the_repr(self):
        message = ("fluctuation parameters must be finite, and so must the peak code and "
                   "sawtooth phase they give: FluctuationModel(baseline=200, "
                   "sawtooth_amplitude=2.0, sawtooth_frequency=0.7, transient_duration=1.5, "
                   "transient_amplitude=3.0, noise_sd=inf, sample_period=0.7)")
        with pytest.raises(DataError) as info:
            FluctuationModel(noise_sd=math.inf)
        assert str(info.value) == message

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(_SMALL_VALUES, _SMALL_VALUES)
    def test_equal_only_within_one_type_and_hashed_as_the_field_tuple(self, a, b):
        assert (a == b) is (type(a) is type(b) and _fields(a) == _fields(b))
        assert (a != b) is not (a == b)
        assert hash(a) == hash(_fields(a))
        assert a.__eq__(_fields(a)) is NotImplemented and a != _fields(a)

    @pytest.mark.parametrize("value", [_FP, _CONFIG, _MATRIX], ids=[
        "dict-field", "config", "array-field"])
    def test_a_value_with_an_unhashable_field_is_unhashable(self, value):
        with pytest.raises(TypeError):
            hash(value)

    def test_the_call_shapes_of_the_benchmark(self):
        assert ChannelReading("II", None, False).responsive is False
        assert CalibrationBaseline(codes={"I": 300}).gaps == FINGERS[1:]
        assert PopulationSpec().subjects == 10
        load = PortLoad(_CONFIG.ic_load)
        assert load.z_c == _CONFIG.ic_load
        z = ImpedanceMatrix([[50 + 1j]], frequency=_CONFIG.frequency, port_labels=("p",))
        assert z.n_ports == 1 and z.frequency == EU_RFID_FREQUENCY
        with pytest.raises(TypeError):
            AutoTuneIC(100, 400)
        # read off the class, and wrapped there by a span of the harness
        assert vars(SessionConfig)["frequency"] == EU_RFID_FREQUENCY
        assert "frequency" not in SessionConfig.__slots__
        assert callable(vars(SessionConfig)["class_means"])

    def test_a_checked_series_is_made_without_init(self, monkeypatch):
        expected = CodeSeries((0.0, 0.7), (300, 301))

        def refused(*args):
            raise AssertionError("CodeSeries.__init__ ran")
        monkeypatch.setattr(CodeSeries, "__init__", refused)
        series = CodeSeries._checked([0.0, 0.7], [300, 301])
        assert series == expected
        assert type(series.times) is tuple and type(series.codes) is tuple
