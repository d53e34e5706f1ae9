"""Capacitance ladder, code inversion, and power-transfer tests."""

import math

import pytest

from rfad.config import load_config
from rfad.errors import DataError
from rfad.ic import (C_MIN, C_STEP, AntennaModel, AutoTuneIC, antenna_response,
                     calibrated_antenna_model, capacitance, ic_susceptance,
                     power_transfer, sensor_code)

F0 = 867e6

# the session's ladder and channel I's antenna model, as the shipped config sets them
CONFIG = load_config()
IC = CONFIG.ic
MODEL = CONFIG.antenna_models["I"]


class TestCapacitance:
    def test_ladder_bottom(self):
        # 1.9 pF + s_min * 3.1 fF
        assert capacitance(IC, IC.s_min) == pytest.approx(1.9e-12 + IC.s_min * 3.1e-15,
                                                          rel=1e-12)

    def test_ladder_top(self):
        assert capacitance(IC, IC.s_max) == pytest.approx(1.9e-12 + IC.s_max * 3.1e-15,
                                                          rel=1e-12)

    def test_out_of_range_code_rejected(self):
        with pytest.raises(DataError, match=rf"\[{IC.s_min}, {IC.s_max}\]"):
            capacitance(IC, IC.s_min - 1)
        with pytest.raises(DataError):
            capacitance(IC, IC.s_max + 1)

    def test_bad_parameters_rejected(self):
        with pytest.raises(DataError):
            AutoTuneIC(s_min=400, s_max=400)

    @pytest.mark.parametrize("s_min, s_max", [(-1, 400), (80, 512), (80, 600)])
    def test_ladder_inside_the_code_register(self, s_min, s_max):
        with pytest.raises(DataError, match=r"need 0 <= s_min < s_max <= 511"):
            AutoTuneIC(s_min=s_min, s_max=s_max)
        assert AutoTuneIC(s_min=0, s_max=511).s_max == 511


class TestIcSusceptance:
    def test_against_arithmetic(self):
        expected = 2.0 * math.pi * F0 * 2.148e-12
        assert ic_susceptance(IC, 80) == pytest.approx(expected, rel=1e-12)


class TestSensorCode:
    def test_exact_integer_round_trip(self):
        ic = IC
        for s_star in (ic.s_min, ic.s_min + 1, 150, 240, ic.s_max - 1, ic.s_max):
            result = sensor_code(ic, -ic_susceptance(ic, s_star))
            assert result.code == s_star
            assert result.saturated == "none"

    def test_fractional_solution_rounds(self):
        ic = IC
        omega = 2.0 * math.pi * F0
        b_a = -omega * (C_MIN + 240.4 * C_STEP)
        assert sensor_code(ic, b_a).code == 240

    def test_half_step_balance(self):
        # within the linear range the chosen code cancels the antenna
        # susceptance to within half a ladder step
        ic = IC
        omega = 2.0 * math.pi * F0
        for frac in (100.2, 200.49, 333.71):
            b_a = -omega * (C_MIN + frac * C_STEP)
            s = sensor_code(ic, b_a).code
            assert abs(ic_susceptance(ic, s) + b_a) <= math.pi * F0 * C_STEP * (1 + 1e-9)

    def test_low_saturation(self):
        ic = IC
        result = sensor_code(ic, -2.0 * math.pi * F0 * C_MIN)
        assert result == sensor_code(ic, -2.0 * math.pi * F0 * C_MIN)
        assert (result.code, result.saturated) == (ic.s_min, "low")

    def test_high_saturation(self):
        ic = IC
        b_a = -2.0 * math.pi * F0 * (C_MIN + 1e6 * C_STEP)
        result = sensor_code(ic, b_a)
        assert (result.code, result.saturated) == (ic.s_max, "high")



class TestPowerTransfer:
    def test_perfect_match_inside_window(self):
        ic = IC
        omega = 2.0 * math.pi * F0
        b_a = -omega * (C_MIN + 200 * C_STEP)
        assert power_transfer(ic, b_a) == pytest.approx(1.0)

    def test_window_boundary_belongs_to_mid_branch(self):
        ic = IC
        omega = 2.0 * math.pi * F0
        for b_a in (-omega * C_MIN, -omega * (C_MIN + ic.s_max * C_STEP)):
            assert power_transfer(ic, b_a) == pytest.approx(1.0)

    def test_flat_inside_window(self):
        ic = IC
        omega = 2.0 * math.pi * F0
        values = [power_transfer(ic, -omega * (C_MIN + frac * C_STEP))
                  for frac in (0.0, 17.3, 200.0, ic.s_max - 0.1, ic.s_max)]
        assert max(values) - min(values) < 1e-15

    def test_residual_susceptance_degrades_match(self):
        ic = IC
        omega = 2.0 * math.pi * F0
        inside = power_transfer(ic, -omega * C_MIN)
        above = power_transfer(ic, -omega * C_MIN + 1e-3)
        below = power_transfer(ic, -omega * (C_MIN + ic.s_max * C_STEP) - 1e-3)
        assert above < inside
        assert below < inside

    def test_bounds(self):
        ic = IC
        for b_a in (-1.0, -2e-2, -1e-2, 0.0, 1.0):
            tau = power_transfer(ic, b_a)
            assert 0.0 <= tau <= 1.0


class TestAntennaModel:
    def test_air_anchor(self):
        model = MODEL
        assert antenna_response(model, 1.0) == pytest.approx(model.b_ref, rel=1e-12)

    def test_zero_slope_is_flat(self):
        model = AntennaModel(b_ref=-1e-2, k=0.0, eps_half=20.0)
        assert antenna_response(model, 78.0) == antenna_response(model, 1.0)

    def test_code_drops_with_permittivity(self):
        ic, model = IC, MODEL
        s_oil = sensor_code(ic, antenna_response(model, 3.0)).code
        s_water = sensor_code(ic, antenna_response(model, 78.0)).code
        assert not s_water >= s_oil

    def test_differential_code_monotone_over_reference_liquids(self):
        ic, model = IC, MODEL
        s_air = sensor_code(ic, antenna_response(model, 1.0)).code
        deltas = [s_air - sensor_code(ic, antenna_response(model, eps)).code
                  for eps in (3.0, 17.0, 78.0)]
        assert deltas == sorted(deltas)
        assert deltas[0] < deltas[1] < deltas[2]

    def test_validity_range_enforced(self):
        model = MODEL
        with pytest.raises(DataError):
            antenna_response(model, 0.5)
        with pytest.raises(DataError):
            antenna_response(model, 101.0)

    def test_calibration_targets_hit(self):
        # air code 300; water (eps 78) sits span_code = 180 below
        ic = IC
        model = calibrated_antenna_model(ic, baseline_code=300, span_code=180.0,
                                         span_epsilon=78.0, eps_half=20.0)
        assert sensor_code(ic, antenna_response(model, 1.0)).code == 300
        assert sensor_code(ic, antenna_response(model, 78.0)).code == 120
