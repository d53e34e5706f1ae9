"""Power-wave scattering, coupling normalization, and turn-on budget tests."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rfad.coupling import (DEFAULT_IC_IMPEDANCE, REFERENCE_COUPLING_MAGNITUDES,
                           CouplingReport, ImpedanceMatrix, PortLoad,
                           coupling_summary, export_coupling_csv,
                           load_impedance_matrix, normalize_coupling,
                           power_wave_scattering, save_impedance_matrix,
                           turn_on_power)
from rfad.errors import DataError, NumericalError, SingularMatrixError


def _scalar_k(z, z_c):
    matrix = ImpedanceMatrix(np.array([[z]]), frequency=867e6, port_labels=("I",))
    return power_wave_scattering(matrix, PortLoad(z_c))[0, 0]


class TestPowerWaveScattering:
    def test_conjugate_match_null(self):
        z_c = DEFAULT_IC_IMPEDANCE
        assert abs(_scalar_k(z_c.conjugate(), z_c)) < 1e-12

    def test_open_circuit_limit(self):
        k = _scalar_k(1e12 + 0j, DEFAULT_IC_IMPEDANCE)
        assert abs(k - 1.0) < 1e-9

    def test_matches_scalar_formula(self):
        z, z_c = 10 + 30j, 2.8 - 76j
        expected = (z - z_c.conjugate()) / (z + z_c)
        assert _scalar_k(z, z_c) == pytest.approx(expected, rel=1e-12)

    def test_diagonal_z_gives_diagonal_k(self):
        z = ImpedanceMatrix(np.diag([20 + 5j, 35 - 60j]), frequency=867e6,
                            port_labels=("I", "II"))
        k = power_wave_scattering(z, PortLoad(2.8 - 76j))
        off = k - np.diag(np.diag(k))
        assert np.abs(off).max() < 1e-14

    def test_symmetric_z_equal_loads_symmetric_k(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        z = ImpedanceMatrix(a + a.T + 60 * np.eye(4), frequency=867e6,
                            port_labels=("I", "II", "III", "IV"))
        k = power_wave_scattering(z, PortLoad(2.8 - 76j))
        assert np.abs(k - k.T).max() <= 1e-9 * np.abs(k).max()

    def test_singular_sum_raises(self):
        z_c = 2.8 - 76j
        z = ImpedanceMatrix(np.array([[-z_c]]), frequency=867e6, port_labels=("I",))
        with pytest.raises(SingularMatrixError) as excinfo:
            power_wave_scattering(z, PortLoad(z_c))
        assert excinfo.value.condition is None or excinfo.value.condition > 1e10

    def test_per_port_loads(self):
        z = ImpedanceMatrix(np.diag([2.8 + 76j, 50 + 0j]), frequency=867e6,
                            port_labels=("I", "II"))
        k = power_wave_scattering(z, [PortLoad(2.8 - 76j), PortLoad(50 + 0j)])
        assert np.abs(np.diag(k)).max() < 1e-12

    def test_load_needs_positive_resistance(self):
        with pytest.raises(DataError):
            PortLoad(-1 + 5j)


class TestImpedanceMatrix:
    def test_reciprocity_enforced(self):
        z = np.array([[50.0, 1.0], [1.0 + 1e-3, 50.0]], dtype=complex)
        with pytest.raises(DataError, match="reciprocity"):
            ImpedanceMatrix(z, frequency=867e6, port_labels=("I", "II"))

    def test_shape_checks(self):
        with pytest.raises(DataError):
            ImpedanceMatrix(np.zeros((2, 3)), frequency=867e6, port_labels=("I", "II"))
        with pytest.raises(DataError):
            ImpedanceMatrix(np.eye(2), frequency=867e6, port_labels=("I",))
        with pytest.raises(DataError):
            ImpedanceMatrix(np.eye(2), frequency=0.0, port_labels=("I", "II"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan), complex(-np.inf, 1)])
    def test_nonfinite_entries_rejected(self, bad):
        z = np.eye(2, dtype=complex)
        z[1, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            ImpedanceMatrix(z, frequency=867e6, port_labels=("I", "II"))

    # below 1 Hz, 5e-324 Hz for one, the file's MHz value could read back as 0
    @pytest.mark.parametrize("frequency", [np.nan, np.inf, 5e-324, 0.5])
    def test_frequency_positive_and_finite(self, frequency):
        with pytest.raises(DataError, match="frequency"):
            ImpedanceMatrix(np.eye(2), frequency=frequency, port_labels=("I", "II"))

    @pytest.mark.parametrize("label", ["", "a b", "a\tb", "a\nb", "a\u2028b", "a#b", "#", 7])
    def test_labels_the_file_format_cannot_carry(self, label):
        with pytest.raises(DataError, match="port label"):
            ImpedanceMatrix(np.eye(2), frequency=867e6, port_labels=(label, "c"))


def _per_entry_rows(z):
    """The matrix rows as the per-entry formatter wrote them: one
    f-string per numpy complex scalar (the reference for the row template)."""
    return [" ".join(f"{c.real:.12g}{c.imag:+.12g}j" for c in row) for row in z.z]


# -0.0, subnormals, +-1e300 and integers, besides whatever finite floats
# Hypothesis draws
_PARTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5e-310, 1e300, -1e300]),
    st.integers(-10 ** 15, 10 ** 15).map(float))


class TestMatrixFile:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 70), pool=st.lists(st.tuples(_PARTS, _PARTS), min_size=1,
                                                max_size=40),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_the_per_entry_formatter(self, tmp_path, n, pool, seed):
        values = np.array([complex(re, im) for re, im in pool])
        upper = np.triu(values[np.random.default_rng(seed).integers(len(values), size=(n, n))])
        z = ImpedanceMatrix(upper + np.triu(upper, 1).T, frequency=867e6,
                            port_labels=tuple(f"P{k}" for k in range(n)))
        save_impedance_matrix(z, tmp_path / "z.txt")
        text = (tmp_path / "z.txt").read_text()
        assert text.split("\n")[2:] == _per_entry_rows(z) + [""]

    def test_frequency_keeps_twelve_digits(self, tmp_path):
        z = ImpedanceMatrix(np.eye(2), frequency=867.1234567e6, port_labels=("I", "II"))
        save_impedance_matrix(z, tmp_path / "z.txt")
        assert (tmp_path / "z.txt").read_text().splitlines()[0] == (
            "frequency = 867.1234567 MHz")
        assert load_impedance_matrix(tmp_path / "z.txt").frequency == pytest.approx(
            867.1234567e6, rel=1e-15)

    @pytest.mark.parametrize("upper, lower", [
        # inside the 1e-9 bound, but rounding each to 12 digits left them
        # 1.0000000005 apart
        (1.0000000000004, 1.0000000000004 * (1 + 1e-9) * (1 - 4e-13)),
        (1.7e308, 1.7e308 * (1 - 9e-10)),  # their sum would overflow
    ])
    def test_near_reciprocal_matrix_loads_back(self, tmp_path, upper, lower):
        z = ImpedanceMatrix(np.array([[1, upper], [lower, 1]]), frequency=867e6,
                            port_labels=("I", "II"))
        save_impedance_matrix(z, tmp_path / "z.txt")
        loaded = load_impedance_matrix(tmp_path / "z.txt").z
        assert loaded[0, 1] == loaded[1, 0]
        assert loaded[0, 1].real == pytest.approx(upper / 2 + lower / 2, rel=1e-11)

    def test_lowest_frequency_loads_back(self, tmp_path):
        z = ImpedanceMatrix(np.eye(2), frequency=1.0, port_labels=("I", "II"))
        save_impedance_matrix(z, tmp_path / "z.txt")
        assert load_impedance_matrix(tmp_path / "z.txt").frequency == 1.0

    def test_labels_round_trip(self, tmp_path):
        labels = ("a=b", "é", "P-1")
        z = ImpedanceMatrix(np.eye(3) * (50 - 2j), frequency=867e6, port_labels=labels)
        save_impedance_matrix(z, tmp_path / "z.txt")
        loaded = load_impedance_matrix(tmp_path / "z.txt")
        assert loaded.port_labels == labels
        assert np.array_equal(loaded.z, z.z)


class TestNormalizeCoupling:
    def test_reference_matrix_ratio(self):
        report = normalize_coupling(REFERENCE_COUPLING_MAGNITUDES)
        assert report.max_offdiag_ratio == pytest.approx(0.0289, abs=1e-15)
        assert report.normalized_magnitudes.max() == 100.0
        assert report.max_offdiag_ratio <= 0.03

    def test_identity(self):
        report = normalize_coupling(np.eye(4))
        assert np.allclose(np.diag(report.normalized_magnitudes), 100.0)
        assert report.max_offdiag_ratio == 0.0

    def test_single_offdiagonal_entry(self):
        k = np.diag([50.0, 50.0]).astype(complex)
        k[0, 1] = 5.0
        assert normalize_coupling(k).max_offdiag_ratio == pytest.approx(0.1)

    def test_idempotent(self):
        report = normalize_coupling(REFERENCE_COUPLING_MAGNITUDES)
        again = normalize_coupling(report.normalized_magnitudes)
        assert np.allclose(again.normalized_magnitudes, report.normalized_magnitudes)
        assert again.max_offdiag_ratio == pytest.approx(report.max_offdiag_ratio)

    def test_all_zero_rejected(self):
        with pytest.raises(DataError):
            normalize_coupling(np.zeros((3, 3)))


class TestTurnOnPower:
    def test_lossless_link(self):
        assert turn_on_power(1.0, 1.0, 10e-6) == pytest.approx(10e-6)

    def test_arithmetic_oracle(self):
        p = turn_on_power(0.85, 2.5e-3, 10e-6)
        assert p == pytest.approx(10e-6 / (0.85 * 2.5e-3), rel=1e-12)
        assert 10.0 * math.log10(p / 1e-3) == pytest.approx(6.7, abs=0.05)

    def test_domain_errors(self):
        for args in ((0.0, 1.0, 1e-6), (1.1, 1.0, 1e-6),
                     (0.5, 0.0, 1e-6), (0.5, 1.0, 0.0)):
            with pytest.raises(DataError):
                turn_on_power(*args)

    def test_overflowing_budget_is_numerical_error(self):
        # tau and gain in range, but their product underflows
        for args in ((5e-324, 2.5e-3, 10e-6), (1e-300, 1e-20, 10e-6)):
            with pytest.raises(NumericalError, match="overflows"):
                turn_on_power(*args)


class TestFileFormats:
    def test_impedance_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        z = ImpedanceMatrix(a + a.T + 40 * np.eye(3), frequency=867e6,
                            port_labels=("I", "II", "III"))
        path = tmp_path / "z.txt"
        save_impedance_matrix(z, path)
        loaded = load_impedance_matrix(path)
        assert loaded.port_labels == ("I", "II", "III")
        assert loaded.frequency == pytest.approx(867e6)
        assert np.allclose(loaded.z, z.z, rtol=1e-9)

    def test_load_rejects_bad_token(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("frequency = 867 MHz\nports = I\nnot-a-number\n")
        with pytest.raises(DataError, match="bad complex token"):
            load_impedance_matrix(path)

    def test_load_requires_headers(self, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("1+0j\n")
        with pytest.raises(DataError):
            load_impedance_matrix(path)

    def test_csv_export(self, tmp_path):
        report = normalize_coupling(REFERENCE_COUPLING_MAGNITUDES)
        path = tmp_path / "coupling.csv"
        export_coupling_csv(report, ("I", "II", "III", "IV", "V"), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "port,I,II,III,IV,V"
        assert len(lines) == 6
        assert lines[5].startswith("V,")

    def test_summary_mentions_worst_ratio(self):
        report = normalize_coupling(REFERENCE_COUPLING_MAGNITUDES)
        text = coupling_summary(report, ("I", "II", "III", "IV", "V"))
        assert "2.89%" in text
        assert "negligible" in text
