"""Power-wave scattering, coupling normalization, and turn-on budget tests."""

import hashlib
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rfad.cli import main
from rfad.config import load_config
from rfad.coupling import (REFERENCE_COUPLING_MAGNITUDES, ImpedanceMatrix, PortLoad,
                           coupling_summary, export_coupling_csv,
                           load_impedance_matrix, normalize_coupling,
                           power_wave_scattering, save_impedance_matrix,
                           turn_on_power)
from rfad.errors import DataError, NumericalError, SingularMatrixError
from rfad.hand import FINGERS


def _scalar_k(z, z_c):
    matrix = ImpedanceMatrix(np.array([[z]]), frequency=867e6, port_labels=("I",))
    return power_wave_scattering(matrix, PortLoad(z_c))[0, 0]


class TestPowerWaveScattering:
    def test_conjugate_match_null(self):
        z_c = load_config().ic_load
        assert abs(_scalar_k(z_c.conjugate(), z_c)) < 1e-12

    def test_open_circuit_limit(self):
        k = _scalar_k(1e12 + 0j, load_config().ic_load)
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
        # Z + H is exactly zero: the LU factorisation meets a zero pivot
        z_c = 2.8 - 76j
        z = ImpedanceMatrix(np.array([[-z_c]]), frequency=867e6, port_labels=("I",))
        with pytest.raises(SingularMatrixError) as excinfo:
            power_wave_scattering(z, PortLoad(z_c))
        assert excinfo.value.condition == math.inf

    def test_near_singular_sum_raises(self):
        # Z + H is [[1, 2], [2, 4]] up to rounding, with determinant about -8.9e-16:
        # the inverse exists, but its 1-norm condition is above 1/eps
        z = ImpedanceMatrix(np.array([[-1.8 + 76j, 2], [2, 1.2 + 76j]]), frequency=867e6,
                            port_labels=("I", "II"))
        with pytest.raises(SingularMatrixError, match="near-singular") as excinfo:
            power_wave_scattering(z, PortLoad(2.8 - 76j))
        assert 1 / np.finfo(float).eps < excinfo.value.condition < math.inf

    # numpy warns when a product or a column sum of the norms overflows;
    # pytest turns that RuntimeWarning into an error
    @pytest.mark.parametrize("entries", [
        # ||Z + H||_1 = 1e300 and ||(Z + H)^-1||_1 about 1e15: their product overflows
        [[1e300, 0], [0, -2.8 + 1e-15 + 76j]],
        # the column sums of |Z + H| overflow
        [[1.7e308, 1.7e308], [1.7e308, 1.7e308 * (1 - 2e-16)]],
    ], ids=["norm-product", "column-sum"])
    def test_overflowing_condition_is_refused_without_warning(self, entries):
        z = ImpedanceMatrix(np.array(entries), frequency=867e6, port_labels=("I", "II"))
        with pytest.raises(SingularMatrixError) as excinfo:
            power_wave_scattering(z, PortLoad(2.8 - 76j))
        assert not excinfo.value.condition <= 1 / np.finfo(float).eps

    def test_one_inverse_and_no_svd(self, monkeypatch):
        inverses, inverse = [], np.linalg.inv

        def inv(a):
            inverses.append(a)
            return inverse(a)

        def refused(*args, **kwargs):
            raise AssertionError("the condition number comes from the one inverse")

        monkeypatch.setattr(np.linalg, "inv", inv)
        monkeypatch.setattr(np.linalg, "cond", refused)
        monkeypatch.setattr(np.linalg, "svd", refused)
        z = ImpedanceMatrix(np.array([[50, 1 + 2j], [1 + 2j, 40 - 5j]]), frequency=867e6,
                            port_labels=("I", "II"))
        power_wave_scattering(z, PortLoad(2.8 - 76j))
        assert len(inverses) == 1

    def test_per_port_loads(self):
        z = ImpedanceMatrix(np.diag([2.8 + 76j, 50 + 0j]), frequency=867e6,
                            port_labels=("I", "II"))
        k = power_wave_scattering(z, [PortLoad(2.8 - 76j), PortLoad(50 + 0j)])
        assert np.abs(np.diag(k)).max() < 1e-12

    # a NaN load once reached numpy's SVD, which failed with LinAlgError
    @pytest.mark.parametrize("z_c", [-1 + 5j, 0j, complex("nan"), math.inf,
                                     complex(1, math.inf), complex(1, math.nan)])
    def test_load_needs_finite_positive_resistance(self, z_c):
        with pytest.raises(DataError, match="port load must be finite"):
            PortLoad(z_c)


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

    @pytest.mark.parametrize("label", ["", "a b", "a\tb", "a\nb", "a\u2028b", "a#b", "#", 7,
                                       "a\ud800"])
    def test_labels_the_file_format_cannot_carry(self, label):
        with pytest.raises(DataError, match="port label"):
            ImpedanceMatrix(np.eye(2), frequency=867e6, port_labels=(label, "c"))

    def test_repeated_label_is_named(self):
        # a repeated label would make the CSV header "port,I,II,I" ambiguous
        with pytest.raises(DataError, match="^port label 'I' is repeated$"):
            ImpedanceMatrix(np.eye(3), frequency=867e6, port_labels=("I", "II", "I"))


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


def _row_template_text(z):
    """The former writer: all n * n entries formatted, one ``%`` template
    per row (the reference for the upper-triangle writer)."""
    n = z.n_ports
    row = " ".join(["%.12g%+.12gj"] * n)
    sym = np.where(z.z == z.z.T, z.z, z.z / 2 + z.z.T / 2)
    parts = np.stack([sym.real, sym.imag], axis=-1).reshape(n, -1).tolist()
    lines = [f"frequency = {z.frequency / 1e6:.12g} MHz",
             "ports = " + " ".join(z.port_labels)]
    lines += [row % tuple(values) for values in parts]
    return "\n".join(lines) + "\n"


def _dense_scattering(z, z_c):
    """Kurokawa's K as the product of the dense matrices G, Z - H*,
    (Z + H)^-1 and G^-1 (the reference for ``power_wave_scattering``)."""
    h = np.diag(z_c)
    g = np.diag(0.5 / np.sqrt(z_c.real))
    g_inv = np.diag(2.0 * np.sqrt(z_c.real))
    return g @ (z.z - h.conj().T) @ np.linalg.inv(z.z + h) @ g_inv


class TestMatrixFile:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 70), pool=st.lists(st.tuples(_PARTS, _PARTS), min_size=1,
                                                max_size=40),
           seed=st.integers(0, 2 ** 32 - 1), near=st.booleans())
    def test_bytes_match_the_row_template_writer(self, tmp_path, n, pool, seed, near):
        rng = np.random.default_rng(seed)
        values = np.array([complex(re, im) for re, im in pool])
        upper = np.triu(values[rng.integers(len(values), size=(n, n))])
        lower = np.triu(upper, 1).T
        if near:
            # each lower entry shrunk by less than 5e-10 per part: inside the
            # reciprocity bound, but no longer equal to its upper partner
            shrink = 1 - 5e-10 * rng.random((n, n, 2))
            lower = lower.real * shrink[..., 0] + 1j * (lower.imag * shrink[..., 1])
        z = ImpedanceMatrix(upper + lower, frequency=867e6,
                            port_labels=tuple(f"P{k}" for k in range(n)))
        save_impedance_matrix(z, tmp_path / "z.txt")
        assert (tmp_path / "z.txt").read_text() == _row_template_text(z)

    @pytest.mark.parametrize("upper, lower, token", [
        (complex(0.0, 5.0), complex(-0.0, 5.0), "0+5j"),
        (complex(-0.0, 5.0), complex(0.0, 5.0), "-0+5j"),
        (complex(3.0, -0.0), complex(3.0, 0.0), "3-0j"),
    ])
    def test_zeros_of_opposite_sign_take_the_upper_sign(self, tmp_path, upper, lower,
                                                        token):
        # the pair compares equal, so it is written as is: both places get
        # the upper entry's token (the row template wrote each its own sign)
        z = ImpedanceMatrix(np.array([[1, upper], [lower, 1]]), frequency=867e6,
                            port_labels=("I", "II"))
        save_impedance_matrix(z, tmp_path / "z.txt")
        rows = (tmp_path / "z.txt").read_text().splitlines()[2:]
        assert rows == [f"1+0j {token}", f"{token} 1+0j"]

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


_LABELS = st.text(st.characters(codec="utf-8"), min_size=1, max_size=4)


@st.composite
def _matrices(draw):
    """Reciprocal matrices of any finite entries, frequency and file-safe
    port labels, as ``ImpedanceMatrix`` accepts them."""
    n = draw(st.integers(1, 5))
    labels = tuple(draw(st.lists(_LABELS.filter(lambda label: label.split() == [label]
                                                and "#" not in label),
                                 min_size=n, max_size=n, unique=True)))
    upper = np.triu(np.reshape([complex(*draw(st.tuples(_PARTS, _PARTS)))
                                for _ in range(n * n)], (n, n)))
    near = draw(st.booleans())  # the lower triangle only within the reciprocity bound
    lower = np.triu(upper, 1).T * (1 - 4e-10 if near else 1)
    return ImpedanceMatrix(upper + lower, frequency=draw(st.floats(1.0, 1e300)),
                           port_labels=labels)


class TestMatrixFileRoundTrip:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(_matrices())
    def test_what_is_written_loads_back_and_rewrites_the_same_bytes(self, z):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.txt"), os.path.join(tmp, "b.txt")
            save_impedance_matrix(z, first)
            loaded = load_impedance_matrix(first)
            assert loaded.port_labels == z.port_labels
            assert loaded.frequency == pytest.approx(z.frequency, rel=1e-11)
            save_impedance_matrix(loaded, second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()


class TestScatteringBits:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(n=st.integers(1, 24), seed=st.integers(0, 2 ** 32 - 1), shared=st.booleans())
    def test_equals_the_dense_product(self, n, seed, shared):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        z = ImpedanceMatrix(a + a.T + 30 * np.eye(n), frequency=867e6,
                            port_labels=tuple(f"P{k}" for k in range(n)))
        z_c = rng.uniform(0.5, 60, size=n) + 1j * rng.uniform(-100, 100, size=n)
        if shared:
            z_c[:] = z_c[0]
        loads = PortLoad(z_c[0]) if shared else [PortLoad(c) for c in z_c]
        k = power_wave_scattering(z, loads)
        assert k.tobytes() == _dense_scattering(z, z_c).tobytes()

    def test_exact_zeros_equal_up_to_their_sign(self):
        # a diagonal Z leaves exact zeros off the diagonal, whose sign the
        # dense zero terms may flip
        z = ImpedanceMatrix(np.diag([20 + 5j, 35 - 60j, 50 + 0j]), frequency=867e6,
                            port_labels=("I", "II", "III"))
        z_c = np.array([2.8 - 76j, 10 + 1j, 50 + 0j])
        k = power_wave_scattering(z, [PortLoad(c) for c in z_c])
        assert np.array_equal(k, _dense_scattering(z, z_c))


def _seeded_matrix(n):
    """A well-conditioned reciprocal n-port built from seed n by elementwise
    arithmetic only, so that no BLAS routine sets its bits."""
    rng = np.random.default_rng(n)
    r = rng.normal(size=(n, n))
    x = rng.normal(scale=30.0, size=(n, n))
    labels = FINGERS if n == len(FINGERS) else tuple(f"P{k + 1}" for k in range(n))
    return ImpedanceMatrix(r + r.T + 40.0 * np.eye(n) + 0.5j * (x + x.T), frequency=867e6,
                           port_labels=labels)


# SHA-256 of the saved matrix, the coupling summary on stdout (the CSV path
# in its "wrote" line replaced by "C") and the coupling CSV, per port count
SCREEN_SHA256 = {
    5: ("2fd2743a32a62520daa5f5a8e032da624a2ef06731e3a2824ecea644647ef0f8",
        "5a92afd78d6f58c0bc08468ae6f11fad334ee4b7496eaa1c69cbd361f82d4202",
        "26bb70b505c8a6871b5ae364c3ba88168dfc0c587f0f6de4514f27070e065877"),
    64: ("ab6b717f129fce292fe5dc8d87bf15c6d882d515f16410e5f2cb0216d413aad3",
         "87fcdc83dcf0ce66a06093eec0ef39ea6ebb5ddfe47930a09515e51960546c3a",
         "8496c97fd938f56833747c9de5b3241869c56e91885526b0ec24975c60685e50"),
}


class TestPinnedScreens:
    @pytest.mark.parametrize("n", sorted(SCREEN_SHA256))
    def test_matrix_file_summary_and_csv(self, tmp_path, capsys, n):
        matrix, csv = tmp_path / "z.txt", tmp_path / "c.csv"
        save_impedance_matrix(_seeded_matrix(n), matrix)
        assert main(["coupling", "--matrix", str(matrix), "-o", str(csv)]) == 0
        stdout = capsys.readouterr().out.replace(str(csv), "C")
        digests = tuple(hashlib.sha256(data).hexdigest() for data in
                        (matrix.read_bytes(), stdout.encode(), csv.read_bytes()))
        assert digests == SCREEN_SHA256[n]


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

    @pytest.mark.parametrize("rows", [
        ["1+0j 2+0j 3+0j", "2+0j 1+0j 0+0j", "3+0j 0+0j 1+0j"],
        ["1+0j 2+0j 3+0j", "2+0j 1+0j", "3+0j 0+0j 1+0j 4+0j"],  # not square
    ])
    @pytest.mark.parametrize("bad_row", [0, 1, 2])
    def test_bad_token_names_its_line(self, tmp_path, rows, bad_row):
        # comments and blank lines between the rows keep the line numbers honest;
        # a bad token is reported before the shape of the rows is checked
        rows = list(rows)
        rows[bad_row] = rows[bad_row].replace("1+0j", "1+0x")
        text = "# header\nfrequency = 867 MHz\n\nports = I II III\n"
        text += "".join(f"{row}  # row {k}\n\n" for k, row in enumerate(rows))
        path = tmp_path / "z.txt"
        path.write_text(text)
        line = 5 + 2 * bad_row
        assert text.splitlines()[line - 1].startswith(rows[bad_row])
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:{line}: bad complex"):
            load_impedance_matrix(path)

    @pytest.mark.parametrize("header, rows, error", [
        ("frequency = 867 MHz\nports = I II III\n", "50+0j 1+0j\n1+0j 50+0j\n",
         "3 port labels for 2 ports"),
        ("frequency = 867 MHz\nports = I I\n", "50+0j 1+0j\n1+0j 50+0j\n",
         "port label 'I' is repeated"),
        ("frequency = 867 MHz\nports = I II\n", "50+0j 1+0j\n2+0j 50+0j\n",
         "impedance matrix violates reciprocity beyond 1e-9 relative"),
        ("frequency = 0.5 Hz\nports = I II\n", "50+0j 1+0j\n1+0j 50+0j\n",
         "frequency must be finite and >= 1 Hz, got 0.5"),
    ], ids=["label-count", "repeated-label", "reciprocity", "frequency"])
    def test_what_the_matrix_refuses_names_the_file(self, tmp_path, header, rows, error):
        path = tmp_path / "z.txt"
        path.write_text(header + rows)
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {error}')}$"):
            load_impedance_matrix(path)

    @pytest.mark.parametrize("header, error", [
        ("frequency = 867 MHz\nfrequency = 5 GHz\nports = I II\n",
         ":2: repeated header key 'frequency'"),
        ("frequency = 867 MHz\nports = I II\nports = III IV\n",
         ":3: repeated header key 'ports'"),
    ], ids=["frequency", "ports"])
    def test_repeated_header_key_names_its_line(self, tmp_path, header, error):
        # the second line once replaced the first
        path = tmp_path / "z.txt"
        path.write_text(header + "50+0j 1+0j\n1+0j 50+0j\n")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}{error}')}$"):
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
