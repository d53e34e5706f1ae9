"""Inter-sensor coupling analysis and turn-on power budget.

Converts a multiport antenna impedance matrix into the power-wave
(Kurokawa) scattering matrix referenced to the complex chip impedances,
normalizes its magnitudes for cross-sensitivity screening, and provides
a single-stage turn-on power estimate.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .errors import DataError, NumericalError, SingularMatrixError
from .files import csv_text, is_utf8_text, read_text, write_text
from .hand import FINGERS
from .units import parse_quantity
from .value import Value, _set

RECIPROCITY_RTOL = 1e-9

# Normalized coupling-magnitude reference for the five-finger array at
# 867 MHz (percent of the strongest port reflection). Shipped as the
# default screening fixture; magnitude-only, so usable with
# normalize_coupling but not with power_wave_scattering.
REFERENCE_COUPLING_MAGNITUDES = np.array([
    [98.74, 0.15, 0.09, 0.04, 0.01],
    [0.15, 88.71, 2.89, 0.43, 0.05],
    [0.09, 2.89, 91.38, 0.86, 0.01],
    [0.04, 0.43, 0.86, 97.00, 0.08],
    [0.01, 0.05, 0.53, 0.08, 100.00],
])


class PortLoad(Value):
    """Complex termination impedance of one port (the chip)."""

    __slots__ = ("z_c",)

    def __init__(self, z_c: complex):
        _set(self, "z_c", z_c)
        if not (cmath.isfinite(z_c) and z_c.real > 0):
            raise DataError(f"port load must be finite with positive resistance, got {z_c}")


class ImpedanceMatrix(Value):
    """Multiport impedance matrix with port bookkeeping.

    Reciprocity (z[j][k] == z[k][j]) is enforced on construction to
    within a relative tolerance of 1e-9.
    """

    __slots__ = ("z", "frequency", "port_labels")

    def __init__(self, z: np.ndarray, frequency: float, port_labels: tuple = FINGERS):
        z = np.asarray(z, dtype=complex)
        _set(self, "z", z)
        _set(self, "frequency", frequency)
        _set(self, "port_labels", port_labels)
        if z.ndim != 2 or z.shape[0] != z.shape[1] or z.shape[0] < 1:
            raise DataError(f"impedance matrix must be square N>=1, got shape {z.shape}")
        if len(port_labels) != z.shape[0]:
            raise DataError(f"{len(port_labels)} port labels for {z.shape[0]} ports")
        seen = set()
        for label in port_labels:
            # the file format separates labels by whitespace and ends a line at '#'
            if not is_utf8_text(label) or label.split() != [label] or "#" in label:
                raise DataError(f"port label {label!r} is no UTF-8 text, is empty "
                                f"or holds whitespace or '#'")
            if label in seen:
                raise DataError(f"port label {label!r} is repeated")
            seen.add(label)
        if not np.isfinite(z).all():
            raise DataError("impedance matrix has a non-finite entry")
        # the file keeps MHz to 12 digits: far below 1 Hz that reads back as 0
        if not 1 <= frequency < math.inf:
            raise DataError(f"frequency must be finite and >= 1 Hz, got {frequency}")
        scale = np.abs(z).max()
        if scale > 0 and np.abs(z - z.T).max() > RECIPROCITY_RTOL * scale:
            raise DataError("impedance matrix violates reciprocity beyond 1e-9 relative")

    @property
    def n_ports(self) -> int:
        return self.z.shape[0]


class CouplingReport(Value):
    """Normalized coupling magnitudes and the worst off-diagonal ratio."""

    __slots__ = ("normalized_magnitudes", "max_offdiag_ratio")

    def __init__(self, normalized_magnitudes: np.ndarray, max_offdiag_ratio: float):
        _set(self, "normalized_magnitudes", normalized_magnitudes)
        _set(self, "max_offdiag_ratio", max_offdiag_ratio)


def _loads_as_array(loads: PortLoad | Sequence[PortLoad], n_ports: int) -> np.ndarray:
    if isinstance(loads, PortLoad):
        loads = [loads] * n_ports
    if len(loads) != n_ports:
        raise DataError(f"{len(loads)} loads for {n_ports} ports")
    return np.array([load.z_c for load in loads], dtype=complex)


def power_wave_scattering(z: ImpedanceMatrix,
                          loads: PortLoad | Sequence[PortLoad]) -> np.ndarray:
    """Kurokawa generalized scattering matrix for complex port loads.

    K = G (Z - H^+) (Z + H)^-1 G^-1 with H = diag(z_c) and
    G = diag(0.5 / sqrt(Re z_c)). A conjugate-matched port reflects
    nothing; port-to-port entries quantify inter-sensor coupling.

    Z + H is inverted once. Its 1-norm condition number
    ``||Z + H||_1 * ||(Z + H)^-1||_1`` is taken from that inverse, and
    ``SingularMatrixError`` is raised when it is not finite or exceeds
    1/eps. When the LU factorisation meets a zero pivot, it is ``inf``.
    """
    z_c = _loads_as_array(loads, z.n_ports)
    a = z.z + np.diag(z_c)
    try:
        inverse = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        condition = math.inf
    else:
        # an inverse that holds inf or NaN, or norms whose product
        # overflows, give a condition that is not finite: refused below
        with np.errstate(all="ignore"):
            condition = float(np.abs(a).sum(axis=0).max()
                              * np.abs(inverse).sum(axis=0).max())
    if not condition <= 1.0 / np.finfo(float).eps:
        raise SingularMatrixError(
            f"Z + H is singular or near-singular (1-norm condition {condition:.3e})",
            condition=condition)
    # the diagonal G and G^-1 scale rows and columns: the products of the
    # dense diagonal matrices, without their zero terms
    root = np.sqrt(z_c.real)
    left = (z.z - np.diag(z_c.conj())) * (0.5 / root)[:, None]
    return (left @ inverse) * (2.0 * root)


def normalize_coupling(k: np.ndarray) -> CouplingReport:
    """Scale |K| so the strongest entry reads 100 and report the worst
    off-diagonal-to-peak ratio."""
    k = np.asarray(k)
    mags = np.abs(k.astype(complex))
    peak = mags.max()
    if peak == 0:
        raise DataError("all-zero coupling matrix cannot be normalized")
    normalized = 100.0 * mags / peak
    off = mags - np.diag(np.diag(mags))
    max_offdiag_ratio = off.max() / peak
    return CouplingReport(normalized_magnitudes=normalized,
                          max_offdiag_ratio=float(max_offdiag_ratio))


def turn_on_power(tau: float, transducer_gain: float, ic_sensitivity: float) -> float:
    """Minimum reader feed power (watts) that activates the chip.

    Single-stage budget: the reader must overcome the transducer gain of
    the on-body link and the power-transfer coefficient of the tag front
    end before the chip sees its sensitivity threshold.
    """
    if not 0 < tau <= 1:
        raise DataError(f"tau must be in (0, 1], got {tau}")
    if transducer_gain <= 0:
        raise DataError(f"transducer gain must be positive, got {transducer_gain}")
    if ic_sensitivity <= 0:
        raise DataError(f"IC sensitivity must be positive, got {ic_sensitivity}")
    link = transducer_gain * tau
    power = ic_sensitivity / link if link > 0 else math.inf
    if power == math.inf:
        raise NumericalError(f"turn-on power overflows at tau={tau}, "
                             f"transducer gain {transducer_gain}")
    return power


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_impedance_matrix(path) -> ImpedanceMatrix:
    """Read the plain-text complex matrix format.

    Header lines ``frequency = 867 MHz`` and ``ports = I II III IV V``
    followed by one row per port of whitespace-separated ``re+imj``
    tokens. ``#`` starts a comment, and a repeated header key is refused.
    Each row is converted as it is read, so a bad token names its line.
    """
    header = {}  # the value of each header key, which may be given once
    rows, linenos = [], []  # the entries of each matrix row, and its line
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and not rows:
            key, _, value = line.partition("=")
            key = key.strip()
            if key in header:
                raise DataError(f"{path}:{lineno}: repeated header key {key!r}")
            if key == "frequency":
                try:
                    header[key] = parse_quantity(value.strip(), "frequency")
                except DataError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
            elif key == "ports":
                header[key] = tuple(value.split())
            else:
                raise DataError(f"{path}:{lineno}: unknown header key {key!r}")
            continue
        try:
            rows.append(list(map(complex, line.split())))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: bad complex token") from exc
        linenos.append(lineno)
    if header.keys() != {"frequency", "ports"} or not rows:
        raise DataError(f"{path}: need frequency, ports and matrix rows")
    if any(len(r) != len(rows) for r in rows):
        raise DataError(f"{path}: matrix rows are not square")
    z = np.array(rows, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(z).all(axis=1))
    if bad.size:
        raise DataError(f"{path}:{linenos[bad[0]]}: non-finite complex token")
    try:
        return ImpedanceMatrix(z, frequency=header["frequency"], port_labels=header["ports"])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def save_impedance_matrix(z: ImpedanceMatrix, path) -> None:
    """Write the format ``load_impedance_matrix`` reads, 12 significant digits.

    The symmetric part ``(z + z.T) / 2`` is written, so that rounding cannot
    push a pair past the reciprocity bound on reading. It is taken from
    halves, which cannot overflow, and a pair that is already equal keeps
    the upper entry's bits (so a pair of zeros of opposite sign is written
    with the upper one's sign). Only the upper triangle is formatted, by
    one ``%`` template over Python floats; each token fills both places of
    its pair in an ``(n, n)`` grid, whose rows are the file's lines.
    """
    n = z.n_ports
    upper = np.triu_indices(n)
    above, below = z.z[upper], z.z.T[upper]
    sym = np.where(above == below, above, above / 2 + below / 2)
    tokens = (" ".join(["%.12g%+.12gj"] * len(sym))
              % tuple(np.stack([sym.real, sym.imag], axis=-1).ravel().tolist())).split(" ")
    full = np.empty((n, n), dtype=object)
    full[upper] = full.T[upper] = tokens
    lines = [f"frequency = {z.frequency / 1e6:.12g} MHz",
             "ports = " + " ".join(z.port_labels)]
    lines += map(" ".join, full.tolist())
    write_text(path, "\n".join(lines) + "\n")


def export_coupling_csv(report: CouplingReport, port_labels: Sequence[str], path) -> None:
    """Write the normalized magnitudes as CSV with labelled rows/columns."""
    rows = ([label] + [f"{v:.6g}" for v in row]
            for label, row in zip(port_labels, report.normalized_magnitudes))
    write_text(path, csv_text(["port"] + list(port_labels), rows))


def coupling_summary(report: CouplingReport, port_labels: Sequence[str]) -> str:
    """Human-readable one-screen summary of a coupling report."""
    lines = ["Normalized coupling magnitudes (peak = 100):"]
    header = "      " + "".join(f"{p:>9}" for p in port_labels)
    lines.append(header)
    for label, row in zip(port_labels, report.normalized_magnitudes):
        lines.append(f"{label:>5} " + "".join(f"{v:9.2f}" for v in row))
    pct = 100.0 * report.max_offdiag_ratio
    lines.append(f"Worst off-diagonal coupling: {pct:.2f}% of the peak entry")
    verdict = "negligible" if report.max_offdiag_ratio <= 0.03 else "significant"
    lines.append(f"Cross-sensitivity assessment: {verdict}")
    return "\n".join(lines)
