"""Characteristic U-I and P-I curves of a receiver under a current sweep.

A sweep holds the steering angle at the receiver azimuth (maximal coupling
projection).  A fixed receiver reflects one fixed impedance, so both curves
follow from its input impedance Z_in (circuit.input_impedance): the U-I
curve is the line u = |Z_in|*I, the steering-weighted transmitter voltage
|u_a*sin(theta) + u_b*cos(theta)|, and the P-I curve the parabola
p = Re(Z_in)*I^2.  Neither depends on the azimuth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Couplings, DriveSpec, Receiver, TxCoil, input_impedance


@dataclass(frozen=True)
class SweepSpec:
    """Transmitter-current sweep for one receiver configuration."""

    i_min: float
    i_max: float
    steps: int
    drive: DriveSpec  # steering and frequency; the amplitude is unused
    receiver: Receiver
    couplings: Couplings
    tx: TxCoil
    label: str = ""

    def __post_init__(self):
        if not (0.0 <= self.i_min < self.i_max):
            raise ValueError("require 0 <= i_min < i_max")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")


@dataclass(frozen=True)
class CharacteristicCurve:
    """Sampled (current, voltage, power) locus for one labeled receiver."""

    label: str
    i_tx: np.ndarray  # [A], strictly increasing
    u_tx: np.ndarray  # [V], |Z_in|*I
    p_in: np.ndarray  # [W]

    def __post_init__(self):
        for name in ("i_tx", "u_tx", "p_in"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (len(self.i_tx) == len(self.u_tx) == len(self.p_in)):
            raise ValueError("curve arrays must have equal length")
        if np.any(np.diff(self.i_tx) <= 0.0):
            raise ValueError("i_tx must be strictly increasing")
        if np.any(self.u_tx < 0.0) or np.any(self.p_in < 0.0):
            raise ValueError("u_tx and p_in must be nonnegative")


def evaluate_point(spec: SweepSpec, i_tx):
    """Noiseless (|Z_in|*I, Re(Z_in)*I^2) of the sweep configuration at I = i_tx.

    i_tx may be a scalar or an array.
    """
    i_tx = np.asarray(i_tx, dtype=float)
    if not np.all(i_tx >= 0.0):
        raise ValueError("i_tx must be >= 0")
    z_in = input_impedance(spec.drive, spec.couplings, spec.receiver, spec.tx)
    return abs(z_in) * i_tx, z_in.real * i_tx * i_tx


def sweep_curve(spec: SweepSpec) -> CharacteristicCurve:
    """Evaluate the noiseless characteristic curve for one receiver."""
    currents = np.linspace(spec.i_min, spec.i_max, spec.steps)
    u, p = evaluate_point(spec, currents)
    return CharacteristicCurve(label=spec.label, i_tx=currents, u_tx=u, p_in=p)


_HEADER = "label,i_tx_A,u_tx_V,p_in_W"
_COLUMNS = _HEADER.split(",")


def curves_to_csv(curves: list[CharacteristicCurve]) -> str:
    """Render curves in the interchange CSV layout, one row per point.

    Each curve is one %-format of its row template repeated once per point;
    %.12f gives a float the same text as the format spec .12f.
    """
    parts = [_HEADER + "\n"]
    for curve in curves:
        row = curve.label.replace("%", "%%") + ",%.12f,%.12f,%.12f\n"
        values = np.column_stack([curve.i_tx, curve.u_tx, curve.p_in]).ravel().tolist()
        parts.append((row * len(curve.i_tx)) % tuple(values))
    return "".join(parts)


def curves_from_csv(text: str) -> list[CharacteristicCurve]:
    """Parse the interchange CSV layout back into curves.

    Blank lines are skipped.  Curves come in first-seen label order, and the
    rows of one label are merged in file order even where labels interleave.
    A data row that is not a label and three finite numbers raises
    ValueError naming its line number (and column).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _HEADER:
        raise ValueError("missing or malformed curve CSV header")
    rows = lines[1:]
    if not rows:
        return []
    runs: list[tuple[str, int]] = []
    try:
        # numpy parses the numbers in C, correctly rounded like float()
        data = np.loadtxt(_numbers(rows, runs), delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise _row_error(text) from exc
    if data.shape != (len(rows), 3) or not np.isfinite(data).all():
        raise _row_error(text)
    columns = np.ascontiguousarray(data.T)
    blocks: dict[str, list[np.ndarray]] = {}
    for (label, start), (_, stop) in zip(runs, runs[1:] + [("", len(rows))]):
        blocks.setdefault(label, []).append(columns[:, start:stop])
    curves = []
    for label, parts in blocks.items():
        i, u, p = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        try:
            curves.append(CharacteristicCurve(label=label, i_tx=i, u_tx=u, p_in=p))
        except ValueError as exc:
            raise ValueError(f"curves.csv curve {label!r}: {exc}") from exc
    return curves


def _numbers(rows: list[str], runs: list[tuple[str, int]]):
    """Yield each row's text after its label; record (label, first row) per run."""
    current = None
    for n, row in enumerate(rows):
        label, _, rest = row.partition(",")
        if label != current:
            runs.append((label, n))
            current = label
        # loadtxt skips an empty line (and warns when all are); make it fail instead
        yield rest or "<missing>"


def _row_error(text: str) -> ValueError:
    """The error naming the first bad data row of a curve CSV."""
    rows = ((n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip())
    next(rows)  # the header
    for lineno, line in rows:
        fields = line.split(",")
        if len(fields) != len(_COLUMNS):
            return ValueError(
                f"curves.csv line {lineno}: expected {len(_COLUMNS)} comma-separated "
                f"fields, got {len(fields)}"
            )
        for column, field in zip(_COLUMNS[1:], fields[1:]):
            try:
                # loadtxt takes neither the underscores nor the non-ASCII digits of float()
                if not field.isascii() or "_" in field:
                    raise ValueError(field)
                value = float(field)
            except ValueError:
                return ValueError(
                    f"curves.csv line {lineno}, column {column}: not a number: {field!r}"
                )
            if not math.isfinite(value):
                return ValueError(
                    f"curves.csv line {lineno}, column {column}: non-finite value {field!r}"
                )
    return ValueError("curves.csv: a data row does not parse as a label and three numbers")
