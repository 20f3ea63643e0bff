"""Characteristic U-I and P-I curves of a receiver under a current sweep.

A sweep holds the steering angle at the receiver azimuth (maximal coupling
projection) and records, for each transmitter current, the reported coil
voltage magnitude and the system input power.  A fixed receiver reflects
one fixed impedance into the transmitter, so both follow from a single
unit-current operating point: the U-I curve is the line u = z_u*I and the
P-I curve the parabola p = r_in*I^2.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .circuit import Couplings, DriveSpec, Receiver, TxCoil, input_power, transmitter_voltages


@dataclass(frozen=True)
class SweepSpec:
    """Transmitter-current sweep for one receiver configuration."""

    i_min: float
    i_max: float
    steps: int
    drive: DriveSpec  # template; amplitude is overridden per sweep point
    receiver: Receiver
    couplings: Couplings
    tx: TxCoil | None = None
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
    u_tx: np.ndarray  # [V], reported coil voltage magnitude
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


@dataclass(frozen=True)
class NoiseSpec:
    """Multiplicative relative Gaussian noise, reproducible from the seed."""

    relative_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.relative_sigma < 0.0:
            raise ValueError("relative_sigma must be >= 0")


def evaluate_point(spec: SweepSpec, i_tx):
    """Noiseless (u_tx, p_in) of the sweep configuration at current(s) i_tx.

    The circuit is solved once, at 1 A.  The reported voltage is that of the
    coil carrying the larger share of the drive current at the sweep
    steering angle (coil A on ties); i_tx may be a scalar or an array.
    """
    i_tx = np.asarray(i_tx, dtype=float)
    if np.any(i_tx < 0.0):
        raise ValueError("i_tx must be >= 0")
    unit = replace(spec.drive, amplitude=1.0)
    u_a, u_b = transmitter_voltages(unit, spec.couplings, spec.receiver, spec.tx)
    steering = spec.drive.steering
    z_u = abs(u_a) if abs(math.sin(steering)) >= abs(math.cos(steering)) else abs(u_b)
    r_in = input_power(unit, spec.couplings, spec.receiver, spec.tx)
    return z_u * i_tx, r_in * i_tx * i_tx


def sweep_curve(spec: SweepSpec) -> CharacteristicCurve:
    """Evaluate the noiseless characteristic curve for one receiver."""
    currents = np.linspace(spec.i_min, spec.i_max, spec.steps)
    u, p = evaluate_point(spec, currents)
    return CharacteristicCurve(label=spec.label, i_tx=currents, u_tx=u, p_in=p)


def curves_to_csv(curves: list[CharacteristicCurve]) -> str:
    """Render curves in the interchange CSV layout, one row per point."""
    out = io.StringIO()
    out.write("label,i_tx_A,u_tx_V,p_in_W\n")
    for curve in curves:
        for i, u, p in zip(curve.i_tx, curve.u_tx, curve.p_in):
            out.write(f"{curve.label},{i:.12f},{u:.12f},{p:.12f}\n")
    return out.getvalue()


def curves_from_csv(text: str) -> list[CharacteristicCurve]:
    """Parse the interchange CSV layout back into curves (grouped by label)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "label,i_tx_A,u_tx_V,p_in_W":
        raise ValueError("missing or malformed curve CSV header")
    grouped: dict[str, list[tuple[float, float, float]]] = {}
    order: list[str] = []
    for ln in lines[1:]:
        label, i, u, p = ln.split(",")
        if label not in grouped:
            grouped[label] = []
            order.append(label)
        grouped[label].append((float(i), float(u), float(p)))
    curves = []
    for label in order:
        pts = grouped[label]
        curves.append(
            CharacteristicCurve(
                label=label,
                i_tx=np.array([p[0] for p in pts]),
                u_tx=np.array([p[1] for p in pts]),
                p_in=np.array([p[2] for p in pts]),
            )
        )
    return curves
