"""Phasor solution of the two-transmitter WPT circuit and its reduction.

The full model is three coupled KVL loops (coil A, coil B, receiver),
solved for a current drive by solve_from_drive.  The reduced model replaces
the orthogonal pair with a single coil coaxial to the receiver; its source
voltage is I*Z_in, with Z_in from input_impedance, the same impedance the
U-I and P-I curves use.  Receivers are either a resonant coil with a
resistive load or a metal plate with equivalent series (R_m, L_m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EquivalenceViolationError, SingularityError

DEFAULT_OMEGA = 2.0 * math.pi * 20e3  # [rad/s], the 20 kHz operating frequency
# relative tolerance of the equivalence-constant consistency checks
_EQUIVALENCE_TOL = 1e-9


@dataclass(frozen=True)
class TxCoil:
    """Series R-L-C transmitter branch."""

    resistance: float  # [ohm]
    inductance: float  # [H]
    capacitance: float  # [F]

    def __post_init__(self):
        if not (self.resistance > 0.0 and self.inductance > 0.0 and self.capacitance > 0.0):
            raise ValueError("TxCoil parameters must be strictly positive")

    def reactance(self, omega: float) -> float:
        return omega * self.inductance - 1.0 / (omega * self.capacitance)

    def impedance(self, omega: float) -> complex:
        return self.resistance + 1j * self.reactance(omega)


def resonant_capacitance(inductance: float, omega: float) -> float:
    """Series capacitance that nulls the branch reactance at omega."""
    return 1.0 / (omega * omega * inductance)


def default_tx_coil(resistance: float = 0.1) -> TxCoil:
    """10 uH coil resonated at the default 20 kHz operating frequency."""
    return TxCoil(resistance, 10e-6, resonant_capacitance(10e-6, DEFAULT_OMEGA))


@dataclass(frozen=True)
class CoilReceiver:
    """Resonant receiver coil terminated with a resistive load."""

    resistance: float  # [ohm], coil copper loss
    inductance: float  # [H]
    capacitance: float  # [F]
    load: float  # [ohm]

    def __post_init__(self):
        if not (
            self.resistance > 0.0
            and self.inductance > 0.0
            and self.capacitance > 0.0
            and self.load > 0.0
        ):
            raise ValueError("CoilReceiver parameters must be strictly positive")

    def impedance(self, omega: float) -> complex:
        x = omega * self.inductance - 1.0 / (omega * self.capacitance)
        return self.resistance + self.load + 1j * x


@dataclass(frozen=True)
class MetalReceiver:
    """Metal plate seen as an equivalent series R-L branch."""

    r_m: float  # [ohm]
    l_m: float  # [H]

    def __post_init__(self):
        if not (math.isfinite(self.r_m) and math.isfinite(self.l_m)):
            raise ValueError("r_m and l_m must be finite")
        if self.r_m < 0.0:
            raise ValueError("r_m must be >= 0")

    def impedance(self, omega: float) -> complex:
        return self.r_m + 1j * omega * self.l_m


Receiver = CoilReceiver | MetalReceiver


@dataclass(frozen=True)
class DriveSpec:
    """Transmitter current drive: amplitude, steering direction, frequency."""

    angular_frequency: float = DEFAULT_OMEGA
    amplitude: float = 0.0  # [A], composite current I
    steering: float = 0.0  # [rad]

    def __post_init__(self):
        if not self.amplitude >= 0.0:
            raise ValueError("amplitude must be >= 0")
        if not self.angular_frequency > 0.0:
            raise ValueError("angular_frequency must be > 0")


@dataclass(frozen=True)
class Couplings:
    """Mutual inductances between each transmitter coil and the receiver."""

    m_ac: float  # [H]
    m_bc: float  # [H]

    def __post_init__(self):
        if not (math.isfinite(self.m_ac) and math.isfinite(self.m_bc)):
            raise ValueError("couplings must be finite")

    @property
    def magnitude(self) -> float:
        return math.hypot(self.m_ac, self.m_bc)

    @property
    def axis_angle(self) -> float:
        """Angle whose sine aligns the drive with the receiver coupling."""
        return math.atan2(self.m_bc, self.m_ac)

    def projection(self, theta: float) -> float:
        """Effective coupling m_ac*sin(theta) + m_bc*cos(theta)."""
        return self.m_ac * math.sin(theta) + self.m_bc * math.cos(theta)


def couplings_from_coaxial(m: float, azimuth: float) -> Couplings:
    """Split a coaxial coupling onto the two orthogonal transmitter coils.

    Chosen so the coupling projection is maximal when the drive steering
    equals the receiver azimuth.
    """
    return Couplings(m_ac=m * math.sin(azimuth), m_bc=m * math.cos(azimuth))


@dataclass(frozen=True)
class PhasorSolution:
    """One steady-state operating point of the full or reduced circuit.

    For the reduced (single-coil) point built by reduced_counterpart, i_a/u_a
    hold the primary current and source voltage, i_c the secondary current and
    reduced_m the coupling; i_b and u_b are zero.
    """

    i_a: complex
    i_b: complex
    i_c: complex
    u_a: complex
    u_b: complex
    p_in: float
    omega: float
    drive: DriveSpec | None = None
    couplings: Couplings | None = None
    receiver: Receiver | None = None
    tx: TxCoil | None = None
    reduced_m: float | None = None


def _receiver_impedance(rx: Receiver, omega: float) -> complex:
    z2 = rx.impedance(omega)
    if z2 == 0.0:
        raise SingularityError("receiver impedance is zero")
    return z2


def input_impedance(drive: DriveSpec, couplings: Couplings, rx: Receiver, tx: TxCoil) -> complex:
    """Impedance z_tx + (w*m)^2/Z2 the drive sees; m is the projection at its steering.

    Z_in*I is u_a*sin(theta) + u_b*cos(theta), the reduced model's source voltage.
    """
    w = drive.angular_frequency
    m = couplings.projection(drive.steering)
    return tx.impedance(w) + (w * m) ** 2 / _receiver_impedance(rx, w)


def input_power(drive: DriveSpec, couplings: Couplings, rx: Receiver, tx: TxCoil) -> float:
    """Total input power I^2*Re(Z_in): transmitter copper loss plus receiver dissipation."""
    return drive.amplitude**2 * input_impedance(drive, couplings, rx, tx).real


def solve_from_drive(
    drive: DriveSpec,
    couplings: Couplings,
    rx: Receiver,
    tx: TxCoil,
) -> PhasorSolution:
    """Current-driven operating point of the full two-transmitter system.

    The steering splits I into i_a = I*sin(theta) and i_b = I*cos(theta); the
    receiver row gives i_c and the two transmitter rows give u_a and u_b.
    """
    w = drive.angular_frequency
    z_tx = tx.impedance(w)
    i_a = drive.amplitude * math.sin(drive.steering)
    i_b = drive.amplitude * math.cos(drive.steering)
    # |m|*sin(theta + axis_angle), not the projection sum: exactly 0 at the null steering
    eff = couplings.magnitude * math.sin(drive.steering + couplings.axis_angle)
    i_c = 1j * w * drive.amplitude * eff / _receiver_impedance(rx, w)
    u_a = z_tx * i_a - 1j * w * couplings.m_ac * i_c
    u_b = z_tx * i_b - 1j * w * couplings.m_bc * i_c
    p_in = (u_a * np.conj(i_a)).real + (u_b * np.conj(i_b)).real
    return PhasorSolution(
        i_a=i_a,
        i_b=i_b,
        i_c=i_c,
        u_a=u_a,
        u_b=u_b,
        p_in=p_in,
        omega=w,
        drive=drive,
        couplings=couplings,
        receiver=rx,
        tx=tx,
    )


def transmitter_voltages(
    drive: DriveSpec,
    couplings: Couplings,
    rx: Receiver,
    tx: TxCoil,
) -> tuple[complex, complex]:
    """Source voltage phasors (u_a, u_b) of solve_from_drive's operating point."""
    sol = solve_from_drive(drive, couplings, rx, tx)
    return sol.u_a, sol.u_b


def solve_full_system(
    u_a: complex,
    u_b: complex,
    couplings: Couplings,
    rx: Receiver,
    tx: TxCoil,
    omega: float,
) -> PhasorSolution:
    """Voltage-driven exact solve of the 3x3 coupled KVL system."""
    w = omega
    z_tx = tx.impedance(w)
    z_c = rx.impedance(w)
    m_ac, m_bc = couplings.m_ac, couplings.m_bc
    a = np.array(
        [
            [z_tx, 0.0, -1j * w * m_ac],
            [0.0, z_tx, -1j * w * m_bc],
            [1j * w * m_ac, 1j * w * m_bc, -z_c],
        ],
        dtype=complex,
    )
    rhs = np.array([u_a, u_b, 0.0], dtype=complex)
    if abs(np.linalg.det(a)) == 0.0:
        raise SingularityError("coupled KVL system matrix is singular")
    i_a, i_b, i_c = np.linalg.solve(a, rhs)
    p_in = (u_a * np.conj(i_a)).real + (u_b * np.conj(i_b)).real
    return PhasorSolution(
        i_a=complex(i_a),
        i_b=complex(i_b),
        i_c=complex(i_c),
        u_a=u_a,
        u_b=u_b,
        p_in=float(p_in),
        omega=omega,
        couplings=couplings,
        receiver=rx,
        tx=tx,
    )


@dataclass(frozen=True)
class EquivalenceConstants:
    """Scale factors relating the full system to its single-coil reduction."""

    k1: float
    k2: float
    k3: float
    k4: float
    k5: float
    k6: float

    def as_tuple(self) -> tuple[float, ...]:
        return (self.k1, self.k2, self.k3, self.k4, self.k5, self.k6)


def _real_ratio(num: complex, den: complex) -> float:
    if den == 0.0:
        raise EquivalenceViolationError("degenerate operating point: zero denominator")
    ratio = num / den
    if abs(ratio.imag) > _EQUIVALENCE_TOL * max(abs(ratio), 1.0):
        raise EquivalenceViolationError(
            f"equivalence ratio {ratio} is not real within tolerance {_EQUIVALENCE_TOL:g}"
        )
    return ratio.real


def equivalence_constants(full: PhasorSolution, reduced: PhasorSolution) -> EquivalenceConstants:
    """Constants mapping a full-system solution onto a reduced solution.

    The voltage relation uses the unambiguous steering-weighted sum
    u_a*sin(theta) + u_b*cos(theta).  Raises EquivalenceViolationError when
    the six ratios are not mutually consistent (k1 = k2*k3 = k4*k5 and
    k3*k4 = k2*k6 within _EQUIVALENCE_TOL).
    """
    if full.drive is None or full.couplings is None:
        raise ValueError("full solution must carry its drive and couplings")
    if reduced.reduced_m is None:
        raise ValueError("reduced solution must come from reduced_counterpart")
    theta = full.drive.steering
    s, c = math.sin(theta), math.cos(theta)
    w = full.omega
    k1 = _real_ratio(full.u_a * s + full.u_b * c, reduced.u_a)
    k2 = _real_ratio(full.i_c, reduced.i_c)
    k3 = full.couplings.projection(theta) / reduced.reduced_m
    k4 = _real_ratio(full.drive.amplitude, reduced.i_a)
    k5 = _real_ratio(full.tx.impedance(w), reduced.tx.impedance(w))
    k6 = _real_ratio(full.receiver.impedance(w), reduced.receiver.impedance(reduced.omega))
    consts = EquivalenceConstants(k1, k2, k3, k4, k5, k6)
    scale = max(abs(v) for v in consts.as_tuple())
    if (
        abs(k1 - k2 * k3) > _EQUIVALENCE_TOL * max(abs(k1), scale)
        or abs(k1 - k4 * k5) > _EQUIVALENCE_TOL * max(abs(k1), scale)
        or abs(k3 * k4 - k2 * k6) > _EQUIVALENCE_TOL * max(abs(k3 * k4), scale)
    ):
        raise EquivalenceViolationError(f"inconsistent equivalence constants: {consts}")
    return consts


def reduced_counterpart(full: PhasorSolution) -> PhasorSolution:
    """Unit-constant reduced operating point of a full solution.

    The single primary carries the drive amplitude I and couples to the
    receiver through m = projection(theta); its source voltage is I*Z_in, with
    Z_in from input_impedance, and the receiver carries j*w*m*I/Z2.
    """
    if full.drive is None or full.couplings is None:
        raise ValueError("full solution must carry its drive and couplings")
    drive, rx, w = full.drive, full.receiver, full.omega
    m = full.couplings.projection(drive.steering)
    i_1 = drive.amplitude
    u = i_1 * input_impedance(drive, full.couplings, rx, full.tx)
    return PhasorSolution(
        i_a=complex(i_1),
        i_b=0.0,
        i_c=1j * w * m * i_1 / _receiver_impedance(rx, w),
        u_a=u,
        u_b=0.0,
        p_in=i_1 * u.real,
        omega=w,
        receiver=rx,
        tx=full.tx,
        reduced_m=m,
    )
