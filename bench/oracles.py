"""Independent correctness checks the benchmark runs outside its timed region."""

from __future__ import annotations

import json
import math
from pathlib import Path

MU0 = 4.0e-7 * math.pi

COUPLING_RTOL = 1e-3
POWER_RTOL = 1e-9
IMPEDANCE_RTOL = 1e-8


def grover_coaxial_squares(a: float, b: float, h: float, n1: int, n2: int) -> float:
    """Exact mutual inductance of two coaxial parallel square loops.

    Half sides a and b, axial separation h.  Perpendicular sides contribute
    nothing; each pair of parallel centred straight filaments at distance d
    has the closed form built from F(u) = u*asinh(u/d) - sqrt(u^2 + d^2)
    (Grover, Inductance Calculations, 1946).  Every side of one loop sees one
    co-directed side at d1 = sqrt((a-b)^2 + h^2) and one counter-directed side
    at d2 = sqrt((a+b)^2 + h^2).
    """

    def pair(d: float) -> float:
        def f(u: float) -> float:
            return u * math.asinh(u / d) - math.hypot(u, d)

        return 2.0 * f(a + b) - 2.0 * f(a - b)

    d1 = math.hypot(a - b, h)
    d2 = math.hypot(a + b, h)
    return n1 * n2 * MU0 / math.pi * (pair(d1) - pair(d2))


def coupling_error(m: float, a: float, b: float, h: float, n1: int, n2: int) -> str | None:
    """Message when a coil coupling is off the exact form by more than 1e-3."""
    exact = grover_coaxial_squares(a, b, h, n1, n2)
    rel = abs(m - exact) / abs(exact)
    if not rel <= COUPLING_RTOL:
        return f"coil coupling {m:.6e} H vs exact {exact:.6e} H (rel {rel:.2e})"
    return None


def material_table(root: Path) -> dict[str, tuple[float, float]]:
    """(conductivity, default mu_r) by lowercase name and alias, read from the data file."""
    table = {}
    for entry in json.loads((root / "src/wptmod/data/materials.json").read_text()):
        props = (entry["conductivity_S_per_m"], entry.get("mu_r", 1.0))
        for key in [entry["name"], *entry.get("aliases", [])]:
            table[key.lower()] = props
    return table


def plate_impedance_exact(
    half_side: float, turns: int, distance: float, omega: float, sigma: float, mu_r: float
) -> complex:
    """Plate equivalent impedance R_m + j*omega*L_m by fixed quadrature.

    Same spectral integral as the program (Dodd-Deeds kernel times
    exp(-2kd) times [N a J1(ka)]^2), evaluated independently: composite
    8-node Gauss-Legendre on 100 panels over [0, 40/d], where the decay
    factor is below 1e-34, and J1 by the trapezoid rule on its periodic
    integral (1/2pi) * int cos(t - x sin t) dt, exact to rounding once the
    node count exceeds x + 40.
    """
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(8)
    edges = np.linspace(0.0, 40.0 / distance, 101)
    half = np.diff(edges)[:, None] / 2.0
    k = ((edges[:-1, None] + half) + half * nodes).ravel()
    w = (half * weights).ravel()
    x = k * half_side
    m = int(x.max()) + 48
    t = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
    j1 = np.cos(t - x[:, None] * np.sin(t)).mean(axis=1)
    root = np.sqrt(k * k + 1j * omega * sigma * MU0 * mu_r)
    phi = (root - k * mu_r) / (root + k * mu_r)
    integral = np.sum(w * phi * np.exp(-2.0 * k * distance) * (turns * half_side * j1) ** 2)
    return omega * math.pi * MU0 * integral.imag + 1j * omega * math.pi * MU0 * integral.real


def impedance_error(r_m: float, l_m: float, omega: float, exact: complex) -> str | None:
    """Message when (R_m, L_m) is off the exact impedance by more than 1e-8 of |Z|."""
    z = complex(r_m, omega * l_m)
    if not abs(z - exact) <= IMPEDANCE_RTOL * abs(exact):
        return f"plate impedance {z:.9e} vs exact {exact:.9e}"
    return None


def power_error(circuit, sweep, i_tx: float) -> str | None:
    """Message when input_power disagrees with the dense 3x3 KVL solve.

    The transmitter voltages of the current-driven operating point are fed
    back into the voltage-driven solve; its input power must match to 1e-9.
    """
    from dataclasses import replace

    drive = replace(sweep.drive, amplitude=float(i_tx))
    tx = sweep.tx
    u_a, u_b = circuit.transmitter_voltages(drive, sweep.couplings, sweep.receiver, tx)
    direct = circuit.input_power(drive, sweep.couplings, sweep.receiver, tx)
    full = circuit.solve_full_system(
        u_a, u_b, sweep.couplings, sweep.receiver, tx, omega=drive.angular_frequency
    )
    rel = abs(full.p_in - direct) / max(abs(full.p_in), 1e-300)
    if not rel <= POWER_RTOL:
        return f"{sweep.label}: input_power {direct!r} vs KVL solve {full.p_in!r} at {i_tx} A"
    return None


def sweep_errors(sc, sweeps, circuit, currents, materials, exact_plates=()) -> list[str]:
    """Coupling, passivity, impedance and power checks on one scenario's sweeps.

    Plates whose label is in exact_plates are also checked against
    plate_impedance_exact; the rest only for r_m >= 0.
    """
    errors = []
    tx = sc.transmitter
    coils = {f"coil:{c.label}": c for c in sc.receiver_coils}
    plates = {f"metal:{p.label}": p for p in sc.metal_plates}
    for sweep, i_tx in zip(sweeps, currents):
        err = None
        if sweep.label in coils:
            spec = coils[sweep.label]
            err = coupling_error(
                sweep.couplings.magnitude,
                tx.half_side_m,
                spec.half_side_m,
                spec.distance_m,
                tx.turns,
                spec.turns,
            )
        elif not sweep.receiver.r_m >= 0.0:
            err = f"{sweep.label}: r_m = {sweep.receiver.r_m!r} < 0"
        elif sweep.label[len("metal:"):] in exact_plates:
            spec = plates[sweep.label]
            sigma, mu_r = materials[spec.material.lower()]
            exact = plate_impedance_exact(
                min(spec.half_side_m, tx.half_side_m),
                tx.turns,
                spec.distance_m,
                sc.omega,
                sigma,
                spec.mu_r if spec.mu_r is not None else mu_r,
            )
            err = impedance_error(sweep.receiver.r_m, sweep.receiver.l_m, sc.omega, exact)
        if err:
            errors.append(f"{sweep.label}: {err}")
        err = power_error(circuit, sweep, i_tx)
        if err:
            errors.append(err)
    return errors
