import math
from dataclasses import replace

import numpy as np
import pytest

from wptmod import circuit
from wptmod.circuit import (
    CoilReceiver,
    Couplings,
    DriveSpec,
    MetalReceiver,
    TxCoil,
    default_tx_coil,
    equivalence_constants,
    input_power,
    reduced_counterpart,
    resonant_capacitance,
    solve_from_drive,
    solve_full_system,
    transmitter_voltages,
)
from wptmod.errors import EquivalenceViolationError, SingularityError

OMEGA = 2.0 * math.pi * 20e3


def resonant_coil_receiver(resistance, load):
    """10 uH receiver coil resonated at OMEGA with the given copper loss and load."""
    return CoilReceiver(resistance, 10e-6, resonant_capacitance(10e-6, OMEGA), load)


def random_operating_point(rng, metal=False):
    drive = DriveSpec(
        angular_frequency=OMEGA,
        amplitude=rng.uniform(0.1, 10.0),
        steering=rng.uniform(0.0, 2.0 * math.pi),
    )
    couplings = Couplings(rng.uniform(-1e-6, 1e-6), rng.uniform(-1e-6, 1e-6))
    tx = default_tx_coil(resistance=rng.uniform(0.01, 1.0))
    if metal:
        rx = MetalReceiver(r_m=rng.uniform(1e-6, 1e-2), l_m=rng.uniform(1e-10, 1e-7))
    else:
        rx = CoilReceiver(
            resistance=rng.uniform(0.01, 1.0),
            inductance=10e-6,
            capacitance=resonant_capacitance(10e-6, OMEGA) * rng.uniform(0.8, 1.2),
            load=rng.uniform(0.5, 20.0),
        )
    return drive, couplings, rx, tx


def solve_point(drive, couplings=Couplings(0.0, 0.0), rx=None, tx=None):
    """solve_from_drive with a default receiver and transmitter coil."""
    rx = rx or resonant_coil_receiver(0.1, 4.5)
    return solve_from_drive(drive, couplings, rx, tx or default_tx_coil())


class TestDecomposition:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (0.0, (0.0, 10.0)),
            (math.pi / 2, (10.0, 0.0)),
            (math.pi / 4, (10.0 / math.sqrt(2.0), 10.0 / math.sqrt(2.0))),
        ],
    )
    def test_examples(self, theta, expected):
        sol = solve_point(DriveSpec(amplitude=10.0, steering=theta))
        assert sol.i_a == pytest.approx(expected[0], abs=1e-12)
        assert sol.i_b == pytest.approx(expected[1], abs=1e-12)

    def test_amplitude_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            amp = rng.uniform(0.0, 10.0)
            sol = solve_point(DriveSpec(amplitude=amp, steering=rng.uniform(0, 7)))
            assert math.hypot(sol.i_a, sol.i_b) == pytest.approx(amp)


class TestReceiverCurrent:
    def test_no_coupling(self):
        drive = DriveSpec(amplitude=5.0, steering=0.3)
        assert solve_point(drive).i_c == 0.0

    def test_orthogonal_null(self):
        couplings = Couplings(1e-6, 1e-6)
        theta = -couplings.axis_angle  # sin(theta + offset) = 0
        drive = DriveSpec(amplitude=5.0, steering=theta)
        assert abs(solve_point(drive, couplings).i_c) < 1e-18

    def test_matches_full_solve(self):
        rng = np.random.default_rng(5)
        for metal in (False, True):
            for _ in range(50):
                drive, couplings, rx, tx = random_operating_point(rng, metal)
                ref = solve_from_drive(drive, couplings, rx, tx)
                sol = solve_full_system(
                    ref.u_a, ref.u_b, couplings, rx, tx, drive.angular_frequency
                )
                assert sol.i_a == pytest.approx(ref.i_a, rel=1e-9, abs=1e-15)
                assert sol.i_b == pytest.approx(ref.i_b, rel=1e-9, abs=1e-15)
                assert sol.i_c == pytest.approx(ref.i_c, rel=1e-9, abs=1e-15)

    def test_zero_receiver_impedance(self):
        drive = DriveSpec(amplitude=1.0)
        with pytest.raises(SingularityError):
            solve_point(drive, Couplings(1e-6, 0.0), MetalReceiver(0.0, 0.0))


class TestInputPower:
    def test_decoupled_copper_loss(self):
        drive = DriveSpec(amplitude=4.0, steering=1.0)
        tx = default_tx_coil(resistance=0.25)
        rx = resonant_coil_receiver(0.1, 4.5)
        assert input_power(drive, Couplings(0.0, 0.0), rx, tx) == pytest.approx(
            16.0 * 0.25
        )

    def test_quadratic_in_drive(self):
        rng = np.random.default_rng(9)
        drive, couplings, rx, tx = random_operating_point(rng)
        p1 = input_power(drive, couplings, rx, tx)
        drive2 = DriveSpec(drive.angular_frequency, 2 * drive.amplitude, drive.steering)
        assert input_power(drive2, couplings, rx, tx) == pytest.approx(4.0 * p1, rel=1e-12)

    def test_power_balance_oracle(self):
        rng = np.random.default_rng(13)
        for metal in (False, True):
            for _ in range(100):
                drive, couplings, rx, tx = random_operating_point(rng, metal)
                p = input_power(drive, couplings, rx, tx)
                sol = solve_from_drive(drive, couplings, rx, tx)
                assert p == pytest.approx(sol.p_in, rel=1e-9)


class TestTransmitterVoltages:
    def test_decoupled_resonant(self):
        drive = DriveSpec(amplitude=3.0, steering=0.7)
        tx = default_tx_coil(resistance=0.5)
        rx = resonant_coil_receiver(0.1, 4.5)
        u_a, u_b = transmitter_voltages(drive, Couplings(0.0, 0.0), rx, tx)
        assert u_a == pytest.approx(3.0 * 0.5 * math.sin(0.7), rel=1e-12)
        assert u_b == pytest.approx(3.0 * 0.5 * math.cos(0.7), rel=1e-12)

    def test_reflected_term_vanishes_at_null(self):
        couplings = Couplings(2e-6, -1e-6)
        theta = -couplings.axis_angle
        drive = DriveSpec(amplitude=3.0, steering=theta)
        tx = default_tx_coil(resistance=0.5)
        rx = resonant_coil_receiver(0.1, 4.5)
        u_a, u_b = transmitter_voltages(drive, couplings, rx, tx)
        assert abs(u_a.imag) < 1e-12 and abs(u_b.imag) < 1e-12


class TestFullSolve:
    def test_zero_sources(self):
        rx = resonant_coil_receiver(0.1, 4.5)
        sol = solve_full_system(0.0, 0.0, Couplings(1e-6, 2e-6), rx, default_tx_coil(), OMEGA)
        assert sol.i_a == 0.0 and sol.i_b == 0.0 and sol.i_c == 0.0

    def test_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            drive, couplings, rx, tx = random_operating_point(rng)
            u_a = complex(rng.normal(), rng.normal())
            u_b = complex(rng.normal(), rng.normal())
            sol = solve_full_system(u_a, u_b, couplings, rx, tx, OMEGA)
            w = OMEGA
            z = tx.impedance(w)
            r1 = z * sol.i_a - 1j * w * couplings.m_ac * sol.i_c - u_a
            r2 = z * sol.i_b - 1j * w * couplings.m_bc * sol.i_c - u_b
            r3 = (
                1j * w * couplings.m_ac * sol.i_a
                + 1j * w * couplings.m_bc * sol.i_b
                - rx.impedance(w) * sol.i_c
            )
            scale = max(abs(u_a), abs(u_b), 1.0)
            assert abs(r1) < 1e-12 * scale
            assert abs(r2) < 1e-12 * scale
            assert abs(r3) < 1e-12 * scale


def reduced_point(m, rx, tx, amplitude):
    """Reduced point at coupling m: only coil B couples, and steering 0 drives it alone."""
    drive = DriveSpec(OMEGA, amplitude, 0.0)
    return reduced_counterpart(solve_from_drive(drive, Couplings(0.0, m), rx, tx))


class TestSingleCoil:
    def test_decoupled(self):
        tx = default_tx_coil(resistance=0.2)
        sol = reduced_point(0.0, resonant_coil_receiver(0.1, 4.5), tx, amplitude=5.0)
        assert sol.u_a == pytest.approx(1.0)
        assert sol.i_c == 0.0

    def test_metal_reflected_impedance_passive(self):
        tx = default_tx_coil(resistance=0.2)
        rx = MetalReceiver(r_m=1e-4, l_m=1e-8)
        sol = reduced_point(1e-7, rx, tx, amplitude=1.0)
        z_total = sol.u_a / sol.i_a
        assert (z_total - tx.impedance(OMEGA)).real > 0.0

    def test_matches_two_by_two_solve(self):
        # the 2x2 KVL system driven by the source voltage the reduction reports
        # must give back its primary and secondary currents
        rng = np.random.default_rng(23)
        for _ in range(50):
            tx = default_tx_coil(resistance=rng.uniform(0.01, 1.0))
            rx = resonant_coil_receiver(rng.uniform(0.01, 1.0), rng.uniform(0.5, 20.0))
            m = rng.uniform(1e-8, 1e-6)
            sol = reduced_point(m, rx, tx, amplitude=rng.uniform(0.1, 10.0))
            w = OMEGA
            a = np.array(
                [[tx.impedance(w), -1j * w * m], [1j * w * m, -rx.impedance(w)]],
                dtype=complex,
            )
            i1, i2 = np.linalg.solve(a, np.array([sol.u_a, 0.0], dtype=complex))
            assert sol.i_a == pytest.approx(i1, rel=1e-12)
            assert sol.i_c == pytest.approx(i2, rel=1e-12)


class TestEquivalence:
    def test_unit_construction(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            drive, couplings, rx, tx = random_operating_point(rng)
            full = solve_from_drive(drive, couplings, rx, tx)
            reduced = reduced_counterpart(full)
            consts = equivalence_constants(full, reduced)
            for k in consts.as_tuple():
                assert k == pytest.approx(1.0, rel=1e-9)

    def test_scaled_source(self):
        rng = np.random.default_rng(31)
        drive, couplings, rx, tx = random_operating_point(rng)
        full = solve_from_drive(drive, couplings, rx, tx)
        half_drive = replace(drive, amplitude=drive.amplitude / 2.0)
        half = reduced_counterpart(solve_from_drive(half_drive, couplings, rx, tx))
        consts = equivalence_constants(full, half)
        # linear circuit: halving the drive doubles the voltage/current ratios
        assert consts.k1 == pytest.approx(2.0, rel=1e-9)
        assert consts.k2 == pytest.approx(2.0, rel=1e-9)
        assert consts.k4 == pytest.approx(2.0, rel=1e-9)
        assert consts.k3 == pytest.approx(1.0, rel=1e-9)
        assert consts.k5 == pytest.approx(1.0, rel=1e-9)
        assert consts.k6 == pytest.approx(1.0, rel=1e-9)

    def test_mismatched_receiver_raises(self):
        rng = np.random.default_rng(41)
        drive, couplings, rx, tx = random_operating_point(rng)
        full = solve_from_drive(drive, couplings, rx, tx)
        other_rx = resonant_coil_receiver(0.3, 1.5)
        bad = reduced_counterpart(solve_from_drive(drive, couplings, other_rx, tx))
        with pytest.raises(EquivalenceViolationError):
            equivalence_constants(full, bad)

    def test_reduction_reads_input_impedance(self, monkeypatch):
        # the reduced source voltage is I*Z_in from input_impedance, so a Z_in
        # off by 1e-6 must break the equivalence acceptance criterion 2 checks
        rng = np.random.default_rng(43)
        drive, couplings, rx, tx = random_operating_point(rng)
        full = solve_from_drive(drive, couplings, rx, tx)
        real = circuit.input_impedance
        monkeypatch.setattr(circuit, "input_impedance", lambda *a: real(*a) * (1 + 1e-6))
        with pytest.raises(EquivalenceViolationError):
            equivalence_constants(full, reduced_counterpart(full))

    def test_theta_grid(self):
        rng = np.random.default_rng(37)
        couplings = Couplings(3e-7, -5e-7)
        rx = resonant_coil_receiver(0.05, 4.5)
        tx = default_tx_coil(resistance=0.05)
        for theta in np.linspace(0.01, 2 * math.pi, 64, endpoint=False):
            drive = DriveSpec(OMEGA, 4.0, float(theta))
            full = solve_from_drive(drive, couplings, rx, tx)
            consts = equivalence_constants(full, reduced_counterpart(full))
            assert max(abs(k - 1.0) for k in consts.as_tuple()) < 1e-9


def ratio_solutions(k1, k2, k3, k4, k5, k6):
    """A full and a reduced solution whose six equivalence ratios are exactly k1..k6.

    At steering 0 and omega 1, each ratio has the denominator 1 + 0j or 1.0,
    and a branch with R = L = C = 1 has the reactance 1 - 1 = 0.
    """
    full = circuit.PhasorSolution(
        i_a=0j, i_b=0j, i_c=complex(k2), u_a=0j, u_b=complex(k1), p_in=0.0, omega=1.0,
        drive=DriveSpec(1.0, k4, 0.0), couplings=Couplings(0.0, k3),
        receiver=MetalReceiver(k6, 0.0), tx=TxCoil(k5, 1.0, 1.0),
    )
    reduced = circuit.PhasorSolution(
        i_a=1 + 0j, i_b=0j, i_c=1 + 0j, u_a=1 + 0j, u_b=0j, p_in=0.0, omega=1.0,
        receiver=MetalReceiver(1.0, 0.0), tx=TxCoil(1.0, 1.0, 1.0), reduced_m=1.0,
    )
    return full, reduced


class TestEquivalenceTolerance:
    # each check admits a gap of exactly _EQUIVALENCE_TOL times its scale (1 here)
    # and refuses one a float past it
    TOL = circuit._EQUIVALENCE_TOL

    def test_real_ratio(self):
        # abs(1 + 1e-9j) rounds to 1.0, so the scale is 1 and the imaginary part the gap
        assert circuit._real_ratio(complex(1.0, self.TOL), 1.0) == 1.0
        with pytest.raises(EquivalenceViolationError, match="is not real within"):
            circuit._real_ratio(complex(1.0, math.nextafter(self.TOL, 1.0)), 1.0)

    @pytest.mark.parametrize(
        "ratios",
        [
            lambda t: (t, 0.0, 0.0, t, 1.0, 1.0),  # k1 - k2*k3 = t
            lambda t: (t, t, 1.0, 0.0, 1.0, 0.5),  # k1 - k4*k5 = t
            lambda t: (0.0, t, 0.0, 0.0, 1.0, 1.0),  # k3*k4 - k2*k6 = -t
        ],
        ids=["k1_k2k3", "k1_k4k5", "k3k4_k2k6"],
    )
    def test_consistency_checks(self, ratios):
        k = ratios(self.TOL)
        assert equivalence_constants(*ratio_solutions(*k)).as_tuple() == k
        with pytest.raises(EquivalenceViolationError, match="inconsistent"):
            equivalence_constants(*ratio_solutions(*ratios(math.nextafter(self.TOL, 1.0))))


class TestResonance:
    def test_reactance_null(self):
        tx = default_tx_coil()
        assert abs(tx.reactance(OMEGA)) <= 1e-12 * OMEGA * tx.inductance

    def test_capacitance_value(self):
        # 1/(w^2 L) for 10 uH at 20 kHz is ~6.33 uF, not the nominal 6.6 uF
        c = resonant_capacitance(10e-6, OMEGA)
        assert c == pytest.approx(6.3326e-6, rel=1e-4)
        off = TxCoil(0.1, 10e-6, 6.6e-6)
        assert abs(off.reactance(OMEGA)) > 1e-3 * OMEGA * off.inductance


class TestCouplingsHelpers:
    def test_projection_max_at_azimuth(self):
        c = Couplings(1e-6 * math.sin(0.8), 1e-6 * math.cos(0.8))
        thetas = np.linspace(0, 2 * math.pi, 400)
        projections = [c.projection(t) for t in thetas]
        assert c.projection(0.8) == pytest.approx(max(projections), rel=1e-4)
        assert c.projection(0.8) == pytest.approx(1e-6)

    def test_invariants(self):
        with pytest.raises(ValueError):
            Couplings(float("nan"), 0.0)
        with pytest.raises(ValueError):
            DriveSpec(amplitude=-1.0)


class TestLibraryGuards:
    # a scenario never reaches these guards, since the schema domain refuses
    # the same values at parse time; each is tested at its first refused value

    @pytest.mark.parametrize("field", ["resistance", "inductance", "capacitance"])
    def test_tx_coil_refuses_zero(self, field):
        with pytest.raises(ValueError, match="^TxCoil parameters must be strictly positive$"):
            replace(default_tx_coil(), **{field: 0.0})

    @pytest.mark.parametrize("field", ["resistance", "inductance", "capacitance", "load"])
    def test_coil_receiver_refuses_zero(self, field):
        message = "^CoilReceiver parameters must be strictly positive$"
        with pytest.raises(ValueError, match=message):
            replace(resonant_coil_receiver(0.1, 4.5), **{field: 0.0})

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"angular_frequency": 0.0}, "angular_frequency must be > 0"),
            ({"amplitude": -5e-324}, "amplitude must be >= 0"),
        ],
        ids=["angular_frequency", "amplitude"],
    )
    def test_drive_refuses_first_invalid_value(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DriveSpec(**values)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda full, driven: reduced_counterpart(full), "full solution must carry"),
            (
                lambda full, driven: equivalence_constants(full, reduced_counterpart(driven)),
                "full solution must carry",
            ),
            (
                lambda full, driven: equivalence_constants(driven, driven),
                "reduced solution must come from reduced_counterpart",
            ),
        ],
        ids=["reduced_counterpart", "equivalence_full", "equivalence_reduced"],
    )
    def test_equivalence_refuses_solution_it_cannot_map(self, call, message):
        # solve_full_system is voltage driven: its solution carries no drive
        couplings = Couplings(1e-7, 2e-7)
        rx, tx = resonant_coil_receiver(0.1, 4.5), default_tx_coil()
        full = solve_full_system(1.0, 0.5, couplings, rx, tx, OMEGA)
        driven = solve_from_drive(DriveSpec(OMEGA, 1.0, 0.3), couplings, rx, tx)
        with pytest.raises(ValueError, match=f"^{message}"):
            call(full, driven)
