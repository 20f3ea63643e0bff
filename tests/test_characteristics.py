import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from wptmod.characteristics import (
    CharacteristicCurve,
    NoiseSpec,
    SweepSpec,
    curves_from_csv,
    curves_to_csv,
    evaluate_point,
    sweep_curve,
)
from wptmod.circuit import (
    Couplings,
    DriveSpec,
    MetalReceiver,
    default_tx_coil,
    resonant_coil_receiver,
    solve_from_drive,
    transmitter_voltages,
)
from wptmod.scenario import generate_test_samples, load_scenario

OMEGA = 2.0 * math.pi * 20e3


def make_spec(m_ac=0.0, m_bc=0.0, theta=math.pi / 4, r_tx=0.1, label="x"):
    return SweepSpec(
        i_min=0.0,
        i_max=10.0,
        steps=21,
        drive=DriveSpec(OMEGA, 1.0, theta),
        receiver=resonant_coil_receiver(0.1, 4.5),
        couplings=Couplings(m_ac, m_bc),
        tx=default_tx_coil(resistance=r_tx),
        label=label,
    )


def noisy_samples(sweeps, sigma, seed, currents=(3.0, 6.0, 9.0)):
    """generate_test_samples on given sweeps with the noise and currents set here."""
    sc = load_scenario()
    sc = replace(
        sc,
        noise=NoiseSpec(sigma, seed),
        detection=replace(sc.detection, test_currents_a=tuple(currents)),
    )
    return generate_test_samples(sc, sweeps=sweeps)


class TestSweepShapes:
    def test_decoupled_line_and_parabola(self):
        # with no coupling the voltage is R*I*sin(theta) and power is R*I^2
        spec = make_spec(theta=math.pi / 2, r_tx=0.25)
        curve = sweep_curve(spec)
        assert np.allclose(curve.u_tx, 0.25 * curve.i_tx, rtol=1e-12)
        assert np.allclose(curve.p_in, 0.25 * curve.i_tx**2, rtol=1e-12)

    def test_scaling_laws_with_coupling(self):
        spec = make_spec(m_ac=5e-7, m_bc=5e-7)
        curve = sweep_curve(spec)
        # linear in I for U, quadratic for P: check against the 1 A point
        u1, p1 = evaluate_point(spec, 1.0)
        mask = curve.i_tx > 0
        assert np.allclose(curve.u_tx[mask], u1 * curve.i_tx[mask], rtol=1e-9)
        assert np.allclose(curve.p_in[mask], p1 * curve.i_tx[mask] ** 2, rtol=1e-9)

    def test_coil_selection_by_steering(self):
        # the reported voltage is that of the coil carrying more of the drive
        for theta, coil in ((math.pi / 2 - 0.1, 0), (0.1, 1)):
            spec = make_spec(m_ac=5e-7, theta=theta)
            curve = sweep_curve(spec)
            for i, u in zip(curve.i_tx[1:], curve.u_tx[1:]):
                drive = replace(spec.drive, amplitude=float(i))
                volts = transmitter_voltages(drive, spec.couplings, spec.receiver, spec.tx)
                assert u == pytest.approx(abs(volts[coil]), rel=1e-12)
                assert u != pytest.approx(abs(volts[1 - coil]), rel=1e-3)

    def test_evaluate_point_matches_sweep(self):
        spec = make_spec(m_ac=3e-7, m_bc=-4e-7)
        curve = sweep_curve(spec)
        for idx in (0, 7, 20):
            u, p = evaluate_point(spec, float(curve.i_tx[idx]))
            assert u == pytest.approx(curve.u_tx[idx], rel=1e-12, abs=1e-15)
            assert p == pytest.approx(curve.p_in[idx], rel=1e-12, abs=1e-15)

    def test_array_matches_solve_from_drive(self):
        # one unit-current evaluation against a full current-driven solve per point
        rng = np.random.default_rng(5)
        currents = np.concatenate([[0.0], rng.uniform(0.0, 20.0, 15)])
        for _ in range(40):
            if rng.random() < 0.5:
                rx = resonant_coil_receiver(rng.uniform(0.01, 0.5), rng.uniform(0.5, 20.0))
            else:
                rx = MetalReceiver(rng.uniform(1e-4, 1.0), rng.uniform(1e-9, 1e-6))
            spec = SweepSpec(
                i_min=0.0,
                i_max=1.0,
                steps=2,
                drive=DriveSpec(OMEGA, 0.0, rng.uniform(0.0, 2.0 * math.pi)),
                receiver=rx,
                couplings=Couplings(*rng.uniform(-1e-6, 1e-6, 2)),
                tx=default_tx_coil(resistance=rng.uniform(0.005, 0.5)),
            )
            u, p = evaluate_point(spec, currents)
            use_a = abs(math.sin(spec.drive.steering)) >= abs(math.cos(spec.drive.steering))
            for i, u_i, p_i in zip(currents, u, p):
                sol = solve_from_drive(
                    replace(spec.drive, amplitude=float(i)), spec.couplings, rx, spec.tx
                )
                u_ref = abs(sol.u_a if use_a else sol.u_b)
                assert abs(u_i - u_ref) <= 1e-12 * u_ref
                assert abs(p_i - sol.p_in) <= 1e-12 * sol.p_in

    def test_negative_current_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point(make_spec(), np.array([1.0, -1.0]))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_spec().__class__(
                i_min=5.0,
                i_max=1.0,
                steps=10,
                drive=DriveSpec(OMEGA, 1.0, 0.0),
                receiver=resonant_coil_receiver(0.1, 4.5),
                couplings=Couplings(0.0, 0.0),
            )
        with pytest.raises(ValueError):
            CharacteristicCurve("x", [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            CharacteristicCurve("x", [1.0, 2.0], [-1.0, 0.0], [0.0, 0.0])


class TestNoise:
    SWEEPS = [make_spec(m_ac=5e-7, label="coil:a"), make_spec(m_bc=2e-7, label="metal:b")]

    def test_zero_sigma_identity(self):
        for true, name, sample in noisy_samples(self.SWEEPS, 0.0, seed=3):
            spec = next(s for s in self.SWEEPS if s.label == f"{true}:{name}")
            assert (sample.u_tx, sample.p_in) == evaluate_point(spec, sample.i_tx)

    def test_deterministic_per_seed(self):
        a = noisy_samples(self.SWEEPS, 0.01, seed=42)
        b = noisy_samples(self.SWEEPS, 0.01, seed=42)
        c = noisy_samples(self.SWEEPS, 0.01, seed=43)
        assert a == b
        assert [t[2].u_tx for t in a] != [t[2].u_tx for t in c]

    def test_currents_untouched(self):
        currents = (0.5, 3.0, 7.25)
        samples = noisy_samples(self.SWEEPS, 0.05, seed=1, currents=currents)
        assert [t[2].i_tx for t in samples] == list(currents) * len(self.SWEEPS)

    def test_statistics(self):
        # mean relative deviation ~0 and std ~sigma over many independent points
        sigma = 0.01
        currents = np.linspace(1.0, 10.0, 4000)
        samples = noisy_samples(self.SWEEPS[:1], sigma, seed=0, currents=currents)
        u, p = evaluate_point(self.SWEEPS[0], currents)
        for got, clean in (([t[2].u_tx for t in samples], u), ([t[2].p_in for t in samples], p)):
            rel = np.array(got) / clean - 1.0
            assert abs(rel.mean()) < 5e-4
            assert rel.std() == pytest.approx(sigma, rel=0.05)

    def test_clipped_at_zero(self):
        samples = noisy_samples(self.SWEEPS, 5.0, seed=0, currents=np.linspace(1.0, 9.0, 50))
        u = np.array([t[2].u_tx for t in samples])
        p = np.array([t[2].p_in for t in samples])
        assert np.all(u >= 0.0) and np.all(p >= 0.0)
        assert np.any(u == 0.0) and np.any(p == 0.0)

    def test_stream_receiver_major(self):
        # one (eps_u, eps_p) pair per point, receivers outer, currents inner
        sigma, seed, currents = 0.02, 7, (3.0, 6.0, 9.0)
        samples = noisy_samples(self.SWEEPS, sigma, seed, currents)
        rng = np.random.default_rng(seed)
        pairs = itertools.product(self.SWEEPS, currents)
        for (true, name, sample), (spec, i) in zip(samples, pairs, strict=True):
            eps_u, eps_p = rng.normal(0.0, sigma, 2)
            u, p = evaluate_point(spec, i)
            assert f"{true}:{name}" == spec.label and sample.i_tx == i
            assert sample.u_tx == max(u * (1.0 + eps_u), 0.0)
            assert sample.p_in == max(p * (1.0 + eps_p), 0.0)


class TestCsv:
    def test_header_and_format(self):
        curve = CharacteristicCurve("coil:a", [1.0, 2.0], [0.5, 1.0], [0.25, 1.0])
        text = curves_to_csv([curve])
        lines = text.splitlines()
        assert lines[0] == "label,i_tx_A,u_tx_V,p_in_W"
        assert lines[1] == "coil:a,1.000000000000,0.500000000000,0.250000000000"

    def test_round_trip(self):
        curves = [
            sweep_curve(make_spec(m_ac=5e-7, label="coil:a")),
            sweep_curve(make_spec(m_bc=2e-7, label="metal:b")),
        ]
        back = curves_from_csv(curves_to_csv(curves))
        assert [c.label for c in back] == ["coil:a", "metal:b"]
        for orig, rt in zip(curves, back):
            assert np.allclose(rt.i_tx, orig.i_tx, rtol=0, atol=5e-13)
            assert np.allclose(rt.u_tx, orig.u_tx, rtol=0, atol=5e-13)
            assert np.allclose(rt.p_in, orig.p_in, rtol=0, atol=5e-13)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            curves_from_csv("nope\n1,2,3,4\n")
