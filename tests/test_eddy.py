import cmath
import math

import numpy as np
import pytest

from wptmod import cli, eddy
from wptmod.circuit import MetalReceiver
from wptmod.eddy import (
    EddyGeometry,
    MetalMaterial,
    bessel_j1,
    geometry_factor,
    load_materials,
    phi_k,
    plate_impedance,
)
from wptmod.errors import ConvergenceError
from wptmod.magnetics import MU0

CU = MetalMaterial("cuprum", 5.88e7, 1.0)
AL = MetalMaterial("aluminum", 3.44e7, 1.0)
FE = MetalMaterial("ferrum", 1.0e7, 300.0)

W20K = 2.0 * math.pi * 20e3


def geom(a=0.1, n=3, d=0.2, w=W20K):
    return EddyGeometry(a, n, d, w)


def quad_plate_impedance(g: EddyGeometry, mat: MetalMaterial) -> complex:
    """R_m + j*w*L_m by scipy's adaptive quad and scipy's J1.

    The adaptive path the package used before its fixed Gauss-Legendre rule,
    tightened to serve as an oracle: quad runs separately between the
    breakpoints, at relative tolerance 2e-14, and k_s / mur joins the
    breakpoints.  Run as one call at 1e-12 without that breakpoint, it was
    off by 1.4e-11 on a plate with sigma = 2.8e-4 S/m, mur = 221 (checked
    against a 30-digit mpmath integral, which the fixed rule met to 3e-16).
    """
    quad = pytest.importorskip("scipy.integrate").quad
    j1 = pytest.importorskip("scipy.special").j1
    a, n, d, w = g.coil_half_side, g.coil_turns, g.plate_distance, g.angular_frequency
    k_s = math.sqrt(w * mat.conductivity * MU0 * mat.rel_permeability)

    def integral(part, k_max):
        def f(k):
            value = phi_k(k, g, mat) * math.exp(-2.0 * k * d) * (n * a * j1(k * a)) ** 2
            return value.imag if part == "imag" else value.real

        pts = [p for p in (k_s / mat.rel_permeability, 0.5 / d, 1.0 / d, 5.0 / d) if p < k_max]
        edges = [0.0, *sorted(pts), k_max]
        return sum(
            quad(f, lo, hi, limit=400, epsabs=0.0, epsrel=2e-14)[0]
            for lo, hi in zip(edges, edges[1:])
        )

    # truncate where the exp(-2kd) tail bound falls below 1e-12 of the value
    sup_t = (n * a * 0.5819) ** 2
    k_max = 30.0 / d
    raw = [integral(part, k_max) for part in ("imag", "real")]
    floor = sup_t * 1e-30
    k_need = max(
        math.log(sup_t / (2.0 * d * 1e-12 * max(abs(v), floor))) / (2.0 * d) for v in raw
    )
    if k_need > k_max:
        raw = [integral(part, k_need) for part in ("imag", "real")]
    return complex(w * math.pi * MU0 * raw[0], w * math.pi * MU0 * raw[1])


class TestPhi:
    def test_k_zero_is_one(self):
        assert phi_k(0.0, geom(), CU) == pytest.approx(1.0 + 0.0j)

    def test_vanishing_conductivity_limit(self):
        values = [
            abs(phi_k(10.0, geom(), MetalMaterial("x", sigma, 1.0)))
            for sigma in (1e4, 1e2, 1e0)
        ]
        assert values[0] > values[1] > values[2]
        assert values[-1] < 1e-3

    def test_independent_complex_arithmetic(self):
        # second implementation of the response ratio, scalar cmath only
        k = 10.0
        root = cmath.sqrt(k * k + 1j * W20K * CU.conductivity * MU0 * 1.0)
        expected = (root - k) / (root + k)
        assert phi_k(k, geom(), CU) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sigma", [1e-2, 1e-4])
    def test_against_mpmath_where_k_dominates(self, sigma):
        # k >> k_s: the difference root - k*mur cancels in double precision
        mpmath = pytest.importorskip("mpmath")
        k = 20.0
        with mpmath.workdps(40):
            ks2 = mpmath.mpf(W20K) * mpmath.mpf(sigma) * mpmath.mpf(MU0)
            root = mpmath.sqrt(k * k + 1j * ks2)
            expected = (root - k) / (root + k)
        got = phi_k(k, geom(), MetalMaterial("x", sigma, 1.0))
        assert abs(got.real - float(expected.real)) <= 1e-13 * abs(float(expected.real))
        assert abs(got.imag - float(expected.imag)) <= 1e-13 * abs(float(expected.imag))

    def test_bounded_and_passive_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            g = EddyGeometry(
                coil_half_side=rng.uniform(0.01, 0.5),
                coil_turns=int(rng.integers(1, 10)),
                plate_distance=rng.uniform(0.01, 1.0),
                angular_frequency=rng.uniform(1e3, 1e7),
            )
            mat = MetalMaterial("x", rng.uniform(1e3, 1e8), rng.uniform(1.0, 500.0))
            ks = rng.uniform(0.0, 1e4, 100)
            phi = phi_k(ks, g, mat)
            assert np.all(np.abs(phi) <= 1.0 + 1e-12)
            assert np.all(phi.imag >= -1e-15)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            phi_k(-1.0, geom(), CU)


class TestBessel:
    def test_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_reference_points(self):
        # high-precision series values
        assert bessel_j1(1.0) == pytest.approx(0.4400505857449335, abs=1e-12)
        assert bessel_j1(5.0) == pytest.approx(-0.3275791375914652, abs=1e-12)

    def test_against_series_oracle(self):
        import mpmath

        mpmath.mp.dps = 30
        xs = np.linspace(0.0, 200.0, 101)
        for x in xs:
            assert abs(bessel_j1(x) - float(mpmath.besselj(1, x))) < 1e-10

    def test_large_arguments_at_rounding_level(self):
        # the node count must grow past |x| with the transition zone, ~|x|^(1/3)
        import mpmath

        mpmath.mp.dps = 30
        xs = np.array([250.5, 500.25, 1000.75, 2000.5])
        for x, got in zip(xs, bessel_j1(xs)):
            assert abs(got - float(mpmath.besselj(1, x))) < 1e-13

    def test_oddness(self):
        xs = np.linspace(0.1, 50.0, 23)
        assert np.allclose(bessel_j1(-xs), -bessel_j1(xs), rtol=0, atol=1e-15)


class TestGeometryFactor:
    def test_zero_at_k_zero(self):
        assert geometry_factor(0.0, geom()) == 0.0

    def test_small_k_limit(self):
        g = geom(a=0.164, n=3)
        k = 1e-4
        expected = (g.coil_turns * k * g.coil_half_side**2 / 2.0) ** 2
        assert geometry_factor(k, g) == pytest.approx(expected, rel=1e-6)

    def test_matches_bessel_evaluation(self):
        g = geom(a=0.164, n=3)
        expected = (3 * 0.164 * bessel_j1(1.64)) ** 2
        assert geometry_factor(10.0, g) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative(self):
        ks = np.linspace(0.0, 500.0, 1000)
        assert np.all(geometry_factor(ks, geom()) >= 0.0)


class TestPlateImpedance:
    def test_low_conductivity_limit(self):
        # response is linear in sigma well below the skin-effect regime
        weak = plate_impedance(geom(), MetalMaterial("x", 1e-2, 1.0))
        weaker = plate_impedance(geom(), MetalMaterial("x", 1e-4, 1.0))
        assert weaker.r_m == pytest.approx(1e-2 * weak.r_m, rel=5e-2)
        assert abs(weaker.l_m) < abs(weak.l_m) < 1e-4 * plate_impedance(geom(), CU).l_m

    def test_vanishing_conductivity_finite(self):
        # far below the skin-effect regime R_m stays linear in sigma
        faint = plate_impedance(geom(), MetalMaterial("x", 1e-30, 1.0))
        weak = plate_impedance(geom(), MetalMaterial("x", 1e-4, 1.0))
        assert math.isfinite(faint.l_m) and faint.r_m >= 0.0
        assert faint.r_m == pytest.approx(1e-26 * weak.r_m, rel=5e-3)

    def test_fe_vs_cu(self):
        rm_fe = plate_impedance(geom(), FE)
        rm_cu = plate_impedance(geom(), CU)
        assert rm_fe.r_m > 5.0 * rm_cu.r_m
        assert abs(rm_fe.l_m - rm_cu.l_m) < 0.5 * abs(rm_cu.l_m)

    def test_monotone_with_scale(self):
        scales = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3)
        imps = [plate_impedance(geom(a=a), FE) for a in scales]
        assert all(x.r_m < y.r_m for x, y in zip(imps, imps[1:]))
        assert all(x.l_m < y.l_m for x, y in zip(imps, imps[1:]))

    # at 2e-14 quad can reach its rounding floor and says so; it still
    # returns its best value, which the bound below then judges
    @pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
    def test_matches_adaptive_quad_oracle(self):
        rng = np.random.default_rng(23)
        cases = []
        for _ in range(100):
            # the benchmark's range: Fe/Cu/Al plates at 20 kHz, 3-turn coil
            sigma, mu_r = [(1.0e7, rng.uniform(200.0, 400.0)), (5.88e7, 1.0), (3.44e7, 1.0)][
                rng.integers(3)
            ]
            g = EddyGeometry(rng.uniform(0.02, 0.15), 3, rng.uniform(0.03, 0.30), W20K)
            cases.append((g, MetalMaterial("x", sigma, mu_r)))
        for _ in range(100):
            # the wide range of test_bounded_and_passive_random, sigma down to 1e-4
            g = EddyGeometry(
                coil_half_side=rng.uniform(0.01, 0.5),
                coil_turns=int(rng.integers(1, 10)),
                plate_distance=rng.uniform(0.01, 1.0),
                angular_frequency=rng.uniform(1e3, 1e7),
            )
            mat = MetalMaterial("x", 10.0 ** rng.uniform(-4.0, 8.0), rng.uniform(1.0, 500.0))
            cases.append((g, mat))
        for g, mat in cases:
            expected = quad_plate_impedance(g, mat)
            got = plate_impedance(g, mat).impedance(g.angular_frequency)
            assert abs(got - expected) <= 1e-12 * abs(expected), (g, mat)

    def test_non_finite_integrand_raises_and_exits_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            eddy, "phi_k", lambda k, g, mat: np.full(np.shape(k), complex("nan"))
        )
        with pytest.raises(ConvergenceError):
            plate_impedance(geom(), FE)
        assert cli.main(["impedance", "--out", str(tmp_path)]) == cli.EXIT_CONVERGENCE
        assert "quadrature" in capsys.readouterr().err

    def test_bit_identical_reproducibility(self):
        a = plate_impedance(geom(), FE)
        b = plate_impedance(geom(), FE)
        assert a.r_m == b.r_m and a.l_m == b.l_m

    def test_rm_monotone_in_frequency(self):
        for mat in (CU, AL, FE):
            freqs = np.linspace(10e3, 100e3, 6)
            rms = [
                plate_impedance(geom(w=2 * math.pi * f), mat).r_m for f in freqs
            ]
            assert all(x < y for x, y in zip(rms, rms[1:]))


class TestTypesAndDatabase:
    def test_material_invariants(self):
        with pytest.raises(ValueError):
            MetalMaterial("x", 0.0)
        with pytest.raises(ValueError):
            MetalMaterial("x", 1e7, 0.5)

    def test_impedance_invariants(self):
        with pytest.raises(ValueError):
            MetalReceiver(-1e-6, 1e-9)
        with pytest.raises(ValueError):
            MetalReceiver(float("nan"), 1e-9)

    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            EddyGeometry(0.0, 3, 0.2, W20K)

    def test_bundled_database(self):
        db = load_materials()
        assert db["cu"].conductivity == pytest.approx(5.88e7)
        assert db["aluminum"].conductivity == pytest.approx(3.44e7)
        fe = db["fe"]
        assert fe.rel_permeability == 300.0
        assert fe.rel_permeability_range == (200.0, 400.0)
