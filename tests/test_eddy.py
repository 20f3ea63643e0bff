import cmath
import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from wptmod import cli, eddy, materials, scenario
from wptmod.circuit import MetalReceiver
from wptmod.eddy import (
    EddyGeometry,
    MetalMaterial,
    bessel_j1,
    load_materials,
    phi_k,
    plate_impedance,
)
from wptmod.errors import ConvergenceError, ScenarioError, WorkLimitError
from wptmod.magnetics import MU0

CU = MetalMaterial("cuprum", 5.88e7, 1.0)
AL = MetalMaterial("aluminum", 3.44e7, 1.0)
FE = MetalMaterial("ferrum", 1.0e7, 300.0)

W20K = 2.0 * math.pi * 20e3


def geom(a=0.1, n=3, d=0.2, w=W20K):
    return EddyGeometry(a, n, d, w)


def conductivity_for(ks2: float) -> float:
    """The least sigma whose k_s^2 = w sigma mu0 mur is exactly ks2 at w = mur = 1."""
    sigma = ks2 / MU0
    while sigma * MU0 < ks2:
        sigma = math.nextafter(sigma, math.inf)
    while math.nextafter(sigma, 0.0) * MU0 >= ks2:
        sigma = math.nextafter(sigma, 0.0)
    assert sigma * MU0 == ks2
    return sigma


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

    @pytest.mark.parametrize("k", [float("nan"), [1.0, float("nan")]])
    def test_nan_k_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 0"):
            phi_k(k, geom(), CU)


class TestBessel:
    def test_zero(self):
        assert bessel_j1(0.0) == 0.0

    def test_reference_points(self):
        # high-precision series values
        assert bessel_j1(1.0) == pytest.approx(0.4400505857449335, abs=1e-12)
        assert bessel_j1(5.0) == pytest.approx(-0.3275791375914652, abs=1e-12)
        # the small-argument limit J1(x) = x/2 - x^3/16 + ..., to relative accuracy
        assert bessel_j1(1.64e-5) == pytest.approx(0.82e-5, rel=1e-9)

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


def rule_nodes(g: EddyGeometry, mat: MetalMaterial, k_max=None):
    """The panel edges, uniform-panel index and node table k of a pass (default: the first)."""
    edges, first, _ = eddy._panel_edges(g, mat, k_max or 30.0 / g.plate_distance)
    half = np.diff(edges)[:, None] / 2.0
    return edges, first, (edges[:-1, None] + half) + half * eddy._NODES


class TestPanelJ1:
    """Angle addition on the uniform panels against bessel_j1 on the same nodes."""

    def check(self, g, mat, graded):
        edges, first, k = rule_nodes(g, mat)
        assert (first > 0) == graded
        a = g.coil_half_side
        got = eddy._panel_j1(edges[first:], a)
        expected = bessel_j1(k[first:] * a)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_uniform_panels_only(self):
        self.check(geom(a=0.15, d=0.03), CU, graded=False)

    def test_beside_graded_panels(self):
        # sigma = 1e-6 S/m puts k_s / mur below the first uniform edge
        self.check(geom(0.05, 1, 0.01), MetalMaterial("x", 1e-6, 1000.0), graded=True)

    def test_blocked(self, monkeypatch):
        # a block of one panel: the loop runs once per panel
        monkeypatch.setattr(eddy, "_J1_BLOCK", 1)
        self.check(geom(a=0.15, d=0.01), CU, graded=False)

    def test_no_graded_panels_when_k_low_is_the_first_uniform_edge(self):
        # with a = 0.1 and d = 0.2 the first uniform edge is the x-grid's level-4 width
        # 0.75 over a, 7.5 exactly, and k_low = sqrt(k_s^2)/mur/4 is 7.5 at k_s^2 = 900:
        # nothing lies below it to grade
        g, k_max = geom(a=0.1, d=0.2, w=1.0), 30.0 / 0.2
        sigma = conductivity_for(900.0)
        edges, first, _ = eddy._panel_edges(g, MetalMaterial("x", sigma, 1.0), k_max)
        assert first == 0 and edges[1] == 7.5
        below = MetalMaterial("x", math.nextafter(sigma, 0.0), 1.0)
        assert eddy._panel_edges(g, below, k_max)[1] > 0

    def test_direct_rule_runs_only_on_graded_panels(self, monkeypatch, repro_scenario):
        calls = []
        j1 = eddy.bessel_j1
        monkeypatch.setattr(eddy, "bessel_j1", lambda x: calls.append(x) or j1(x))
        scenario.plates(repro_scenario)
        assert calls == []
        g, mat = geom(0.05, 1, 0.01), MetalMaterial("x", 1e-6, 1000.0)
        edges, first, k = rule_nodes(g, mat)
        eddy._spectral_integral(g, mat, 30.0 / g.plate_distance)
        assert len(calls) == 1 and calls[0].shape == k[:first].shape


class TestGridTables:
    """The x-grid's J1 tables: one value per node, whatever the cache has seen."""

    def test_rows_match_direct_rule(self):
        # bessel_j1 at a k on each uniform panel, graded or not
        cases = [
            (geom(a=0.15, d=0.03), CU),
            (geom(0.05, 1, 0.01), MetalMaterial("x", 1e-6, 1000.0)),
            (geom(a=0.1, d=0.2), FE),
        ]
        for g, mat in cases:
            edges, first, k = rule_nodes(g, mat)
            level = eddy._panel_edges(g, mat, 30.0 / g.plate_distance)[2]
            skip = 1 if first else 0
            got = eddy._grid_j1(level, edges.size - 1 - first + skip)[skip:]
            expected = bessel_j1(k[first:] * g.coil_half_side)
            assert np.max(np.abs(got - expected)) <= 1e-14, (g, mat)

    def test_values_independent_of_cache_history(self):
        # each table is built from its own panels, so a plate's bits do not depend on
        # which plates, or which of its levels' blocks, the cache held before
        cases = seeded_plates(31, 120)

        def digest(order):
            bits = {}
            for index in order:
                imp = plate_impedance(*cases[index])
                bits[index] = (imp.r_m.hex(), imp.l_m.hex())
            return [bits[index] for index in range(len(cases))]

        forward = range(len(cases))
        eddy._grid_table.cache_clear()
        cold = digest(forward)
        assert eddy._grid_table.cache_info().currsize > 0
        assert digest(forward) == cold
        eddy._grid_table.cache_clear()
        assert digest(forward) == cold
        eddy._grid_table.cache_clear()
        assert digest(reversed(forward)) == cold

    def test_table_refuses_writes(self):
        table = eddy._grid_table(0, 0)
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.0
        assert eddy._grid_table(0, 0) is table

    def test_cache_stays_bounded(self):
        # a/d = 1000 needs 2,500 level-0 panels, 157 tables, which the cache holds; 60
        # small plates, each with 20 panels on a level of its own, need 120 more
        eddy._grid_table.cache_clear()
        g = geom(a=0.1, d=1e-4)
        edges, first, level = eddy._panel_edges(g, CU, 30.0 / g.plate_distance)
        assert level == 0 and edges.size - 1 == 2500
        imp = plate_impedance(g, CU)
        assert imp.r_m > 0.0 and imp.l_m > 0.0
        assert eddy._grid_table.cache_info().currsize == 157
        for level in range(1, 61):
            small = geom(a=math.ldexp(0.2, -level), d=0.2)
            assert eddy._panel_edges(small, CU, 150.0)[2] == level + 3
            plate_impedance(small, CU)
        assert eddy._grid_table.cache_info().currsize == eddy._GRID_TABLES == 256


def elliptic_ke(m: float) -> tuple[float, float]:
    """Complete elliptic integrals K(m), E(m) of parameter m = k^2 by the AGM.

    K = pi / (2 AGM(1, sqrt(1 - m))) and E = K (1 - sum 2^(n-1) c_n^2) with
    c_0 = k and c_(n+1) = (a_n - b_n) / 2.  Twelve steps are past convergence
    for m <= 0.999 (it is quadratic); a tolerance test could stall where a_n
    and b_n settle one ulp apart.
    """
    a, b, c = 1.0, math.sqrt(1.0 - m), math.sqrt(m)
    total, weight = 0.5 * m, 0.5
    for _ in range(12):
        a, b, c = (a + b) / 2.0, math.sqrt(a * b), (a - b) / 2.0
        weight *= 2.0
        total += weight * c * c
    k = math.pi / (2.0 * a)
    return k, k * (1.0 - total)


def coaxial_circles_m(a: float, z: float) -> float:
    """Maxwell's mutual inductance of two coaxial circles of radius a, z apart."""
    m = 4.0 * a * a / (4.0 * a * a + z * z)
    k_int, e_int = elliptic_ke(m)
    k = math.sqrt(m)
    return MU0 * a * ((2.0 / k - k) * k_int - 2.0 / k * e_int)


class TestStaticImageLimits:
    """Exact limits of the plate integral, independent of its quadrature.

    pi*mu0*int [N a J1(ka)]^2 exp(-2kd) dk is N^2 times the mutual inductance
    of two coaxial circles of radius a, 2d apart, so where phi is a constant
    the plate inductance is that constant times N^2 M_circ(a, 2d): the
    magnetic image -(mur-1)/(mur+1) as sigma -> 0, and the perfect conductor
    +1 as sigma -> infinity with mur = 1.
    """

    @pytest.mark.parametrize("m", [0.01, 0.2, 0.5, 0.9, 0.999])
    def test_agm_against_mpmath(self, m):
        mpmath = pytest.importorskip("mpmath")
        k_int, e_int = elliptic_ke(m)
        assert k_int == pytest.approx(float(mpmath.ellipk(m)), rel=1e-15)
        assert e_int == pytest.approx(float(mpmath.ellipe(m)), rel=1e-15)

    @pytest.mark.parametrize(
        "a, n, d", [(0.05, 1, 0.01), (0.1, 3, 0.2), (0.3, 5, 0.01), (0.2, 2, 0.05)]
    )
    def test_magnetic_limit(self, a, n, d):
        mu_r = 1000.0
        z = plate_impedance(geom(a, n, d), MetalMaterial("x", 1e-6, mu_r))
        image = -(mu_r - 1.0) / (mu_r + 1.0) * n * n * coaxial_circles_m(a, 2.0 * d)
        assert z.l_m == pytest.approx(image, rel=1e-9)

    @pytest.mark.parametrize(
        "a, n, d", [(0.05, 1, 0.01), (0.1, 3, 0.2), (0.3, 5, 0.01), (0.2, 2, 0.05)]
    )
    def test_magnetic_limit_where_skin_wavenumber_underflows(self, a, n, d):
        # sigma = 5e-324 passes the database's > 0 bound, and k_s underflows to 0
        mu_r = 1000.0
        z = plate_impedance(geom(a, n, d), MetalMaterial("x", 5e-324, mu_r))
        image = -(mu_r - 1.0) / (mu_r + 1.0) * n * n * coaxial_circles_m(a, 2.0 * d)
        assert z.r_m == 0.0
        assert z.l_m == pytest.approx(image, rel=1e-9)

    @pytest.mark.parametrize("mu_r", [1.0, 300.0, 5000.0])
    @pytest.mark.parametrize("sigma", [1e-308, 1e-310, 1e-318])
    @pytest.mark.parametrize("a, n, d", [(0.1, 3, 0.2), (0.01, 3, 0.3)])
    def test_magnetic_limit_where_skin_wavenumber_is_subnormal(self, a, n, d, sigma, mu_r):
        # k_s^2 = w sigma mu0 mur is subnormal for 6 of the 9 (sigma, mu_r); for the other
        # 3 at a = 0.01 the loss integral is, with too few bits for a relative check
        z = plate_impedance(geom(a, n, d), MetalMaterial("x", sigma, mu_r))
        image = -(mu_r - 1.0) / (mu_r + 1.0) * n * n * coaxial_circles_m(a, 2.0 * d)
        assert 0.0 <= z.r_m < 1e-300
        assert z.l_m == pytest.approx(image, rel=1e-9, abs=1e-300)
        if W20K * sigma * MU0 * mu_r < sys.float_info.min:
            assert z == plate_impedance(geom(a, n, d), MetalMaterial("x", 5e-324, mu_r))

    def test_smallest_normal_skin_wavenumber_is_kept(self):
        # k_s^2 = w sigma mu0 mur is taken as 0 only where it is subnormal
        low = sys.float_info.min
        sigma = conductivity_for(low)
        g = geom(w=1.0)
        assert eddy._ks2(g, MetalMaterial("x", sigma, 1.0)) == low
        below = MetalMaterial("x", math.nextafter(sigma, 0.0), 1.0)
        assert eddy._ks2(g, below) == 0.0

    @pytest.mark.parametrize("a, n, d, track", [(0.1, 3, 0.2, 1e-4), (0.3, 5, 0.01, 2e-3)])
    def test_conductor_limit(self, a, n, d, track):
        # the gap to the image closes as sigma^(-1/2), the skin depth, and
        # equals r_m/(w l_m), the surface-impedance ratio, ever closer
        full = n * n * coaxial_circles_m(a, 2.0 * d)
        sigmas = (1e10, 1e12, 1e14, 1e16)
        gaps = []
        for sigma in sigmas:
            z = plate_impedance(geom(a, n, d), MetalMaterial("x", sigma, 1.0))
            gap = 1.0 - z.l_m / full
            ratio = z.r_m / (W20K * z.l_m)
            assert abs(gap / ratio - 1.0) <= track * math.sqrt(1e10 / sigma)
            gaps.append(gap)
        assert [g / h for g, h in zip(gaps, gaps[1:])] == pytest.approx([10.0] * 3, rel=1e-4)


def seeded_plates(seed: int, count: int) -> list[tuple[EddyGeometry, MetalMaterial]]:
    """count plates in the benchmark's range, then count in a wide range."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        # the benchmark's range: Fe/Cu/Al plates at 20 kHz, 3-turn coil
        sigma, mu_r = [(1.0e7, rng.uniform(200.0, 400.0)), (5.88e7, 1.0), (3.44e7, 1.0)][
            rng.integers(3)
        ]
        g = EddyGeometry(rng.uniform(0.02, 0.15), 3, rng.uniform(0.03, 0.30), W20K)
        cases.append((g, MetalMaterial("x", sigma, mu_r)))
    for _ in range(count):
        # the wide range of test_bounded_and_passive_random, sigma down to 1e-4
        g = EddyGeometry(
            coil_half_side=rng.uniform(0.01, 0.5),
            coil_turns=int(rng.integers(1, 10)),
            plate_distance=rng.uniform(0.01, 1.0),
            angular_frequency=rng.uniform(1e3, 1e7),
        )
        mat = MetalMaterial("x", 10.0 ** rng.uniform(-4.0, 8.0), rng.uniform(1.0, 500.0))
        cases.append((g, mat))
    return cases


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
        for g, mat in seeded_plates(23, 100):
            expected = quad_plate_impedance(g, mat)
            got = plate_impedance(g, mat).impedance(g.angular_frequency)
            assert abs(got - expected) <= 1e-12 * abs(expected), (g, mat)

    # 144 2^-L is where a level's 12 panels become 13, and 132 2^-L where the next
    # level's 22 become this level's 12; each point's (panels, level - L) below, at
    # and above the edge
    @pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
    @pytest.mark.parametrize("level", [0, 1, 5])
    @pytest.mark.parametrize(
        "edge, rules",
        [(144.0, ((12, 0), (12, 0), (13, 0))), (132.0, ((22, 1), (22, 1), (12, 0)))],
    )
    def test_matches_quad_oracle_at_level_boundaries(self, level, edge, rules):
        # d = 30/128 puts k_max = 30/d at 128 exactly, so x_max = a k_max is exact for
        # a = x/128; the Fe plate at 1 kHz has graded panels, the Cu plate none
        x = math.ldexp(edge, -level)
        points = (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))
        for x_max, (panels, finer) in zip(points, rules):
            for mat, w, graded in ((CU, W20K, False), (FE, 2.0 * math.pi * 1e3, True)):
                g = geom(a=x_max / 128.0, d=30.0 / 128.0, w=w)
                assert g.coil_half_side * (30.0 / g.plate_distance) == x_max
                edges, first, got_level = eddy._panel_edges(g, mat, 128.0)
                skip = 1 if first else 0
                assert (got_level, edges.size - 1 - first + skip) == (level + finer, panels)
                assert (first > 0) == graded
                expected = quad_plate_impedance(g, mat)
                got = plate_impedance(g, mat).impedance(g.angular_frequency)
                assert abs(got - expected) <= 1e-12 * abs(expected), (x_max, mat)

    def test_panel_floor_margin(self, monkeypatch):
        # the 16-node check stays 1000x inside its 1e-6 refusal limit on every
        # pass, so the panel floor is not what keeps the quadrature converged
        passes = []
        integral = eddy._spectral_integral
        monkeypatch.setattr(
            eddy, "_spectral_integral", lambda *args: passes.append(args) or integral(*args)
        )
        cases = [
            # a tail re-pass plate, and a/d = 25, where the 24-rad phase rule sets the panels
            (geom(a=0.1, n=3, d=0.2), MetalMaterial("x", 1e-8, 1.0)),
            (geom(a=0.25, n=2, d=0.01), FE),
            *seeded_plates(29, 40),
        ]
        for g, mat in cases:
            plate_impedance(g, mat)
        uniform = []
        for g, mat, k_max in passes:
            edges, first, k = rule_nodes(g, mat, k_max)
            uniform.append(edges.size - 1 - first)
            f = phi_k(k, g, mat) * np.exp(-2.0 * g.plate_distance * k)
            f *= (g.coil_turns * g.coil_half_side * bessel_j1(k * g.coil_half_side)) ** 2
            f *= np.diff(edges)[:, None] / 2.0
            n = eddy._FINE_NODES.size
            fine = complex(np.sum(f[:, :n] @ eddy._FINE_WEIGHTS))
            check = complex(np.sum(f[:, n:] @ eddy._CHECK_WEIGHTS))
            assert abs(fine - integral(g, mat, k_max)) <= 1e-13 * abs(fine)
            for part, gap in ((fine.real, (fine - check).real), (fine.imag, (fine - check).imag)):
                assert abs(gap) <= 1e-9 * abs(part), (g, mat, k_max)
        assert len(passes) > len(cases) and max(uniform) > eddy._PANELS

    def test_second_truncation_pass(self, monkeypatch, repro_scenario):
        calls = []
        integral = eddy._spectral_integral
        monkeypatch.setattr(
            eddy, "_spectral_integral", lambda *args: calls.append(args) or integral(*args)
        )
        scenario.plates(repro_scenario)
        # one pass per plate
        assert len(calls) == len(repro_scenario.metal_plates)
        # at 1e-8 S/m Re is about 1e-5 of Im, so its 1e-12 tail needs a larger k_max
        g, mat = geom(a=0.1, n=3, d=0.2), MetalMaterial("x", 1e-8, 1.0)
        calls.clear()
        got = plate_impedance(g, mat).impedance(g.angular_frequency)
        assert len(calls) == 2 and calls[1][2] > calls[0][2]
        expected = quad_plate_impedance(g, mat)
        assert abs(got - expected) <= 1e-12 * abs(expected)

    def test_non_finite_integrand_raises_and_exits_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(
            eddy, "phi_k", lambda k, g, mat: np.full(np.shape(k), complex("nan"))
        )
        with pytest.raises(ConvergenceError):
            plate_impedance(geom(), FE)
        assert cli.main(["impedance", "--out", str(tmp_path)]) == cli.EXIT_CONVERGENCE
        assert "quadrature" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [1e-6, 1e-300, 5e-324])
    def test_too_close_refused_before_allocating(self, monkeypatch, d):
        # the cap is checked before the panel table exists, so nothing is evaluated
        monkeypatch.setattr(eddy, "bessel_j1", None)
        monkeypatch.setattr(eddy, "_panel_j1", None)
        with pytest.raises(WorkLimitError, match="J1 sine evaluations, over its cap of 1e"):
            plate_impedance(geom(d=d), FE)

    def test_work_cap_admits_a_pass_of_exactly_its_work(self, monkeypatch):
        # the work _panel_edges computes for one pass, read from its frame as it returns
        g, k_max = geom(), 30.0 / 0.2
        seen = {}

        def spy(frame, event, arg):
            if event == "return" and frame.f_code is eddy._panel_edges.__code__:
                seen.update(frame.f_locals)

        previous = sys.getprofile()
        sys.setprofile(spy)
        try:
            edges, first, _ = eddy._panel_edges(g, FE, k_max)
        finally:
            sys.setprofile(previous)
        work = seen["work"]
        monkeypatch.setattr(eddy, "_MAX_J1_WORK", work)
        got = eddy._panel_edges(g, FE, k_max)
        assert np.array_equal(got[0], edges) and got[1] == first
        monkeypatch.setattr(eddy, "_MAX_J1_WORK", math.nextafter(work, 0.0))
        with pytest.raises(WorkLimitError, match="over its cap"):
            eddy._panel_edges(g, FE, k_max)

    @pytest.mark.parametrize("d", [1e300, 1e308])
    @pytest.mark.parametrize("mat", [FE, CU])
    def test_far_plate_reflects_nothing(self, d, mat):
        # the cutoff was 60/(2d), and 2d overflows at 1e308 (RuntimeWarning); 30/d does not
        assert plate_impedance(geom(d=d), mat) == MetalReceiver(r_m=0.0, l_m=0.0)

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

    @pytest.mark.parametrize(
        "field", ["coil_half_side", "coil_turns", "plate_distance", "angular_frequency"]
    )
    def test_geometry_refuses_zero(self, field):
        # a scenario never reaches this guard: the schema domain refuses 0 at parse time
        with pytest.raises(ValueError, match="^all EddyGeometry fields must be strictly positive$"):
            replace(geom(), **{field: 0})

    def test_database_read_errors_are_scenario_errors(self, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff")
        for path in (str(tmp_path / "nope.json"), str(binary)):
            message = re.escape(f"cannot read material database {path!r}")
            with pytest.raises(ScenarioError, match=message):
                load_materials(path)
        bad = tmp_path / "bad.json"
        bad.write_text("[{")
        with pytest.raises(ScenarioError, match="is not valid JSON"):
            load_materials(str(bad))

    def test_database_lives_in_materials(self):
        # the benchmark's tracer wraps eddy.load_materials, and the acceptance
        # gate builds eddy.MetalMaterial
        assert eddy.MetalMaterial is materials.MetalMaterial
        assert eddy.load_materials is materials.load_materials

    def test_bundled_database(self):
        db = load_materials()
        assert db["cu"].conductivity == pytest.approx(5.88e7)
        assert db["aluminum"].conductivity == pytest.approx(3.44e7)
        fe = db["fe"]
        assert fe.rel_permeability == 300.0
        assert fe.rel_permeability_range == (200.0, 400.0)


def test_database_edit_between_reads_is_seen(tmp_path):
    path = tmp_path / "materials.json"
    path.write_text('[{"name": "Cuprum", "conductivity_S_per_m": 5e7}]')
    assert load_materials(str(path))["cuprum"].conductivity == 5e7
    path.write_text('[{"name": "Cuprum", "conductivity_S_per_m": 4e7, "aliases": ["Cu"]}]')
    db = load_materials(str(path))
    assert db["cuprum"].conductivity == 4e7 and db["cu"] is db["cuprum"]


def test_database_dict_is_new_on_each_read():
    db = load_materials()
    del db["cu"]
    db["tin"] = db["fe"]
    again = load_materials()
    assert "tin" not in again and again["cu"].name == "cuprum"


def test_database_error_not_kept_across_reads(tmp_path):
    # a bad file raises its error on every read, and a good read before or
    # after it is unaffected
    good = load_materials()
    path = tmp_path / "shadow.json"
    path.write_text(
        '[{"name": "A", "conductivity_S_per_m": 1e6},'
        ' {"name": "a", "conductivity_S_per_m": 2e6}]'
    )
    message = re.escape(
        f"material database {str(path)!r}: entry[1].name 'a' is already bound to entry[0] 'A'"
    )
    for _ in range(2):
        with pytest.raises(ScenarioError, match=message):
            load_materials(str(path))
        assert load_materials() == good
