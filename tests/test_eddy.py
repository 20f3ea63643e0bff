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


def mpmath_plate_impedance(
    g: EddyGeometry, mat: MetalMaterial, points: list[float], got: MetalReceiver
) -> complex:
    """R_m + j*w*L_m by 30-digit mpmath integrals over the breakpoints `points` (1/m).

    The oracle where scipy's quad is off.  mpmath's quad stops on an absolute
    error estimate, so each part of the integrand is scaled to order 1 by the
    size `got` gives that part; the scale sets where quad stops, not the
    value it converges to.  phi is the equal quotient phi_k documents.
    """
    mpmath = pytest.importorskip("mpmath")
    a, n, d, w = g.coil_half_side, g.coil_turns, g.plate_distance, g.angular_frequency
    sizes = (got.l_m / (math.pi * MU0), got.r_m / (w * math.pi * MU0))
    with mpmath.workdps(30):
        mur = mpmath.mpf(mat.rel_permeability)
        ks2 = mpmath.mpf(w) * mpmath.mpf(mat.conductivity) * mpmath.mpf(MU0) * mur
        big_a, big_d = mpmath.mpf(a), mpmath.mpf(d)

        def f(k):
            root = mpmath.sqrt(k * k + 1j * ks2)
            phi = (k * k * (1 - mur * mur) + 1j * ks2) / (root + k * mur) ** 2
            j1 = mpmath.besselj(1, k * big_a)
            return phi * mpmath.exp(-2 * k * big_d) * (n * big_a * j1) ** 2

        raw = []
        for part, size in zip((lambda z: z.real, lambda z: z.imag), sizes):
            scale = points[-1] / abs(size)
            raw.append(float(mpmath.quad(lambda k: part(f(k)) * scale, points) / scale))
    return complex(w * math.pi * MU0 * raw[1], w * math.pi * MU0 * raw[0])


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

    @pytest.mark.parametrize("mur", [1.0, 300.0])
    def test_against_mpmath_where_k_s_dominates(self, mur):
        # k << k_s: squared as a complex number, (root + k*mur)^2 cancels in its real part
        mpmath = pytest.importorskip("mpmath")
        g, mat = geom(w=2.0 * math.pi * 1e8), MetalMaterial("x", 1e9, mur)
        ks = np.array([1e-3, 0.1, 10.0])
        with mpmath.workdps(40):
            ks2 = mpmath.mpf(g.angular_frequency) * mpmath.mpf(1e9) * mpmath.mpf(MU0) * mur
            for k, got in zip(ks, phi_k(ks, g, mat)):
                root = mpmath.sqrt(k * k + 1j * ks2)
                expected = (root - k * mur) / (root + k * mur)
                assert abs(got.real - float(expected.real)) <= 1e-15 * abs(float(expected.real))
                assert abs(got.imag - float(expected.imag)) <= 1e-15 * abs(float(expected.imag))

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


def plan_edges(g: EddyGeometry, mat: MetalMaterial, k_max=None):
    """The x = a k panel edges and head depth of a pass (default: the first), from its plan."""
    level, panels, depth = eddy._pass_plan(g, mat, k_max or 30.0 / g.plate_distance)
    width = math.ldexp(12.0, -level)
    head = np.ldexp(width, -np.arange(depth, 0, -1))
    return np.concatenate([[0.0], head, width * np.arange(1.0, panels + 1.0)]), depth


def rule_nodes(g: EddyGeometry, mat: MetalMaterial, k_max=None):
    """The panel edges, first uniform panel and node table k of a pass (default: the first).

    A head of depth s replaces uniform panel 0 by s + 1 panels, so the first
    uniform panel is s + 1 with a head and 0 without.
    """
    x, depth = plan_edges(g, mat, k_max)
    edges = x / g.coil_half_side
    half = np.diff(edges)[:, None] / 2.0
    return edges, depth + (depth > 0), (edges[:-1, None] + half) + half * eddy._NODES


class TestPanelJ1:
    """Angle addition on a pass's uniform panels against bessel_j1 on the same nodes, in x."""

    def check(self, g, mat, graded):
        x, depth = plan_edges(g, mat)
        assert (depth > 0) == graded
        first = depth + (depth > 0)
        half = np.diff(x[first:])[:, None] / 2.0
        got = eddy._panel_j1(x[first:])
        expected = bessel_j1((x[first:-1, None] + half) + half * eddy._NODES)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-14

    def test_uniform_panels_only(self):
        self.check(geom(a=0.15, d=0.03), CU, graded=False)

    def test_beside_graded_panels(self):
        # sigma = 1e-6 S/m puts k_s / mur below the first uniform edge
        self.check(geom(0.05, 1, 0.01), MetalMaterial("x", 1e-6, 1000.0), graded=True)

    def test_blocked(self, monkeypatch):
        # a block of one point: bessel_j1's loop runs once per node
        monkeypatch.setattr(eddy, "_J1_BLOCK", 1)
        self.check(geom(a=0.15, d=0.01), CU, graded=False)

    def test_mirrored_offsets_give_the_direct_table(self, monkeypatch):
        # cos and sin at the 24 positive offsets, mirrored onto the 48, give the bits of
        # taking them at all 48, where numpy's sin is odd and its cos even
        def direct(edges):
            half = np.diff(edges) / 2.0
            centre = edges[:-1] + half
            offset = half[0] * eddy._NODES
            s = eddy._j1_nodes(float(centre[-1] + np.max(offset)))
            turn = np.outer(offset, s)
            cos_b, sin_b = (np.cos(turn) * s).T, (np.sin(turn) * s).T
            phase = np.outer(centre, s)
            return (np.sin(phase) @ cos_b + np.cos(phase) @ sin_b) / s.size

        plates = [(geom(a=0.15, d=0.03), CU), (geom(a=0.137, d=1e-3), FE)]
        cases = [12.0 * np.arange(17.0), 1.5 * np.arange(2000.0, 2017.0)]
        cases += [plan_edges(g, mat)[0] for g, mat in plates]
        for edges in cases:
            assert np.array_equal(eddy._panel_j1(edges), direct(edges))

    def test_no_graded_panels_when_k_low_is_the_first_uniform_edge(self):
        # with a = 0.1 and d = 0.2 the first uniform edge is the x-grid's level-2 width
        # 3 over a, 30 exactly, and k_low = sqrt(k_s^2)/mur/4 is 30 at k_s^2 = 14400:
        # nothing lies below it to grade
        g, k_max = geom(a=0.1, d=0.2, w=1.0), 30.0 / 0.2
        sigma = conductivity_for(14400.0)
        level, _, depth = eddy._pass_plan(g, MetalMaterial("x", sigma, 1.0), k_max)
        assert depth == 0 and math.ldexp(12.0, -level) / g.coil_half_side == 30.0
        below = MetalMaterial("x", math.nextafter(sigma, 0.0), 1.0)
        assert eddy._pass_plan(g, below, k_max)[2] > 0

    def test_far_out_plates_need_no_direct_rule(self, monkeypatch):
        # far outside the domain every pass still reads the x-grid's tables: a head 108
        # levels below level 2, a plate 2^70 times smaller and one 1e20 m away, both on
        # level 71, and a head clamped at _GRID_LEVELS evaluate with no direct J1 rule and
        # no linspace or geomspace panels to fall back on
        monkeypatch.setattr(eddy, "bessel_j1", None)
        monkeypatch.setattr(np, "linspace", None)
        monkeypatch.setattr(np, "geomspace", None)
        cases = [
            (geom(a=0.1, d=0.2), MetalMaterial("x", 1e-60, 1.0), (2, 5, 108)),
            (geom(a=math.ldexp(0.2, -70), d=0.2), CU, (71, 5, 0)),
            (geom(a=0.1, d=1e20), CU, (71, 6, 0)),
            (geom(a=0.1, d=0.2), MetalMaterial("x", 1e-308, 300.0), (2, 5, 361)),
        ]
        for g, mat, plan in cases:
            assert eddy._pass_plan(g, mat, 30.0 / g.plate_distance) == plan
            imp = plate_impedance(g, mat)
            assert imp.r_m > 0.0 and math.isfinite(imp.l_m), (g, mat)


def graded_plates() -> list[tuple[EddyGeometry, MetalMaterial]]:
    """Plates whose first pass has a head on the grid, from both of seeded_plates' ranges."""
    cases = [(geom(), FE), (geom(0.05, 1, 0.01), MetalMaterial("x", 1e-6, 1000.0))]
    for g, mat in seeded_plates(37, 60):
        if eddy._pass_plan(g, mat, 30.0 / g.plate_distance)[2]:
            cases.append((g, mat))
    return cases


class TestGridTables:
    """The x-grid's tables: one value per node, whatever the cache has seen."""

    @pytest.mark.parametrize("level, block", [(0, 0), (0, 3), (2, 0), (10, 0), (43, 0), (64, 0)])
    def test_rows_match_direct_rule(self, level, block):
        # each row: the node x, then bessel_j1(x)^2 w h / 2 in its rule's column, 0 in the other
        table = eddy._grid_table(level, block)
        width = math.ldexp(12.0, -level)
        edges = width * np.arange(16 * block, 16 * block + 17)
        x = (edges[:-1, None] + width / 2.0) + width / 2.0 * eddy._NODES
        assert np.array_equal(table[:, 0], x.ravel())
        j1 = bessel_j1(x)
        fine, check = eddy._FINE_NODES.size, eddy._CHECK_NODES.size
        weights = table[:, 1:].reshape(16, fine + check, 2)
        expected = j1 * j1 * width / 2.0
        rules = ((slice(0, fine), eddy._FINE_WEIGHTS), (slice(fine, None), eddy._CHECK_WEIGHTS))
        for column, (rule, w) in enumerate(rules):
            assert np.max(np.abs(weights[:, rule, column] - expected[:, rule] * w)) <= 1e-14
        assert not weights[:, fine:, 0].any() and not weights[:, :fine, 1].any()
        # down to level 64 the entries are far from underflow
        assert np.min(weights[:, :fine, 0]) > 1e-70

    def test_clamp_level_weights_are_zero(self):
        # every weight of _GRID_LEVELS' first table has underflowed to 0, and it is the
        # first level where they all have: a pass clamped there drops only zero terms
        deepest = eddy._grid_table(eddy._GRID_LEVELS, 0)
        assert not deepest[:, 1:].any() and deepest[:, 0].all()
        assert eddy._grid_table(eddy._GRID_LEVELS - 1, 0)[:, 1:].any()

    def test_pass_rows_lie_at_its_rule_nodes(self):
        # _grid_rows gives each panel of the pass, head or uniform, the nodes that its
        # edges give, to rounding at the size of the panel's upper edge
        cases = [(geom(a=0.15, d=0.03), CU), (geom(a=0.1, d=1e-3), AL), *graded_plates()]
        for g, mat in cases:
            edges, _, k = rule_nodes(g, mat)
            rows = eddy._grid_rows(*eddy._pass_plan(g, mat, 30.0 / g.plate_distance))
            assert rows.shape == (k.size, 3)
            gap = np.abs(rows[:, 0] / g.coil_half_side - k.ravel())
            assert np.all(gap <= 1e-15 * np.repeat(edges[1:], k.shape[1])), (g, mat)

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
        with pytest.raises(ValueError, match="read-only"):
            eddy._grid_rows(0, 5, 0)[0, 1] = 0.0

    def test_cache_stays_bounded(self):
        # a/d = 1040 needs 2,600 level-0 panels, 163 tables; every pass below level 0
        # takes its level's first table only, so plates on each level down to 64 add 64
        # more, the cache holds them all, and a repeat builds none.  Level 65 adds one
        eddy._grid_table.cache_clear()
        g = geom(a=0.104, d=1e-4)
        assert eddy._pass_plan(g, CU, 30.0 / g.plate_distance) == (0, 2600, 0)
        imp = plate_impedance(g, CU)
        assert imp.r_m > 0.0 and imp.l_m > 0.0
        assert eddy._grid_table.cache_info().currsize == 163
        smalls = [geom(a=math.ldexp(0.2, -level), d=0.2) for level in range(64)]
        for level, small in enumerate(smalls, 1):
            assert eddy._pass_plan(small, CU, 150.0)[0] == level
            plate_impedance(small, CU)
        info = eddy._grid_table.cache_info()
        assert info.currsize == 227 < eddy._GRID_TABLES == 256
        for small in (g, *smalls):
            plate_impedance(small, CU)
        assert eddy._grid_table.cache_info().misses == info.misses
        deeper = geom(a=math.ldexp(0.2, -64), d=0.2)
        assert eddy._pass_plan(deeper, CU, 150.0)[0] == 65
        plate_impedance(deeper, CU)
        assert eddy._grid_table.cache_info().currsize == 228


class TestGradedHead:
    """The head of halving panels that replaces a pass's first uniform panel."""

    def test_edges_halve_the_grid_width(self):
        # the head's edges are w 2^-j / a for the level's width w, and its depth is the
        # least that puts the first of them at or below k_low
        for g, mat in graded_plates():
            level, _, depth = eddy._pass_plan(g, mat, 30.0 / g.plate_distance)
            a, width = g.coil_half_side, math.ldexp(12.0, -level)
            k_low = math.sqrt(eddy._ks2(g, mat)) / mat.rel_permeability / 4.0
            assert math.ldexp(width, -depth) / a <= k_low < math.ldexp(width, 1 - depth) / a

    def test_depth_at_a_head_edge(self):
        # at a = 0.1, d = 0.2 the level-2 width is 30 over a; k_low = sqrt(k_s^2)/4 is 3.75
        # = 30 / 8 at k_s^2 = 225, a head of 3 levels with its first edge at k_low.  Below
        # it the head takes a fourth level
        g, k_max = geom(a=0.1, d=0.2, w=1.0), 150.0
        sigma = conductivity_for(225.0)
        mat = MetalMaterial("x", sigma, 1.0)
        assert eddy._pass_plan(g, mat, k_max) == (2, 5, 3)
        assert plan_edges(g, mat, k_max)[0][1] / g.coil_half_side == 3.75
        below = MetalMaterial("x", math.nextafter(sigma, 0.0), 1.0)
        assert eddy._pass_plan(g, below, k_max) == (2, 5, 4)
        assert plan_edges(g, below, k_max)[0][1] / g.coil_half_side == 1.875

    def test_head_one_level_deeper_one_float_lower(self):
        # k_low = 30 2^-62 puts the head 62 levels below level 2, level 64; one float
        # lower it reaches level 65.  Both give the same plate
        g, k_max = geom(a=0.1, d=0.2, w=1.0), 150.0
        sigma = conductivity_for(math.ldexp(14400.0, -124))
        level_64 = MetalMaterial("x", sigma, 1.0)
        assert eddy._pass_plan(g, level_64, k_max) == (2, 5, 62)
        level_65 = MetalMaterial("x", math.nextafter(sigma, 0.0), 1.0)
        assert eddy._pass_plan(g, level_65, k_max) == (2, 5, 63)
        upper, lower = plate_impedance(g, level_64), plate_impedance(g, level_65)
        assert upper.r_m == pytest.approx(lower.r_m, rel=1e-12, abs=0.0)
        assert upper.l_m == pytest.approx(lower.l_m, rel=1e-12, abs=0.0)

    def test_head_clamped_at_the_last_level(self):
        # a head that would reach past _GRID_LEVELS stops there; so does the level of a
        # plate whose x_max is below 36 widths of it
        g = geom(a=0.1, d=0.2)
        level, _, depth = eddy._pass_plan(g, MetalMaterial("x", 1e-250, 1.0), 150.0)
        assert level + depth == eddy._GRID_LEVELS and level == 2
        assert eddy._pass_plan(geom(d=1e300), CU, 3e-299) == (eddy._GRID_LEVELS, 4, 0)

    def test_deepest_domain_head_matches_mpmath(self):
        # the domain's corner a = d = 1e-4 m, 1 Hz, sigma = 1e-3 S/m, mu_r = 1e6 puts the
        # head 42 levels below level 1, and takes a table on each level.  scipy's quad is
        # off at that corner (ROADMAP item 11), so the oracle is mpmath's, split at
        # k_s / mu_r 2^j and every 2 units of x = a k
        a = d = 1e-4
        g, mat = EddyGeometry(a, 3, d, 2.0 * math.pi), MetalMaterial("x", 1e-3, 1e6)
        level, _, depth = eddy._pass_plan(g, mat, 30.0 / d)
        assert (depth, level) == (42, 1)
        eddy._grid_table.cache_clear()
        got = plate_impedance(g, mat)
        assert eddy._grid_table.cache_info().currsize == 43
        low = math.sqrt(eddy._ks2(g, mat)) / mat.rel_permeability
        points = [0.0] + [low * 2.0**j for j in range(-4, 40) if low * 2.0**j < 1.0 / a]
        expected = mpmath_plate_impedance(g, mat, points + [x / a for x in range(1, 101, 2)], got)
        assert abs(got.impedance(g.angular_frequency) - expected) <= 1e-12 * abs(expected)
        assert got.r_m == pytest.approx(expected.real, rel=1e-12, abs=0.0)

    def test_head_far_past_the_domain_matches_mpmath(self):
        # sigma = 1e-60 S/m puts the head 108 levels below level 2, 65 levels below the
        # domain's deepest; the oracle is split at k_s / mu_r 2^j for every fourth j
        # (every j gives the same value in three times the time) and every 2 units of
        # x = a k
        g, mat = geom(a=0.1, d=0.2), MetalMaterial("x", 1e-60, 1.0)
        assert eddy._pass_plan(g, mat, 150.0) == (2, 5, 108)
        got = plate_impedance(g, mat)
        low = math.sqrt(eddy._ks2(g, mat)) / mat.rel_permeability
        points = [0.0] + [low * 2.0**j for j in range(-4, 120, 4) if low * 2.0**j < 1.0 / 0.1]
        expected = mpmath_plate_impedance(g, mat, points + [x / 0.1 for x in range(1, 31, 2)], got)
        assert abs(got.impedance(g.angular_frequency) - expected) <= 1e-12 * abs(expected)
        assert got.r_m == pytest.approx(expected.real, rel=1e-12, abs=0.0)


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

    @pytest.mark.parametrize("a", [1e-4, 100.0])
    def test_loss_where_k_s_dominates_matches_mpmath(self, a):
        # 100 MHz and 1e9 S/m put k_s near 9e5 1/m, and d = 100 m keeps k below 1.3 1/m:
        # R_m's part is 2.4e-8 of L_m's at a = 1e-4 m, and (root + k)^2 squared as a
        # complex number cancels in its real part there, by 5e-9 of R_m
        g, mat = geom(a=a, d=100.0, w=2.0 * math.pi * 1e8), MetalMaterial("x", 1e9, 1.0)
        got = plate_impedance(g, mat)
        points = [0.0, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28]
        if a > 1.0:
            points = sorted(points + [x / a for x in range(2, 128, 2)])
        expected = mpmath_plate_impedance(g, mat, points, got)
        assert got.r_m == pytest.approx(expected.real, rel=1e-12, abs=0.0)
        assert g.angular_frequency * got.l_m == pytest.approx(expected.imag, rel=1e-12, abs=0.0)

    # at 2e-14 quad can reach its rounding floor and says so; it still
    # returns its best value, which the bound below then judges
    @pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
    def test_matches_adaptive_quad_oracle(self):
        for g, mat in seeded_plates(23, 100):
            expected = quad_plate_impedance(g, mat)
            got = plate_impedance(g, mat).impedance(g.angular_frequency)
            assert abs(got - expected) <= 1e-12 * abs(expected), (g, mat)

    # 48 2^-L is where a level's 4 panels become 5, and 36 2^-L where the next
    # level's 6 become this level's 4; each point's (panels, level - L) below, at
    # and above the edge
    @pytest.mark.filterwarnings("ignore:The occurrence of roundoff error")
    @pytest.mark.parametrize("level", [0, 1, 5])
    @pytest.mark.parametrize(
        "edge, rules",
        [(48.0, ((4, 0), (4, 0), (5, 0))), (36.0, ((6, 1), (6, 1), (4, 0)))],
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
                got_level, got_panels, depth = eddy._pass_plan(g, mat, 128.0)
                assert (got_level, got_panels) == (level + finer, panels)
                assert (depth > 0) == graded
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
        # the work _pass_plan computes for one pass, read from its frame as it returns
        g, k_max = geom(), 30.0 / 0.2
        seen = {}

        def spy(frame, event, arg):
            if event == "return" and frame.f_code is eddy._pass_plan.__code__:
                seen.update(frame.f_locals)

        previous = sys.getprofile()
        sys.setprofile(spy)
        try:
            plan = eddy._pass_plan(g, FE, k_max)
        finally:
            sys.setprofile(previous)
        work = seen["work"]
        monkeypatch.setattr(eddy, "_MAX_J1_WORK", work)
        assert eddy._pass_plan(g, FE, k_max) == plan
        monkeypatch.setattr(eddy, "_MAX_J1_WORK", math.nextafter(work, 0.0))
        with pytest.raises(WorkLimitError, match="over its cap"):
            eddy._pass_plan(g, FE, k_max)

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
