import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from wptmod import cli, magnetics, scenario, schema
from wptmod.errors import ConvergenceError
from wptmod.magnetics import (
    CoaxialPair,
    SquareLoop,
    mutual_inductance_coaxial_squares,
    mutual_inductance_coil_coil_closed,
    mutual_inductance_coil_plate,
    mutual_inductance_coil_plate_by_integration,
    mutual_inductance_neumann,
)


def simpson_oracle(a: float, b: float, h: float) -> float:
    """The plate radius integral's Simpson sum in numpy: same nodes, weights and terms, one dot."""
    bp = np.linspace(0.0, b, 2 * magnetics._SIMPSON_PANELS + 1)
    log_ratio = np.log(np.hypot(a + bp, h)) - np.log(np.hypot(a - bp, h))
    integrand = 4.0 * magnetics.MU0 * bp / math.pi * log_ratio
    weights = np.ones_like(bp)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return b / (2 * magnetics._SIMPSON_PANELS) / 3.0 * float(weights @ integrand)


class TestNeumann:
    def test_golden_reference(self):
        # converged discretized double contour integral, frozen 2026-08
        pair = CoaxialPair(SquareLoop(0.164), 0.164, 0.2)
        assert mutual_inductance_neumann(pair) == pytest.approx(7.9562e-8, rel=2e-3)

    def test_reciprocity(self):
        pair = CoaxialPair(SquareLoop(0.23, 2), 0.11, 0.17, secondary_turns=4)
        swapped = CoaxialPair(SquareLoop(0.11, 4), 0.23, 0.17, secondary_turns=2)
        m1 = mutual_inductance_neumann(pair)
        m2 = mutual_inductance_neumann(swapped)
        assert m1 == pytest.approx(m2, rel=1e-3)

    def test_turns_scaling_exact(self):
        base = CoaxialPair(SquareLoop(0.164), 0.1, 0.2)
        scaled = CoaxialPair(SquareLoop(0.164, 3), 0.1, 0.2, secondary_turns=5)
        assert mutual_inductance_neumann(scaled) == 15.0 * mutual_inductance_neumann(base)

    def test_monotone_decreasing_in_h(self):
        values = [
            mutual_inductance_neumann(CoaxialPair(SquareLoop(0.164), 0.164, h))
            for h in np.linspace(0.05, 1.0, 8)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_monotone_increasing_in_b(self):
        values = [
            mutual_inductance_neumann(CoaxialPair(SquareLoop(0.2), b, 0.2))
            for b in (0.05, 0.1, 0.15, 0.19)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_far_field_decay(self):
        a = 0.164
        near = mutual_inductance_neumann(CoaxialPair(SquareLoop(a), a, a))
        far = mutual_inductance_neumann(CoaxialPair(SquareLoop(a), a, 100 * a))
        # dipole regime: 1/h^3 gives ~5e-6 at h=100a, not the naive 1e-6
        assert far < 1e-5 * near
        farther = mutual_inductance_neumann(CoaxialPair(SquareLoop(a), a, 200 * a))
        assert farther / far == pytest.approx(1.0 / 8.0, rel=0.02)

    def test_pair_table_memory_bounded(self):
        # 512 elements/side is 2048 x 2048 element pairs; as one table they
        # take ~200 MB, and ~770 MB at 1024/side, the n_max cap
        pair = CoaxialPair(SquareLoop(0.1), 0.07, 0.05)
        tracemalloc.start()
        try:
            value = magnetics._neumann_sum(0.1, 0.07, 0.05, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        assert value == pytest.approx(mutual_inductance_coaxial_squares(pair), rel=1e-6)

    def test_blocking_keeps_the_sum(self, monkeypatch):
        sums = []
        for block in (1, 1000, 1 << 30):  # one row per block, a few rows, one block
            monkeypatch.setattr(magnetics, "_NEUMANN_BLOCK", block)
            sums.append(magnetics._neumann_sum(0.164, 0.1, 0.2, 40))
        assert sums == pytest.approx([sums[0]] * 3, rel=1e-13)

    def test_loop_bound_admits_n_max(self):
        # at rel_tol 0.5 the 16 and 32 elements/side sums agree: a refinement to
        # exactly n_max runs, and one cap below it does not
        pair = CoaxialPair(SquareLoop(0.164), 0.164, 0.2)
        m = mutual_inductance_neumann(pair, rel_tol=0.5, n_max=32)
        assert m == magnetics._neumann_sum(0.164, 0.164, 0.2, 32)
        with pytest.raises(ConvergenceError, match="within 31 elements/side"):
            mutual_inductance_neumann(pair, rel_tol=0.5, n_max=31)

    def test_convergence_admits_a_gap_of_exactly_rel_tol(self):
        # a rel_tol whose product with |cur| is the gap itself stops the refinement
        prev, cur = (magnetics._neumann_sum(0.164, 0.164, 0.2, n) for n in (16, 32))
        gap = abs(cur - prev)
        # the least rel_tol whose product with |cur| reaches the gap
        rel_tol = gap / abs(cur)
        while rel_tol * abs(cur) < gap:
            rel_tol = math.nextafter(rel_tol, 1.0)
        while math.nextafter(rel_tol, 0.0) * abs(cur) >= gap:
            rel_tol = math.nextafter(rel_tol, 0.0)
        assert rel_tol * abs(cur) == gap
        pair = CoaxialPair(SquareLoop(0.164), 0.164, 0.2)
        assert mutual_inductance_neumann(pair, rel_tol=rel_tol, n_max=32) == cur
        with pytest.raises(ConvergenceError):
            mutual_inductance_neumann(pair, rel_tol=math.nextafter(rel_tol, 0.0), n_max=32)


class TestCoaxialSquares:
    # (a, b, h, N1, N2); each converges at 256 elements/side, so the reference stays small
    GEOMETRIES = [
        (0.164, 0.164, 0.2, 1, 1),
        (0.164, 0.1, 0.01, 3, 1),
        (0.1, 0.25, 0.05, 2, 3),
        (0.23, 0.11, 0.17, 1, 4),
        (0.3, 0.2, 0.4, 3, 3),
    ]

    @pytest.mark.parametrize("a, b, h, n1, n2", GEOMETRIES)
    def test_matches_refined_neumann(self, a, b, h, n1, n2):
        pair = CoaxialPair(SquareLoop(a, n1), b, h, secondary_turns=n2)
        reference = mutual_inductance_neumann(pair, rel_tol=1e-5, n_max=4096)
        assert mutual_inductance_coaxial_squares(pair) == pytest.approx(reference, rel=1e-5)

    @pytest.mark.parametrize("a, b, h, n1, n2", GEOMETRIES)
    def test_swap_exact(self, a, b, h, n1, n2):
        pair = CoaxialPair(SquareLoop(a, n1), b, h, secondary_turns=n2)
        swapped = CoaxialPair(SquareLoop(b, n2), a, h, secondary_turns=n1)
        assert mutual_inductance_coaxial_squares(pair) == mutual_inductance_coaxial_squares(swapped)

    def test_turns_scaling_exact(self):
        base = CoaxialPair(SquareLoop(0.164), 0.1, 0.2)
        scaled = CoaxialPair(SquareLoop(0.164, 3), 0.1, 0.2, secondary_turns=5)
        assert mutual_inductance_coaxial_squares(scaled) == 15.0 * (
            mutual_inductance_coaxial_squares(base)
        )

    def test_pipeline_never_reaches_neumann(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline called mutual_inductance_neumann")

        monkeypatch.setattr(magnetics, "mutual_inductance_neumann", refuse)
        assert scenario.build_sweeps(scenario.load_scenario())
        for verb in ("couplings", "curves", "fit", "detect"):
            assert cli.main([verb, "--out", str(tmp_path)]) == cli.EXIT_OK


class TestClosedForms:
    def test_closed_form_tracks_neumann_within_band(self):
        # labeled approximation: overshoots the contour integral by < 2.5x
        for a, b, h in [(0.164, 0.164, 0.2), (0.164, 0.1, 0.2), (0.3, 0.2, 0.4)]:
            pair = CoaxialPair(SquareLoop(a), b, h)
            ratio = mutual_inductance_coil_coil_closed(pair) / mutual_inductance_neumann(pair)
            assert 1.0 < ratio < 2.5

    def test_monotone_decreasing_in_h(self):
        values = [
            mutual_inductance_coil_coil_closed(CoaxialPair(SquareLoop(0.164), 0.1, h))
            for h in (0.1, 0.2, 0.4, 0.8, 5.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-2 * values[0]

    def test_singular_log(self):
        with pytest.raises(ValueError):
            CoaxialPair(SquareLoop(0.1), 0.1, 0.0)

    @pytest.mark.parametrize("distance", [1e-160, 1e-300])
    def test_couplings_finite_for_equal_loops_almost_touching(self, distance):
        # (a - b)^2 + h^2 is subnormal at 1e-160 and 0 at 1e-300; hypot(a - b, h) is neither.
        # The bundled first coil and transmitter, at a distance below the least distance_m
        pair = CoaxialPair(SquareLoop(0.164, 3), 0.164, distance, secondary_turns=3)
        values = [mutual_inductance_coil_coil_closed(pair), mutual_inductance_coaxial_squares(pair)]
        assert all(math.isfinite(v) and v > 0.0 for v in values)

    def test_plate_closed_vs_integration(self):
        for a in (0.05, 0.1, 0.2, 0.35, 0.5):
            for b in (0.05, 0.1, 0.2, 0.35, 0.5):
                for h in (0.1, 0.2, 0.4, 0.8):
                    loop = SquareLoop(a, 2)
                    closed = mutual_inductance_coil_plate(loop, b, h)
                    integ = mutual_inductance_coil_plate_by_integration(loop, b, h)
                    assert closed == pytest.approx(integ, rel=1e-6)

    def test_plate_integration_matches_numpy_oracle_on_desk_geometry(self):
        # the benchmark's plates: the bundled coil, b 0.02-0.15 m, h 0.03-0.30 m
        a = 0.164
        for b in np.linspace(0.02, 0.15, 14):
            for h in np.linspace(0.03, 0.30, 10):
                m = mutual_inductance_coil_plate_by_integration(SquareLoop(a), b, h)
                assert m == pytest.approx(simpson_oracle(a, b, h), rel=1e-14, abs=0.0)

    def test_plate_integration_matches_numpy_oracle_across_the_domain(self):
        # on every LENGTH_M decade with h <= 10 max(a, b); farther away both sums
        # cancel in the log ratio and drift apart (ROADMAP item 11)
        lo, hi = (schema.LENGTH_M[k] for k in ("ge", "le"))
        decades = [10.0**k for k in range(round(math.log10(lo)), round(math.log10(hi)) + 1)]
        for a in decades:
            for b in decades:
                for h in decades:
                    if h <= 10.0 * max(a, b):
                        m = mutual_inductance_coil_plate_by_integration(SquareLoop(a), b, h)
                        assert m == pytest.approx(simpson_oracle(a, b, h), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("length", [1e-200, 1e-300])
    def test_plate_integration_finite_at_tiny_lengths(self, length):
        # (a +- b)^2 + h^2 underflowed to 0 and read 0/0; hypot(a +- b, h) does not
        loop = SquareLoop(length, 3)
        integ = mutual_inductance_coil_plate_by_integration(loop, length, length)
        assert integ == mutual_inductance_coil_plate(loop, length, length) == 0.0

    def test_plate_vanishes_with_size(self):
        loop = SquareLoop(0.164)
        small = mutual_inductance_coil_plate(loop, 1e-6, 0.2)
        assert abs(small) < 1e-16

    def test_plate_monotone_in_size(self):
        loop = SquareLoop(0.164)
        values = [
            mutual_inductance_coil_plate(loop, b, 0.2) for b in (0.05, 0.1, 0.2, 0.5, 1.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_repro_case_ratios(self):
        # coil/plate coupling ratios ~29 (b=0.1) and ~1.3 (b=1) at h=0.2
        loop = SquareLoop(0.164)
        for b, expected in [(0.1, 29.0), (1.0, 1.3)]:
            coil = mutual_inductance_coil_coil_closed(CoaxialPair(loop, b, 0.2))
            plate = mutual_inductance_coil_plate(loop, b, 0.2)
            assert coil / plate == pytest.approx(expected, rel=0.06)
        assert (
            mutual_inductance_coil_coil_closed(CoaxialPair(loop, 0.1, 0.2))
            / mutual_inductance_coil_plate(loop, 0.1, 0.2)
            > 10.0
        )


class TestInvariantsValidation:
    def test_square_loop_invariants(self):
        with pytest.raises(ValueError):
            SquareLoop(0.0)
        with pytest.raises(ValueError):
            SquareLoop(0.1, 0)


class TestLibraryGuards:
    # a scenario never reaches these guards, since the schema domain refuses
    # the same values at parse time; each is tested at its first refused value

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"secondary_half_side": 0.0}, "secondary_half_side must be > 0"),
            ({"secondary_turns": 0}, "secondary_turns must be a positive integer"),
            ({"secondary_turns": 1.5}, "secondary_turns must be a positive integer"),
        ],
        ids=["secondary_half_side", "secondary_turns", "fractional_turns"],
    )
    def test_coaxial_pair_refuses_first_invalid_value(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(CoaxialPair(SquareLoop(0.1), 0.1, 0.2), **values)

    @pytest.mark.parametrize("n_max", [16, 32])
    def test_neumann_refuses_to_stop_short_of_its_tolerance(self, n_max):
        pair = CoaxialPair(SquareLoop(0.1), 0.1, 0.2)
        message = f"^Neumann integral did not converge to 1e-12 within {n_max} elements/side$"
        with pytest.raises(ConvergenceError, match=message):
            mutual_inductance_neumann(pair, rel_tol=1e-12, n_max=n_max)

    @pytest.mark.parametrize(
        "coupling", [mutual_inductance_coil_plate, mutual_inductance_coil_plate_by_integration]
    )
    @pytest.mark.parametrize(
        "plate_half_side, separation, message",
        [(0.0, 0.2, "plate_half_side must be > 0"), (0.1, 0.0, "separation must be > 0")],
        ids=["plate_half_side", "separation"],
    )
    def test_plate_coupling_refuses_zero(self, coupling, plate_half_side, separation, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            coupling(SquareLoop(0.1, 3), plate_half_side, separation)
