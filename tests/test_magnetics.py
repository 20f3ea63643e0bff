import json
import math
from importlib import resources

import numpy as np
import pytest

from wptmod import cli, magnetics, scenario
from wptmod.magnetics import (
    CoaxialPair,
    SquareLoop,
    mutual_inductance_coaxial_squares,
    mutual_inductance_coil_coil_closed,
    mutual_inductance_coil_plate,
    mutual_inductance_coil_plate_by_integration,
    mutual_inductance_neumann,
)


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
    def test_couplings_finite_for_equal_loops_almost_touching(self, tmp_path, distance):
        # (a - b)^2 + h^2 is subnormal at 1e-160 and 0 at 1e-300; hypot(a - b, h) is neither
        raw = json.loads(resources.files("wptmod.data").joinpath("paper_repro.json").read_text())
        assert raw["receiver_coils"][0]["half_side_m"] == raw["transmitter"]["half_side_m"]
        raw["receiver_coils"][0]["distance_m"] = distance
        path = tmp_path / "near.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["couplings", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        rows = [ln.split(",") for ln in (tmp_path / "couplings.csv").read_text().splitlines()]
        values = [float(v) for row in rows[1:] for v in row[2:4]]
        assert all(math.isfinite(v) and v > 0.0 for v in values)

    def test_plate_closed_vs_integration(self):
        for a in (0.05, 0.1, 0.2, 0.35, 0.5):
            for b in (0.05, 0.1, 0.2, 0.35, 0.5):
                for h in (0.1, 0.2, 0.4, 0.8):
                    loop = SquareLoop(a, 2)
                    closed = mutual_inductance_coil_plate(loop, b, h)
                    integ = mutual_inductance_coil_plate_by_integration(loop, b, h)
                    assert closed == pytest.approx(integ, rel=1e-6)

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
