import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from wptmod.characteristics import CharacteristicCurve, curves_from_csv, curves_to_csv
from wptmod.detection import (
    Label,
    Sample,
    ThresholdModel,
    classify,
    evaluate_batch,
    fit_thresholds,
)
from wptmod.errors import NonSeparableDataError
from wptmod.scenario import generate_test_samples

GRID = np.linspace(0.0, 10.0, 21)


def curve(label, u_fn, p_fn, grid=GRID):
    u = np.maximum(u_fn(grid), 0.0)
    p = np.maximum(p_fn(grid), 0.0)
    return CharacteristicCurve(label, grid, u, p)


def separable_training(shift=0.0):
    metal = [
        curve("metal:a", lambda i: 0.4 * i + shift, lambda i: 0.05 * i**2 + shift),
        curve("metal:b", lambda i: 0.5 * i + shift, lambda i: 0.06 * i**2 + shift),
    ]
    coil = [
        curve("coil:a", lambda i: 1.0 * i + shift, lambda i: 0.12 * i**2 + shift),
        curve("coil:b", lambda i: 1.2 * i + shift, lambda i: 0.15 * i**2 + shift),
    ]
    return metal, coil


class TestFitting:
    def test_midpoint_line_exact(self):
        # single metal line 0.5*i, single coil line 1.0*i: midpoint 0.75*i
        metal = [curve("metal:a", lambda i: 0.5 * i, lambda i: 0.05 * i**2)]
        coil = [curve("coil:a", lambda i: 1.0 * i, lambda i: 0.15 * i**2)]
        model = fit_thresholds(metal, coil, degree=2)
        assert model.u_slope == pytest.approx(0.75, abs=1e-9)
        assert model.u_intercept == pytest.approx(0.0, abs=1e-9)
        # P midpoint is exactly the quadratic 0.10*i^2
        assert model.p_poly[2] == pytest.approx(0.10, abs=1e-9)
        assert model.p_poly[0] == pytest.approx(0.0, abs=1e-9)
        assert model.p_poly[1] == pytest.approx(0.0, abs=1e-9)

    def test_envelope_uses_extremes(self):
        # adding an even lower metal curve must not move the upper envelope
        metal, coil = separable_training()
        model_a = fit_thresholds(metal, coil)
        metal_extra = metal + [
            curve("metal:c", lambda i: 0.1 * i, lambda i: 0.01 * i**2)
        ]
        model_b = fit_thresholds(metal_extra, coil)
        assert model_a.u_slope == pytest.approx(model_b.u_slope, rel=1e-12)
        assert model_a.p_poly == pytest.approx(model_b.p_poly, rel=1e-12)

    def test_training_order_invariance(self):
        metal, coil = separable_training()
        a = fit_thresholds(metal, coil)
        b = fit_thresholds(metal[::-1], coil[::-1])
        assert a.u_slope == b.u_slope and a.u_intercept == b.u_intercept
        assert a.p_poly == b.p_poly

    def test_determinism(self):
        metal, coil = separable_training()
        a = fit_thresholds(metal, coil)
        b = fit_thresholds(metal, coil)
        assert a == b

    def test_non_separable(self):
        metal = [curve("metal:a", lambda i: 1.0 * i, lambda i: 0.10 * i**2)]
        coil = [curve("coil:a", lambda i: 1.0 * i, lambda i: 0.10 * i**2)]
        with pytest.raises(NonSeparableDataError):
            fit_thresholds(metal, coil)

    def test_overlap_in_one_plane_suffices(self):
        # U separable, P fully overlapping: still not separable
        metal = [curve("metal:a", lambda i: 0.5 * i, lambda i: 0.10 * i**2)]
        coil = [curve("coil:a", lambda i: 1.0 * i, lambda i: 0.10 * i**2)]
        with pytest.raises(NonSeparableDataError):
            fit_thresholds(metal, coil)

    def test_exact_tie_counts_as_overlap(self):
        # P separable, U equal at every point: a tie is overlap, not separation
        metal = [curve("metal:a", lambda i: 1.0 * i, lambda i: 0.05 * i**2)]
        coil = [curve("coil:a", lambda i: 1.0 * i, lambda i: 0.15 * i**2)]
        with pytest.raises(NonSeparableDataError, match="overlap at 100% of the grid points"):
            fit_thresholds(metal, coil)

    @pytest.mark.parametrize("points, refused", [(10, True), (11, False)])
    def test_overlap_at_ten_percent_refused(self, points, refused):
        # one overlapping point of all checked: 1 in 10 is the documented 10% and refuses,
        # 1 in 11 fits
        grid = np.linspace(1.0, 10.0, points)
        metal = [curve("metal:a", lambda i: 0.5 * i, lambda i: 0.05 * i**2, grid)]
        coil_u = np.where(grid == grid[-1], 0.4, 1.0) * grid
        coil = [CharacteristicCurve("coil:a", grid, coil_u, 0.15 * grid**2)]
        if refused:
            message = "overlap at 10% of the grid points at or above 1 A, 10 in all"
            with pytest.raises(NonSeparableDataError, match=re.escape(message)):
                fit_thresholds(metal, coil, i_min_gate=1.0)
        else:
            assert fit_thresholds(metal, coil, i_min_gate=1.0).i_min_gate == 1.0

    @pytest.mark.parametrize("gate", [10.0, 20.0, 50.0])
    def test_gate_past_grid_checks_last_point(self, gate):
        # the grid ends at 10 A; a coil at the metal's curve overlaps everywhere, so a fit
        # that checked no point would read that metal as coil past the gate
        metal, coil = separable_training()
        coil.append(curve("coil:c", lambda i: 0.5 * i, lambda i: 0.06 * i**2))
        message = f"of the grid points at or above 10 A, 1 in all (gate {gate:g} A)"
        with pytest.raises(NonSeparableDataError, match=re.escape(message)):
            fit_thresholds(metal, coil, i_min_gate=gate)
        # separable classes still fit with the gate anywhere
        assert fit_thresholds(*separable_training(), i_min_gate=gate).i_min_gate == gate

    def test_empty_class_rejected(self):
        metal, coil = separable_training()
        with pytest.raises(ValueError):
            fit_thresholds([], coil)
        with pytest.raises(ValueError):
            fit_thresholds(metal, [])

    def test_degree_below_grid_points(self):
        # 21 grid points determine a polynomial of degree 20 at most
        metal, coil = separable_training()
        assert fit_thresholds(metal, coil, degree=1).degree == 1
        assert fit_thresholds(metal, coil, degree=20).degree == 20
        for degree in (0, 21):
            message = f"degree must be >= 1 and < 21, the grid's point count, got {degree}"
            with pytest.raises(ValueError, match=re.escape(message)):
                fit_thresholds(metal, coil, degree=degree)

    def test_mismatched_grids_resampled(self):
        metal = [
            curve("metal:a", lambda i: 0.5 * i, lambda i: 0.05 * i**2,
                  grid=np.linspace(0.0, 10.0, 31))
        ]
        coil = [curve("coil:a", lambda i: 1.0 * i, lambda i: 0.15 * i**2)]
        model = fit_thresholds(metal, coil)
        assert model.u_slope == pytest.approx(0.75, abs=1e-6)

    def test_mismatched_grids_fit_independent_of_order(self):
        # resampled onto the common range 0.5-10 A at the largest point count, 31,
        # whichever curve comes first; the first metal curve has 11 points
        metal = [
            curve("metal:a", lambda i: 0.4 * i, lambda i: 0.05 * i**2,
                  grid=np.linspace(0.0, 10.0, 11)),
            curve("metal:b", lambda i: 0.5 * i, lambda i: 0.06 * i**2,
                  grid=np.linspace(0.0, 10.0, 31)),
            curve("metal:c", lambda i: 0.45 * i, lambda i: 0.055 * i**2),
        ]
        coil = [
            curve("coil:a", lambda i: 1.0 * i, lambda i: 0.12 * i**2,
                  grid=np.linspace(0.5, 10.0, 20)),
            curve("coil:b", lambda i: 1.2 * i, lambda i: 0.15 * i**2),
        ]
        model = fit_thresholds(metal, coil, degree=20)
        for m in itertools.permutations(metal):
            for c in itertools.permutations(coil):
                assert fit_thresholds(list(m), list(c), degree=20) == model
        with pytest.raises(ValueError, match="< 31, the grid's point count, got 31"):
            fit_thresholds(metal, coil, degree=31)

    def test_ranges_touching_at_one_current_refused(self):
        # metal swept over 0-5 A and coil over 5-10 A share only 5 A: no grid to fit on
        metal = [curve("metal:a", lambda i: 0.5 * i, lambda i: 0.05 * i**2,
                       grid=np.linspace(0.0, 5.0, 11))]
        coil = [curve("coil:a", lambda i: 1.0 * i, lambda i: 0.15 * i**2,
                      grid=np.linspace(5.0, 10.0, 11))]
        with pytest.raises(ValueError, match="curves have no overlapping current range"):
            fit_thresholds(metal, coil)


class TestClassify:
    @pytest.fixture()
    def model(self):
        metal, coil = separable_training()
        return fit_thresholds(metal, coil)

    def test_metal_side(self, model):
        s = Sample(6.0, 0.45 * 6.0, 0.055 * 36.0)
        v = classify(s, model)
        assert v.label is Label.METAL and v.u_below and v.p_below and not v.gated

    def test_coil_side(self, model):
        s = Sample(6.0, 1.1 * 6.0, 0.13 * 36.0)
        v = classify(s, model)
        assert v.label is Label.COIL and not v.u_below and not v.p_below

    def test_gate(self, model):
        v = classify(Sample(0.5, 0.0, 0.0), model)
        assert v.label is Label.INDETERMINATE and v.gated
        assert v.u_below is None and v.p_below is None

    def test_gate_boundary_is_decidable(self, model):
        v = classify(Sample(3.0, 100.0, 100.0), model)
        assert not v.gated and v.label is Label.COIL

    def test_on_threshold_counts_as_coil(self, model):
        i = 6.0
        s = Sample(i, model.u_threshold(i), model.p_threshold(i))
        v = classify(s, model)
        assert v.label is Label.COIL

    def test_disagreeing_planes(self, model):
        i = 6.0
        s = Sample(i, 0.0, model.p_threshold(i) + 1.0)
        v = classify(s, model)
        assert v.label is Label.INDETERMINATE and not v.gated

    def test_gate_monotone(self, model):
        wide = ThresholdModel(model.u_slope, model.u_intercept, model.p_poly, i_min_gate=7.0)
        s = Sample(6.0, 0.45 * 6.0, 0.055 * 36.0)
        assert classify(s, model).label is Label.METAL
        assert classify(s, wide).label is Label.INDETERMINATE


class TestBatch:
    @pytest.fixture()
    def model(self):
        metal, coil = separable_training()
        return fit_thresholds(metal, coil)

    def test_counts_and_accuracy(self, model):
        samples = [
            ("metal", Sample(6.0, 0.45 * 6.0, 0.055 * 36.0)),
            ("metal", Sample(9.0, 0.45 * 9.0, 0.055 * 81.0)),
            ("coil", Sample(6.0, 1.1 * 6.0, 0.13 * 36.0)),
            ("coil", Sample(0.5, 0.1, 0.1)),
        ]
        report = evaluate_batch(samples, model)
        assert report["total"] == 4
        assert report["decidable"] == 3
        assert report["accuracy"] == pytest.approx(1.0)
        assert report["counts"]["metal"]["metal"] == 2
        assert report["counts"]["coil"]["coil"] == 1
        assert report["counts"]["coil"]["indeterminate"] == 1
        assert not report["no_decidable_samples"]
        assert len(report["samples"]) == 4

    def test_all_gated(self, model):
        samples = [("coil", Sample(0.5, 0.1, 0.1))] * 3
        report = evaluate_batch(samples, model)
        assert report["no_decidable_samples"]
        assert report["accuracy"] is None

    def test_empty_batch_rejected(self, model):
        with pytest.raises(ValueError):
            evaluate_batch([], model)


def test_p_threshold_matches_polyval_exactly():
    rng = np.random.default_rng(11)
    for _ in range(300):
        degree = int(rng.integers(1, 7))
        coeffs = rng.normal(0.0, 1.0, degree + 1) * 10.0 ** rng.uniform(-9.0, 3.0, degree + 1)
        model = ThresholdModel(1.0, 0.0, tuple(coeffs))
        assert model.degree == degree
        for i in np.concatenate([[0.0, 3.0], rng.uniform(0.0, 50.0, 30)]).tolist():
            assert model.p_threshold(i) == float(np.polynomial.polynomial.polyval(i, coeffs))


class TestModelSerialization:
    def test_round_trip_bit_exact(self):
        metal, coil = separable_training()
        model = fit_thresholds(metal, coil, degree=3)
        back = ThresholdModel.from_json(model.to_json())
        assert back.u_slope == model.u_slope
        assert back.u_intercept == model.u_intercept
        assert back.p_poly == model.p_poly
        assert back.degree == model.degree
        assert back.i_min_gate == model.i_min_gate
        assert back.to_json() == model.to_json()

    def test_validation(self):
        # a constant P threshold (degree 0) is refused
        with pytest.raises(ValueError, match="p_poly must have at least 2 coefficients, got 1"):
            ThresholdModel(1.0, 0.0, (1.0,))
        with pytest.raises(ValueError):
            ThresholdModel(1.0, 0.0, (1.0, 2.0), i_min_gate=0.0)

    @pytest.mark.parametrize("gate", [float("inf"), float("nan")])
    def test_non_finite_gate_rejected(self, gate):
        with pytest.raises(ValueError, match="i_min_gate must be finite and > 0"):
            ThresholdModel(1.0, 0.0, (1.0, 2.0), i_min_gate=gate)

    @pytest.mark.parametrize(
        "fields, name",
        [
            ((math.nan, 0.0, (0.0, 0.0, 0.0)), "u_slope"),
            ((1.0, math.inf, (0.0, 0.0, 0.0)), "u_intercept"),
            ((1.0, 0.0, (0.0, 0.0, math.nan)), "p_poly"),
            ((1.0, 0.0, (-math.inf, 0.0, 0.0)), "p_poly"),
        ],
    )
    def test_non_finite_threshold_rejected(self, fields, name):
        # a NaN threshold would label every decided point coil, the unsafe answer
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ThresholdModel(*fields)


def scalar_rule(i: float, u: float, p: float, model: ThresholdModel):
    """The per-sample rule classify applied before the array rule, as the oracle.

    Returns (verdict, u_below, p_below, gated) as a report row holds them.
    """
    if i < model.i_min_gate:
        return "indeterminate", None, None, True
    u_below = bool(u < model.u_threshold(i))
    p_below = bool(p < model.p_threshold(i))
    if u_below and p_below:
        label = "metal"
    elif not u_below and not p_below:
        label = "coil"
    else:
        label = "indeterminate"
    return label, u_below, p_below, False


def _row(row: dict):
    return row["verdict"], row["u_below"], row["p_below"], row["gated"]


class TestNonFinite:
    @pytest.mark.parametrize(
        "values",
        [
            (6.0, math.nan, math.nan),
            (math.nan, 1.0, 1.0),
            (6.0, math.inf, 1.0),
            (6.0, 1.0, -0.5),
            (-1.0, 0.0, 0.0),
        ],
    )
    def test_sample_rejects(self, values):
        # a Sample is a plain record: the decision rule checks its values
        model = fit_thresholds(*separable_training())
        with pytest.raises(ValueError, match="sample values must be finite and >= 0"):
            classify(Sample(*values), model)
        with pytest.raises(ValueError, match="sample values must be finite and >= 0"):
            evaluate_batch([("coil", Sample(6.0, 1.0, 1.0)), ("metal", Sample(*values))], model)

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_array_rule_rejects(self, column):
        model = fit_thresholds(*separable_training())
        points = [[6.0, 6.0], [1.0, 1.0], [1.0, 1.0]]
        points[column][1] = math.nan
        # the batch's one array check meets the NaN in each column
        batch = [("coil", Sample(*point)) for point in zip(*points)]
        with pytest.raises(ValueError, match="sample values must be finite and >= 0"):
            evaluate_batch(batch, model)


def reference_report(samples, model: ThresholdModel) -> dict:
    """evaluate_batch's report rebuilt row by row from classify: the oracle."""
    counts, rows = {}, []
    for true, sample in samples:
        v = classify(sample, model)
        counts.setdefault(true, {lab.value: 0 for lab in Label})[v.label.value] += 1
        rows.append({
            "true_label": true,
            "i_tx_A": sample.i_tx,
            "u_tx_V": sample.u_tx,
            "p_in_W": sample.p_in,
            "verdict": v.label.value,
            "u_below": v.u_below,
            "p_below": v.p_below,
            "gated": v.gated,
        })
    undecided = sum(c["indeterminate"] for c in counts.values())
    decidable = len(samples) - undecided
    correct = sum(counts[k][k] for k in ("metal", "coil") if k in counts)
    return {
        "counts": counts,
        "total": len(samples),
        "decidable": decidable,
        "no_decidable_samples": decidable == 0,
        "accuracy": correct / decidable if decidable else None,
        "samples": rows,
    }


@pytest.mark.parametrize("seed", range(40))
def test_batch_report_matches_row_by_row_reference(seed):
    # gated points, points on either threshold or one ulp off it, and points
    # whose sub-tests disagree, under true labels beyond coil and metal
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(1, 4))
    model = ThresholdModel(
        *rng.uniform(0.0, 2.0, 2), tuple(rng.uniform(0.0, 0.5, degree + 1)),
        i_min_gate=float(rng.uniform(0.5, 6.0)),
    )
    kinds = ["coil", "metal", "indeterminate", "plate:fe", "x"][: int(rng.integers(1, 6))]
    samples = []
    for _ in range(int(rng.integers(1, 80))):
        i = float(rng.choice([model.i_min_gate, rng.uniform(0.0, 12.0)]))
        values = []
        for threshold in (model.u_threshold(i), model.p_threshold(i)):
            step = rng.choice([0.0, -math.inf, math.inf, 0.5, 1.5])
            if step in (0.0, -math.inf, math.inf):
                value = threshold if step == 0.0 else math.nextafter(threshold, step)
            else:
                value = threshold * step
            values.append(max(value, 0.0))
        samples.append((str(rng.choice(kinds)), Sample(i, *values)))
    report = evaluate_batch(samples, model)
    assert json.dumps(report) == json.dumps(reference_report(samples, model))
    verdicts = {row["verdict"] for row in report["samples"]}
    if len(samples) > 40:
        assert verdicts == {"metal", "coil", "indeterminate"}


@pytest.mark.parametrize("gate", [None, 6.0])
def test_batch_matches_scalar_rule_on_acceptance_seeds(
    repro_scenario, repro_sweeps, repro_curves, gate
):
    # the 100 seeds of acceptance criterion 7; a 6 A gate also gates the 3 A points
    sc = repro_scenario
    model = fit_thresholds(
        [c for c in repro_curves if c.label.startswith("metal:")],
        [c for c in repro_curves if c.label.startswith("coil:")],
        degree=sc.detection.degree,
        i_min_gate=sc.detection.gate_amps,
    )
    if gate is not None:
        model = replace(model, i_min_gate=gate)
    gated = 0
    for seed in range(100):
        triples = generate_test_samples(sc, seed=seed, sweeps=repro_sweeps)
        samples = [s for _, _, s in triples]
        expected = [scalar_rule(s.i_tx, s.u_tx, s.p_in, model) for s in samples]
        report = evaluate_batch([(t, s) for t, _, s in triples], model)
        assert [_row(row) for row in report["samples"]] == expected
        gated += sum(e[3] for e in expected)
    assert gated == (900 if gate else 0)


def test_threshold_ties_and_gate_agree_with_scalar_rule():
    # points exactly on u_threshold(i) and p_threshold(i), one ulp either side,
    # and at i == i_min_gate: every path gives the scalar rule's verdict
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # nonnegative coefficients keep both thresholds >= 0, where samples live
    coeff = st.floats(0.0, 2.0)

    @st.composite
    def models(draw):
        degree = draw(st.integers(1, 4))
        coeffs = draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
        return ThresholdModel(
            draw(coeff), draw(coeff), tuple(coeffs), i_min_gate=draw(st.floats(0.01, 20.0))
        )

    nudge = st.sampled_from([-math.inf, 0.0, math.inf])

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(models(), st.floats(0.0, 50.0), st.booleans(), nudge, nudge)
    def check(model, i, at_gate, du, dp):
        i = model.i_min_gate if at_gate else i
        u_thr, p_thr = model.u_threshold(i), model.p_threshold(i)
        u = u_thr if du == 0.0 else math.nextafter(u_thr, du)
        p = p_thr if dp == 0.0 else math.nextafter(p_thr, dp)
        hypothesis.assume(u >= 0.0 and p >= 0.0)
        expected = scalar_rule(i, u, p, model)
        v = classify(Sample(i, u, p), model)
        assert (v.label.value, v.u_below, v.p_below, v.gated) == expected
        report = evaluate_batch([("coil", Sample(i, u, p))], model)
        assert _row(report["samples"][0]) == expected
        if at_gate:
            assert not v.gated
        if not v.gated and du == 0.0 and dp == 0.0:
            assert v.label is Label.COIL

    check()


def decades_grid(seed, zero):
    """A strictly increasing grid starting at zero (0.0 or -0.0), its steps spanning decades."""
    rng = np.random.default_rng(seed)
    steps = 10.0 ** rng.uniform(-3.0, 1.0, rng.integers(3, 60))
    return np.concatenate(([zero], zero + np.cumsum(steps)))


def decades_training(grid, seed):
    """Two metal and two coil curves on grid, with slopes spanning decades and ragged values."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-6.0, 6.0)
    curves = []
    for label, low in (("metal:a", 1.0), ("metal:b", 1.0), ("coil:a", 8.0), ("coil:b", 8.0)):
        u = scale * low * grid * rng.uniform(1.0, 1.5, grid.size)
        p = scale * low * grid * grid * rng.uniform(1.0, 1.5, grid.size)
        curves.append(CharacteristicCurve(label, grid, u, p))
    return curves


def fitted(curves):
    model = fit_thresholds(
        [c for c in curves if c.label.startswith("metal:")],
        [c for c in curves if c.label.startswith("coil:")],
    )
    return model.u_slope, model.u_intercept, model.p_poly


@pytest.mark.parametrize("seed", range(6))
def test_shared_grid_fit_matches_resampled_fit_bit_for_bit(seed):
    # curves on one grid, whether one array, equal copies or read back from
    # curves.csv, fit exactly as the same curves np.interp-resampled onto it
    swept = decades_training(decades_grid(seed, -0.0 if seed % 2 else 0.0), seed)
    for curves in (swept, curves_from_csv(curves_to_csv(swept))):
        first = curves[0].i_tx
        shared = [CharacteristicCurve(c.label, first, c.u_tx, c.p_in) for c in curves]
        copies = [CharacteristicCurve(c.label, np.array(first), c.u_tx, c.p_in) for c in curves]
        by_hand = [
            CharacteristicCurve(
                c.label, first, np.interp(first, c.i_tx, c.u_tx), np.interp(first, c.i_tx, c.p_in)
            )
            for c in curves
        ]
        model = fitted(shared)
        assert fitted(copies) == model
        assert fitted(curves) == model
        assert fitted(by_hand) == model


def test_interp_on_its_own_grid_is_identity():
    # the shared-grid fit takes each curve as it is, which is what np.interp
    # gives back on the curve's own grid: fp[j] wherever x == xp[j]
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    values = st.one_of(
        st.floats(allow_nan=False),
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]),
    )

    @st.composite
    def curves(draw):
        xp = np.unique(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1)))
        if draw(st.booleans()) and xp[0] == 0.0:
            xp[0] = -0.0
        fp = np.array(draw(st.lists(values, min_size=xp.size, max_size=xp.size)))
        return xp, fp

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.example((np.array([0.0, 1e-300, 1.0]), np.array([-0.0, 1e300, 5e-324])))
    @hypothesis.example((np.array([-0.0, 1.0]), np.array([5e-324, -0.0])))
    @hypothesis.given(curves())
    def check(curve):
        xp, fp = curve
        assert np.interp(xp, xp, fp).tobytes() == fp.tobytes()

    check()
