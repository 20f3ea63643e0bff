import io
import itertools
import math
import random
import re
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wptmod import characteristics
from wptmod.characteristics import (
    CharacteristicCurve,
    SweepSpec,
    curves_from_csv,
    curves_to_csv,
    evaluate_point,
    sweep_curve,
)
from wptmod.circuit import (
    CoilReceiver,
    Couplings,
    DriveSpec,
    MetalReceiver,
    default_tx_coil,
    input_impedance,
    reduced_counterpart,
    resonant_capacitance,
    solve_from_drive,
)
from wptmod.detection import Sample
from wptmod.eddy import MetalMaterial
from wptmod.scenario import (
    MAX_STEPS,
    MetalPlateSpec,
    NoiseSpec,
    build_sweeps,
    coupling,
    generate_test_samples,
    load_scenario,
)

OMEGA = 2.0 * math.pi * 20e3


def resonant_coil_receiver(resistance, load):
    """10 uH receiver coil resonated at OMEGA with the given copper loss and load."""
    return CoilReceiver(resistance, 10e-6, resonant_capacitance(10e-6, OMEGA), load)


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
        # no coil is selected: at steerings where either coil carries more of
        # the drive, u is the steering-weighted sum of both coil voltages,
        # which is the source voltage of the reduced single-coil model
        for theta in (math.pi / 2 - 0.1, 0.1):
            spec = make_spec(m_ac=5e-7, theta=theta)
            curve = sweep_curve(spec)
            for i, u in zip(curve.i_tx[1:], curve.u_tx[1:]):
                drive = replace(spec.drive, amplitude=float(i))
                sol = solve_from_drive(drive, spec.couplings, spec.receiver, spec.tx)
                weighted = abs(sol.u_a * math.sin(theta) + sol.u_b * math.cos(theta))
                assert u == pytest.approx(weighted, rel=1e-12)
                assert u == pytest.approx(abs(reduced_counterpart(sol).u_a), rel=1e-12)

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
            s, c = math.sin(spec.drive.steering), math.cos(spec.drive.steering)
            for i, u_i, p_i in zip(currents, u, p):
                sol = solve_from_drive(
                    replace(spec.drive, amplitude=float(i)), spec.couplings, rx, spec.tx
                )
                u_ref = abs(sol.u_a * s + sol.u_b * c)
                assert abs(u_i - u_ref) <= 1e-12 * u_ref
                assert abs(u_i - abs(reduced_counterpart(sol).u_a)) <= 1e-12 * u_ref
                assert abs(p_i - sol.p_in) <= 1e-12 * sol.p_in

    def test_negative_current_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point(make_spec(), np.array([1.0, -1.0]))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DriveSpec(amplitude=math.nan),
            lambda: evaluate_point(make_spec(), math.nan),
            lambda: MetalMaterial("x", 1e7, math.nan),
            lambda: CharacteristicCurve("x", [1.0, math.nan], [0.0, 0.0], [0.0, 0.0]),
            lambda: CharacteristicCurve("x", [math.nan, 1.0], [0.0, 0.0], [0.0, 0.0]),
            lambda: CharacteristicCurve("x", [math.nan], [0.0], [0.0]),
            lambda: CharacteristicCurve("x", [1.0, 2.0], [0.0, math.nan], [0.0, 0.0]),
            lambda: CharacteristicCurve("x", [1.0, 2.0], [0.0, 0.0], [math.nan, 0.0]),
        ],
        ids=["drive_amplitude", "evaluate_point_current", "rel_permeability", "curve_i_tx_last",
             "curve_i_tx_first", "curve_i_tx_single", "curve_u_tx", "curve_p_in"],
    )
    def test_nan_fails_sign_check(self, build):
        # each sign check reads `not x >= bound`, which NaN fails too
        with pytest.raises(ValueError):
            build()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_spec().__class__(
                i_min=5.0,
                i_max=1.0,
                steps=10,
                drive=DriveSpec(OMEGA, 1.0, 0.0),
                receiver=resonant_coil_receiver(0.1, 4.5),
                couplings=Couplings(0.0, 0.0),
                tx=default_tx_coil(),
            )
        with pytest.raises(ValueError):
            CharacteristicCurve("x", [1.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            CharacteristicCurve("x", [1.0, 2.0], [-1.0, 0.0], [0.0, 0.0])


class TestLibraryGuards:
    # a scenario never reaches these guards, since the schema domain refuses
    # the same values at parse time; each is tested at its first refused value

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"steps": 1}, "steps must be >= 2"),
            ({"i_min": -5e-324}, "require 0 <= i_min < i_max"),
            ({"i_max": 0.0}, "require 0 <= i_min < i_max"),
        ],
        ids=["steps", "i_min", "i_max"],
    )
    def test_sweep_spec_refuses_first_invalid_value(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(make_spec(), **values)

    @pytest.mark.parametrize("short", ["i_tx", "u_tx", "p_in"])
    def test_curve_refuses_arrays_of_unequal_length(self, short):
        arrays = {"i_tx": [1.0, 2.0], "u_tx": [1.0, 2.0], "p_in": [1.0, 2.0], short: [1.0]}
        with pytest.raises(ValueError, match="^curve arrays must have equal length$"):
            CharacteristicCurve("x", **arrays)


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


def reference_samples(sc, seed, sweeps):
    """The generator as it was, one Z_in and one sign check per receiver: the oracle."""
    currents = sc.detection.test_currents_a
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, sc.noise.relative_sigma, (len(sweeps), len(currents), 2))
    clean = []
    for spec in sweeps:
        i = np.asarray(currents, dtype=float)
        if not np.all(i >= 0.0):
            raise ValueError("i_tx must be >= 0")
        z_in = input_impedance(spec.drive, spec.couplings, spec.receiver, spec.tx)
        clean.append((abs(z_in) * i, z_in.real * i * i))
    noisy = np.maximum(np.array(clean) * (1.0 + eps.transpose(0, 2, 1)), 0.0)
    samples = []
    for spec, (u, p) in zip(sweeps, noisy.tolist()):
        true_label, name = spec.label.split(":", 1)
        samples += [(true_label, name, Sample(*row)) for row in zip(currents, u, p)]
    return samples


def bits(triples):
    """The triples with every float as its hex digits, so -0.0 differs from 0.0."""
    assert all(type(sample) is Sample for _, _, sample in triples)
    return [(t, name, *map(float.hex, sample)) for t, name, sample in triples]


def random_scenario(rng):
    """The bundled scenario redrawn over the param_study ranges, one coil detuned.

    Loads 0.5-20 ohm and distances 0.03-0.30 m for the coils, six Fe/Cu/Al
    plates of half side 0.02-0.15 m at 0.03-0.30 m, and random test
    currents, noise and seed.
    """
    sc = load_scenario()
    coils = [
        replace(coil, load_ohm=rng.uniform(0.5, 20.0), distance_m=rng.uniform(0.03, 0.30))
        for coil in sc.receiver_coils
    ]
    resonant = resonant_capacitance(coils[0].inductance_h, sc.omega)
    coils[0] = replace(coils[0], capacitance_f=resonant * rng.uniform(0.8, 1.25))
    plates = []
    for k in range(6):
        material = rng.choice(["ferrum", "cuprum", "aluminum"])
        mu_r = rng.uniform(200.0, 400.0) if material == "ferrum" else None
        half_side, distance = rng.uniform(0.02, 0.15), rng.uniform(0.03, 0.30)
        plates.append(MetalPlateSpec(f"plate{k}", material, half_side, distance, mu_r))
    currents = (0.0, 3.0, *(rng.uniform(0.0, 20.0) for _ in range(rng.randrange(1, 8))))
    return replace(
        sc,
        receiver_coils=tuple(coils),
        metal_plates=tuple(plates),
        noise=NoiseSpec(rng.choice([0.0, 0.01, 0.2, 2.0]), rng.randrange(2**31)),
        detection=replace(sc.detection, test_currents_a=currents),
    )


class TestGeneratorOracle:
    @pytest.mark.parametrize("index", range(20))
    def test_matches_per_receiver_reference(self, index):
        # the one-pass generator gives the per-receiver generator's triples bit for bit
        sc = random_scenario(random.Random(index))
        sweeps = build_sweeps(sc)
        assert generate_test_samples(sc) == reference_samples(sc, sc.noise.seed, sweeps)
        # a steered receiver: the drive at pi/4 and both couplings nonzero
        steered = make_spec(m_ac=5e-7, m_bc=2e-7, label="coil:steered")
        sweeps.insert(index % len(sweeps), steered)
        for seed in (index, 2**31 + index, 12345):
            got = generate_test_samples(sc, seed, sweeps)
            assert bits(got) == bits(reference_samples(sc, seed, sweeps))

    @pytest.mark.parametrize("bad", [-1.0, -0.5e-300, math.nan])
    def test_bad_current_raises(self, repro_scenario, repro_sweeps, bad):
        sc = replace(
            repro_scenario, detection=replace(repro_scenario.detection, test_currents_a=(3.0, bad))
        )
        with pytest.raises(ValueError, match=r"^i_tx must be >= 0$"):
            generate_test_samples(sc, 0, repro_sweeps)


HEADER = "label,i_tx_A,u_tx_V,p_in_W"
ONE = "1.000000000000"


def _row(label="a", i=ONE, u=ONE, p=ONE):
    return f"{label},{i},{u},{p}"


def _layout(*rows, end="\n"):
    """A curve CSV of the given data rows, each ended by `end`."""
    return end.join([HEADER, *rows]) + end


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """One entry per np.loadtxt call made while the test runs."""
    calls = []
    real = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    return calls


def reference_to_csv(curves):
    """The row-by-row writer the bulk one must match byte for byte."""
    out = io.StringIO()
    out.write(HEADER + "\n")
    for curve in curves:
        for i, u, p in zip(curve.i_tx, curve.u_tx, curve.p_in):
            out.write(f"{curve.label},{i:.12f},{u:.12f},{p:.12f}\n")
    return out.getvalue()


def assert_writes_reference(text, curves):
    """Assert text == reference_to_csv(curves), naming the first row that differs.

    pytest's diff of two long strings can run for minutes; this compares the
    rows only until the first one that differs, and reports that one.
    """
    expected = reference_to_csv(curves)
    if text != expected:
        rows = zip(text.splitlines(True) + [""], expected.splitlines(True) + [""])
        row, (got, want) = next((i, pair) for i, pair in enumerate(rows) if pair[0] != pair[1])
        assert got == want, f"row {row} of the written text differs from the reference"


def reference_from_csv(text):
    """The row-by-row parser: (label, i, u, p) per label in first-seen order."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert lines[0] == HEADER
    grouped: dict[str, list[tuple[float, float, float]]] = {}
    for ln in lines[1:]:
        label, i, u, p = ln.split(",")
        grouped.setdefault(label, []).append((float(i), float(u), float(p)))
    return [(label, *(np.array(col) for col in zip(*pts))) for label, pts in grouped.items()]


def assert_matches_reference(curves, text):
    ref = reference_from_csv(text)
    assert [c.label for c in curves] == [r[0] for r in ref]
    for curve, (_, i, u, p) in zip(curves, ref):
        for got, want in ((curve.i_tx, i), (curve.u_tx, u), (curve.p_in, p)):
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()  # bit for bit, signed zeros included


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

    def test_matches_reference_on_repro_curves(self, repro_curves):
        text = curves_to_csv(repro_curves)
        assert_writes_reference(text, repro_curves)
        assert_matches_reference(curves_from_csv(text), text)

    def test_header_only(self):
        assert curves_from_csv(HEADER + "\n") == []
        assert curves_from_csv("\n  \n" + HEADER) == []

    def test_interleaved_labels_merge_in_first_seen_order(self):
        text = "\n".join(
            [HEADER, "b,0,1,2", "a,0,3,4", "b,1,5,6", "b,2,7,8", "a,1,9,10", "c,0,0,0", "a,2,1,1"]
        )
        curves = curves_from_csv(text)
        assert [c.label for c in curves] == ["b", "a", "c"]
        assert curves[0].u_tx.tolist() == [1.0, 5.0, 7.0]
        assert curves[1].p_in.tolist() == [4.0, 10.0, 1.0]
        assert_matches_reference(curves, text)

    def test_blank_and_whitespace_lines_skipped(self):
        text = f"\n \t\n{HEADER}\r\nx,0,1,2\n\n   \nx,1,2,3\r\n\t\ny,0,0,0\n"
        curves = curves_from_csv(text)
        assert [(c.label, len(c.i_tx)) for c in curves] == [("x", 2), ("y", 1)]
        assert_matches_reference(curves, text)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,1,2,nan", "line 4, column p_in_W: non-finite value 'nan'"),
            ("a,1,-inf,2", "line 4, column u_tx_V: non-finite value '-inf'"),
            ("a,inf,2,3", "line 4, column i_tx_A: non-finite value 'inf'"),
            ("a,1,2,3e999", "line 4, column p_in_W: non-finite value '3e999'"),
            ("a,1,2,x", "line 4, column p_in_W: not a number: 'x'"),
            ("a,1,,3", "line 4, column u_tx_V: not a number: ''"),
            ("a,1_0,2,3", "line 4, column i_tx_A: not a number: '1_0'"),
            ("a,1,2", "line 4: expected 4 comma-separated fields, got 3"),
            ("a,1,2,3,4", "line 4: expected 4 comma-separated fields, got 5"),
            ("a,1,2,3,4,5", "line 4: expected 4 comma-separated fields, got 6"),
            ("a", "line 4: expected 4 comma-separated fields, got 1"),
            ("a,", "line 4: expected 4 comma-separated fields, got 2"),
        ],
        ids=["nan", "neg_inf", "inf", "overflow", "word", "empty", "underscore", "three",
             "five", "six", "label_only", "label_comma"],
    )
    def test_bad_row_names_line_and_column(self, row, message):
        # the bad row is the fourth line of the file: header, a row, a blank line
        text = "\n".join([HEADER, "a,0,1,1", "", row, "a,9,1,1"]) + "\n"
        with pytest.raises(ValueError, match=f"^curves.csv {message}$"):
            curves_from_csv(text)

    def test_row_that_loadtxt_reads_is_not_blamed(self):
        # loadtxt strips the no-break space around line 2's number, as the
        # blame does; the bad field is on line 3
        text = f"{HEADER}\ncoil:a,\xa01,1,1\ncoil:a,2,abc,2\n"
        message = "^curves.csv line 3, column u_tx_V: not a number: 'abc'$"
        with pytest.raises(ValueError, match=message):
            curves_from_csv(text)

    @pytest.mark.parametrize("label", ["metal:a,b", "coil:x\ny", "coil:x\u2028y"])
    def test_writer_refuses_label_it_cannot_read_back(self, label):
        curves = [CharacteristicCurve(label, [1.0], [1.0], [1.0])]
        message = f"curve label must be a string without commas or line breaks, got {label!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            curves_to_csv(curves)

    def test_empty_label_round_trips(self):
        curves = [CharacteristicCurve("", [0.0, 1.0], [0.5, 1.0], [0.25, 1.0])]
        text = curves_to_csv(curves)
        assert_writes_reference(text, curves)
        assert_matches_reference(curves_from_csv(text), text)

    def test_rows_without_numbers_rejected_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on input with no data
            with pytest.raises(ValueError, match="line 2: expected 4 comma-separated fields"):
                curves_from_csv("\n".join([HEADER, "a", "b,"]))

    def test_every_row_with_five_fields_rejected(self):
        text = "\n".join([HEADER, "a,0,1,1,1", "a,1,1,1,1"])
        with pytest.raises(ValueError, match="line 2: expected 4 comma-separated fields, got 5"):
            curves_from_csv(text)

    @pytest.mark.parametrize(
        "label, i, u, p",
        [
            # 9.99...95 and the float below 1 round up and carry into the integer part
            ("carry", [0.9999999999995, 9.9999999999995], [math.nextafter(1.0, 0.0), 1.0],
             [99.9999999999995, 0.5]),
            ("subnormal", [0.0, 5e-324], [5e-324, 2.2250738585072014e-308], [5e-324, 0.0]),
            ("neg_zero", [-0.0, 1.0], [0.0, -0.0], [-0.0, 2.0]),
            ("neg_current", [-2.5, -1e-13], [1.0, 2.0], [3.0, 4.0]),
            ("inf", [0.0, 1.0], [math.inf, 1.0], [1.0, math.inf]),
            ("inf_current", [-math.inf, 0.0, math.inf], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0]),
            ("empty", [], [], []),
            ("µ%é", [0.0, 12.5], [0.25, 1e-12], [123456789.0625, 5e-13]),
            # r*10^12 rounds to the ties 6.5 and 999999999999.5, which rint takes
            # to 6 and 10^12; the doubles lie above and below them, so %.12f
            # prints 0.000000000007 and 0.999999999999, with no carry
            ("tie", [0.0, 1.0], [6.5e-12, 0.9999999999995], [0.9999999999995, 6.5e-12]),
        ],
        ids=["carry", "subnormal", "neg_zero", "neg_current", "inf", "inf_current", "empty",
             "label", "tie"],
    )
    def test_writer_edge_cases_match_reference(self, label, i, u, p):
        curves = [CharacteristicCurve(label, i, u, p), CharacteristicCurve("b", [1.0], [2], [3])]
        assert_writes_reference(curves_to_csv(curves), curves)

    def test_writer_tie_block_matches_reference(self):
        # no double is exactly (m + 1/2)/10^12: the nearest lies just above or
        # below it, and its r*10^12 mostly rounds onto the tie, so only the exact
        # product decides the last digit; k/2^13 for odd k is an exact tie
        m = np.concatenate([np.arange(k, k + 300) for k in (0, 10**6, 10**11, 10**12 - 300)])
        values = np.concatenate([(m + 0.5) / 1e12, 3.0 + np.arange(1, 600, 2) / 2**13])
        # at each tie p = fl(r*10^12): how far %.12f's last digit lies from
        # rint(p), -1, 0 or +1, or "exact" where r*10^12 is the tie itself
        moves = []
        for v in values.tolist():
            r = v - math.floor(v)
            p = r * 1e12
            off = p - round(p)  # round, like np.rint, takes a tie to even
            if abs(off) == 0.5:
                exact = Fraction(r) * 10**12
                moves.append("exact" if exact == p else int(2 * off) * ((exact > p) == (off > 0)))
        assert {-1, 0, 1, "exact"} <= set(moves)
        curves = [CharacteristicCurve("ties", np.arange(values.size), values, values[::-1])]
        text = curves_to_csv(curves)
        assert_writes_reference(text, curves)
        assert_matches_reference(curves_from_csv(text), text)

    @pytest.mark.parametrize(
        "widest",
        [9.75, 9999.5, 10000.25, 99999999.5, 1e8, 999999999999.75, 1e12 + 0.5, 9.99e14],
        ids=lambda v: f"{len(str(int(v)))}_digits",
    )
    def test_writer_integer_groups_match_reference(self, widest):
        # the writer splits integer parts into only as many 4-digit groups as
        # the widest one needs; the others print without their leading zeros
        small = [0.0, 0.5, 7.25, 12.0625, 123.125, 1000.75, 54321.5, 9.999e7, 1.5e11]
        u = [x for x in small if x < widest] + [widest]
        curves = [
            CharacteristicCurve("wide", np.arange(len(u)), u, u[::-1]),
            CharacteristicCurve("b", [1.0], [2.0], [3.0]),
        ]
        text = curves_to_csv(curves)
        assert_writes_reference(text, curves)
        back = curves_from_csv(text)
        assert_matches_reference(back, text)
        for orig, rt in zip(curves, back):
            for name in ("i_tx", "u_tx", "p_in"):
                assert getattr(rt, name).tobytes() == getattr(orig, name).tobytes()

    def test_longest_sweep_matches_reference(self):
        curves = [sweep_curve(replace(make_spec(m_ac=5e-7, label="coil:a"), steps=MAX_STEPS))]
        text = curves_to_csv(curves)
        assert_writes_reference(text, curves)
        assert_matches_reference(curves_from_csv(text), text)

    def test_bad_curve_names_label(self):
        with pytest.raises(ValueError, match="curve 'a': i_tx must be strictly increasing"):
            curves_from_csv("\n".join([HEADER, "a,1,1,1", "a,1,1,1"]))

    def test_writer_layout_never_reaches_loadtxt(self, repro_curves, repro_sweeps, monkeypatch):
        # the writer's output is read from its digits: a silent fall back to
        # np.loadtxt would keep every value right and lose the speed
        dense = [sweep_curve(replace(spec, steps=2000)) for spec in repro_sweeps]
        longest = [sweep_curve(replace(make_spec(m_ac=5e-7, label="coil:a"), steps=MAX_STEPS))]

        def refuse(*args, **kwargs):
            raise AssertionError("np.loadtxt reached")

        monkeypatch.setattr(np, "loadtxt", refuse)
        for curves in (repro_curves, dense, longest):
            text = curves_to_csv(curves)
            assert_matches_reference(curves_from_csv(text), text)

    @pytest.mark.parametrize(
        "text, digits",
        [
            (_layout(_row(i="0.000000000000"), _row(), _row("b")), True),
            (_layout(_row(i="0.000000000000"), _row(), _row("b"), end="\r\n"), False),
            ("\n" + _layout(_row()), False),
            (_layout(_row(i="0.000000000000"), " ", _row()), False),
            (_layout(_row())[:-1], False),
            (_layout(_row(u="9007.199254740991")), True),
            (_layout(_row(u="9007.199254740992")), False),
            (_layout(_row(u="10000.000000000000")), False),
            (_layout(_row(u=".500000000000")), False),
            (_layout(_row(u="+1.000000000000")), False),
            (_layout(_row(u="1.0000000000000")), False),
            (_layout(_row(u="1e-3")), False),
            (_layout(_row(u=" 1.000000000000")), False),
            (_layout(_row("")), False),
            (_layout(_row("µ")), False),
            (_layout(_row("metal:fe_0.2m"), _row("%"), _row(" a b ")), True),
            (_layout(_row("a\tb")), False),
            (
                # labels of one size sharing their first word, interleaved
                _layout(
                    _row("metal:fe_0.1m", i="0.000000000000"),
                    _row("metal:fe_0.2m", i="0.000000000000"),
                    _row("metal:fe_0.1m"),
                    _row("coil:a"),
                    _row("coil:b"),
                    _row("coil:a_longer_than_two_words", i="9.999999999999"),
                    _row("metal:fe_0.2m"),
                ),
                True,
            ),
        ],
        ids=[
            "writer", "crlf", "leading_blank", "whitespace_line", "no_final_newline",
            "below_2_53", "at_2_53", "five_integer_digits", "no_integer_digit", "plus_sign",
            "13_decimals", "exponent", "space_padded", "empty_label", "non_ascii_label",
            "label_dot_percent_space", "label_tab", "interleaved",
        ],
    )
    def test_layout_boundary_matches_reference(self, text, digits, loadtxt_calls):
        assert_matches_reference(curves_from_csv(text), text)
        assert loadtxt_calls == ([] if digits else [1])
        if digits:
            # one run per stretch of equal labels, which the reader decodes once
            labels = (line.partition(",")[0] for line in text.splitlines()[1:])
            runs = [(label, len(list(rows))) for label, rows in itertools.groupby(labels)]
            assert characteristics._read_fixed(text)[1] == runs

    @pytest.mark.parametrize(
        "row, message",
        [
            ("a,2.000000000000,1.000000000000", "line 3: expected 4 comma-separated fields, got 3"),
            (_row(i="2.000000000000") + "," + ONE, "line 3: expected 4 comma-separated fields, got 5"),
            (_row(i="2.00000000000x"), "line 3, column i_tx_A: not a number: '2.00000000000x'"),
            (_row(u="nan"), "line 3, column u_tx_V: non-finite value 'nan'"),
            (_row(), "curve 'a': i_tx must be strictly increasing"),
        ],
        ids=["three", "five", "letter", "nan", "repeated_current"],
    )
    def test_bad_row_in_layout_keeps_message(self, row, message):
        with pytest.raises(ValueError, match=f"^curves.csv {re.escape(message)}$"):
            curves_from_csv(_layout(_row(), row))


def _hypothesis():
    """hypothesis and its strategies; skips the calling test when not installed."""
    hypothesis = pytest.importorskip("hypothesis")
    return hypothesis, hypothesis.strategies


def _curve_lists(st):
    """Finite curves with strictly increasing currents under distinct labels."""
    # curves.csv labels hold no commas and no characters str.splitlines breaks on
    labels = st.builds(
        lambda head, tail: head + tail,
        st.sampled_from(["coil:", "metal:", "%", "%s ", "%(x)d", " é", "µ%%", "ünï ", ""]),
        st.text(
            st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"), blacklist_characters=","),
            max_size=8,
        ),
    )
    # k / 2^13 sits exactly halfway between two 12-place decimals when k is odd
    ties = st.integers(0, 2**13 * 10**6).map(lambda k: k / 2**13)
    near_ties = st.builds(math.nextafter, ties, st.sampled_from([0.0, math.inf]))
    unit = st.floats(0.0, 1e6) | ties | near_ties
    # at and above 1e15 the writer keeps its row template
    huge = st.floats(1e15, 1e300)

    @st.composite
    def curve(draw, label):
        n = draw(st.integers(1, 12))
        steps = draw(st.lists(st.floats(1e-6, 1e3) | ties.filter(bool), min_size=n, max_size=n))
        i = np.cumsum(steps) - steps[0] + draw(unit)
        u = draw(st.lists(unit | huge, min_size=n, max_size=n))
        p = draw(
            st.lists(st.floats(0.0, 1e9) | st.floats(0.0, 1e-9) | huge, min_size=n, max_size=n)
        )
        return CharacteristicCurve(label, i, u, p)

    @st.composite
    def curves(draw):
        names = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
        return [draw(curve(label)) for label in names]

    return curves()


def test_csv_matches_row_by_row_reference():
    hypothesis, st = _hypothesis()

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(_curve_lists(st))
    def check(curves):
        text = curves_to_csv(curves)
        assert_writes_reference(text, curves)
        assert_matches_reference(curves_from_csv(text), text)

    check()


def test_parse_is_correctly_rounded():
    # any ASCII spelling of a float parses to the bits float() gives it
    hypothesis, st = _hypothesis()

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.lists(st.floats(0.0, 1e300), min_size=2, max_size=60),
        st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", "{:.20f}", "{:.0f}"]),
    )
    def check(values, spelling):
        half = len(values) // 2
        rows = [
            ",".join(["m", str(k), spelling.format(u), spelling.format(p)])
            for k, (u, p) in enumerate(zip(values[:half], values[half:]))
        ]
        text = "\n".join([HEADER, *rows])
        assert_matches_reference(curves_from_csv(text), text)

    check()


def test_blame_agrees_with_loadtxt_on_one_field():
    # the error names line 2 exactly where np.loadtxt refuses the field or
    # reads a non-finite value, and says which; loadtxt strips ASCII and
    # Unicode whitespace around a number, and takes no underscore and no
    # non-ASCII digit
    hypothesis, st = _hypothesis()
    pieces = ["0", "1", "7", "-", "+", ".", "e", "inf", "nan", "_", " ", "\t", "\xa0", "\x1f",
              "\u2000", "\u0661"]

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(st.sampled_from(pieces), max_size=6).map("".join))
    def check(field):
        row = f"coil:a,{field},1,1"
        text = f"{HEADER}\n{row}\n"
        try:
            want, _, _ = np.loadtxt([row], delimiter=",", comments=None, usecols=(1, 2, 3))
        except ValueError:
            with pytest.raises(ValueError, match="^curves.csv line 2, column i_tx_A: not a number"):
                curves_from_csv(text)
            return
        if math.isfinite(want):
            (curve,) = curves_from_csv(text)
            assert curve.i_tx.tobytes() == np.array([want]).tobytes()
        else:
            with pytest.raises(ValueError, match="^curves.csv line 2, column i_tx_A: non-finite"):
                curves_from_csv(text)

    check()


def test_curves_independent_of_azimuth(repro_sweeps):
    # build_sweeps puts each receiver on coil B's axis; turn it to another
    # azimuth, splitting its coupling onto both coils, and steer onto it
    hypothesis, st = _hypothesis()
    curves = [sweep_curve(spec) for spec in repro_sweeps]

    @hypothesis.settings(max_examples=100, deadline=None)
    @hypothesis.given(st.floats(0.0, 2.0 * math.pi, exclude_max=True))
    def check(azimuth):
        for spec, on_axis in zip(repro_sweeps, curves):
            m = spec.couplings.magnitude
            turned = replace(
                spec,
                drive=replace(spec.drive, steering=azimuth),
                couplings=Couplings(m * math.sin(azimuth), m * math.cos(azimuth)),
            )
            curve = sweep_curve(turned)
            assert np.allclose(curve.u_tx, on_axis.u_tx, rtol=1e-12, atol=0.0), azimuth
            assert np.allclose(curve.p_in, on_axis.p_in, rtol=1e-12, atol=0.0), azimuth

    check()


def test_build_sweeps_puts_receivers_on_coil_b_axis(repro_scenario, repro_sweeps):
    # coil B alone carries the drive, so Z_in reflects the full coaxial coupling
    sc = repro_scenario
    coaxial = [coupling(sc, spec) for spec in sc.receiver_coils]
    coaxial += [coupling(sc, spec) for spec in sc.metal_plates]
    assert len(repro_sweeps) == len(coaxial)
    for spec, m in zip(repro_sweeps, coaxial):
        assert (spec.couplings.m_ac, spec.couplings.m_bc) == (0.0, m), spec.label
        assert spec.drive.steering == 0.0
        w = spec.drive.angular_frequency
        z_in = spec.tx.impedance(w) + (w * m) ** 2 / spec.receiver.impedance(w)
        assert input_impedance(spec.drive, spec.couplings, spec.receiver, spec.tx) == z_in


def test_sweeps_over_one_range_share_one_read_only_grid():
    a = sweep_curve(make_spec(m_bc=2e-7, label="coil:a"))
    b = sweep_curve(make_spec(m_bc=-4e-7, label="metal:b"))
    assert a.i_tx is b.i_tx
    assert a.i_tx.tobytes() == np.linspace(0.0, 10.0, 21).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        a.i_tx[3] = 0.0
    # a handful of grids at most, each up to MAX_STEPS points
    assert 1 <= characteristics._grid.cache_info().maxsize <= 8


@pytest.mark.parametrize(
    "bounds",
    [(-0.0, 10.0), (np.float32(0.1), np.float32(10.3)), (0, 10), (np.float64(0.1), 10.3)],
    ids=["negative_zero", "float32", "int", "float64"],
)
def test_grid_memo_gives_linspace_bits_of_each_bound_type(bounds):
    # the memo keys on each bound's type: float32 bounds make np.linspace
    # compute in float32, unlike the equal float64 ones swept just before
    spec = make_spec()
    sweep_curve(replace(spec, i_min=float(bounds[0]), i_max=float(bounds[1])))
    curve = sweep_curve(replace(spec, i_min=bounds[0], i_max=bounds[1]))
    expected = np.linspace(*bounds, spec.steps).astype(float)
    assert curve.i_tx.tobytes() == expected.tobytes()
