import io
import itertools
import math
import warnings
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
    CoilReceiver,
    Couplings,
    DriveSpec,
    MetalReceiver,
    default_tx_coil,
    resonant_capacitance,
    solve_from_drive,
    transmitter_voltages,
)
from wptmod.scenario import generate_test_samples, load_scenario

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
                tx=default_tx_coil(),
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


HEADER = "label,i_tx_A,u_tx_V,p_in_W"


def reference_to_csv(curves):
    """The row-by-row writer the bulk one must match byte for byte."""
    out = io.StringIO()
    out.write(HEADER + "\n")
    for curve in curves:
        for i, u, p in zip(curve.i_tx, curve.u_tx, curve.p_in):
            out.write(f"{curve.label},{i:.12f},{u:.12f},{p:.12f}\n")
    return out.getvalue()


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
        assert text == reference_to_csv(repro_curves)
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

    def test_rows_without_numbers_rejected_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on input with no data
            with pytest.raises(ValueError, match="line 2: expected 4 comma-separated fields"):
                curves_from_csv("\n".join([HEADER, "a", "b,"]))

    def test_every_row_with_five_fields_rejected(self):
        text = "\n".join([HEADER, "a,0,1,1,1", "a,1,1,1,1"])
        with pytest.raises(ValueError, match="line 2: expected 4 comma-separated fields, got 5"):
            curves_from_csv(text)

    def test_bad_curve_names_label(self):
        with pytest.raises(ValueError, match="curve 'a': i_tx must be strictly increasing"):
            curves_from_csv("\n".join([HEADER, "a,1,1,1", "a,1,1,1"]))


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
    unit = st.floats(0.0, 1e6)

    @st.composite
    def curve(draw, label):
        n = draw(st.integers(1, 12))
        steps = draw(st.lists(st.floats(1e-6, 1e3), min_size=n, max_size=n))
        i = np.cumsum(steps) - steps[0] + draw(unit)
        u = draw(st.lists(unit, min_size=n, max_size=n))
        p = draw(st.lists(st.floats(0.0, 1e9) | st.floats(0.0, 1e-9), min_size=n, max_size=n))
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
        assert text == reference_to_csv(curves)
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
