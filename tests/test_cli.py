import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import pytest

import wptmod
from wptmod import characteristics, cli, magnetics, materials, scenario
from wptmod.errors import ScenarioError, SingularityError


def _bundled() -> dict:
    """The bundled scenario as a fresh dict, ready to edit."""
    return json.loads(resources.files("wptmod.data").joinpath("paper_repro.json").read_text())


def _replaced(sc, section: str, index: int, **values):
    """sc with those values in receiver `index` of section, bypassing the reader's bounds."""
    specs = list(getattr(sc, section))
    specs[index] = dataclasses.replace(specs[index], **values)
    return dataclasses.replace(sc, **{section: tuple(specs)})


def _scaled(sc, length: float):
    """sc with every half side and distance at length, bypassing the reader's bounds."""

    def scale(spec):
        return dataclasses.replace(spec, half_side_m=length, distance_m=length)

    return dataclasses.replace(
        sc,
        transmitter=dataclasses.replace(sc.transmitter, half_side_m=length),
        receiver_coils=tuple(map(scale, sc.receiver_coils)),
        metal_plates=tuple(map(scale, sc.metal_plates)),
    )


def _faint_scenario(tmp_path, **values) -> Path:
    """The bundled scenario, reading a bundled database with values in every entry."""
    db = json.loads(resources.files("wptmod.data").joinpath("materials.json").read_text())
    for entry in db:
        entry.update(values)
        entry.pop("mu_r_range", None)
    (tmp_path / "db.json").write_text(json.dumps(db))
    raw = _bundled()
    raw["materials_db"] = str(tmp_path / "db.json")
    path = tmp_path / "faint.json"
    path.write_text(json.dumps(raw))
    return path


def _bind_materials(monkeypatch, conductivity: float, mu_r: float | None = None) -> None:
    """Let scenario.plates bind the bundled materials at conductivity (and mu_r).

    The database reader refuses such values; a library caller may still build them.
    """
    bound = {
        name: materials.MetalMaterial(mat.name, conductivity, mu_r or mat.rel_permeability)
        for name, mat in materials.load_materials().items()
    }
    monkeypatch.setattr(materials, "load_materials", lambda path=None: bound)


def _zero_plate_refused(sc) -> None:
    """sc's sweeps bind, and the circuit refuses to evaluate plate cu_0.1m's: r_m = l_m = 0."""
    sweep = next(s for s in scenario.build_sweeps(sc) if s.label == "metal:cu_0.1m")
    assert sweep.receiver.r_m == sweep.receiver.l_m == 0.0
    with pytest.raises(SingularityError, match="receiver impedance is zero"):
        characteristics.sweep_curve(sweep)


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    """Run the artifact pipeline once (curves -> fit) in a shared directory."""
    out = tmp_path_factory.mktemp("pipeline")
    assert cli.main(["curves", "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["fit", "--out", str(out)]) == cli.EXIT_OK
    return out


class TestMaterials:
    def test_listing(self, capsys):
        assert cli.main(["materials"]) == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "cuprum" in text and "aluminum" in text and "ferrum" in text
        assert "mu_r range 200-400" in text

    def test_single(self, capsys):
        assert cli.main(["materials", "Cu"]) == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "cuprum" in text and "aluminum" not in text

    def test_not_found(self, capsys):
        assert cli.main(["materials", "unobtainium"]) == cli.EXIT_VALIDATION
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, key",
        [
            (None, ""),
            ("[{", ""),
            (IsADirectoryError, ""),
            ("[{}]", "entry[0].name is missing"),
            ('{"a": 1}', "entry must be a list, got {'a': 1}"),
            ('[{"name": "x", "conductivity_S_per_m": "5"}]', "entry[0].conductivity_S_per_m"),
            ('[{"name": 3, "conductivity_S_per_m": 5}]', "entry[0].name must be a string"),
            (
                '[{"name": "x", "conductivity_S_per_m": 5, "aliases": "xy"}]',
                "entry[0].aliases must be a list, got 'xy'",
            ),
            (
                '[{"name": "x", "conductivity_S_per_m": 5, "mu_r_range": [300]}]',
                "entry[0].mu_r_range must be a list of 2, got [300]",
            ),
            (
                '[{"name": "a", "conductivity_S_per_m": 1e7, "mu_r_range": [5, 1]}]',
                "entry[0].mu_r_range must be [low, high] with low <= high, got [5, 1]",
            ),
            # the default mu_r of 1 lies outside [5, 5]
            (
                '[{"name": "a", "conductivity_S_per_m": 1e7, "mu_r_range": [5, 5]}]',
                "entry[0].mu_r must lie in a's mu_r_range [5, 5], got 1.0",
            ),
            (
                '[{"name": "a", "conductivity_S_per_m": 5}, '
                '{"name": "b", "conductivity_S_per_m": 5, "aliases": ["b2", "A"]}]',
                "entry[1].aliases[1] 'A' is already bound to entry[0] 'a'",
            ),
        ],
        ids=["missing", "not_json", "directory", "entry_empty", "object", "sigma_str",
             "name_int", "aliases_str", "range_short", "range_inverted", "mu_r_outside_range",
             "alias_shadows"],
    )
    def test_bad_db_names_path(self, tmp_path, capsys, content, key):
        db = tmp_path / "db.json"
        if content is IsADirectoryError:
            db.mkdir()
        elif content is not None:
            db.write_text(content)
        assert cli.main(["materials", "--db", str(db)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"material database {str(db)!r}" in err
        assert key in err

    @pytest.mark.parametrize("verb", ["materials", "impedance", "curves"])
    def test_shadowing_entry_names_key(self, tmp_path, capsys, verb):
        # 'Aluminium' is entry[1]'s alias and 'ferrum' entry[2]'s name: read last-wins,
        # the entry would rebind fe_0.1m to 1e6 S/m at mu_r 1
        db = json.loads(resources.files("wptmod.data").joinpath("materials.json").read_text())
        db.append({"name": "Aluminium", "conductivity_S_per_m": 1e6, "aliases": ["ferrum"]})
        (tmp_path / "db.json").write_text(json.dumps(db))
        raw = _bundled()
        raw["materials_db"] = str(tmp_path / "db.json")
        (tmp_path / "shadow.json").write_text(json.dumps(raw))
        out = tmp_path / "o"
        argv = [verb, "--scenario", str(tmp_path / "shadow.json"), "--out", str(out)]
        if verb == "materials":
            argv = [verb, "--db", str(tmp_path / "db.json")]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "entry[3].name 'Aluminium' is already bound to entry[1] 'aluminum'" in captured.err
        assert captured.out == "" and not out.exists()

    def test_repeat_within_entry_allowed(self, tmp_path, capsys):
        db = tmp_path / "db.json"
        entry = {"name": "Cu", "conductivity_S_per_m": 5.88e7, "aliases": ["cu"]}
        db.write_text(json.dumps([entry]))
        assert cli.main(["materials", "--db", str(db)]) == cli.EXIT_OK
        assert "Cu" in capsys.readouterr().out

    @pytest.mark.parametrize("mu_r", [5, 10])
    def test_mu_r_on_range_ends_accepted(self, tmp_path, capsys, mu_r):
        db = tmp_path / "db.json"
        entry = {"name": "a", "conductivity_S_per_m": 1e7, "mu_r": mu_r, "mu_r_range": [5, 10]}
        db.write_text(json.dumps([entry]))
        assert cli.main(["materials", "--db", str(db)]) == cli.EXIT_OK
        assert "mu_r range 5-10" in capsys.readouterr().out


class TestCouplingsCommand:
    def test_artifact(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["couplings", "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "couplings.csv").read_text().splitlines()
        assert lines[0] == "label,kind,m_check_H,m_H,check_method"
        sc = scenario.load_scenario(None)
        specs = {spec.label: spec for spec in (*sc.receiver_coils, *sc.metal_plates)}
        assert [ln.split(",")[0] for ln in lines[1:]] == [*specs]
        kinds = {ln.split(",")[1] for ln in lines[1:]}
        assert kinds == {"coil", "plate"}
        for ln in lines[1:]:
            label, kind, check, m, method = ln.split(",")
            assert float(check) > 0.0 and float(m) > 0.0
            # column 4 is the coupling the pipeline uses, for coils and plates alike
            assert m == f"{scenario.coupling(sc, specs[label]):.12e}", label
            assert method == ("paper_closed_form" if kind == "coil" else "radius_integral")

    def test_byte_identical_rerun(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["couplings", "--out", str(out1)])
        cli.main(["couplings", "--out", str(out2)])
        assert (out1 / "couplings.csv").read_bytes() == (out2 / "couplings.csv").read_bytes()


class TestImpedanceCommand:
    def test_artifact(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["impedance", "--out", str(out)]) == cli.EXIT_OK
        lines = (out / "impedance.csv").read_text().splitlines()
        assert lines[0] == "label,material,mu_r,half_side_m,distance_m,r_m_ohm,l_m_H"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        # iron plates present the largest equivalent resistance at each size
        fe = float(rows["fe_0.2m"][5])
        cu = float(rows["cu_0.2m"][5])
        assert fe > 5.0 * cu

    @pytest.mark.parametrize("distance", [1e-4, 1e-6, 1e-300])
    def test_too_close_plate_refused_at_once(self, tmp_path, capsys, distance):
        # at the least distance_m, 1e-4 m, a 0.164 m plate needs ~2.4e9 J1 sine evaluations;
        # 1e-6 and 1e-300 lie below it
        raw = _bundled()
        raw["metal_plates"][1].update(half_side_m=0.164, distance_m=distance)
        path = tmp_path / "close.json"
        path.write_text(json.dumps(raw))
        start = time.perf_counter()
        for verb in ("impedance", "curves"):
            code = cli.main([verb, "--scenario", str(path), "--out", str(tmp_path / "o")])
            assert code == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            if distance >= 1e-4:
                assert f"scenario.metal_plates[1].distance_m {distance!r} m is too small" in err
                assert "over its cap of 1e+09" in err
            else:
                assert (
                    f"scenario.metal_plates[1].distance_m must be >= 0.0001, got {distance!r}"
                    in err
                )
        assert time.perf_counter() - start < 1.0
        assert not (tmp_path / "o" / "impedance.csv").exists()
        assert not (tmp_path / "o" / "curves.csv").exists()

    @pytest.mark.parametrize("length", [1e-100, 1e-150, 1e-160, 1e-200])
    def test_tiny_lengths_exit_0_or_name_key(self, tmp_path, capsys, repro_scenario, length):
        # every length of the bundled scenario at one value, far below the least length
        raw = _bundled()
        raw["transmitter"]["half_side_m"] = length
        for receiver in raw["receiver_coils"] + raw["metal_plates"]:
            receiver.update(half_side_m=length, distance_m=length)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        for verb in ("impedance", "curves", "couplings"):
            code = cli.main([verb, "--scenario", str(path), "--out", str(out)])
            assert code == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert f"scenario.transmitter.half_side_m must be >= 0.0001, got {length!r}" in err
        assert not out.exists()
        # a library caller may bind them: the truncation target underflowed to 0 below
        # about 1e-95 m, and the cutoff 30/d squared past the largest float in phi_k
        # below about 1e-151 m
        sc = _scaled(repro_scenario, length)
        too_small = f"scenario.metal_plates[0].distance_m {length!r} m is too small"
        if length > 1e-150:
            plates = [rx for _, rx in scenario.plates(sc)]
            assert all(math.isfinite(rx.r_m) and rx.r_m >= 0.0 for rx in plates)
            # the Cu and Al plates reflect nothing at that size
            _zero_plate_refused(sc)
        else:
            with pytest.raises(ScenarioError, match=re.escape(too_small)) as info:
                scenario.plates(sc)
            assert "overflows the material response at mu_r 300" in str(info.value)
            with pytest.raises(ScenarioError, match=re.escape(too_small)):
                scenario.build_sweeps(sc)
        # the couplings and their references stay finite, some of them 0
        values = []
        for spec in sc.receiver_coils:
            closed = magnetics.mutual_inductance_coil_coil_closed(scenario.coil_pair(sc, spec))
            values += [closed, scenario.coupling(sc, spec)]
        for spec in sc.metal_plates:
            reference = magnetics.mutual_inductance_coil_plate_by_integration(
                scenario.tx_loop(sc), spec.half_side_m, spec.distance_m
            )
            values += [scenario.coupling(sc, spec), reference]
        assert all(math.isfinite(v) for v in values)

    def test_huge_mu_r_names_plate(self, tmp_path, capsys, repro_scenario):
        # cuprum has no mu_r_range, so mu_r 1e160 meets the bound of every mu_r
        raw = _bundled()
        raw["metal_plates"][2]["mu_r"] = 1e160
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(raw))
        for verb in ("impedance", "curves"):
            code = cli.main([verb, "--scenario", str(path), "--out", str(tmp_path / "o")])
            assert code == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert "scenario.metal_plates[2].mu_r must be <= 1000000.0, got 1e+160" in err
        assert not (tmp_path / "o").exists()
        # a library caller may bind it: mu_r^2 overflowed in phi_k (exit 3)
        sc = _replaced(repro_scenario, "metal_plates", 2, mu_r=1e160)
        with pytest.raises(ScenarioError) as info:
            scenario.plates(sc)
        assert "scenario.metal_plates[2].distance_m 0.2 m is too small" in str(info.value)
        assert "overflows the material response at mu_r 1e+160" in str(info.value)

    def test_tiny_plate_reflects_nothing(self, tmp_path, capsys, repro_scenario):
        raw = _bundled()
        raw["metal_plates"][2]["half_side_m"] = 1e-200
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        code = cli.main(["impedance", "--scenario", str(path), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "scenario.metal_plates[2].half_side_m must be >= 0.0001, got 1e-200" in err
        assert not out.exists()
        # a library caller may bind it: its tail bound underflowed to 0 (ZeroDivisionError)
        sc = _replaced(repro_scenario, "metal_plates", 2, half_side_m=1e-200)
        rx = scenario.plates(sc)[2][1]
        assert rx.r_m == rx.l_m == 0.0

    @pytest.mark.parametrize("verb", ["impedance", "curves"])
    def test_unknown_material_names_key(self, tmp_path, capsys, verb):
        raw = _bundled()
        raw["metal_plates"][1]["material"] = "unobtainium"
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        code = cli.main([verb, "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION
        assert (
            "scenario.metal_plates[1].material 'unobtainium' is not in the material database"
            in capsys.readouterr().err
        )
        assert not (tmp_path / "o").exists()

    def test_vanishing_conductivity_database(self, tmp_path, capsys, monkeypatch, repro_scenario):
        # 5e-324 S/m lies below the database's least conductivity_S_per_m
        path = _faint_scenario(tmp_path, conductivity_S_per_m=5e-324)
        for verb in ("impedance", "curves"):
            code = cli.main([verb, "--scenario", str(path), "--out", str(tmp_path / "o")])
            assert code == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert "entry[0].conductivity_S_per_m must be >= 0.001, got 5e-324" in err
        assert not (tmp_path / "o").exists()
        # a library caller may bind it: k_s = sqrt(w sigma mu0 mur) is 0
        _bind_materials(monkeypatch, 5e-324)
        plates = [rx for _, rx in scenario.plates(repro_scenario)]
        assert [rx.r_m for rx in plates] == [0.0] * len(plates)
        # mu_r = 1 plates reflect nothing there, which leaves their receiver current undefined
        _zero_plate_refused(repro_scenario)

    @pytest.mark.parametrize("mu_r", [1.0, 300.0])
    @pytest.mark.parametrize("sigma", [1e-308, 1e-310, 1e-318])
    def test_subnormal_skin_wavenumber_database(
        self, tmp_path, capsys, monkeypatch, repro_scenario, sigma, mu_r
    ):
        path = _faint_scenario(tmp_path, conductivity_S_per_m=sigma, mu_r=mu_r)
        for verb in ("impedance", "curves"):
            code = cli.main([verb, "--scenario", str(path), "--out", str(tmp_path / "o")])
            assert code == cli.EXIT_VALIDATION
            err = capsys.readouterr().err
            assert f"entry[0].conductivity_S_per_m must be >= 0.001, got {sigma!r}" in err
        assert not (tmp_path / "o").exists()
        # a library caller may bind it: k_s^2 = w sigma mu0 mur is subnormal but for
        # (1e-308, 300); every plate is then its static image, r_m = 0, as at sigma = 5e-324
        l_m = {}
        for conductivity in (5e-324, sigma):
            _bind_materials(monkeypatch, conductivity, mu_r)
            plates = [rx for _, rx in scenario.plates(repro_scenario)]
            assert all(0.0 <= rx.r_m < 1e-300 for rx in plates)
            l_m[conductivity] = [rx.l_m for rx in plates]
        assert l_m[sigma] == pytest.approx(l_m[5e-324], rel=1e-9)
        if mu_r == 300.0:
            scenario.build_sweeps(repro_scenario)
        else:
            _zero_plate_refused(repro_scenario)


class TestCurvesFitDetect:
    def test_curves_artifact(self, pipeline_out):
        text = (pipeline_out / "curves.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "label,i_tx_A,u_tx_V,p_in_W"
        labels = {ln.split(",")[0] for ln in lines[1:]}
        assert any(lb.startswith("coil:") for lb in labels)
        assert any(lb.startswith("metal:") for lb in labels)

    def test_near_field_coil_curves(self, tmp_path):
        raw = _bundled()
        coil = raw["receiver_coils"][0]
        couplings = {}
        for distance in (0.001, 0.0005):
            coil["distance_m"] = distance
            sc = scenario.parse_scenario(raw)
            couplings[distance] = scenario.coupling(sc, sc.receiver_coils[0])
        path = tmp_path / "near.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["curves", "--scenario", str(path), "--out", str(tmp_path)]) == 0
        assert math.isfinite(couplings[0.0005]) and couplings[0.0005] > couplings[0.001] > 0.0
        rows = [ln.split(",") for ln in (tmp_path / "curves.csv").read_text().splitlines()]
        near = [row for row in rows if row[0] == f"coil:{coil['label']}"]
        assert near and all(math.isfinite(float(v)) for row in near for v in row[1:])

    def test_fit_artifact(self, pipeline_out):
        data = json.loads((pipeline_out / "threshold.json").read_text())
        assert set(data) == {"u_line", "p_poly_W_per_A_n", "degree", "i_min_gate_A"}
        assert data["degree"] == 2
        assert data["i_min_gate_A"] == 3.0
        assert len(data["p_poly_W_per_A_n"]) == 3

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("nan", "line 4, column p_in_W: non-finite value 'nan'"),
            ("1e", "line 4, column p_in_W: not a number: '1e'"),
            ("0.5,0.5", "line 4: expected 4 comma-separated fields, got 5"),
        ],
        ids=["nan", "unparsable", "extra_field"],
    )
    def test_fit_rejects_bad_curve_row(self, pipeline_out, tmp_path, capsys, cell, message):
        lines = (pipeline_out / "curves.csv").read_text().splitlines()
        label, i, u, _ = lines[3].split(",")
        lines[3] = ",".join([label, i, u, cell])
        (tmp_path / "curves.csv").write_text("\n".join(lines) + "\n")
        assert cli.main(["fit", "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "threshold.json").exists()

    def test_fit_requires_curves(self, tmp_path, capsys):
        assert cli.main(["fit", "--out", str(tmp_path / "empty")]) == cli.EXIT_VALIDATION
        assert "missing upstream artifact" in capsys.readouterr().err
        assert not (tmp_path / "empty").exists()

    @pytest.mark.parametrize("kind", ["metal", "coil"])
    def test_fit_names_missing_class(self, pipeline_out, tmp_path, capsys, kind):
        lines = (pipeline_out / "curves.csv").read_text().splitlines()
        kept = [ln for ln in lines if not ln.startswith(f"{kind}:")]
        (tmp_path / "curves.csv").write_text("\n".join(kept) + "\n")
        assert cli.main(["fit", "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert f"curves.csv holds no {kind}: curve" in capsys.readouterr().err
        assert not (tmp_path / "threshold.json").exists()

    @pytest.mark.parametrize("label", ["metl:fe_0.2m", "metal_fe_0.2m"])
    def test_fit_names_unknown_class(self, pipeline_out, tmp_path, capsys, label):
        # the fit once ran without such a curve, and its U-I slope moved
        text = (pipeline_out / "curves.csv").read_text()
        (tmp_path / "curves.csv").write_text(text.replace("metal:fe_0.2m,", f"{label},"))
        assert cli.main(["fit", "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        message = f"curves.csv curve {label!r} is neither coil: nor metal:"
        assert message in capsys.readouterr().err
        assert not (tmp_path / "threshold.json").exists()

    def test_fit_on_mismatched_grids_ignores_row_order(self, pipeline_out, tmp_path, capsys):
        # metal:cu_0.1m thinned to every other row (11 of 21), as the CI step writes it:
        # the fit resamples every curve onto the common range at the largest point count,
        # 21, wherever the thinned curve's rows stand, and that curve's linear
        # interpolation moves the P-I fit off the plain one
        lines = (pipeline_out / "curves.csv").read_text().splitlines()
        thinned = lines[:1]
        n = 0
        for line in lines[1:]:
            if line.startswith("metal:cu_0.1m,"):
                n += 1
                if n % 2 == 0:
                    continue
            thinned.append(line)
        curves = {}
        for line in thinned[1:]:
            curves.setdefault(line.partition(",")[0], []).append(line)
        labels = list(curves)
        orders = {
            "in_place": labels,
            "thinned_first": ["metal:cu_0.1m", *(lb for lb in labels if lb != "metal:cu_0.1m")],
            "reversed": labels[::-1],
        }
        written = set()
        for name, order in orders.items():
            out = tmp_path / name
            out.mkdir()
            rows = [line for label in order for line in curves[label]]
            (out / "curves.csv").write_text("\n".join([lines[0], *rows]) + "\n")
            assert cli.main(["fit", "--out", str(out)]) == cli.EXIT_OK, name
            written.add((out / "threshold.json").read_bytes())
        assert len(curves["metal:cu_0.1m"]) == 11 and len(written) == 1
        assert written != {(pipeline_out / "threshold.json").read_bytes()}
        # the degree check counts the grid's 21 points, not the thinned curve's 11
        raw = _bundled()
        raw["detection"]["degree"] = 20
        path = tmp_path / "degree.json"
        path.write_text(json.dumps(raw))
        argv = ["fit", "--scenario", str(path), "--out", str(tmp_path / "thinned_first")]
        assert cli.main(argv) == cli.EXIT_OK
        raw["detection"]["degree"] = 21
        path.write_text(json.dumps(raw))
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert "degree must be < 21, the grid's point count" in capsys.readouterr().err

    def test_detect_requires_threshold(self, tmp_path, capsys):
        assert cli.main(["detect", "--out", str(tmp_path / "empty")]) == cli.EXIT_VALIDATION
        assert "missing upstream artifact" in capsys.readouterr().err
        assert not (tmp_path / "empty").exists()

    @pytest.mark.parametrize("verb, name", [("fit", "curves.csv"), ("detect", "threshold.json")])
    @pytest.mark.parametrize("content", [None, b"\xff"], ids=["directory", "not_utf8"])
    def test_unreadable_artifact_names_it(self, tmp_path, capsys, verb, name, content):
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert cli.main([verb, "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert f"cannot read {name} {str(path)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, artifact", [("couplings", ""), ("curves", "curves.csv")],
        ids=["out_is_file", "artifact_is_directory"],
    )
    def test_unusable_output_path_names_it(self, tmp_path, capsys, verb, artifact):
        out = tmp_path / "d"
        if artifact:
            (out / artifact).mkdir(parents=True)
        else:
            out.write_text("")
        assert cli.main([verb, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert str(out / artifact) in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["couplings", "impedance", "curves", "fit", "detect"])
    def test_out_naming_a_file_names_flag(self, tmp_path, capsys, verb):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        assert cli.main([verb, "--out", str(afile)]) == cli.EXIT_VALIDATION
        assert f"--out {str(afile)!r} is not a directory" in capsys.readouterr().err
        assert afile.read_text() == "kept" and os.listdir(tmp_path) == ["afile"]

    @pytest.mark.parametrize("verb", ["couplings", "impedance", "curves", "fit", "detect"])
    def test_out_below_a_file_names_flag(self, tmp_path, capsys, verb):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "sub" / "dir"
        assert cli.main([verb, "--out", str(out)]) == cli.EXIT_VALIDATION
        message = f"--out {str(out)!r} is not a directory: {str(afile)!r} is a file"
        assert message in capsys.readouterr().err
        assert afile.read_text() == "kept" and os.listdir(tmp_path) == ["afile"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d.pop("p_poly_W_per_A_n"), "threshold.json.p_poly_W_per_A_n is missing"),
            (lambda d: d["u_line"].pop("intercept_V"), "threshold.json.u_line.intercept_V is missing"),
            (lambda d: d.update(degree="2"), "threshold.json.degree must be an integer, got '2'"),
            (
                lambda d: d.update(i_min_gate_A=None),
                "threshold.json.i_min_gate_A must be a finite number, got None",
            ),
            (
                lambda d: d.update(u_line=[1.0, 2.0]),
                "threshold.json.u_line must be an object, got [1.0, 2.0]",
            ),
        ],
        ids=["no_p_poly", "no_intercept", "degree_str", "gate_null", "u_line_list"],
    )
    def test_detect_bad_threshold_names_key(self, pipeline_out, tmp_path, capsys, edit, message):
        data = json.loads((pipeline_out / "threshold.json").read_text())
        edit(data)
        (tmp_path / "threshold.json").write_text(json.dumps(data))
        assert cli.main(["detect", "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            # each overflowed the test points
            (
                lambda d: d["detection"].update(test_currents_a=[1e308]),
                "scenario.detection.test_currents_a[0] must be <= 10000.0, got 1e+308",
            ),
            (
                lambda d: d["noise"].update(relative_sigma=1e308),
                "scenario.noise.relative_sigma must be <= 1, got 1e+308",
            ),
        ],
        ids=["currents_1e308", "sigma_1e308"],
    )
    def test_detect_overflow_names_key(self, pipeline_out, tmp_path, capsys, edit, message):
        raw = _bundled()
        edit(raw)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        (tmp_path / "threshold.json").write_bytes((pipeline_out / "threshold.json").read_bytes())
        code = cli.main(["detect", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_detect_empty_test_currents_named(self, pipeline_out, tmp_path, capsys):
        raw = _bundled()
        raw["detection"]["test_currents_a"] = []
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        for verb in ("curves", "fit"):
            assert cli.main([verb, "--scenario", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
        code = cli.main(["detect", "--scenario", str(path), "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert "scenario.detection.test_currents_a must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [(["detect", "--seed", "-1"], "--seed must be >= 0, got -1")],
        ids=["detect_seed_negative"],
    )
    def test_bad_flag_names_flag(self, pipeline_out, tmp_path, capsys, argv, message):
        for name in ("curves.csv", "threshold.json"):
            (tmp_path / name).write_bytes((pipeline_out / name).read_bytes())
        assert cli.main([*argv, "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert (tmp_path / "threshold.json").read_bytes() == (
            pipeline_out / "threshold.json"
        ).read_bytes()
        assert not (tmp_path / "report.json").exists()

    def test_detect_report(self, pipeline_out, capsys):
        assert cli.main(["detect", "--out", str(pipeline_out)]) == cli.EXIT_OK
        out_text = capsys.readouterr().out
        assert "verdict" in out_text and "accuracy" in out_text
        report = json.loads((pipeline_out / "report.json").read_text())
        assert report["accuracy"] == 1.0
        assert report["decidable"] == report["total"]
        assert {row["receiver"] for row in report["samples"]} >= {"fe_0.2m", "load_4.5ohm"}

    def test_detect_seed_changes_samples(self, pipeline_out):
        cli.main(["detect", "--out", str(pipeline_out), "--seed", "1"])
        a = json.loads((pipeline_out / "report.json").read_text())
        cli.main(["detect", "--out", str(pipeline_out), "--seed", "2"])
        b = json.loads((pipeline_out / "report.json").read_text())
        assert a["samples"][0]["u_tx_V"] != b["samples"][0]["u_tx_V"]
        cli.main(["detect", "--out", str(pipeline_out), "--seed", "1"])
        assert json.loads((pipeline_out / "report.json").read_text()) == a

    @pytest.mark.parametrize(
        "argv",
        [["fit", "--degree", "3"], ["fit", "--gate-amps", "3"], ["detect", "--gate-amps", "3"]],
        ids=["fit_degree", "fit_gate", "detect_gate"],
    )
    def test_removed_flags_refused(self, pipeline_out, capsys, argv):
        # the scenario's detection keys and threshold.json are the only sources
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(pipeline_out)])
        assert exc.value.code == cli.EXIT_VALIDATION
        assert f"unrecognized arguments: {argv[1]} 3" in capsys.readouterr().err

    def test_fit_degree_past_grid_names_key(self, pipeline_out, tmp_path, capsys):
        # the bundled sweep has 21 points: degree 20 fits, and 21 is one past the grid
        raw = _bundled()
        path = tmp_path / "edited.json"
        (tmp_path / "curves.csv").write_bytes((pipeline_out / "curves.csv").read_bytes())
        argv = ["fit", "--scenario", str(path), "--out", str(tmp_path)]
        for degree in (21, 40):
            raw["detection"]["degree"] = degree
            path.write_text(json.dumps(raw))
            assert cli.main(argv) == cli.EXIT_VALIDATION
            assert (
                f"scenario.detection.degree must be < 21, the grid's point count, got {degree}"
                in capsys.readouterr().err
            )
            assert not (tmp_path / "threshold.json").exists()
        raw["detection"]["degree"] = 20
        path.write_text(json.dumps(raw))
        assert cli.main(argv) == cli.EXIT_OK
        assert json.loads((tmp_path / "threshold.json").read_text())["degree"] == 20

    @pytest.mark.parametrize("gate", [3, 20, 50])
    def test_fit_overlap_past_the_gate_exits_4(self, tmp_path, capsys, gate):
        # a 1e5 ohm load reflects almost nothing, so that coil's envelope overlaps the
        # plates'; with the gate past the sweep's 10 A, `fit` once checked no point and
        # `detect` read metal as coil at test currents over the gate
        raw = _bundled()
        coil = {**raw["receiver_coils"][0], "label": "open", "load_ohm": 1e5}
        raw["receiver_coils"].append(coil)
        raw["detection"]["gate_amps"] = gate
        path = tmp_path / "open.json"
        path.write_text(json.dumps(raw))
        argv = ["--scenario", str(path), "--out", str(tmp_path)]
        assert cli.main(["curves", *argv]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["fit", *argv]) == cli.EXIT_NON_SEPARABLE
        start = min(gate, 10)
        assert f"of the grid points at or above {start} A" in capsys.readouterr().err
        assert not (tmp_path / "threshold.json").exists()

    @pytest.mark.parametrize("source", ["scenario", "threshold_json"])
    def test_detect_all_gated(self, pipeline_out, tmp_path, source):
        # gate above every test current: nothing is decidable
        if source == "scenario":
            raw = _bundled()
            raw["detection"]["gate_amps"] = 50
            path = tmp_path / "gated.json"
            path.write_text(json.dumps(raw))
            argv = ["--scenario", str(path), "--out", str(tmp_path)]
            for verb in ("curves", "fit"):
                assert cli.main([verb, *argv]) == cli.EXIT_OK
        else:
            # re-gating without a refit: edit the fitted gate
            model = json.loads((pipeline_out / "threshold.json").read_text())
            model["i_min_gate_A"] = 50
            (tmp_path / "threshold.json").write_text(json.dumps(model))
            argv = ["--out", str(tmp_path)]
        assert json.loads((tmp_path / "threshold.json").read_text())["i_min_gate_A"] == 50
        assert cli.main(["detect", *argv]) == cli.EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["no_decidable_samples"]
        assert report["accuracy"] is None
        assert all(row["gated"] for row in report["samples"])


# sha256 of report.json from `detect --seed k`, k = 0..19, on the bundled
# scenario, as written once u_tx became |Z_in|*I; the float values in a
# report depend on numpy's float64 arithmetic
REPORT_SHA256 = [
    "b51449e4eaf2c5f82661b1c8fb2fddb268538838a1315c0fbd99a3b8c3f6d6a6",
    "f4223dedae4d5934337cdbba6fa11cbc03e5bc1087f48b27d21e3c361edd7ea3",
    "ec8d5b2f3d1ca6a5f01b5e9e511733b14b901fe509a9c2b37c743d6ccbae07f1",
    "7f4b52dcfbb185e00ecb204907f50521feea99d85c1c6f502737699ed526f6bd",
    "406a22b38f139c9a18f2067f606928752e13f7a1a834d9aebcefdfa119233b83",
    "a69666244d18a2d2bd28b1ed12160b74311bf7ad32fb21fb8152915fb6fead42",
    "51e87c4003cd9d271b16d97b62e4ec8d96db3eb62145aae5f62496178b0a187c",
    "9d42194e267220683175e7d509f135bcfff9d7c22ad5ec4b60570bd61c7967e3",
    "4f54c40465757675a9a6078e2f7c207865fd9cea39226eeb0416a47383e827a3",
    "8f56bfbef9919544bc02ade56842e4e038d928e01573a990a165cf7dfd31e4b7",
    "17854281e8eebda9213eef1f231163f8a7cbb22c89ed90f1b9b97952e9a35fe4",
    "a53dbe2b86d32cabdef7b5b5dd66a924ec7e2a10d7d5a20e2a6c589e97a60d3a",
    "5a112a125c9765a3ddecdb54a84d507b82e2e3a4f9292e465e8c99f7a0cf21de",
    "b0f1ead3cb39167eb99d5c69889401ede3d099ccb98f1cd641533d80d241c061",
    "2d99ccb0a8426f19c19f17957f7c7b9e9294ea1cce65265fe58540aa4698b822",
    "02e87204d7beea8b30197f0a31550c8d6aa75f47a59e9ef41fc56be3403ab9ef",
    "324ac18c696cf6cd80fd2485f7ef85b4a7d8602091b3d867ccb5d83314e10454",
    "a93bb75c6454b7c5a59c321fcbe9ef4047f27a25b5657a9e9328475744d636e9",
    "3b9ac6405645fe019aeef78e698fa674067290f89d4e7f0e7bd3aeb5df0b7597",
    "db4c7be6746a4db651e3568d11ff96198b334e30aa387fd565b1d2c510f80d6b",
]


def test_detect_reports_byte_identical(tmp_path, capsys):
    out = str(tmp_path)
    assert cli.main(["curves", "--out", out]) == cli.EXIT_OK
    assert cli.main(["fit", "--out", out]) == cli.EXIT_OK
    for seed, digest in enumerate(REPORT_SHA256):
        assert cli.main(["detect", "--out", out, "--seed", str(seed)]) == cli.EXIT_OK
        assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == digest
    capsys.readouterr()


# sha256 of the `impedance`, `curves` and `fit` artifacts on the bundled
# scenario, as written when every panel took the direct J1 rule; and of the
# `couplings` table, as written when its Simpson check column was a numpy sum
ARTIFACT_SHA256 = {
    "couplings.csv": "e05146f8e8783975e29c625a8b24341744e9cdeb78ce6ac5c738ddc54011b2e7",
    "impedance.csv": "50a8b978c3f99f25100e85a02b27ce5a45e7b6c9ef9b2afcc82afab76f718671",
    "curves.csv": "ce04ca314db603d053d3d1e6a409cac83cb14fb3cdd3c79129f63d574810857f",
    "threshold.json": "691eaf03d6dd0dc9f0af4dfdf805a3e1c0be6804b00eb0dc706c41e3016ebc34",
}


def test_artifacts_byte_identical(tmp_path, capsys):
    for verb in ("couplings", "impedance", "curves", "fit"):
        assert cli.main([verb, "--out", str(tmp_path)]) == cli.EXIT_OK
    for name, digest in ARTIFACT_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
    capsys.readouterr()


class TestScenarioValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        base = _bundled()
        base["sweep"]["typo_key"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(base))
        code = cli.main(["curves", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION
        assert "unknown keys" in capsys.readouterr().err

    def test_azimuth_key_rejected(self, tmp_path, capsys):
        # every receiver sits on coil B's axis, so the scenario names no azimuth
        code = self._curves(tmp_path, lambda d: d["sweep"].update(azimuth_rad=0.7853981633974483))
        assert code == cli.EXIT_VALIDATION
        assert "unknown keys in scenario.sweep: ['azimuth_rad']" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: d["sweep"].update(steps=21.5), "sweep.steps"),
            (lambda d: d.update(frequency_hz="20k"), "frequency_hz"),
            (lambda d: d["transmitter"].update(turns="3"), "transmitter.turns"),
            (lambda d: d["receiver_coils"][1].update(load_ohm=True), "receiver_coils[1].load_ohm"),
            (lambda d: d["detection"].update(gate_amps=None), "detection.gate_amps"),
            (lambda d: d["noise"].update(relative_sigma=float("nan")), "noise.relative_sigma"),
            (lambda d: d["sweep"].update(i_max_a=10**400), "sweep.i_max_a"),
            (lambda d: d["detection"]["test_currents_a"].append("9"), "test_currents_a[3]"),
            (
                lambda d: d["receiver_coils"][0].update(distance_m=0),
                "receiver_coils[0].distance_m must be >= 0.0001, got 0",
            ),
            (
                lambda d: d["metal_plates"][0].update(distance_m=-0.1),
                "metal_plates[0].distance_m must be >= 0.0001, got -0.1",
            ),
            (
                lambda d: d["receiver_coils"][1].update(half_side_m=0.0),
                "receiver_coils[1].half_side_m must be >= 0.0001, got 0.0",
            ),
            (
                lambda d: d["metal_plates"][2].update(half_side_m=-1),
                "metal_plates[2].half_side_m must be >= 0.0001, got -1",
            ),
            (
                lambda d: d["transmitter"].update(half_side_m=0),
                "transmitter.half_side_m must be >= 0.0001, got 0",
            ),
            (lambda d: d.update(frequency_hz=-5), "scenario.frequency_hz must be >= 1, got -5"),
            # w^2 L underflowed to 0, so the resonant capacitance 1 / (w^2 L) did not exist
            (
                lambda d: d.update(frequency_hz=1e-300),
                "scenario.frequency_hz must be >= 1, got 1e-300",
            ),
            # 10**9 points would ask for gigabytes
            (
                lambda d: d["sweep"].update(steps=10**9),
                "sweep.steps must be <= 100000, got 1000000000",
            ),
            # ferrum's mu_r_range is [200, 400], ends included
            (
                lambda d: d["metal_plates"][0].update(mu_r=5000),
                "metal_plates[0].mu_r must lie in ferrum's mu_r_range [200.0, 400.0], got 5000",
            ),
            (
                lambda d: d["metal_plates"][1].update(mu_r=199.9),
                "metal_plates[1].mu_r must lie in ferrum's mu_r_range [200.0, 400.0], got 199.9",
            ),
        ],
        ids=["steps_float", "freq_str", "turns_str", "load_bool", "gate_null", "sigma_nan",
             "huge_int", "current_str", "coil_distance_zero", "plate_distance_negative",
             "coil_side_zero", "plate_side_negative", "tx_side_zero", "freq_negative",
             "freq_underflow", "steps_huge", "mu_r_above_range", "mu_r_below_range"],
    )
    def test_bad_number_names_key(self, tmp_path, capsys, edit, key):
        code = self._curves(tmp_path, edit)
        assert code == cli.EXIT_VALIDATION
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["receiver_coils"][2].update(label="load_1.5ohm"), "duplicate label"),
            (lambda d: d["metal_plates"][1].update(label="fe_0.1m"), "duplicate label"),
            (lambda d: d["metal_plates"][0].update(label="a,b"), "metal_plates[0].label"),
            (lambda d: d["receiver_coils"][0].update(label="ab\n"), "receiver_coils[0].label"),
            (lambda d: d["receiver_coils"][0].update(label=7), "receiver_coils[0].label"),
            (lambda d: d["metal_plates"][2].update(material=1), "metal_plates[2].material"),
            (lambda d: d.update(transmitter=5), "transmitter must be an object"),
            (lambda d: d.update(metal_plates={"a": 1}), "metal_plates must be a list"),
            (lambda d: d.update(receiver_coils="coil"), "receiver_coils must be a list"),
            (lambda d: d["detection"].update(test_currents_a=3.0), "test_currents_a must be a list"),
            (lambda d: d.update(materials_db=5), "scenario.materials_db must be a string, got 5"),
        ],
        ids=["dup_coil", "dup_plate", "comma", "newline", "label_int", "material_int", "tx_int",
             "plates_object", "coils_str", "currents_float", "materials_db_int"],
    )
    def test_bad_name_or_section_rejected(self, tmp_path, capsys, edit, message):
        code = self._curves(tmp_path, edit)
        assert code == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["receiver_coils", "metal_plates"])
    @pytest.mark.parametrize("verb", ["curves", "detect"])
    def test_empty_receiver_class_rejected_up_front(
        self, pipeline_out, tmp_path, capsys, section, verb
    ):
        raw = _bundled()
        raw[section] = []
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        out.mkdir()
        # detect reads a valid threshold.json before it builds its samples
        (out / "threshold.json").write_bytes((pipeline_out / "threshold.json").read_bytes())
        code = cli.main([verb, "--scenario", str(path), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        assert f"{section} is empty" in capsys.readouterr().err
        assert not (out / "curves.csv").exists() and not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            # m was finite, but (w*m)^2 overflowed
            (
                lambda d: d["receiver_coils"][0].update(turns=1e160),
                f"scenario.receiver_coils[0].turns must be <= 10000, got {int(1e160)!r}",
            ),
            # the plate coupling was nan
            (
                lambda d: d["metal_plates"][0].update(half_side_m=1e300),
                "scenario.metal_plates[0].half_side_m must be <= 100.0, got 1e+300",
            ),
            # the coil couplings underflowed to 0, the plate couplings were nan
            (
                lambda d: d["transmitter"].update(half_side_m=1e200),
                "scenario.transmitter.half_side_m must be <= 100.0, got 1e+200",
            ),
        ],
        ids=["coil_turns", "plate_side", "tx_side"],
    )
    @pytest.mark.parametrize("verb", ["curves", "detect", "couplings"])
    def test_unbounded_reflection_names_receiver(
        self, pipeline_out, tmp_path, capsys, verb, edit, message
    ):
        raw = _bundled()
        edit(raw)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        out.mkdir()
        (out / "threshold.json").write_bytes((pipeline_out / "threshold.json").read_bytes())
        code = cli.main([verb, "--scenario", str(path), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert message in err and "RuntimeWarning" not in err
        assert not any((out / name).exists() for name in ("couplings.csv", "curves.csv", "report.json"))

    @pytest.mark.parametrize("verb", ["curves", "detect"])
    def test_infinite_input_impedance_names_receiver(self, pipeline_out, tmp_path, capsys, verb):
        # r_m was 2.9e-310 ohm and l_m 0, so (w*m)^2 / r_m overflowed Z_in
        db = json.loads(resources.files("wptmod.data").joinpath("materials.json").read_text())
        db[0]["conductivity_S_per_m"] = 1e-306
        (tmp_path / "db.json").write_text(json.dumps(db))
        raw = _bundled()
        raw["materials_db"] = str(tmp_path / "db.json")
        for plate in raw["metal_plates"]:
            if plate["material"] == "cuprum":
                plate.update(half_side_m=3.0, distance_m=0.01)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "o"
        out.mkdir()
        (out / "threshold.json").write_bytes((pipeline_out / "threshold.json").read_bytes())
        code = cli.main([verb, "--scenario", str(path), "--out", str(out)])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "entry[0].conductivity_S_per_m must be >= 0.001, got 1e-306" in err
        assert not (out / "curves.csv").exists() and not (out / "report.json").exists()

    @pytest.mark.parametrize("mu_r", [200, 400])
    def test_plate_mu_r_on_range_ends_accepted(self, tmp_path, mu_r):
        assert self._curves(tmp_path, lambda d: d["metal_plates"][0].update(mu_r=mu_r)) == 0

    def test_plate_only_scenario_tables_still_written(self, tmp_path):
        raw = _bundled()
        raw["receiver_coils"] = []
        path = tmp_path / "plates.json"
        path.write_text(json.dumps(raw))
        for verb in ("impedance", "couplings"):
            assert cli.main([verb, "--scenario", str(path), "--out", str(tmp_path)]) == 0

    def test_missing_materials_db_names_path(self, tmp_path, capsys):
        db = str(tmp_path / "nope.json")
        assert self._curves(tmp_path, lambda d: d.update(materials_db=db)) == cli.EXIT_VALIDATION
        assert f"cannot read material database {db!r}" in capsys.readouterr().err

    def test_same_label_across_classes_allowed(self, tmp_path):
        edit = lambda d: d["metal_plates"][0].update(label="load_1.5ohm")  # noqa: E731
        assert self._curves(tmp_path, edit) == cli.EXIT_OK

    @staticmethod
    def _curves(tmp_path, edit) -> int:
        raw = _bundled()
        edit(raw)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(raw))
        return cli.main(["curves", "--scenario", str(path), "--out", str(tmp_path / "o")])

    def test_curves_overflow_names_i_max(self, tmp_path, capsys):
        # the P-I column r_in * I^2 overflowed long before I itself did
        code = self._curves(tmp_path, lambda d: d["sweep"].update(i_max_a=1e308))
        assert code == cli.EXIT_VALIDATION
        assert "scenario.sweep.i_max_a must be <= 10000.0, got 1e+308" in capsys.readouterr().err
        assert not (tmp_path / "o" / "curves.csv").exists()

    def test_missing_file(self, tmp_path):
        code = cli.main(
            ["curves", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == cli.EXIT_VALIDATION

    def test_missing_file_names_path(self, tmp_path, capsys):
        path = str(tmp_path / "nope.json")
        code = cli.main(["couplings", "--scenario", path, "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert f"cannot read scenario file {path!r}" in capsys.readouterr().err

    def test_parse_rejects_missing_section(self):
        with pytest.raises(ScenarioError):
            scenario.parse_scenario({"frequency_hz": 20e3})

    def test_bundled_scenario_loads(self, repro_scenario):
        assert repro_scenario.frequency_hz == 20e3
        assert len(repro_scenario.receiver_coils) == 3
        assert len(repro_scenario.metal_plates) == 6
        assert repro_scenario.detection.test_currents_a == (3.0, 6.0, 9.0)


def test_verbs_run_with_encoding_warnings_as_errors(tmp_path):
    # each file the CLI reads or writes is opened as UTF-8, never in the locale encoding;
    # and the verbs run on numpy alone, loading none of the test extras
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    verbs = ["materials", "couplings", "impedance", "curves", "fit", "detect"]
    extras = ["scipy", "mpmath", "hypothesis"]
    probe = (
        "import sys; from wptmod import cli; "
        f"print([cli.main([v] if v == 'materials' else [v, '--out', 'o']) for v in {verbs!r}]); "
        f"print(sorted({{m.split('.')[0] for m in sys.modules}} & set({extras!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", probe],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    codes, loaded = result.stdout.splitlines()[-2:]
    assert codes == str([cli.EXIT_OK] * len(verbs))
    assert loaded == "[]"


def test_package_import_loads_no_numpy(tmp_path):
    # the package root re-exports nothing, and the CLI imports the physics modules
    # inside the verbs that run them: parsing, --help, --version, materials and
    # couplings run without numpy
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import importlib, sys\n"
        "importlib.import_module(sys.argv[1])\n"
        "code = None\n"
        "if sys.argv[2:]:\n"
        "    try:\n"
        "        code = importlib.import_module('wptmod.cli').main(sys.argv[2:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('numpy')))"
    )
    cases = [
        (["wptmod"], None),
        (["wptmod.cli"], None),
        (["wptmod.cli", "--help"], cli.EXIT_OK),
        (["wptmod.cli", "--version"], cli.EXIT_OK),
        (["wptmod.cli", "couplings", "--no-such-flag"], cli.EXIT_VALIDATION),
        (["wptmod.cli", "materials"], cli.EXIT_OK),
        (["wptmod.cli", "materials", "--db", str(tmp_path / "missing.json")], cli.EXIT_VALIDATION),
        (["wptmod.cli", "couplings", "--out", str(tmp_path / "o")], cli.EXIT_OK),
    ]
    for args, code in cases:
        result = subprocess.run(
            [sys.executable, "-c", probe, *args],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
        )
        assert result.stdout.splitlines()[-1] == f"{code} []", args
        if args[1:] == ["--version"]:
            assert result.stdout.splitlines()[0] == f"wptmod {wptmod.__version__}"


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    # scenario imports the physics modules inside the builders that call them,
    # so a verb loads no module that only a later verb runs; detect loads them all
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import json, sys\n"
        "from wptmod import cli\n"
        "code = cli.main([sys.argv[1], '--out', 'o'])\n"
        "print(json.dumps([code, sorted(sys.modules)]))"
    )
    loaded = {}
    for verb in ("couplings", "impedance", "curves", "fit"):
        result = subprocess.run(
            [sys.executable, "-c", probe, verb],
            capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
        )
        code, modules = json.loads(result.stdout.splitlines()[-1])
        assert code == cli.EXIT_OK, verb
        loaded[verb] = set(modules)
    package = {m.removeprefix("wptmod.") for m in loaded["couplings"] if m.startswith("wptmod.")}
    assert "magnetics" in package
    assert package <= {"cli", "data", "errors", "magnetics", "scenario", "schema"}
    assert "numpy" not in loaded["couplings"]
    assert "wptmod.eddy" in loaded["impedance"]
    assert not loaded["impedance"] & {"wptmod.characteristics", "wptmod.detection"}
    assert "wptmod.characteristics" in loaded["curves"]
    assert "wptmod.detection" not in loaded["curves"]
    assert "wptmod.detection" in loaded["fit"]
    assert not loaded["fit"] & {
        "wptmod.circuit", "wptmod.eddy", "wptmod.materials", "numpy.polynomial"
    }


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == cli.EXIT_OK
    assert capsys.readouterr().out == f"wptmod {wptmod.__version__}\n"
