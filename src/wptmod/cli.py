"""Command-line entry point for the WPT metal-object-detection pipeline.

Verbs: materials, couplings, impedance, curves, fit, detect.  Every command
is deterministic given the scenario file and seed; exit codes distinguish
validation (2), convergence (3), and non-separability (4) failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import characteristics, detection, eddy, magnetics, scenario
from .errors import ConvergenceError, NonSeparableDataError, ScenarioError
from .schema import read_key

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_NON_SEPARABLE = 4


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _override(args, name: str, section, default):
    """The flag overriding key `name` of the spec class section, or default.

    The flag is read with that key's kind and bounds, and errors name the flag.
    """
    value = getattr(args, name)
    if value is None:
        return default
    return read_key(section, name, value, "--" + name.replace("_", "-"))


def cmd_materials(args) -> int:
    db = eddy.load_materials(args.db)
    unique = {mat.name: mat for mat in db.values()}
    if args.name:
        mat = db.get(args.name.lower())
        if mat is None:
            print(f"material not found: {args.name}", file=sys.stderr)
            return EXIT_VALIDATION
        unique = {mat.name: mat}
    print(f"{'name':<10} {'sigma_S_per_m':>14} {'mu_r':>8}  notes")
    for mat in unique.values():
        note = ""
        if mat.rel_permeability_range:
            lo, hi = mat.rel_permeability_range
            note = f"mu_r range {lo:g}-{hi:g}, default {mat.rel_permeability:g}"
        print(
            f"{mat.name:<10} {mat.conductivity:>14.4g} {mat.rel_permeability:>8g}  {note}"
        )
    return EXIT_OK


def cmd_couplings(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    rows = ["label,kind,m_closed_form_H,m_reference_H,reference_method"]
    for spec in sc.receiver_coils:
        closed = magnetics.mutual_inductance_coil_coil_closed(scenario.coil_pair(sc, spec))
        reference = scenario.coil_coupling(sc, spec)
        rows.append(f"{spec.label},coil,{closed:.12e},{reference:.12e},exact")
    for spec in sc.metal_plates:
        closed = scenario.plate_coupling(sc, spec)
        reference = magnetics.mutual_inductance_coil_plate_by_integration(
            scenario.tx_loop(sc), spec.half_side_m, spec.distance_m
        )
        rows.append(f"{spec.label},plate,{closed:.12e},{reference:.12e},radius_integral")
    path = _out_dir(args) / "couplings.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_impedance(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    rows = ["label,material,mu_r,half_side_m,distance_m,r_m_ohm,l_m_H"]
    for spec, mat in zip(sc.metal_plates, scenario.plate_materials(sc)):
        imp = eddy.plate_impedance(scenario.plate_eddy_geometry(sc, spec), mat)
        rows.append(
            f"{spec.label},{mat.name},{mat.rel_permeability:g},"
            f"{spec.half_side_m:g},{spec.distance_m:g},{imp.r_m:.12e},{imp.l_m:.12e}"
        )
    path = _out_dir(args) / "impedance.csv"
    path.write_text("\n".join(rows) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_curves(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    sweeps = scenario.build_sweeps(sc)
    # overflow is detected below, by key, instead of warned about
    with np.errstate(over="ignore"):
        curves = [characteristics.sweep_curve(spec) for spec in sweeps]
    # u = z_u*I and p = r_in*I^2 are largest at the last, highest current
    if not all(np.isfinite(c.u_tx[-1]) and np.isfinite(c.p_in[-1]) for c in curves):
        raise ScenarioError(f"scenario.sweep.i_max_a {sc.sweep.i_max_a!r} A overflows the curves")
    path = _out_dir(args) / "curves.csv"
    path.write_text(characteristics.curves_to_csv(curves))
    print(f"wrote {path}")
    return EXIT_OK


def cmd_fit(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    curves_path = _out_dir(args) / "curves.csv"
    if not curves_path.exists():
        print(f"missing upstream artifact {curves_path}; run `curves` first", file=sys.stderr)
        return EXIT_VALIDATION
    curves = characteristics.curves_from_csv(curves_path.read_text())
    metal = [c for c in curves if c.label.startswith("metal:")]
    coil = [c for c in curves if c.label.startswith("coil:")]
    degree = _override(args, "degree", scenario.DetectionSection, sc.detection.degree)
    gate = _override(args, "gate_amps", scenario.DetectionSection, sc.detection.gate_amps)
    model = detection.fit_thresholds(metal, coil, degree=degree, i_min_gate=gate)
    path = _out_dir(args) / "threshold.json"
    path.write_text(model.to_json() + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def _print_report_table(report: dict) -> None:
    print(f"{'true':<8} {'i_tx_A':>7} {'u_tx_V':>12} {'p_in_W':>12} {'verdict':>14}")
    for row in report["samples"]:
        print(
            f"{row['true_label']:<8} {row['i_tx_A']:>7.2f} {row['u_tx_V']:>12.6f} "
            f"{row['p_in_W']:>12.6f} {row['verdict']:>14}"
        )
    acc = report["accuracy"]
    acc_text = "n/a (zero decidable samples)" if acc is None else f"{acc:.3f}"
    print(f"decidable {report['decidable']}/{report['total']}, accuracy {acc_text}")


def cmd_detect(args) -> int:
    sc = scenario.load_scenario(args.scenario)
    threshold_path = _out_dir(args) / "threshold.json"
    if not threshold_path.exists():
        print(
            f"missing upstream artifact {threshold_path}; run `fit` first", file=sys.stderr
        )
        return EXIT_VALIDATION
    model = detection.ThresholdModel.from_json(threshold_path.read_text())
    gate = _override(args, "gate_amps", scenario.DetectionSection, model.i_min_gate)
    model = replace(model, i_min_gate=gate)
    seed = _override(args, "seed", characteristics.NoiseSpec, sc.noise.seed)
    triples = scenario.generate_test_samples(sc, seed=seed)
    labeled = [(true, sample) for true, _, sample in triples]
    report = detection.evaluate_batch(labeled, model)
    for row, (_, name, _) in zip(report["samples"], triples):
        row["receiver"] = name
    path = _out_dir(args) / "report.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    _print_report_table(report)
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptmod",
        description="Two-orthogonal-coil WPT simulation and metal object detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("materials", help="list the metal material database")
    p.add_argument("name", nargs="?", help="show a single material")
    p.add_argument("--db", help="alternate material database file")
    p.set_defaults(func=cmd_materials)

    def common(p):
        p.add_argument("--scenario", help="scenario JSON (default: bundled paper-repro)")
        p.add_argument("--out", default="out", help="artifact output directory")

    p = sub.add_parser("couplings", help="mutual inductance table (closed form vs reference)")
    common(p)
    p.set_defaults(func=cmd_couplings)

    p = sub.add_parser("impedance", help="plate equivalent R_m / L_m table")
    common(p)
    p.set_defaults(func=cmd_impedance)

    p = sub.add_parser("curves", help="characteristic U-I / P-I curves")
    common(p)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("fit", help="fit threshold curves from curves.csv")
    common(p)
    p.add_argument("--degree", type=int, help="P-I polynomial degree")
    p.add_argument("--gate-amps", type=float, help="minimum-current validity gate")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("detect", help="classify noisy test points against threshold.json")
    common(p)
    p.add_argument("--seed", type=int, help="noise seed override")
    p.add_argument("--gate-amps", type=float, help="minimum-current validity gate")
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonSeparableDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_SEPARABLE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
