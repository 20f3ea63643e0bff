"""Command-line entry point for the WPT metal-object-detection pipeline.

Verbs: materials, couplings, impedance, curves, fit, detect.  Every command
is deterministic given the scenario file and seed; exit codes distinguish
validation (2), convergence (3), and non-separability (4) failures.

Parsing, --help, --version, usage errors, `materials` and `couplings` load
no numpy: each verb imports the modules it runs when it starts, and
wptmod.scenario defers each physics module to the builder that calls it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import ConvergenceError, NonSeparableDataError, ScenarioError
from .schema import read_key, read_text

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONVERGENCE = 3
EXIT_NON_SEPARABLE = 4


def _out(args) -> Path:
    """The --out directory, refused when it or its nearest existing ancestor is a file."""
    out = Path(args.out)
    found = next((path for path in (out, *out.parents) if path.exists()), None)
    if found is not None and not found.is_dir():
        below = "" if found == out else f": {str(found)!r} is a file"
        raise ScenarioError(f"--out {args.out!r} is not a directory{below}")
    return out


def _upstream(args, name: str, verb: str) -> str:
    """The text of artifact `name` in --out, which `verb` writes."""
    path = _out(args) / name
    if not path.exists():
        raise ScenarioError(f"missing upstream artifact {path}; run `{verb}` first")
    return read_text(str(path), name)


def _write(args, name: str, text: str) -> None:
    """Write artifact `name` into --out as UTF-8, creating --out, and say so."""
    path = _out(args) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def cmd_materials(args) -> int:
    from .materials import load_materials

    db = load_materials(args.db)
    unique = {mat.name: mat for mat in db.values()}
    if args.name:
        mat = db.get(args.name.lower())
        if mat is None:
            raise ScenarioError(f"material not found: {args.name}")
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
    from . import magnetics, scenario

    sc = scenario.load_scenario(args.scenario)
    # m_H is the coupling the pipeline uses; m_check_H evaluates it another way
    rows = ["label,kind,m_check_H,m_H,check_method"]
    for spec in sc.receiver_coils:
        check = magnetics.mutual_inductance_coil_coil_closed(scenario.coil_pair(sc, spec))
        m = scenario.coupling(sc, spec)
        rows.append(f"{spec.label},coil,{check:.12e},{m:.12e},paper_closed_form")
    for spec in sc.metal_plates:
        check = magnetics.mutual_inductance_coil_plate_by_integration(
            scenario.tx_loop(sc), spec.half_side_m, spec.distance_m
        )
        m = scenario.coupling(sc, spec)
        rows.append(f"{spec.label},plate,{check:.12e},{m:.12e},radius_integral")
    _write(args, "couplings.csv", "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_impedance(args) -> int:
    from . import scenario

    sc = scenario.load_scenario(args.scenario)
    rows = ["label,material,mu_r,half_side_m,distance_m,r_m_ohm,l_m_H"]
    for spec, (mat, imp) in zip(sc.metal_plates, scenario.plates(sc)):
        rows.append(
            f"{spec.label},{mat.name},{mat.rel_permeability:g},"
            f"{spec.half_side_m:g},{spec.distance_m:g},{imp.r_m:.12e},{imp.l_m:.12e}"
        )
    _write(args, "impedance.csv", "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_curves(args) -> int:
    from . import characteristics, scenario

    sc = scenario.load_scenario(args.scenario)
    curves = [characteristics.sweep_curve(spec) for spec in scenario.build_sweeps(sc)]
    _write(args, "curves.csv", characteristics.curves_to_csv(curves))
    return EXIT_OK


def cmd_fit(args) -> int:
    from . import characteristics, detection, scenario

    sc = scenario.load_scenario(args.scenario)
    curves = characteristics.curves_from_csv(_upstream(args, "curves.csv", "curves"))
    classes = {"metal": [], "coil": []}
    for curve in curves:
        kind, colon, _ = curve.label.partition(":")
        if not colon or kind not in classes:
            raise ScenarioError(f"curves.csv curve {curve.label!r} is neither coil: nor metal:")
        classes[kind].append(curve)
    for kind, group in classes.items():
        if not group:
            raise ScenarioError(f"curves.csv holds no {kind}: curve; the fit needs both classes")
    metal, coil = classes.values()
    d = sc.detection
    # fit_thresholds' grid has as many points as the longest curve
    points = max(curve.i_tx.size for curve in curves)
    if not d.degree < points:
        raise ScenarioError(
            f"scenario.detection.degree must be < {points}, the grid's point "
            f"count, got {d.degree}"
        )
    model = detection.fit_thresholds(metal, coil, degree=d.degree, i_min_gate=d.gate_amps)
    _write(args, "threshold.json", model.to_json() + "\n")
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
    from . import detection, scenario

    sc = scenario.load_scenario(args.scenario)
    model = detection.ThresholdModel.from_json(_upstream(args, "threshold.json", "fit"))
    seed = sc.noise.seed if args.seed is None else read_key(
        scenario.NoiseSpec, "seed", args.seed, "--seed"
    )
    triples = scenario.generate_test_samples(sc, seed=seed)
    labeled = [(true, sample) for true, _, sample in triples]
    report = detection.evaluate_batch(labeled, model)
    for row, (_, name, _) in zip(report["samples"], triples):
        row["receiver"] = name
    _print_report_table(report)
    _write(args, "report.json", json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wptmod",
        description="Two-orthogonal-coil WPT simulation and metal object detection",
    )
    parser.add_argument("--version", action="version", version=f"wptmod {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("materials", help="list the metal material database")
    p.add_argument("name", nargs="?", help="show a single material")
    p.add_argument("--db", help="alternate material database file")
    p.set_defaults(func=cmd_materials)

    def common(p):
        p.add_argument("--scenario", help="scenario JSON (default: bundled paper-repro)")
        p.add_argument("--out", default="out", help="artifact output directory")

    p = sub.add_parser("couplings", help="coupling table: the pipeline's m_H and a check")
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
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("detect", help="classify noisy test points against threshold.json")
    common(p)
    p.add_argument("--seed", type=int, help="noise seed override")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
