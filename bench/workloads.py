"""The three benchmark workloads and their correctness oracles.

Every workload is a closed loop with one client: a round starts only after
the previous one has finished.  A round is the workload's repeating unit of
work and handles exactly one scenario:

- cli_pipeline: the six CLI verbs on the bundled scenario, each a cold
  `python -m wptmod.cli` process, in a fresh output directory.
- param_study: one generated scenario through parse -> build_sweeps ->
  sweep_curve -> fit_thresholds -> generate_test_samples -> evaluate_batch.
- mc_detect: one refit of the bundled scenario from dense sweeps through a
  CSV round trip, then BATCHES noisy detection batches against it.

wptmod is imported inside `setup`, never at module import, so that the
traced run can time the first import of the package.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from oracles import (
    coupling_error,
    impedance_error,
    material_table,
    plate_impedance_exact,
    sweep_errors,
)

VERBS = ("materials", "couplings", "impedance", "curves", "fit", "detect")

# exit codes the CLI documents: validation, convergence, non-separable data
DOCUMENTED_EXIT = {2, 3, 4}

DENSE_STEPS = 2000
BATCHES = 10
# about a quarter of these fall under the 3 A gate and come back indeterminate
MC_TEST_CURRENTS = [0.5 * k for k in range(1, 21)]
REPLAYS = 3


@dataclass
class Record:
    """Timings, work and op outcomes of one pass over the rounds."""

    rounds: list[float] = field(default_factory=list)
    stages: dict[str, list[float]] = field(default_factory=dict)
    batches: list[float] = field(default_factory=list)
    refits: list[float] = field(default_factory=list)
    samples: int = 0
    outcomes: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def stage(self, kind: str, seconds: float) -> None:
        self.stages.setdefault(kind, []).append(seconds)

    def ok(self) -> None:
        self.outcomes["ok"] += 1

    def documented(self, what: str, expected: bool = False) -> None:
        """A documented error; unless expected for the input, it fails an oracle."""
        self.outcomes["documented_error"] += 1
        if not expected:
            self.problems.append(f"documented error: {what}")

    def unexpected(self, what: str) -> None:
        self.outcomes["unexpected_exception"] += 1
        self.problems.append(f"unexpected exception: {what}")

    def wrong(self, what: str) -> None:
        self.outcomes["wrong_output"] += 1
        self.problems.append(f"wrong output: {what}")

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.outcomes["unexpected_exception"] + self.outcomes["wrong_output"]


class Laps:
    """Successive stage durations from one running clock."""

    def __init__(self):
        self._t = time.perf_counter()

    def lap(self) -> float:
        now = time.perf_counter()
        dt, self._t = now - self._t, now
        return dt


@contextlib.contextmanager
def tracing(tracer, op: int):
    """Turn span recording on around a timed region, if a tracer is given."""
    if tracer is None:
        yield
        return
    tracer.current_op = op
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of the largest child waited for."""
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _bundled_scenario(root: Path) -> dict:
    return json.loads((root / "src/wptmod/data/paper_repro.json").read_text())


class CliPipeline:
    """Cold CLI processes for every verb; the cost a CLI user pays per command."""

    name = "cli_pipeline"
    trace_rounds = 3
    work_in_children = True

    def __init__(self, root: Path, seed: int, out: Path):
        self.root = root
        self.seed = seed
        self.out = out / f"cli-{seed}"
        self.scenario = _bundled_scenario(root)
        self.materials = material_table(root)
        self.restart()

    def restart(self) -> None:
        self.rng = random.Random(self.seed)

    def setup(self, in_process: bool) -> None:
        """Cold import of wptmod.cli; the subprocess runner imports nothing."""
        self.in_process = in_process
        if in_process:
            import wptmod.cli  # noqa: F401

    def _argv(self, verb: str, out: Path, detect_seed: int) -> list[str]:
        argv = [verb]
        if verb != "materials":
            argv += ["--out", str(out)]
        if verb == "detect":
            argv += ["--seed", str(detect_seed)]
        return argv

    def _run_verb(self, argv, tracer):
        """Return (exit code, error text) of one verb."""
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "wptmod.cli", *argv],
                cwd=self.root,
                capture_output=True,
                text=True,
            )
            return proc.returncode, proc.stderr
        from wptmod import cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            if tracer is None:
                return cli.main(argv), sink.getvalue()
            with tracer.span(f"cli.verb_s.{argv[0]}"):
                return cli.main(argv), sink.getvalue()

    def round(self, k: int, rec: Record, tracer=None) -> None:
        out = self.out / f"round{k}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        detect_seed = self.rng.randrange(2**31)
        times = {}
        codes = {}
        for verb in VERBS:
            argv = self._argv(verb, out, detect_seed)
            t0 = time.perf_counter()
            try:
                with tracing(tracer, k):
                    codes[verb], err = self._run_verb(argv, tracer)
            except Exception as exc:  # an in-process verb raised past main()
                codes[verb], err = None, repr(exc)
            times[verb] = time.perf_counter() - t0
            if codes[verb] not in (0, *DOCUMENTED_EXIT):
                rec.unexpected(f"{verb} exited {codes[verb]}: {err.strip()[-300:]}")
            elif codes[verb] != 0:
                rec.documented(f"{verb} exited {codes[verb]}: {err.strip()[-300:]}")
            else:
                try:
                    problem = self._check(verb, out)
                except Exception as exc:  # unreadable or malformed artifact
                    problem = repr(exc)
                if problem:
                    rec.wrong(f"{verb}: {problem}")
                else:
                    rec.ok()
        for dt in times.values():
            rec.stage("verb", dt)
        rec.rounds.append(sum(times.values()))
        rec.refits.append(times["curves"] + times["fit"])
        rec.batches.append(times["detect"])
        if codes["detect"] == 0 and (out / "report.json").is_file():
            rec.samples += json.loads((out / "report.json").read_text())["total"]
        shutil.rmtree(out, ignore_errors=True)

    def _check(self, verb: str, out: Path) -> str | None:
        sc = self.scenario
        if verb == "couplings":
            rows = (out / "couplings.csv").read_text().splitlines()[1:]
            coils = {c["label"]: c for c in sc["receiver_coils"]}
            tx = sc["transmitter"]
            if len(rows) != len(coils) + len(sc["metal_plates"]):
                return f"{len(rows)} coupling rows"
            for row in rows:
                label, kind, _closed, reference, _method = row.split(",")
                if kind == "coil":
                    c = coils[label]
                    err = coupling_error(
                        float(reference),
                        tx["half_side_m"],
                        c["half_side_m"],
                        c["distance_m"],
                        tx["turns"],
                        c["turns"],
                    )
                    if err:
                        return f"{label}: {err}"
        elif verb == "impedance":
            rows = (out / "impedance.csv").read_text().splitlines()[1:]
            if len(rows) != len(sc["metal_plates"]):
                return f"{len(rows)} impedance rows"
            tx = sc["transmitter"]
            omega = 2.0 * math.pi * sc["frequency_hz"]
            for row in rows:
                label, material, mu_r, half_side, distance, r_m, l_m = row.split(",")
                if not float(r_m) >= 0.0:
                    return f"r_m = {r_m} < 0 in {row}"
                exact = plate_impedance_exact(
                    min(float(half_side), tx["half_side_m"]),
                    tx["turns"],
                    float(distance),
                    omega,
                    self.materials[material.lower()][0],
                    float(mu_r),
                )
                err = impedance_error(float(r_m), float(l_m), omega, exact)
                if err:
                    return f"{label}: {err}"
        elif verb == "curves":
            rows = (out / "curves.csv").read_text().splitlines()
            expect = 1 + (len(sc["receiver_coils"]) + len(sc["metal_plates"])) * sc["sweep"]["steps"]
            if len(rows) != expect:
                return f"{len(rows)} curve lines, expected {expect}"
        elif verb == "fit":
            model = json.loads((out / "threshold.json").read_text())
            if len(model["p_poly_W_per_A_n"]) != model["degree"] + 1:
                return "threshold.json polynomial length"
        elif verb == "detect":
            report = json.loads((out / "report.json").read_text())
            expect = (len(sc["receiver_coils"]) + len(sc["metal_plates"])) * len(
                sc["detection"]["test_currents_a"]
            )
            if not (report["accuracy"] == 1.0 and report["decidable"] == report["total"] == expect):
                return (
                    f"accuracy {report['accuracy']} on {report['decidable']}/"
                    f"{report['total']} decidable, expected 1.0 on {expect}/{expect}"
                )
        return None

    def finish(self, rec: Record) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class ParamStudy:
    """Generated scenarios: design-space exploration over geometry and material."""

    name = "param_study"
    work_in_children = False
    trace_rounds = 60

    def __init__(self, root: Path, seed: int, out: Path):
        self.root = root
        self.seed = seed

    def setup(self, in_process: bool) -> None:
        # the pipeline modules are imported here so that set-up pays for them
        from wptmod import characteristics, detection, eddy, scenario  # noqa: F401

        self.base = _bundled_scenario(self.root)
        self.oracle_materials = material_table(self.root)
        db = eddy.load_materials()
        self.materials = sorted({m.name: m for m in db.values()}.values(), key=lambda m: m.name)
        self.restart()

    def restart(self) -> None:
        self.rng = random.Random(self.seed)
        self.replays: list[tuple[dict, tuple]] = []

    def _next_scenario(self) -> dict:
        """3 coils and 6 plates with loads, sizes, distances and materials drawn."""
        rng = self.rng
        raw = copy.deepcopy(self.base)
        for coil in raw["receiver_coils"]:
            coil["load_ohm"] = rng.uniform(0.5, 20.0)
            coil["distance_m"] = rng.uniform(0.03, 0.30)
        plates = []
        for i in range(6):
            mat = rng.choice(self.materials)
            plate = {
                "label": f"plate{i}_{mat.name}",
                "material": mat.name,
                "half_side_m": rng.uniform(0.02, 0.15),
                "distance_m": rng.uniform(0.03, 0.30),
            }
            if mat.rel_permeability_range:
                plate["mu_r"] = rng.uniform(*mat.rel_permeability_range)
            plates.append(plate)
        raw["metal_plates"] = plates
        raw["noise"]["seed"] = rng.randrange(2**31)
        return raw

    def _pipeline(self, raw: dict, rec: Record | None):
        """One scenario end to end; returns (scenario, sweeps, outcome)."""
        from wptmod import characteristics, detection, errors, scenario

        laps = Laps()
        sc = scenario.parse_scenario(raw)
        t_parse = laps.lap()
        sweeps = scenario.build_sweeps(sc)
        t_build = laps.lap()
        curves = [characteristics.sweep_curve(spec) for spec in sweeps]
        t_sweep = laps.lap()
        try:
            model = detection.fit_thresholds(
                [c for c in curves if c.label.startswith("metal:")],
                [c for c in curves if c.label.startswith("coil:")],
                degree=sc.detection.degree,
                i_min_gate=sc.detection.gate_amps,
            )
        except errors.NonSeparableDataError:
            stages = {"parse": t_parse, "build_sweeps": t_build, "sweep": t_sweep, "fit": laps.lap()}
            outcome = ("non_separable",)
            batch = None
        else:
            t_fit = laps.lap()
            triples = scenario.generate_test_samples(sc, sweeps=sweeps)
            t_gen = laps.lap()
            report = detection.evaluate_batch([(t, s) for t, _, s in triples], model)
            t_eval = laps.lap()
            stages = {
                "parse": t_parse,
                "build_sweeps": t_build,
                "sweep": t_sweep,
                "fit": t_fit,
                "generate": t_gen,
                "evaluate": t_eval,
            }
            outcome = (
                "classified",
                report["accuracy"],
                report["decidable"],
                report["total"],
                model.u_slope,
                model.u_intercept,
                model.p_poly,
            )
            batch = (t_gen + t_eval, report["total"])
        if rec is not None:
            for kind, dt in stages.items():
                rec.stage(kind, dt)
            rec.rounds.append(sum(stages.values()))
            rec.refits.append(t_sweep + stages["fit"])
            if batch:
                rec.batches.append(batch[0])
                rec.samples += batch[1]
        return sc, sweeps, outcome

    def round(self, k: int, rec: Record, tracer=None) -> None:
        from wptmod import circuit, errors

        raw = self._next_scenario()
        try:
            with tracing(tracer, k):
                sc, sweeps, outcome = self._pipeline(raw, rec)
        except (errors.ScenarioError, errors.ConvergenceError) as exc:
            rec.documented(repr(exc), expected=True)
            return
        except Exception as exc:
            rec.unexpected(repr(exc))
            return
        if len(self.replays) < REPLAYS:
            self.replays.append((raw, outcome))
        currents = sc.detection.test_currents_a
        # one plate per scenario, in turn, gets the exact impedance check
        problems = sweep_errors(
            sc,
            sweeps,
            circuit,
            [currents[j % len(currents)] for j in range(len(sweeps))],
            self.oracle_materials,
            {sc.metal_plates[k % len(sc.metal_plates)].label},
        )
        if problems:
            rec.wrong("; ".join(problems))
        elif outcome[0] == "non_separable":
            rec.documented(f"scenario {k}: NonSeparableDataError", expected=True)
        else:
            rec.ok()

    def finish(self, rec: Record) -> None:
        """Replay the first scenarios: outcomes must repeat exactly."""
        for raw, outcome in self.replays:
            _, _, again = self._pipeline(raw, None)
            if again != outcome:
                rec.problems.append(f"non-deterministic outcome: {outcome} then {again}")


class McDetect:
    """Monte Carlo detection on the bundled scenario: refits and noisy batches."""

    name = "mc_detect"
    work_in_children = False
    trace_rounds = 6

    def __init__(self, root: Path, seed: int, out: Path):
        self.root = root
        self.seed = seed

    def setup(self, in_process: bool) -> None:
        from wptmod import characteristics, detection, scenario  # noqa: F401  (set-up pays)

        raw = _bundled_scenario(self.root)
        raw["detection"]["test_currents_a"] = MC_TEST_CURRENTS
        self.sc = scenario.parse_scenario(raw)
        self.sweeps = scenario.build_sweeps(self.sc)
        self.dense = [replace(spec, steps=DENSE_STEPS) for spec in self.sweeps]
        self.restart()

    def restart(self) -> None:
        self.rng = random.Random(self.seed)
        self.model_key = None
        self.model = None

    def setup_problems(self) -> list[str]:
        """Coupling, passivity and power oracles on the set-up sweeps."""
        from wptmod import circuit

        currents = self.sc.detection.test_currents_a
        picks = [currents[(5 + 3 * j) % len(currents)] for j in range(len(self.sweeps))]
        return sweep_errors(
            self.sc,
            self.sweeps,
            circuit,
            picks,
            material_table(self.root),
            {p.label for p in self.sc.metal_plates},
        )

    def _refit(self, k: int, rec: Record, tracer) -> None:
        from wptmod import characteristics, detection

        laps = Laps()
        with tracing(tracer, k):
            curves = [characteristics.sweep_curve(spec) for spec in self.dense]
            t_sweep = laps.lap()
            text = characteristics.curves_to_csv(curves)
            t_write = laps.lap()
            back = characteristics.curves_from_csv(text)
            t_read = laps.lap()
            model = detection.fit_thresholds(
                [c for c in back if c.label.startswith("metal:")],
                [c for c in back if c.label.startswith("coil:")],
                degree=self.sc.detection.degree,
                i_min_gate=self.sc.detection.gate_amps,
            )
            t_fit = laps.lap()
        stages = {"sweep": t_sweep, "csv_write": t_write, "csv_read": t_read, "fit": t_fit}
        for kind, dt in stages.items():
            rec.stage(kind, dt)
        rec.refits.append(sum(stages.values()))
        self.model = model
        problem = self._check_refit(curves, back, model)
        if problem:
            rec.wrong(f"refit: {problem}")
        else:
            rec.ok()

    def _check_refit(self, curves, back, model) -> str | None:
        import numpy as np

        if [c.label for c in back] != [c.label for c in curves]:
            return "CSV round trip changed the labels"
        for a, b in zip(curves, back):
            for name in ("i_tx", "u_tx", "p_in"):
                if not np.allclose(getattr(a, name), getattr(b, name), rtol=0.0, atol=1e-9):
                    return f"CSV round trip changed {a.label}.{name}"
        key = (model.u_slope, model.u_intercept, model.p_poly)
        if self.model_key is None:
            self.model_key = key
        elif key != self.model_key:
            return f"refit model {key} differs from the first refit {self.model_key}"
        return None

    def _batch(self, k: int, rec: Record, tracer) -> None:
        from wptmod import detection, scenario

        batch_seed = self.rng.randrange(2**31)
        laps = Laps()
        with tracing(tracer, k):
            triples = scenario.generate_test_samples(self.sc, seed=batch_seed, sweeps=self.sweeps)
            t_gen = laps.lap()
            report = detection.evaluate_batch([(t, s) for t, _, s in triples], self.model)
            t_eval = laps.lap()
        rec.stage("generate", t_gen)
        rec.stage("evaluate", t_eval)
        rec.batches.append(t_gen + t_eval)
        rec.samples += report["total"]
        # noiseless points sit at least 6.9 sigma from either threshold, so a
        # correct program decides every sample above the gate
        gated = sum(row["gated"] for row in report["samples"])
        expect_gated = len(self.sweeps) * sum(
            i < self.model.i_min_gate for i in self.sc.detection.test_currents_a
        )
        if not (
            report["accuracy"] == 1.0
            and gated == expect_gated
            and report["decidable"] == report["total"] - expect_gated
        ):
            rec.wrong(
                f"batch seed {batch_seed}: accuracy {report['accuracy']} on "
                f"{report['decidable']} decidable, {gated} gated"
            )
        else:
            rec.ok()

    def round(self, k: int, rec: Record, tracer=None) -> None:
        from wptmod import errors

        n_refits, n_batches = len(rec.refits), len(rec.batches)
        try:
            self._refit(k, rec, tracer)
            for _ in range(BATCHES):
                self._batch(k, rec, tracer)
        except (errors.NonSeparableDataError, errors.ScenarioError, errors.ConvergenceError) as exc:
            rec.documented(repr(exc))
            return
        except Exception as exc:
            rec.unexpected(repr(exc))
            return
        rec.rounds.append(sum(rec.refits[n_refits:]) + sum(rec.batches[n_batches:]))

    def finish(self, rec: Record) -> None:
        rec.problems.extend(self.setup_problems())


WORKLOADS = {w.name: w for w in (CliPipeline, ParamStudy, McDetect)}
