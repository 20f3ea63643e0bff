"""wptmod benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload param_study --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics for --seconds with no tracing.
--trace 1 runs a fixed list of rounds twice in one process, untraced and
then traced, and reports per-layer spans, exact counts and the tracing
overhead.  The last stdout line is {"correct", "attempted", "failed",
"metrics"}; a fuller record with the environment stamp goes to
bench/out/.  The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

# neither module imports numpy or wptmod, so BLAS_ENV below still takes effect
from spans import Tracer, per_layer_schema
from workloads import WORKLOADS, Record, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# single-threaded BLAS: one closed-loop client, and no oversubscription of
# the cores when the CLI workload runs a child process
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
    "pipeline_s": "s",
    "verb_s_p75": "s",
    "scenario_s_p90": "s",
    "batch_s_p75": "s",
    "batch_s_p90": "s",
    "refit_s": "s",
}


def percentile(values, p: int) -> float:
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def environment(seed: int) -> dict:
    """Where and how the result was produced."""
    commit = None
    # only the checkout's own repository: git must not search parent directories
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": seed,
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_ENV,
    }


def measure_setup(args) -> float:
    """Wall time of one cold process that only does the workload's set-up."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only"],
        check=True,
    )
    return time.perf_counter() - t0


def end_to_end(rec, setup_times: list[float], rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics and how many samples each rests on.

    Typical times are 75th percentiles, not medians or means: on a host
    whose speed changes by up to 1.6x for tens of seconds at a time, the
    median and the mean follow whichever speed held most of the run, while
    the upper quantiles vary less from run to run.  No throughput is
    reported: with one closed-loop client it is the reciprocal of the mean
    latency.
    """
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - rec.failed / rec.attempted,
        "pipeline_s": percentile(rec.rounds, 75),
        "verb_s_p75": statistics.median(percentile(v, 75) for v in rec.stages.values()),
        "scenario_s_p90": percentile(rec.rounds, 90),
        "batch_s_p75": percentile(rec.batches, 75),
        "batch_s_p90": percentile(rec.batches, 90),
        "refit_s": percentile(rec.refits, 75),
    }
    samples = {
        "setup_s": len(setup_times),
        "ok_frac": rec.attempted,
        "pipeline_s": len(rec.rounds),
        "verb_s_p75": sum(len(v) for v in rec.stages.values()),
        "scenario_s_p90": len(rec.rounds),
        "classified_samples": rec.samples,
        "batch_s_p75": len(rec.batches),
        "batch_s_p90": len(rec.batches),
        "refit_s": len(rec.refits),
    }
    # the guide's rule: a tail percentile should have ten samples beyond it
    samples["tails_beyond_p90"] = {
        "scenario_s_p90": sum(v > values["scenario_s_p90"] for v in rec.rounds),
        "batch_s_p90": sum(v > values["batch_s_p90"] for v in rec.batches),
    }
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return metrics, samples


def run_timed(workload, args):
    workload.setup(in_process=False)
    rec = Record()
    # set-up probes are spread over the run so that their median sees the
    # same machine as the rounds; probe time does not count against the run
    setup_times = [measure_setup(args)]
    start = time.perf_counter()
    probe_time = 0.0
    k = 0
    while k == 0 or time.perf_counter() - start - probe_time < args.seconds:
        due = (time.perf_counter() - start - probe_time) / args.seconds * (SETUP_REPEATS - 1)
        if len(setup_times) < SETUP_REPEATS - 1 and due >= len(setup_times):
            setup_times.append(measure_setup(args))
            probe_time += setup_times[-1]
        workload.round(k, rec)
        k += 1
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(measure_setup(args))
    workload.finish(rec)
    if not rec.rounds or not rec.batches:
        return rec, None, {"setup_times": setup_times}
    metrics, samples = end_to_end(rec, setup_times, peak_rss_mb(workload.work_in_children))
    series = {
        "rounds": rec.rounds,
        "batches": rec.batches,
        "refits": rec.refits,
        "stage_medians": {k: statistics.median(v) for k, v in rec.stages.items()},
    }
    return rec, metrics, {"setup_times": setup_times, "samples": samples, "series": series}


def run_traced(workload, args):
    """Same rounds untraced, then traced; per-layer metrics from the traced pass."""
    import importlib

    tracer = Tracer()
    with tracer.span("cli.import_s"):
        importlib.import_module("wptmod.cli")
    workload.setup(in_process=True)
    workload.round(0, Record())  # warm-up, not reported
    passes = []
    for traced in (False, True):
        if traced:
            tracer.install()
        workload.restart()
        rec = Record()
        for k in range(workload.trace_rounds):
            workload.round(k, rec, tracer if traced else None)
        workload.finish(rec)
        passes.append(rec)
    tracer.uninstall()
    untraced, traced = passes
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
    values = tracer.summary()
    values["trace.timed_s"] = sum(traced.rounds)
    values["trace.untraced_s"] = sum(untraced.rounds)
    values["trace.overhead_frac"] = sum(traced.rounds) / sum(untraced.rounds) - 1.0
    units = {row["name"]: row["unit"] for row in per_layer_schema()}
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    rec = Record()
    for p in passes:
        rec.outcomes.update(p.outcomes)
        rec.problems.extend(p.problems)
    return rec, metrics, {"untraced_rounds": len(untraced.rounds)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "wptmod" / "cli.py").is_file():
        print(f"error: no wptmod sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload](ROOT, args.seed, OUT)
    if args.setup_only:
        workload.setup(in_process=True)
        return 0

    if args.trace:
        rec, metrics, detail = run_traced(workload, args)
    else:
        rec, metrics, detail = run_timed(workload, args)
    correct = metrics is not None and rec.failed == 0 and not rec.problems
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics or {},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "outcomes": dict(rec.outcomes),
        "problems": rec.problems[:50],
        **detail,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n")

    print(f"# {args.workload} seed {args.seed}: {json.dumps(record['environment'])}")
    print(f"# outcomes {dict(rec.outcomes)}")
    for problem in rec.problems[:10]:
        print(f"# problem: {problem}")
    for key, m in (metrics or {}).items():
        print(f"# {key:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
