#!/usr/bin/env python3
"""Benchmark of the stmmmf package on the seeded desk dataset.

    python3 bench/run.py --workload selftrain --seed 0 --seconds 30 --trace 0

Workloads: selftrain and transfer (the ones BENCHMARK.json declares) and
gridsearch (run by hand; see bench/README.md).  One process drives the
program in a closed loop: each timed body (a pass) starts after the
previous one returned, and passes repeat while another one still fits in
`--seconds`; at least one pass always runs.  The set-up (generate, parse,
preprocess and split the data, write the CLI input file) is repeated and
its median reported as `setup_s`.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs one untraced
and one traced pass and prints the per-layer metrics.  Every metric is
printed as `name value unit (direction)`, then a provenance line, and the
last line is one JSON object: correct, attempted, failed, metrics.  The
exit code is 1 when an output check fails and 2 when the package sources
are not found next to this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from config import GRID_CELLS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("selftrain", "transfer", "gridsearch")
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better) of the end-to-end metrics, reported on every workload.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("quality_mae", "rating", "lower"),
    ("quality_rmse", "rating", "lower"),
]
# Which workload quality figure each workload reports as quality_mae/_rmse.
HEADLINE = {
    "selftrain": ("test_mae_last", "test_rmse_last"),
    "transfer": ("baseline_mae_best", "baseline_rmse_best"),
    "gridsearch": ("grid_best_mae", "grid_best_rmse"),
}
CLI_COMMANDS = ("ingest", "split", "selftrain", "evaluate", "gridsearch", "baseline-rounds")
TRAINER_BUSY = ("gd_step", "predict_ratings", "save_checkpoint", "load_checkpoint")
SELFTRAIN_BUSY = (
    "high_confidence_candidates", "low_confidence_observed", "sample_augment",
    "apply_refine", "apply_augment", "overlap_stats",
)
SELFTRAIN_COUNTS = ("candidates", "augmented", "refined", "observed")
PER_LAYER = (
    [(f"trainer.{f}.{k}", u, "lower")
     for f in ("train", "objective", "compute_gradients")
     for k, u in (("calls", "count"), ("busy_s", "s"))]
    + [(f"trainer.{f}.busy_s", "s", "lower") for f in TRAINER_BUSY]
    + [
        ("trainer.hinge_terms_per_s", "1/s", "higher"),
        ("trainer.accepted_steps", "count", "lower"),
        ("trainer.backtrack_ratio", "ratio", "lower"),
        ("trainer.converged_frac", "ratio", "higher"),
        ("trainer.final_objective", "loss", "lower"),
    ]
    + [(f"selftrain.{f}.busy_s", "s", "lower") for f in SELFTRAIN_BUSY]
    + [
        ("selftrain.rounds", "count", "higher"),
        ("selftrain.round.busy_s", "s", "lower"),
        ("selftrain.round.self_s", "s", "lower"),
        ("selftrain.round.accounted_frac", "ratio", "higher"),
    ]
    + [(f"selftrain.{k}", "count", "higher") for k in SELFTRAIN_COUNTS]
    + [
        ("selftrain.augment_yield", "ratio", "higher"),
        ("core.SparseRatingMatrix.init.busy_s", "s", "lower"),
        ("core.discretize_rows.busy_s", "s", "lower"),
    ]
    + [(f"evaluation.{f}.busy_s", "s", "lower") for f in ("split", "snapshot", "confusion")]
    + [(f"ingest.{f}.busy_s", "s", "lower")
       for f in ("parse_ml100k", "preprocess", "save_matrix", "load_matrix")]
    + [
        ("ingest.bytes_per_s", "B/s", "higher"),
        ("baseline.train_baseline.calls", "count", "lower"),
        ("baseline.train_baseline.busy_s", "s", "lower"),
        ("baseline.ratings_per_s", "1/s", "higher"),
    ]
    + [(f"cli.{c}.busy_s", "s", "lower") for c in CLI_COMMANDS]
    + [
        ("cli.grid.cell_s_p50", "s", "lower"),
        ("cli.grid.payload_bytes", "B", "lower"),
        ("cli.grid.parallel_eff", "ratio", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_est_s", "s", "lower"),
    ]
)
QUALITY_UNITS = {
    "test_mae_last": ("rating", "lower"), "test_rmse_last": ("rating", "lower"),
    "hr0_r1_train_last": ("ratio", "higher"),
    "baseline_mae_best": ("rating", "lower"), "baseline_rmse_best": ("rating", "lower"),
    "grid_best_mae": ("rating", "lower"), "grid_best_rmse": ("rating", "lower"),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the split and loop seeds (0 = acceptance run)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas() -> int:
    """Pin BLAS to one thread per process, so that workers x threads <= nproc;
    call before numpy loads.  A second thread made no pass faster: the
    solver's products are sparse."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def import_package():
    """Import stmmmf from this checkout's src directory, or exit 2."""
    def fail(message):
        print(f"error: {message}", file=sys.stderr)
        sys.exit(2)

    if not (SRC / "stmmmf" / "__init__.py").is_file():
        fail(f"package sources not found at {SRC / 'stmmmf'}")
    sys.path.insert(0, str(SRC))
    import stmmmf

    if SRC not in Path(stmmmf.__file__).resolve().parents:
        fail(f"imported stmmmf from {stmmmf.__file__}, not from {SRC}")


def git_commit():
    """Commit of the checkout read from .git, or None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def provenance(args, workers, blas_threads, inputs):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "stmmmf").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "workers": workers,
        "blas_threads": blas_threads,
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": git_commit(), "src_sha256": src_hash.hexdigest(),
        "train_hash": inputs.train.content_hash(), "test_hash": inputs.test.content_hash(),
    }


def layer_metrics(t, workers: int, untraced_wall: float, traced_wall: float,
                  span_cost: float) -> dict:
    """The PER_LAYER metrics from one traced pass; unused layers read 0."""
    busy = lambda name: t.busy.get(name, 0.0)
    calls = lambda name: t.calls.get(name, 0)
    ratio = lambda a, b: a / b if b else 0.0
    m = {}
    for f in ("train", "objective", "compute_gradients"):
        m[f"trainer.{f}.calls"] = calls(f"trainer.{f}")
        m[f"trainer.{f}.busy_s"] = busy(f"trainer.{f}")
    for f in TRAINER_BUSY:
        m[f"trainer.{f}.busy_s"] = busy(f"trainer.{f}")
    steps = t.counts.get("trainer.accepted_steps", 0)
    finals = t.series.get("trainer.final_objective", [])
    m["trainer.hinge_terms_per_s"] = ratio(
        t.counts.get("trainer.hinge_terms", 0),
        busy("trainer.objective") + busy("trainer.compute_gradients"),
    )
    m["trainer.accepted_steps"] = steps
    m["trainer.backtrack_ratio"] = ratio(calls("trainer.objective"), steps)
    m["trainer.converged_frac"] = ratio(t.counts.get("trainer.converged", 0), calls("trainer.train"))
    m["trainer.final_objective"] = ratio(math.fsum(finals), len(finals))
    for f in SELFTRAIN_BUSY:
        m[f"selftrain.{f}.busy_s"] = busy(f"selftrain.{f}")
    loop = "selftrain.selftrain_loop"
    m["selftrain.rounds"] = calls("selftrain.high_confidence_candidates")
    m["selftrain.round.busy_s"] = busy(loop)
    m["selftrain.round.self_s"] = t.self_time.get(loop, 0.0)
    m["selftrain.round.accounted_frac"] = ratio(
        busy("trainer.train") + sum(m[f"selftrain.{f}.busy_s"] for f in SELFTRAIN_BUSY)
        + m["selftrain.round.self_s"], busy(loop),
    )
    for key in SELFTRAIN_COUNTS:
        m[f"selftrain.{key}"] = sum(t.series.get(f"selftrain.{key}", []))
    m["selftrain.augment_yield"] = ratio(m["selftrain.augmented"], m["selftrain.candidates"])
    m["core.SparseRatingMatrix.init.busy_s"] = busy("core.SparseRatingMatrix.init")
    m["core.discretize_rows.busy_s"] = busy("core.discretize_rows")
    for f in ("split", "snapshot", "confusion"):
        m[f"evaluation.{f}.busy_s"] = busy(f"evaluation.{f}")
    for f in ("parse_ml100k", "preprocess", "save_matrix", "load_matrix"):
        m[f"ingest.{f}.busy_s"] = busy(f"ingest.{f}")
    io_busy = sum(busy(f"ingest.{f}") for f in ("parse_ml100k", "save_matrix", "load_matrix"))
    m["ingest.bytes_per_s"] = ratio(t.counts.get("ingest.bytes", 0), io_busy)
    m["baseline.train_baseline.calls"] = calls("baseline.train_baseline")
    m["baseline.train_baseline.busy_s"] = busy("baseline.train_baseline")
    m["baseline.ratings_per_s"] = ratio(
        t.counts.get("baseline.rating_epochs", 0), busy("baseline.train_baseline"))
    for command in CLI_COMMANDS:
        m[f"cli.{command}.busy_s"] = busy("cli.cmd_" + command.replace("-", "_"))
    cells = t.durations.get("cli.grid.cell", [])
    m["cli.grid.cell_s_p50"] = statistics.median(cells) if cells else 0.0
    m["cli.grid.payload_bytes"] = max(t.series.get("cli.grid.payload_bytes", [0]))
    m["cli.grid.parallel_eff"] = ratio(sum(cells), workers * busy("cli.cmd_gridsearch"))
    m["trace.spans"] = sum(t.calls.values())
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.overhead_est_s"] = m["trace.spans"] * span_cost
    return m


def workload_report(workload, setup_s, passes):
    """Every named metric of the workload: {name: (value, unit, better)}."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    walls = [p.wall for p in passes]
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    rep = {
        "setup_s": (setup_s, "s", "lower"),
        "wall_s": (statistics.median(walls), "s", "lower"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s", "lower"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB", "lower"),
        "ops_failed_frac": (failed / attempted, "ratio", "lower"),
        "ops_per_min": (60.0 * (attempted - failed) / sum(walls), "1/min", "higher"),
        "passes": (len(passes), "count", "higher"),
    }
    if workload == "selftrain":
        rounds = [s for p in passes for s in p.op_seconds]
        rep["round_s_p50"] = (statistics.median(rounds), "s", "lower")
        rep["round_samples"] = (len(rounds), "count", "higher")
    if workload == "gridsearch":
        rep["cells_per_min"] = rep["ops_per_min"]
    quality = passes[-1].quality
    for name, value in quality.items():
        rep[name] = (value, *QUALITY_UNITS[name])
    mae_key, rmse_key = HEADLINE[workload]
    if mae_key in quality:
        rep["quality_mae"] = (quality[mae_key], "rating", "lower")
        rep["quality_rmse"] = (quality[rmse_key], "rating", "lower")
    return rep


def run(args, workers, blas_threads, work: Path, results: Path):
    import tracer
    import workloads

    setups, hashes = [], set()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workloads.setup(args.workload, args.seed, work)
        setups.append(perf_counter() - start)
        hashes.add((inputs.train.content_hash(), inputs.test.content_hash()))
    setup_s = statistics.median(setups)
    body = workloads.RUNNERS[args.workload]
    passes = []
    started = perf_counter()
    while True:
        pass_dir = work / f"pass{len(passes)}"
        pass_dir.mkdir()
        passes.append(body(inputs, pass_dir, workers))
        shutil.rmtree(pass_dir)
        typical = statistics.median(p.wall for p in passes)
        if args.trace or passes[-1].problems or \
                perf_counter() - started + typical > args.seconds:
            break
    problems = [msg for p in passes for msg in p.problems]
    if len(hashes) > 1:
        problems.append("set-up gave different matrices for one seed")
    if len({json.dumps(p.quality, sort_keys=True) for p in passes}) > 1:
        problems.append("quality differs between passes of one seed")
    report = workload_report(args.workload, setup_s, passes)
    metrics = {name: report[name] for name, _, _ in END_TO_END if name in report}

    if args.trace:
        trace_dir = work / "trace"
        trace_dir.mkdir()
        spans = tracer.Tracer(trace_dir)
        tracer.install(spans)
        inputs.after_body = spans.stop
        pass_dir = work / "traced"
        pass_dir.mkdir()
        traced = body(inputs, pass_dir, workers)
        spans.merge_workers()
        problems += traced.problems
        passes.append(traced)
        layers = layer_metrics(
            spans, workers, passes[0].wall, traced.wall, tracer.span_cost())
        units = {name: (unit, better) for name, unit, better in PER_LAYER}
        metrics = {name: (value, *units[name]) for name, value in layers.items()}
        report.update(metrics)
        report["series"] = dict(spans.series)

    info = provenance(args, workers, blas_threads, inputs)
    for name, value in report.items():
        if name != "series":
            print(f"{name} {value[0]!r} {value[1]} ({value[2]} is better)")
    for name, values in report.get("series", {}).items():
        print(f"{name} per call: {values}")
    for msg in problems:
        print(f"check failed: {msg}")
    print("provenance " + json.dumps(info, sort_keys=True))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if problems and not failed:
        failed = 1
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v[0], "unit": v[1]} for name, v in metrics.items()},
    }
    results.mkdir(exist_ok=True)
    detail = dict(result, report=report, provenance=info,
                  problems=problems,
                  details=[dict(p.details, op_seconds=p.op_seconds) for p in passes])
    out_file = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1, default=float) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    workers = min(nproc, GRID_CELLS) if args.workload == "gridsearch" else 1
    blas_threads = pin_blas()
    import_package()
    work = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, workers, blas_threads, work, BENCH / "results")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
