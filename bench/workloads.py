"""Inputs, timed bodies and output checks of the three benchmark workloads.

Imported only after run.py has pinned the BLAS thread count and put the
checkout's `src` directory on the import path.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from stmmmf import cli, selftrain
from stmmmf.evaluation import confusion, hr_at_k, split
from stmmmf.ingest import load_matrix, parse_ml100k, preprocess, save_matrix
from stmmmf.synthetic import synthetic_ratings_file
from stmmmf.trainer import load_checkpoint, predict_ratings

from config import (
    BASELINE_EPOCHS, DESK_SEED, GRID_CELLS, GRID_LAMBDAS, GRID_S,
    GRID_TAU1S, LOOP_SEED, REFERENCE_ROUNDS, SELFTRAIN_ROUNDS, SPLIT_SEED,
)


@dataclass
class Inputs:
    seed: int
    matrix: object
    train: object
    test: object
    files: dict = field(default_factory=dict)
    # Called when a timed body ends, before its output checks run.
    after_body: Callable[[], None] = lambda: None


@dataclass
class PassResult:
    """One timed body: its wall and CPU seconds, operations attempted and
    failed, problems found by the output checks, and quality figures."""

    attempted: int
    wall: float = 0.0
    cpu: float = 0.0
    failed: int = 0
    problems: list = field(default_factory=list)
    op_seconds: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@contextlib.contextmanager
def clock(out: PassResult, inputs: Inputs):
    """Record the wall and CPU seconds of the enclosed body on `out`."""
    cpu0, start = cpu_seconds(), perf_counter()
    yield
    out.wall, out.cpu = perf_counter() - start, cpu_seconds() - cpu0
    inputs.after_body()


def setup(workload: str, seed: int, work: Path) -> Inputs:
    """Generate, parse, preprocess and split the desk data; write the
    input file the CLI workloads start from."""
    text = synthetic_ratings_file(seed=DESK_SEED)
    y = preprocess(parse_ml100k(io.StringIO(text)), min_ratings=20).matrix
    train, test = split(y, 0.8, SPLIT_SEED + seed)
    inputs = Inputs(seed, y, train, test)
    if workload == "transfer":
        inputs.files["ratings"] = work / "ratings.data"
        inputs.files["ratings"].write_text(text)
    elif workload == "gridsearch":
        inputs.files["train"] = work / "train.stmat"
        save_matrix(train, inputs.files["train"])
    return inputs


def _hr0_rating1(model, y) -> float:
    preds = predict_ratings(model, y.users, y.items)
    return hr_at_k(confusion(np.column_stack([y.ratings, preds]), y.max_rating), 1, 0)


def _close(value, reference) -> bool:
    """`value` rounds to `reference` at the digits `reference` is given with."""
    digits = len(repr(reference).split(".")[1])
    return abs(value - reference) <= 0.5 * 10.0 ** -digits + 1e-12


def _check_reports(reports, cap, n_cells, seed) -> dict:
    """Bookkeeping identities of every round, and the reference values at
    seed 0; returns {round: [problems]} for the rounds that fail."""
    bad = {}
    for k, rep in enumerate(reports):
        found = []
        if rep.observed + rep.unobserved != n_cells:
            found.append("observed + unobserved != cells")
        if rep.augmented != min(cap, rep.candidates):
            found.append("augmented != min(cap, candidates)")
        if k + 1 < len(reports) and \
                reports[k + 1].observed != rep.observed - rep.refined + rep.augmented:
            found.append("next observed != observed - refined + augmented")
        if rep.test_mae is None or not math.isfinite(rep.test_mae):
            found.append("test MAE missing")
        if seed == 0 and k < len(REFERENCE_ROUNDS):
            for key, want in REFERENCE_ROUNDS[k].items():
                got = getattr(rep, key)
                if not (_close(got, want) if isinstance(want, float) else got == want):
                    found.append(f"{key} {got} != reference {want}")
        if found:
            bad[rep.iteration] = found
    return bad


# ------------------------------------------------------------------ selftrain

def run_selftrain(inputs: Inputs, pass_dir: Path, workers: int) -> PassResult:
    cfg = selftrain.SelfTrainConfig(
        seed=LOOP_SEED + inputs.seed, tau_augment=0.4999, tau_refine=0.10,
        sample_pct=100.0, cap=5000, gd_iters=150,
        max_rounds=SELFTRAIN_ROUNDS, patience=SELFTRAIN_ROUNDS,
    )
    stamps, last = [], {}

    def on_round(report, model, y_in, y_out):
        stamps.append(perf_counter())
        last.update(model=model, y_in=y_in)

    out = PassResult(attempted=SELFTRAIN_ROUNDS)
    with clock(out, inputs):
        start = perf_counter()
        # through the module attribute, so a traced run sees the loop span
        result = selftrain.selftrain_loop(inputs.train, cfg, inputs.test, callback=on_round)
    out.op_seconds = [float(s) for s in np.diff([start, *stamps])]
    reports = result.reports
    if result.stop_reason != "max_rounds":
        out.problems.append(f"loop stopped early: {result.stop_reason}")
    y = inputs.train
    bad = _check_reports(reports, cfg.cap, y.n_users * y.n_items, inputs.seed)
    out.problems += [f"round {k}: {msg}" for k, found in bad.items() for msg in found]
    out.failed = SELFTRAIN_ROUNDS - len(reports) + len(bad)
    if reports:
        out.quality = {
            "test_mae_last": reports[-1].test_mae,
            "test_rmse_last": reports[-1].test_rmse,
            "hr0_r1_train_last": _hr0_rating1(last["model"], last["y_in"]),
        }
    out.details["rounds"] = [json.loads(r.to_json()) for r in reports]
    return out


# ------------------------------------------------------------------ CLI chain

def _cli(argv):
    """Run one stmmmf command in this process; (exit code, stdout, seconds)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing command is a failed operation
            traceback.print_exc()
            code = 1
    elapsed = perf_counter() - start
    text = stdout.getvalue()
    if code != 0:
        text += stderr.getvalue()
    return code, text, elapsed


def _read_csv(path: Path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def run_transfer(inputs: Inputs, pass_dir: Path, workers: int) -> PassResult:
    d = pass_dir
    run_dir = d / "run"
    chain = [
        ("ingest", ["ingest", inputs.files["ratings"], "--out", d / "ratings.stmat"]),
        ("split", ["split", d / "ratings.stmat", "--frac", "0.8",
                   "--seed", SPLIT_SEED + inputs.seed,
                   "--train-out", d / "train.stmat", "--test-out", d / "test.stmat"]),
        ("selftrain", ["selftrain", d / "train.stmat", "--test", d / "test.stmat",
                       "--iters", "1", "--snapshot-every", "1",
                       "--seed", LOOP_SEED + inputs.seed, "--out-dir", run_dir]),
        ("evaluate", ["evaluate", run_dir / "model.stmmmf", "--test", d / "test.stmat",
                      "--train", d / "train.stmat"]),
        ("baseline-rounds", ["baseline-rounds", run_dir / "snapshots",
                             "--test", d / "test.stmat", "--epochs", BASELINE_EPOCHS,
                             "--out", d / "baseline.csv"]),
    ]
    out = PassResult(attempted=len(chain))
    stdout = {}
    with clock(out, inputs):
        for command, argv in chain:
            code, text, elapsed = _cli(argv)
            out.op_seconds.append(elapsed)
            stdout[command] = text
            if code != 0:
                out.problems.append(f"{command} exited {code}: {text.strip()[-300:]}")
                break
    if out.problems:
        out.failed = len(chain) - len(out.op_seconds) + 1
        return out
    _check_transfer(inputs, d, stdout, out)
    return out


def _check_transfer(inputs: Inputs, d: Path, stdout: dict, out: PassResult):
    failed = set()

    def problem(command, message):
        failed.add(command)
        out.problems.append(f"{command}: {message}")

    y = inputs.matrix
    if (stdout["ingest"].splitlines() or [""])[0].split() != [
        str(v) for v in (y.n_users, y.n_items, y.max_rating, y.n_observed)
    ]:
        problem("ingest", "header line differs from the generated matrix")
    if load_matrix(d / "ratings.stmat").content_hash() != y.content_hash():
        problem("ingest", "STMAT content differs from the generated matrix")
    for part, want in (("train", inputs.train), ("test", inputs.test)):
        if load_matrix(d / f"{part}.stmat").content_hash() != want.content_hash():
            problem("split", f"{part} part differs from the in-process split")

    reports = [json.loads(line) for line in (d / "run" / "reports.jsonl").read_text().splitlines()]
    snaps = sorted(p.name for p in (d / "run" / "snapshots").glob("round_*.stmat"))
    if len(reports) != 1 or snaps != ["round_000.stmat", "round_001.stmat"]:
        problem("selftrain", f"{len(reports)} reports, snapshots {snaps}")
    elif inputs.seed == 0:
        ref = REFERENCE_ROUNDS[0]
        rep = reports[0]
        if rep["observed"] != ref["observed"] or rep["candidates"] != ref["candidates"] \
                or not _close(rep["test_mae"], ref["test_mae"]):
            problem("selftrain", f"round 1 differs from the reference: {rep}")

    printed = dict(
        line.split()[:2] for line in stdout["evaluate"].splitlines()
        if line.startswith(("MAE ", "RMSE "))
    )
    if set(printed) != {"MAE", "RMSE"}:
        problem("evaluate", "MAE and RMSE lines missing")
    elif reports and abs(float(printed["MAE"]) - reports[-1]["test_mae"]) > 5e-5 + 1e-9:
        problem("evaluate", f"MAE {printed['MAE']} != round MAE {reports[-1]['test_mae']}")

    rows = _read_csv(d / "baseline.csv")
    maes = [float(r["mae"]) for r in rows]
    if [r["round"] for r in rows] != ["0", "1"] or not all(map(math.isfinite, maes)):
        problem("baseline-rounds", f"CSV rows {rows}")
    out.failed = len(failed)
    if failed or not reports:
        return
    best = min(rows, key=lambda r: float(r["mae"]))
    train = load_matrix(d / "train.stmat")
    out.quality = {
        "baseline_mae_best": float(best["mae"]),
        "baseline_rmse_best": float(best["rmse"]),
        "test_mae_last": reports[-1]["test_mae"],
        "test_rmse_last": reports[-1]["test_rmse"],
        "hr0_r1_train_last": _hr0_rating1(load_checkpoint(d / "run" / "model.stmmmf"), train),
    }
    out.details["rounds"] = reports
    out.details["baseline_rounds"] = rows


# ----------------------------------------------------------------- gridsearch

def run_gridsearch(inputs: Inputs, pass_dir: Path, workers: int) -> PassResult:
    grid_csv = pass_dir / "grid.csv"
    out = PassResult(attempted=GRID_CELLS)
    with clock(out, inputs):
        code, text, _ = _cli([
            "gridsearch", inputs.files["train"], "--workers", workers,
            "--lambda-grid", ",".join(GRID_LAMBDAS), "--tau1-grid", ",".join(GRID_TAU1S),
            "--s-grid", ",".join(GRID_S), "--iters", "2",
            "--seed", LOOP_SEED + inputs.seed, "--out", grid_csv,
        ])
    rows = _read_csv(grid_csv) if grid_csv.exists() else []
    expected = [(lam, tau1, s) for lam in GRID_LAMBDAS for tau1 in GRID_TAU1S for s in GRID_S]
    valid = [
        r for r, cell in zip(rows, expected)
        if (r["lambda"], r["tau1"], r["s"]) == cell
        and math.isfinite(float(r["mae"])) and math.isfinite(float(r["rmse"]))
    ]
    out.failed = GRID_CELLS - len(valid)
    if code != 0:
        out.failed = max(out.failed, 1)
        out.problems.append(f"gridsearch exited {code}: {text.strip()[-300:]}")
    if len(rows) != GRID_CELLS or len(valid) != GRID_CELLS:
        out.problems.append(f"grid CSV has {len(rows)} rows, {len(valid)} valid, want {GRID_CELLS}")
    if out.problems:
        return out
    best = min(valid, key=lambda r: float(r["mae"]))
    if f"mae={float(best['mae']):.6f}" not in text:
        out.problems.append("printed best cell differs from the CSV minimum")
        out.failed = max(out.failed, 1)
    out.quality = {"grid_best_mae": float(best["mae"]), "grid_best_rmse": float(best["rmse"])}
    out.details["grid"] = valid
    return out


RUNNERS = {
    "selftrain": run_selftrain,
    "transfer": run_transfer,
    "gridsearch": run_gridsearch,
}
