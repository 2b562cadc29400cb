"""Command-line surface tying the pipeline together.

Subcommands: ingest, split, selftrain, evaluate, gridsearch,
baseline-rounds.  The STMMMF_OUT_DIR environment variable supplies the
default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from .baseline import BaselineConfig, rounds_experiment
from .core import check_grid
from .evaluation import confusion, hr_table, snapshot, split
from .ingest import load_matrix, open_text, parse_ml100k, parse_ml1m, preprocess, save_matrix
from .selftrain import REPORT_CSV_COLUMNS, SelfTrainConfig, check_inputs, selftrain_loop
from .trainer import load_checkpoint, predict_ratings, save_checkpoint

DEFAULT_LAMBDA_GRID = [10 ** (i / 16) for i in range(1, 41, 4)]
DEFAULT_TAU1_GRID = [5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 49.99]
DEFAULT_S_GRID = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]


def cmd_ingest(args, parser) -> int:
    if args.min_ratings < 0:
        parser.error("--min-ratings must be >= 0")
    parse = {"ml100k": parse_ml100k, "ml1m": parse_ml1m}[args.flavor]
    result = preprocess(parse(args.input), min_ratings=args.min_ratings)
    y = result.matrix
    save_matrix(y, args.out)
    print(f"{y.n_users} {y.n_items} {y.max_rating} {y.n_observed}")
    print(f"sparsity {1.0 - y.n_observed / (y.n_users * y.n_items):.4f}")
    if result.n_duplicates:
        print(f"dropped {result.n_duplicates} duplicate pairs", file=sys.stderr)
    return 0


def cmd_split(args, parser) -> int:
    if not 0.0 < args.frac < 1.0:
        parser.error("--frac must lie strictly between 0 and 1")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    y = load_matrix(args.input)
    train, test = split(y, args.frac, args.seed)
    save_matrix(train, args.train_out)
    save_matrix(test, args.test_out)
    print(f"train {train.n_observed}")
    print(f"test {test.n_observed}")
    return 0


def _selftrain_config(args, parser, **fields) -> SelfTrainConfig:
    """Loop config from the flags selftrain and gridsearch share, with
    `fields` setting the rest; an invalid combination is a usage error."""
    try:
        return SelfTrainConfig(
            n_factors=args.dim,
            lr=args.lr,
            gd_iters=args.gd_iters,
            tol=args.tol,
            seed=args.seed,
            tau_refine=args.tau2 / 100.0,
            cap=args.cap,
            max_rounds=args.iters,
            **fields,
        )
    except ValueError as exc:
        parser.error(str(exc))


def cmd_selftrain(args, parser) -> int:
    if args.snapshot_every < 0:
        parser.error("--snapshot-every must be >= 0")
    cfg = _selftrain_config(
        args, parser, reg=args.reg, tau_augment=args.tau1 / 100.0,
        sample_pct=args.sample_pct, patience=args.patience,
    )
    y = load_matrix(args.input)
    if y.n_observed == 0:
        raise ValueError(f"no ratings to train on in {args.input}")
    test = load_matrix(args.test) if args.test else None
    check_inputs(y, test)  # a rejected input writes nothing
    out_dir = Path(args.out_dir)
    snap_dir = out_dir / "snapshots"
    # an earlier run's model, reports or snapshots must not mix with this run's
    earlier = [p for p in (out_dir / "model.stmmmf", out_dir / "reports.jsonl") if p.exists()]
    earlier += sorted(snap_dir.glob("round_*.stmat"))
    if earlier:
        raise ValueError(f"{earlier[0]} holds an earlier run's output; choose a new --out-dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    print(
        f"tau_augment={cfg.tau_augment:.6g} tau_refine={cfg.tau_refine:.6g} "
        f"sample_pct={cfg.sample_pct:g} cap={cfg.cap} rounds={cfg.max_rounds} "
        f"seed={cfg.seed}"
    )

    def on_round(report, model, y_in, y_out):
        # the reports and snapshots are written only here, so a run failing in round 1 writes none
        first = report.iteration == 1
        with open(out_dir / "reports.jsonl", "w" if first else "a") as jsonl, \
                open(out_dir / "reports.csv", "w" if first else "a", newline="") as csv:
            if first:
                csv.write(",".join(REPORT_CSV_COLUMNS) + "\n")
            jsonl.write(report.to_json() + "\n")
            csv.write(",".join(report.to_csv_row()) + "\n")
        if args.snapshot_every > 0 and first:
            snap_dir.mkdir(exist_ok=True)
            save_matrix(y_in, snap_dir / "round_000.stmat")
        if args.snapshot_every > 0 and report.iteration % args.snapshot_every == 0:
            save_matrix(y_out, snap_dir / f"round_{report.iteration:03d}.stmat")

    result = selftrain_loop(y, cfg, test, callback=on_round)
    save_checkpoint(result.model, out_dir / "model.stmmmf")
    print(f"stopped after {len(result.reports)} rounds ({result.stop_reason})")
    return 0


def cmd_evaluate(args, parser) -> int:
    model = load_checkpoint(args.checkpoint)
    test = load_matrix(args.test)
    check_grid(model, test, "model", "test set")
    train = load_matrix(args.train) if args.train else None
    if train is not None:
        check_grid(train, model, "--train matrix", "model")
    preds = predict_ratings(model, test.users, test.items, trained_on=train)
    pairs = np.column_stack([test.ratings, preds])
    metrics = snapshot(pairs)
    # built before the first print, so a failed allocation prints no partial report
    cm = confusion(pairs, test.max_rating)
    hr = hr_table(cm)
    print(f"MAE {metrics.mae:.4f}")
    print(f"RMSE {metrics.rmse:.4f}")
    print("confusion (rows: actual, columns: predicted 1..R)")
    for actual in range(1, test.max_rating + 1):
        row = " ".join(str(v) for v in cm[actual - 1])
        print(f"actual {actual}: {row}")
    print("HR@K (columns: K = 0..R-1, * where not applicable)")
    for actual, row in enumerate(hr, start=1):
        cells = " ".join("*" if v is None else f"{v:.4f}" for v in row)
        print(f"actual {actual}: {cells}")
    return 0


def _parse_grid(text, fallback, parser):
    if text is None:
        return list(fallback)
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        parser.error(f"grid values must be numbers: {text!r}")


_grid_runs = None  # (training, validation) carve-out per run, set in each grid worker


def _set_grid_runs(runs):
    global _grid_runs
    _grid_runs = runs


def _grid_cell(cfg):
    """Mean validation (MAE, RMSE) of one grid cell over its seeded runs."""
    maes, rmses = [], []
    for run, (train, val) in enumerate(_grid_runs):
        result = selftrain_loop(train, dataclasses.replace(cfg, seed=cfg.seed + run), val)
        last = result.reports[-1]
        maes.append(last.test_mae)
        rmses.append(last.test_rmse)
    return float(np.mean(maes)), float(np.mean(rmses))


def cmd_gridsearch(args, parser) -> int:
    from concurrent.futures import ProcessPoolExecutor  # 15 ms and 2 MB, paid only here

    if not 0.0 < args.val_frac < 1.0:
        parser.error("val-frac must lie in (0, 1)")
    if args.runs < 1:
        parser.error("runs must be >= 1")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    lambdas = _parse_grid(args.lambda_grid, DEFAULT_LAMBDA_GRID, parser)
    tau1s = _parse_grid(args.tau1_grid, [t for t in DEFAULT_TAU1_GRID if t > args.tau2], parser)
    ss = _parse_grid(args.s_grid, DEFAULT_S_GRID, parser)
    cells = [(lam, tau1, s) for lam in lambdas for tau1 in tau1s for s in ss]
    if not cells:
        parser.error("the grid has no cells")
    configs = [
        _selftrain_config(args, parser, reg=lam, tau_augment=tau1 / 100.0, sample_pct=s)
        for lam, tau1, s in cells
    ]
    y = load_matrix(args.input)
    # every cell runs on the same carve-outs, so an input no cell can run on writes nothing
    runs = [split(y, 1.0 - args.val_frac, args.seed + run) for run in range(args.runs)]
    for train, val in runs:
        if val.n_observed == 0:
            raise ValueError("validation carve-out is empty; matrix too small for val-frac")
        if train.n_observed == 0:
            raise ValueError("training carve-out is empty; val-frac too large for the matrix")
        check_inputs(train, val)
    best = None
    # the CPUs this process may run on, where the platform reports its affinity
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(args.workers, cpus or 1, len(cells))
    with open(args.out, "w", newline="") as out, ProcessPoolExecutor(
            max_workers=workers, initializer=_set_grid_runs, initargs=(runs,)) as pool:
        out.write("lambda,tau1,s,mae,rmse\n")
        try:
            for (lam, tau1, s), (mae_v, rmse_v) in zip(cells, pool.map(_grid_cell, configs)):
                out.write(f"{lam:.6g},{tau1:g},{s:g},{mae_v:.6f},{rmse_v:.6f}\n")
                out.flush()
                if best is None or mae_v < best[3]:
                    best = (lam, tau1, s, mae_v, rmse_v)
        except Exception as exc:  # keep the partial CSV
            raise ValueError(f"grid search aborted: {exc}; partial CSV kept at {args.out}") from exc
    lam, tau1, s, mae_v, rmse_v = best
    print(f"best lambda={lam:.6g} tau1={tau1:g} s={s:g} mae={mae_v:.6f} rmse={rmse_v:.6f}")
    return 0


def _round_number(path: Path) -> int:
    digits = path.stem.removeprefix("round_")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"snapshot {path} has no round number after round_")
    return int(digits)


def cmd_baseline_rounds(args, parser) -> int:
    try:
        cfg = BaselineConfig(n_factors=args.dim, reg=args.reg, epochs=args.epochs,
                             lr=args.lr, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    snap_dir = Path(args.snapshots)
    numbered = sorted((_round_number(f), f) for f in snap_dir.glob("round_*.stmat"))
    if not numbered:
        raise ValueError(
            f"no round_*.stmat snapshots in {snap_dir}; "
            "run `stmmmf selftrain --snapshot-every 1` first"
        )
    for (a, first), (b, second) in zip(numbered, numbered[1:]):
        if a == b:
            raise ValueError(f"snapshots {first} and {second} are both round {a}")
    test = load_matrix(args.test)
    # one snapshot in memory at a time: rounds_experiment iterates once
    matrices = (load_matrix(f) for _, f in numbered)
    with open_text(args.out, "w") as out:  # a bad --out fails before any fit
        out.write("round,mae,rmse\n")
        for (round_no, _), metrics in zip(numbered, rounds_experiment(matrices, test, cfg)):
            out.write(f"{round_no},{metrics.mae:.6f},{metrics.rmse:.6f}\n")
            print(f"round {round_no}: mae {metrics.mae:.6f} rmse {metrics.rmse:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stmmmf",
        description="Margin factorization with self-training augmentation",
    )
    out_dir = Path(os.environ.get("STMMMF_OUT_DIR", "."))
    sub = parser.add_subparsers(dest="command", required=True)

    # The input and loop flags selftrain and gridsearch share.
    loop = argparse.ArgumentParser(add_help=False)
    loop.add_argument("input")
    loop.add_argument("--dim", type=int, default=SelfTrainConfig.n_factors)
    loop.add_argument("--lr", type=float, default=SelfTrainConfig.lr)
    loop.add_argument("--gd-iters", type=int, default=SelfTrainConfig.gd_iters)
    loop.add_argument("--tol", type=float, default=SelfTrainConfig.tol)
    loop.add_argument("--tau2", type=float, default=SelfTrainConfig.tau_refine * 100.0,
                      help="refinement band half-width, percent of the average gap; "
                           "0 refines nothing")
    loop.add_argument("--cap", type=int, default=SelfTrainConfig.cap,
                      help="most pseudo-ratings added per round; 0 adds none")
    loop.add_argument("--seed", type=int, default=SelfTrainConfig.seed)

    p = sub.add_parser("ingest", help="parse a rating file into an STMAT matrix")
    p.add_argument("input")
    p.add_argument("--flavor", choices=["ml100k", "ml1m"], default="ml100k")
    p.add_argument("--out", required=True)
    p.add_argument("--min-ratings", type=int, default=20)
    p.set_defaults(func=cmd_ingest, parser=p)

    p = sub.add_parser("split", help="seeded train/test partition of a matrix")
    p.add_argument("input")
    p.add_argument("--frac", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-out", default=str(out_dir / "train.stmat"))
    p.add_argument("--test-out", default=str(out_dir / "test.stmat"))
    p.set_defaults(func=cmd_split, parser=p)

    p = sub.add_parser("selftrain", parents=[loop], help="run the augment-and-refine loop")
    p.add_argument("--test", default=None)
    p.add_argument("--lambda", dest="reg", type=float, default=SelfTrainConfig.reg)
    p.add_argument("--tau1", type=float, default=SelfTrainConfig.tau_augment * 100.0,
                   help="augmentation band shift, percent of the average gap")
    p.add_argument("--sample-pct", type=float, default=SelfTrainConfig.sample_pct)
    p.add_argument("--iters", type=int, default=SelfTrainConfig.max_rounds)
    p.add_argument("--patience", type=int, default=SelfTrainConfig.patience)
    p.add_argument("--out-dir", default=str(out_dir))
    p.add_argument("--snapshot-every", type=int, default=0)
    p.set_defaults(func=cmd_selftrain, parser=p)

    p = sub.add_parser("evaluate", help="score a checkpoint against a matrix")
    p.add_argument("checkpoint")
    p.add_argument("--test", required=True)
    p.add_argument("--train", default=None,
                   help="training matrix for the cold-user fallback")
    p.set_defaults(func=cmd_evaluate, parser=p)

    p = sub.add_parser("gridsearch", parents=[loop],
                       help="sweep lambda, tau1, and sample percent")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--iters", type=int, default=3)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--lambda-grid", default=None,
                   help="comma-separated values overriding the default grid")
    p.add_argument("--tau1-grid", default=None)
    p.add_argument("--s-grid", default=None)
    p.add_argument("--out", default=str(out_dir / "gridsearch.csv"))
    p.set_defaults(func=cmd_gridsearch, parser=p)

    p = sub.add_parser("baseline-rounds",
                       help="retrain the biased-MF baseline on saved snapshots")
    p.add_argument("snapshots", help="directory of round_*.stmat files")
    p.add_argument("--test", required=True)
    p.add_argument("--dim", type=int, default=BaselineConfig.n_factors)
    p.add_argument("--reg", type=float, default=BaselineConfig.reg)
    p.add_argument("--epochs", type=int, default=BaselineConfig.epochs)
    p.add_argument("--lr", type=float, default=BaselineConfig.lr)
    p.add_argument("--seed", type=int, default=BaselineConfig.seed)
    p.add_argument("--out", default=str(out_dir / "baseline_rounds.csv"))
    p.set_defaults(func=cmd_baseline_rounds, parser=p)

    return parser


def main(argv=None) -> int:
    """Run one command; a bad file, bad data or an input too large to allocate
    prints one `error:` line and returns 1, a usage error exits with 2 after
    the command's usage."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, args.parser)
    except (OSError, ValueError, MemoryError) as exc:
        message = f"file not found: {exc.filename}" if isinstance(exc, FileNotFoundError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
