import concurrent.futures
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from stmmmf import baseline, cli, selftrain
from stmmmf.baseline import BaselineConfig, train_baseline
from stmmmf.cli import DEFAULT_LAMBDA_GRID, DEFAULT_TAU1_GRID, main
from stmmmf.core import FactorModel, SparseRatingMatrix
from stmmmf.evaluation import split
from stmmmf.ingest import load_matrix, save_matrix
from stmmmf.selftrain import SelfTrainConfig, SelfTrainResult
from stmmmf.synthetic import planted_matrix, planted_model
from stmmmf.trainer import save_checkpoint


@pytest.fixture()
def toy_files(tmp_path):
    truth = planted_model(30, 24, rank=2, seed=1)
    full = planted_matrix(truth, observed_frac=0.5, seed=2, noise=0.4)
    train_m, test_m = split(full, 0.8, seed=3)
    train_path = tmp_path / "train.stmat"
    test_path = tmp_path / "test.stmat"
    save_matrix(train_m, train_path)
    save_matrix(test_m, test_path)
    return tmp_path, train_path, test_path


def run(argv):
    return main([str(a) for a in argv])


# --------------------------------------------------------------------- ingest

def test_ingest_prints_shape(tmp_path, capsys):
    rows = [(1, 10, 3, 100), (1, 11, 4, 100), (2, 10, 5, 100), (2, 12, 1, 100)]
    src = tmp_path / "u.data"
    out = tmp_path / "y.stmat"
    written = []
    # the same ratings in either flavor, then a file with no rows: a 1 x 1 matrix with no entries
    for sep, flavor, given, shape in (("\t", "ml100k", rows, "2 3 5 4"),
                                      ("::", "ml1m", rows, "2 3 5 4"),
                                      ("\t", "ml100k", [], "1 1 5 0")):
        src.write_text("".join(sep.join(map(str, row)) + "\n" for row in given))
        code = run(["ingest", src, "--flavor", flavor, "--out", out, "--min-ratings", "0"])
        assert code == 0
        captured = capsys.readouterr()
        printed = captured.out.splitlines()
        assert printed[0] == shape
        assert printed[1].startswith("sparsity ")
        assert captured.err == ""
        assert load_matrix(out).n_observed == len(given)
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_ingest_min_ratings_filter(tmp_path, capsys):
    lines = ["1\t10\t3\t100", "1\t11\t4\t100", "2\t10\t5\t100"]
    src = tmp_path / "u.data"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "y.stmat"
    assert run(["ingest", src, "--out", out, "--min-ratings", "2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "1 2 5 2"


def test_ingest_notes_dropped_duplicates_and_keeps_the_later_one(tmp_path, capsys):
    lines = ["1\t10\t3\t200", "1\t11\t4\t100", "1\t10\t5\t100"]
    src = tmp_path / "u.data"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "y.stmat"
    assert run(["ingest", src, "--out", out, "--min-ratings", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "1 2 5 2"
    assert captured.err == "dropped 1 duplicate pairs\n"
    y = load_matrix(out)
    assert list(zip(y.items, y.ratings)) == [(0, 3), (1, 4)]  # timestamp 200 wins


def test_ingest_negative_id_is_an_error_line(tmp_path, capsys):
    lines = ["1\t2\t3\t100", "-1\t4\t5\t100", "0\t-1\t4\t100"]
    src = tmp_path / "u.data"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "y.stmat"
    assert run(["ingest", src, "--out", out, "--min-ratings", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: negative user id -1: ids must be non-negative integers"]
    assert not out.exists()


def test_ingest_missing_file(tmp_path, capsys):
    code = run(["ingest", tmp_path / "nope.data", "--out", tmp_path / "y.stmat"])
    assert code != 0
    assert "nope.data" in capsys.readouterr().err


def test_ingest_parse_error_has_line_number(tmp_path, capsys):
    src = tmp_path / "u.data"
    out = tmp_path / "y.stmat"
    for text, line in (("1\t2\t3\t4\nbad line\n", 2),
                       ("1\t2\t3\t4\n1\t3\t4\t5\n1\tx\t3\t4\n", 3)):
        src.write_text(text)
        assert run(["ingest", src, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: line {line}: expected 4 int64 values per line"]
        assert not out.exists()


def ingest_from_fifo(tmp_path, name, text):
    """Exit code of `ingest` reading a named pipe that one writer thread fills with text."""
    fifo = tmp_path / f"{name}.fifo"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as stream:  # blocks until ingest opens the other end
            stream.write(text)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    code = run(["ingest", fifo, "--out", tmp_path / f"{name}.stmat", "--min-ratings", "0"])
    writer.join(timeout=10)
    assert not writer.is_alive()
    return code


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_ingest_from_a_pipe(tmp_path, capsys):
    """A pipe cannot seek: its good lines give the file's bytes, and a bad
    line is one error line without a line number."""
    good = "1\t10\t3\t100\n1\t11\t4\t100\n2\t10\t5\t100\n"
    (tmp_path / "u.data").write_text(good)
    assert run(["ingest", tmp_path / "u.data", "--out", tmp_path / "file.stmat",
                "--min-ratings", "0"]) == 0
    assert ingest_from_fifo(tmp_path, "good", good) == 0
    assert (tmp_path / "good.stmat").read_bytes() == (tmp_path / "file.stmat").read_bytes()
    capsys.readouterr()
    assert ingest_from_fifo(tmp_path, "bad", good + "1\tx\t3\t4\n") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: expected 4 int64 values per line"]
    assert not (tmp_path / "bad.stmat").exists()


def test_ingest_benchmark_scale_statistics(tmp_path, capsys):
    from stmmmf.synthetic import synthetic_ratings_file

    src = tmp_path / "u.data"
    src.write_text(synthetic_ratings_file(seed=20260809))
    out = tmp_path / "y.stmat"
    assert run(["ingest", src, "--flavor", "ml100k", "--out", out]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "943 1682 5 100000"
    assert printed[1] == "sparsity 0.9370"


# ---------------------------------------------------------------------- split

def test_split_deterministic_files(toy_files, capsys):
    tmp_path, train_path, _ = toy_files
    a1, b1 = tmp_path / "a1.stmat", tmp_path / "b1.stmat"
    a2, b2 = tmp_path / "a2.stmat", tmp_path / "b2.stmat"
    assert run(["split", train_path, "--frac", "0.8", "--seed", "7",
                "--train-out", a1, "--test-out", b1]) == 0
    assert run(["split", train_path, "--frac", "0.8", "--seed", "7",
                "--train-out", a2, "--test-out", b2]) == 0
    assert a1.read_bytes() == a2.read_bytes()
    assert b1.read_bytes() == b2.read_bytes()
    out = capsys.readouterr().out
    assert "train " in out and "test " in out


def test_split_writes_into_stmmmf_out_dir_by_default(toy_files, monkeypatch):
    tmp_path, train_path, _ = toy_files
    out_dir = tmp_path / "outputs"
    out_dir.mkdir()
    monkeypatch.setenv("STMMMF_OUT_DIR", str(out_dir))
    assert run(["split", train_path]) == 0
    assert sorted(f.name for f in out_dir.iterdir()) == ["test.stmat", "train.stmat"]
    train_m, test_m = (load_matrix(out_dir / name) for name in ("train.stmat", "test.stmat"))
    assert train_m.n_observed + test_m.n_observed == load_matrix(train_path).n_observed


def test_split_sizes(toy_files, capsys):
    tmp_path, train_path, _ = toy_files
    n = load_matrix(train_path).n_observed
    assert run(["split", train_path, "--frac", "0.8", "--seed", "1",
                "--train-out", tmp_path / "t.stmat", "--test-out", tmp_path / "e.stmat"]) == 0
    sizes = [int(line.split()[1]) for line in capsys.readouterr().out.splitlines()[:2]]
    assert sizes[0] == round(0.8 * n)
    assert sizes[0] + sizes[1] == n


def test_split_rejects_full_fraction(toy_files, tmp_path):
    _, train_path, _ = toy_files
    with pytest.raises(SystemExit):
        run(["split", train_path, "--frac", "1.0",
             "--train-out", tmp_path / "t.stmat", "--test-out", tmp_path / "e.stmat"])
    assert not (tmp_path / "t.stmat").exists()  # usage errors leave no files


@pytest.mark.parametrize("body", ["\n0 0 3\n", "0 0\n", "0 0 x\n", "0 0 3\n1 1 4\n"])
def test_split_malformed_matrix_is_an_error_line(tmp_path, capsys, body):
    bad = tmp_path / "bad.stmat"
    bad.write_text("STMAT 1 2 2 5 1\n" + body)
    assert run(["split", bad, "--train-out", tmp_path / "t.stmat",
                "--test-out", tmp_path / "e.stmat"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "t.stmat").exists()


# ------------------------------------------------------------------ selftrain

def selftrain_args(tmp_path, train_path, test_path, **extra):
    args = ["selftrain", train_path, "--test", test_path,
            "--dim", "4", "--lambda", "0.2", "--lr", "0.02",
            "--gd-iters", "60", "--cap", "30", "--iters", "2",
            "--seed", "5", "--out-dir", tmp_path / "run"]
    for key, val in extra.items():
        args += [f"--{key}", val]
    return args


def test_selftrain_writes_reports_and_checkpoint(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    assert run(selftrain_args(tmp_path, train_path, test_path)) == 0
    out = capsys.readouterr().out
    assert "tau_augment=0.4999" in out and "tau_refine=0.1" in out
    run_dir = tmp_path / "run"
    lines = (run_dir / "reports.jsonl").read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["iter"] == 1 and first["overlap"] is None
    csv_lines = (run_dir / "reports.csv").read_text().splitlines()
    assert csv_lines[0] == ("iter,observed,unobserved,candidates,augmented,"
                            "refined,overlap,retained_frac,test_mae,test_rmse")
    assert len(csv_lines) == 3
    assert (run_dir / "model.stmmmf").exists()


def test_selftrain_single_iteration_single_report(toy_files):
    tmp_path, train_path, test_path = toy_files
    args = selftrain_args(tmp_path, train_path, test_path)
    args[args.index("--iters") + 1] = "1"
    assert run(args) == 0
    assert len((tmp_path / "run" / "reports.jsonl").read_text().splitlines()) == 1


def test_selftrain_rejects_bad_tau(toy_files):
    tmp_path, train_path, test_path = toy_files
    with pytest.raises(SystemExit):
        run(selftrain_args(tmp_path, train_path, test_path, tau2="60"))
    assert not (tmp_path / "run").exists()  # validated before any output


def test_selftrain_tau2_0_and_cap_0_switch_both_stages_off(toy_files):
    tmp_path, train_path, test_path = toy_files
    assert run(selftrain_args(tmp_path, train_path, test_path, tau2="0", cap="0")) == 0
    reports = [json.loads(line) for line in
               (tmp_path / "run" / "reports.jsonl").read_text().splitlines()]
    assert [(r["refined"], r["augmented"]) for r in reports] == [(0, 0), (0, 0)]
    assert reports[0]["observed"] == reports[1]["observed"]


def test_selftrain_zero_dim_is_usage_error(toy_files):
    tmp_path, train_path, test_path = toy_files
    with pytest.raises(SystemExit):
        run(selftrain_args(tmp_path, train_path, test_path, dim="0"))
    assert not (tmp_path / "run").exists()


def test_selftrain_on_empty_matrix_is_an_error_line(tmp_path, capsys):
    ratings = tmp_path / "u.data"
    ratings.write_text("1\t10\t3\t100\n")
    empty = tmp_path / "y.stmat"
    assert run(["ingest", ratings, "--out", empty]) == 0  # min-ratings drops the user
    capsys.readouterr()
    assert run(["selftrain", empty, "--out-dir", tmp_path / "run"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(str(empty))
    assert not (tmp_path / "run").exists()


def test_selftrain_rejects_a_short_rating_scale_before_writing(tmp_path, capsys):
    small = tmp_path / "y.stmat"
    save_matrix(SparseRatingMatrix.from_triples(3, 3, 2, [(0, 0, 1), (1, 1, 2), (2, 2, 1)]), small)
    assert run(["selftrain", small, "--out-dir", tmp_path / "run", "--snapshot-every", "1"]) == 1
    assert "rating scale of at least 3" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_selftrain_rejects_a_test_set_on_another_grid_before_writing(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    test_m = load_matrix(test_path)
    wider = tmp_path / "wider.stmat"
    save_matrix(SparseRatingMatrix(test_m.n_users, test_m.n_items + 1, test_m.max_rating,
                                   test_m.users, test_m.items, test_m.ratings), wider)
    args = selftrain_args(tmp_path, train_path, wider) + ["--snapshot-every", "1"]
    assert run(args) == 1
    assert "differs" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_selftrain_rejects_a_test_set_overlapping_training_before_writing(toy_files, capsys):
    tmp_path, train_path, _ = toy_files
    args = selftrain_args(tmp_path, train_path, train_path) + ["--snapshot-every", "1"]
    assert run(args) == 1
    assert "overlaps the training matrix" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_selftrain_snapshots(toy_files):
    tmp_path, train_path, test_path = toy_files
    for every, iters, rounds in (("1", "2", [0, 1, 2]), ("2", "3", [0, 2])):
        run_dir = tmp_path / f"every{every}"
        args = selftrain_args(tmp_path, train_path, test_path, iters=iters,
                              **{"snapshot-every": every, "out-dir": run_dir})
        assert run(args) == 0
        assert len((run_dir / "reports.jsonl").read_text().splitlines()) == int(iters)
        snaps = sorted((run_dir / "snapshots").glob("round_*.stmat"))
        assert [s.name for s in snaps] == [f"round_{k:03d}.stmat" for k in rounds]
        assert load_matrix(snaps[0]).content_hash() == load_matrix(train_path).content_hash()
    out = tmp_path / "b.csv"
    assert run(["baseline-rounds", run_dir / "snapshots", "--test", test_path,
                "--epochs", "1", "--out", out]) == 0
    assert [line.split(",")[0] for line in out.read_text().splitlines()[1:]] == ["0", "2"]


def test_selftrain_refuses_snapshots_of_an_earlier_run(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    args = selftrain_args(tmp_path, train_path, test_path) + ["--snapshot-every", "1"]
    assert run(args) == 0
    run_dir = tmp_path / "run"
    before = {f: f.read_bytes() for f in run_dir.rglob("*") if f.is_file()}
    capsys.readouterr()
    again = selftrain_args(tmp_path, train_path, test_path, iters="1", tau1="30")
    # a run that writes no snapshots would still leave the first run's behind
    for extra in (["--snapshot-every", "1"], []):
        assert run(again + extra) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {run_dir / 'model.stmmmf'} holds an earlier run's output; "
            "choose a new --out-dir"]
        assert {f: f.read_bytes() for f in run_dir.rglob("*") if f.is_file()} == before


@pytest.mark.parametrize("left", ["model.stmmmf", "reports.jsonl", "snapshots/round_001.stmat"])
def test_selftrain_refuses_any_one_file_of_an_earlier_run(toy_files, capsys, left):
    tmp_path, train_path, test_path = toy_files
    args = selftrain_args(tmp_path, train_path, test_path) + ["--snapshot-every", "1"]
    assert run(args) == 0
    run_dir = tmp_path / "run"
    for f in run_dir.rglob("*"):
        if f.is_file() and f != run_dir / left:
            f.unlink()
    capsys.readouterr()
    assert run(args) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {run_dir / left} holds an earlier run's output; choose a new --out-dir"]
    assert [f for f in run_dir.rglob("*") if f.is_file()] == [run_dir / left]


def test_selftrain_rerun_into_a_finished_run_is_refused_before_any_solve(
        tmp_path, monkeypatch, capsys):
    full = planted_matrix(planted_model(60, 80, rank=2, seed=1), observed_frac=0.5, seed=2)
    assert full.n_observed == 2400
    train_path, test_path = tmp_path / "train.stmat", tmp_path / "test.stmat"
    for m, path in zip(split(full, 0.8, seed=1), (train_path, test_path)):
        save_matrix(m, path)
    run_dir = tmp_path / "run"
    args = ["selftrain", train_path, "--test", test_path, "--iters", "2", "--out-dir", run_dir]
    assert run(args) == 0  # a finished run without snapshots
    before = {f: f.read_bytes() for f in run_dir.rglob("*") if f.is_file()}
    assert run_dir / "model.stmmmf" in before
    calls, solve = [], selftrain.train

    def interrupted_in_round_2(y, cfg):
        calls.append(None)
        if len(calls) == 2:
            raise KeyboardInterrupt
        return solve(y, cfg)

    monkeypatch.setattr(selftrain, "train", interrupted_in_round_2)
    capsys.readouterr()
    assert run(args + ["--seed", "7"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {run_dir / 'model.stmmmf'} holds an earlier run's output; "
        "choose a new --out-dir"]
    assert calls == []
    assert {f: f.read_bytes() for f in run_dir.rglob("*") if f.is_file()} == before


def test_selftrain_negative_snapshot_every_is_usage_error(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    args = selftrain_args(tmp_path, train_path, test_path) + ["--snapshot-every", "-1"]
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: stmmmf selftrain ")
    assert "stmmmf selftrain: error: --snapshot-every must be >= 0" in err
    assert not (tmp_path / "run").exists()


def test_selftrain_malformed_matrix_is_an_error_line(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    bad = tmp_path / "bad.stmat"
    bad.write_text("not a matrix\n")
    for train_arg, test_arg in ((bad, test_path), (train_path, bad)):
        assert run(selftrain_args(tmp_path, train_arg, test_arg)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


def test_selftrain_overflowing_objective_is_one_error_line(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    args = selftrain_args(tmp_path, train_path, test_path)
    args[args.index("--lambda") + 1] = "1e308"
    assert run(args) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: initial objective is not finite at reg=1e+308"]
    assert not (tmp_path / "run" / "model.stmmmf").exists()
    assert not any(f.is_file() for f in (tmp_path / "run").rglob("*"))


def test_selftrain_failed_in_round_1_can_be_rerun_in_its_out_dir(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    args = selftrain_args(tmp_path, train_path, test_path) + ["--snapshot-every", "1"]
    huge = list(args)
    huge[huge.index("--lambda") + 1] = "1e308"
    assert run(huge) == 1
    run_dir = tmp_path / "run"
    assert [f for f in run_dir.rglob("*") if f.is_file()] == []
    capsys.readouterr()
    assert run(args) == 0
    snaps = run_dir / "snapshots"
    assert load_matrix(snaps / "round_000.stmat").content_hash() == \
        load_matrix(train_path).content_hash()
    assert (snaps / "round_001.stmat").exists()


def test_selftrain_interrupted_in_round_1_writes_nothing(toy_files, monkeypatch):
    tmp_path, train_path, test_path = toy_files

    def interrupted(y, cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(selftrain, "train", interrupted)
    args = selftrain_args(tmp_path, train_path, test_path) + ["--snapshot-every", "1"]
    with pytest.raises(KeyboardInterrupt):
        run(args)
    assert [f for f in (tmp_path / "run").rglob("*") if f.is_file()] == []


def test_flag_defaults_are_the_config_defaults(toy_files, monkeypatch):
    tmp_path, train_path, test_path = toy_files
    seen = []

    def loop(y, cfg, test=None, callback=None):
        seen.append(cfg)
        model = FactorModel(np.zeros((y.n_users, 1)), np.zeros((y.n_items, 1)),
                            np.zeros((y.n_users, y.max_rating - 1)))
        return SelfTrainResult(model=model, reports=[], stop_reason="max_rounds")

    def rounds(matrices, test, cfg):
        seen.append(cfg)
        return []

    monkeypatch.setattr(cli, "selftrain_loop", loop)
    monkeypatch.setattr(cli, "rounds_experiment", rounds)
    assert run(["selftrain", train_path, "--out-dir", tmp_path / "run"]) == 0
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    save_matrix(load_matrix(train_path), snaps / "round_000.stmat")
    assert run(["baseline-rounds", snaps, "--test", test_path, "--out", tmp_path / "b.csv"]) == 0
    assert seen == [SelfTrainConfig(), BaselineConfig()]


# ------------------------------------------------------------------- evaluate

def test_evaluate_perfect_predictions(tmp_path, capsys):
    # model whose scores land every test rating exactly
    theta = np.tile([1.5, 2.5, 3.5, 4.5], (3, 1))
    model = FactorModel(np.ones((3, 1)), np.array([[1.0], [3.0], [5.0]]), theta)
    test_m = SparseRatingMatrix.from_triples(
        3, 3, 5, [(i, j, (1, 3, 5)[j]) for i in range(3) for j in range(3)]
    )
    ckpt, tpath = tmp_path / "m.stmmmf", tmp_path / "t.stmat"
    save_checkpoint(model, ckpt)
    save_matrix(test_m, tpath)
    assert run(["evaluate", ckpt, "--test", tpath]) == 0
    out = capsys.readouterr().out
    assert "MAE 0.0000" in out and "RMSE 0.0000" in out
    assert "actual 1: 3 0 0 0 0" in out


def test_evaluate_star_markers(tmp_path, capsys):
    theta = np.tile([1.5, 2.5, 3.5, 4.5], (3, 1))
    model = FactorModel(np.zeros((3, 1)), np.zeros((2, 1)), theta)
    test_m = SparseRatingMatrix.from_triples(
        3, 2, 5, [(0, 0, 1), (0, 1, 2), (1, 0, 3), (1, 1, 4), (2, 0, 5)]
    )
    ckpt, tpath = tmp_path / "m.stmmmf", tmp_path / "t.stmat"
    save_checkpoint(model, ckpt)
    save_matrix(test_m, tpath)
    assert run(["evaluate", ckpt, "--test", tpath]) == 0
    hr_lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("actual")]
    # rows 6..10 are the HR table; the 1..5-scale star pattern
    assert hr_lines[6].endswith("*")            # actual 2, K=4
    assert hr_lines[7].count("*") == 2          # actual 3, K=3 and K=4
    assert not hr_lines[5].endswith("*")        # actual 1 has all distances


def test_evaluate_shape_mismatch(tmp_path, capsys):
    model = FactorModel(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 4)))
    test_m = SparseRatingMatrix.from_triples(3, 2, 5, [(2, 0, 1)])
    ckpt, tpath = tmp_path / "m.stmmmf", tmp_path / "t.stmat"
    save_checkpoint(model, ckpt)
    save_matrix(test_m, tpath)
    assert run(["evaluate", ckpt, "--test", tpath]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: model grid (2, 2, 5) differs from the test set's (3, 2, 5)"]


def test_evaluate_allocation_failure_prints_no_partial_report(tmp_path, capsys, monkeypatch):
    model = FactorModel(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 4)))
    test_m = SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 1), (1, 1, 5)])
    ckpt, tpath = tmp_path / "m.stmmmf", tmp_path / "t.stmat"
    save_checkpoint(model, ckpt)
    save_matrix(test_m, tpath)
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000)"

    def too_large(pairs, n_levels):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "confusion", too_large)
    assert run(["evaluate", ckpt, "--test", tpath]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("n_users, n_items", [(2, 3), (1, 2)], ids=["more-items", "fewer-users"])
def test_evaluate_train_on_another_grid_is_one_error_line(tmp_path, capsys, n_users, n_items):
    model = FactorModel(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 4)))
    test_m = SparseRatingMatrix.from_triples(2, 2, 5, [(1, 0, 1)])
    train_m = SparseRatingMatrix.from_triples(n_users, n_items, 5, [(0, n_items - 1, 4)])
    ckpt, tpath, trpath = tmp_path / "m.stmmmf", tmp_path / "t.stmat", tmp_path / "tr.stmat"
    save_checkpoint(model, ckpt)
    save_matrix(test_m, tpath)
    save_matrix(train_m, trpath)
    assert run(["evaluate", ckpt, "--test", tpath, "--train", trpath]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --train matrix grid ({n_users}, {n_items}, 5) differs from the model's (2, 2, 5)"]


# ----------------------------------------------------------------- gridsearch

def test_default_grids():
    assert len(DEFAULT_LAMBDA_GRID) == 10
    np.testing.assert_allclose(DEFAULT_LAMBDA_GRID[0], 10 ** (1 / 16))
    np.testing.assert_allclose(DEFAULT_LAMBDA_GRID[-1], 10 ** (37 / 16))
    assert DEFAULT_TAU1_GRID[-1] == 49.99


def test_gridsearch_single_cell(toy_files, capsys):
    tmp_path, train_path, _ = toy_files
    out = tmp_path / "grid.csv"
    code = run(["gridsearch", train_path, "--lambda-grid", "0.2",
                "--tau1-grid", "30", "--s-grid", "100",
                "--dim", "3", "--lr", "0.02", "--gd-iters", "40",
                "--iters", "1", "--cap", "20", "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lambda,tau1,s,mae,rmse"
    assert len(lines) == 2
    assert capsys.readouterr().out.startswith("best lambda=0.2")


def test_gridsearch_averages_runs(toy_files):
    tmp_path, train_path, _ = toy_files
    out = tmp_path / "grid2.csv"
    code = run(["gridsearch", train_path, "--lambda-grid", "0.2",
                "--tau1-grid", "30", "--s-grid", "100", "--runs", "2",
                "--dim", "3", "--lr", "0.02", "--gd-iters", "40",
                "--iters", "1", "--cap", "20", "--out", out])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def grid_args(train_path, out, *extra):
    return ["gridsearch", train_path, "--dim", "3", "--lr", "0.02",
            "--gd-iters", "40", "--iters", "1", "--cap", "20", "--out", out, *extra]


def test_gridsearch_default_tau1_grid_lies_above_tau2(toy_files):
    tmp_path, train_path, _ = toy_files
    out = tmp_path / "grid.csv"
    assert run(grid_args(train_path, out, "--tau2", "40",
                         "--lambda-grid", "0.2", "--s-grid", "100")) == 0
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["45", "49.99"]


@pytest.mark.parametrize("grid", [
    ["--lambda-grid", ""],            # no cells
    ["--lambda-grid", "0.2,x"],       # not a number
    ["--tau1-grid", "30,5"],          # tau1 5 is below tau2 10
    ["--tau1-grid", "30", "--dim", "0"],
    ["--tau1-grid", "30", "--runs", "0"],
    ["--tau1-grid", "30", "--val-frac", "0"],
])
def test_gridsearch_bad_grid_is_usage_error(toy_files, grid):
    tmp_path, train_path, _ = toy_files
    out = tmp_path / "grid.csv"
    with pytest.raises(SystemExit):
        run(grid_args(train_path, out, *grid))
    assert not out.exists()  # rejected before any cell runs


@pytest.mark.parametrize("extra, message", [
    ([], "validation carve-out is empty; matrix too small for val-frac"),
    (["--val-frac", "0.9"], "training carve-out is empty; val-frac too large for the matrix"),
], ids=["validation", "training"])
def test_gridsearch_empty_carve_out_writes_nothing(tmp_path, capsys, extra, message):
    tiny, out = tmp_path / "tiny.stmat", tmp_path / "grid.csv"
    save_matrix(SparseRatingMatrix.from_triples(3, 3, 5, [(0, 0, 3), (1, 1, 4)]), tiny)
    assert run(grid_args(tiny, out, "--lambda-grid", "0.2", "--tau1-grid", "30",
                         "--s-grid", "100", *extra)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


def test_gridsearch_input_the_loop_rejects_writes_nothing(tmp_path, capsys):
    """A 2-level scale has no average threshold gap: the carve-outs are
    checked with the loop's own input checks before the CSV is created."""
    rng = np.random.default_rng(0)
    cells = rng.choice(30 * 20, size=200, replace=False)
    two_level, out = tmp_path / "two.stmat", tmp_path / "grid.csv"
    save_matrix(SparseRatingMatrix.from_triples(
        30, 20, 2, [(c // 20, c % 20, 1 + c % 2) for c in cells.tolist()]), two_level)
    assert run(["gridsearch", two_level, "--lambda-grid", "1", "--tau1-grid", "30",
                "--s-grid", "100", "--iters", "1", "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: average threshold gap needs a rating scale of at least 3"]
    assert not out.exists()


def test_gridsearch_overflowing_objective_keeps_the_finished_rows(toy_files, capsys):
    tmp_path, train_path, _ = toy_files
    out = tmp_path / "grid.csv"
    assert run(grid_args(train_path, out, "--lambda-grid", "5,1e308", "--tau1-grid", "30",
                         "--s-grid", "100")) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: grid search aborted: initial objective is not finite at reg=1e+308; "
        f"partial CSV kept at {out}"]
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and rows[1].startswith("5,30,100,")


@pytest.mark.parametrize("argv", [
    ["selftrain", "{train}", "--dim", "0"],
    ["selftrain", "{train}", "--tau2", "-1"],
    ["selftrain", "{train}", "--cap", "-1"],
    ["split", "{train}", "--frac", "1.0"],
    ["gridsearch", "{train}", "--runs", "0"],
    ["gridsearch", "{train}", "--lambda-grid", "0.2,x"],
    ["baseline-rounds", "{train}", "--test", "{train}", "--epochs", "-3"],
    ["baseline-rounds", "{train}", "--test", "{train}", "--lr", "0"],
    ["baseline-rounds", "{train}", "--test", "{train}", "--reg", "-1"],
    ["baseline-rounds", "{train}", "--test", "{train}", "--dim", "-1"],
    ["selftrain", "{train}", "--seed", "-1"],
    ["gridsearch", "{train}", "--tau1-grid", "30", "--seed", "-1"],
    ["baseline-rounds", "{train}", "--test", "{train}", "--seed", "-1"],
    ["split", "{train}", "--seed", "-1"],
    ["ingest", "{train}", "--out", "{train}.ingested", "--min-ratings", "-1"],
    ["selftrain", "{train}", "--lr", "nan"],
    ["selftrain", "{train}", "--lr", "inf"],
    ["selftrain", "{train}", "--tol", "nan"],
    ["selftrain", "{train}", "--lambda", "nan"],
    ["selftrain", "{train}", "--lambda", "inf"],
    ["gridsearch", "{train}", "--tau1-grid", "30", "--lr", "nan"],
    ["baseline-rounds", "{train}", "--test", "{train}", "--lr", "nan"],
    ["baseline-rounds", "{train}", "--test", "{train}", "--lr", "inf"],
    ["baseline-rounds", "{train}", "--test", "{train}", "--reg", "nan"],
    ["baseline-rounds", "{train}", "--test", "{train}", "--reg", "inf"],
], ids=["selftrain-dim", "selftrain-tau2-negative", "selftrain-cap-negative", "split-frac",
        "gridsearch-runs", "gridsearch-grid", "baseline-epochs", "baseline-lr", "baseline-reg",
        "baseline-dim",
        "selftrain-seed", "gridsearch-seed", "baseline-seed", "split-seed",
        "ingest-min-ratings", "selftrain-lr-nan", "selftrain-lr-inf", "selftrain-tol-nan",
        "selftrain-lambda-nan", "selftrain-lambda-inf", "gridsearch-lr-nan",
        "baseline-lr-nan", "baseline-lr-inf", "baseline-reg-nan", "baseline-reg-inf"])
def test_handler_usage_error_prints_command_usage(toy_files, capsys, argv):
    _, train_path, _ = toy_files
    with pytest.raises(SystemExit) as exc:  # raised before any output is written
        run([a.format(train=train_path) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: stmmmf {argv[0]} ")
    assert f"stmmmf {argv[0]}: error: " in err


# Runs each argv of the JSON list in sys.argv[1] through cli.main.
CLI_SCRIPT = ("import json, sys\nfrom stmmmf.cli import main\n"
              "sys.exit(max(map(main, json.loads(sys.argv[1]))))")


def test_outputs_do_not_depend_on_blas_threads_or_workers(tmp_path):
    """A 1-round selftrain and a 2-cell gridsearch, each run in a fresh
    process at OPENBLAS_NUM_THREADS 1 (gridsearch --workers 1) and 2
    (--workers 2), write the same model, reports and grid bytes.  The
    300 x 300 matrix makes each 256-user score block a 256 x 300 x 4
    matrix product."""
    truth = planted_model(300, 300, rank=2, seed=1)
    full = planted_matrix(truth, observed_frac=0.1, seed=2, noise=0.4)
    train_m, test_m = split(full, 0.8, seed=3)
    save_matrix(train_m, tmp_path / "train.stmat")
    save_matrix(test_m, tmp_path / "test.stmat")
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for n in ("1", "2"):
        out = tmp_path / f"threads{n}"
        argvs = [
            selftrain_args(out, tmp_path / "train.stmat", tmp_path / "test.stmat", iters="1"),
            grid_args(tmp_path / "train.stmat", out / "grid.csv", "--lambda-grid", "0.2,1",
                      "--tau1-grid", "30", "--s-grid", "100", "--workers", n),
        ]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, MKL_NUM_THREADS=n,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argvs = json.dumps([[str(a) for a in argv] for argv in argvs])
        subprocess.run([sys.executable, "-c", CLI_SCRIPT, argvs], env=env, check=True,
                       capture_output=True)
        outputs.append([(out / name).read_bytes() for name in
                        ("run/model.stmmmf", "run/reports.jsonl", "run/reports.csv", "grid.csv")])
    assert len(outputs[0][1].splitlines()) == 1 and len(outputs[0][3].splitlines()) == 3
    assert outputs[0] == outputs[1]


# Runs each argv of the JSON list in sys.argv[1] through cli.main and prints,
# after each, which of the modules only a solve, a hash or a pool needs are loaded.
LOADED_SCRIPT = (
    "import json, sys\nfrom stmmmf.cli import main\n"
    "heavy = ('scipy.sparse', '_hashlib', 'concurrent.futures.process')\nloaded = []\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    assert main(argv) == 0, argv\n"
    "    loaded.append([m for m in heavy if m in sys.modules])\n"
    "print(json.dumps(loaded))")


def test_commands_that_never_solve_never_load_scipy(toy_files):
    tmp_path, train_path, test_path = toy_files
    y = load_matrix(train_path)
    ratings = tmp_path / "u.data"
    ratings.write_text("".join(f"{u + 1}\t{i + 1}\t{r}\t0\n"
                               for u, i, r in zip(y.users, y.items, y.ratings)))
    save_checkpoint(planted_model(y.n_users, y.n_items, rank=2, seed=1), tmp_path / "m.stmmmf")
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    save_matrix(y, snaps / "round_000.stmat")
    argvs = [
        ["ingest", ratings, "--out", tmp_path / "y.stmat", "--min-ratings", "0"],
        ["evaluate", tmp_path / "m.stmmmf", "--test", test_path, "--train", train_path],
        ["split", tmp_path / "y.stmat", "--train-out", tmp_path / "a.stmat",
         "--test-out", tmp_path / "b.stmat"],
        ["baseline-rounds", snaps, "--test", test_path, "--epochs", "1",
         "--out", tmp_path / "rounds.csv"],
        selftrain_args(tmp_path, train_path, test_path, iters="1"),
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argvs = json.dumps([[str(a) for a in argv] for argv in argvs])
    done = subprocess.run([sys.executable, "-c", LOADED_SCRIPT, argvs], env=env, check=True,
                          capture_output=True, text=True)
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded[:2] == [[], []]
    # split and baseline-rounds seed numpy.random, whose import loads _hashlib itself
    assert [[m for m in names if m != "_hashlib"] for names in loaded] == [
        [], [], [], [], ["scipy.sparse"]]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_gridsearch_nonpositive_workers_is_usage_error(toy_files, capsys, workers):
    tmp_path, train_path, _ = toy_files
    out = tmp_path / "grid.csv"
    grid = ["--lambda-grid", "0.2", "--tau1-grid", "30", "--s-grid", "100"]
    with pytest.raises(SystemExit) as exc:
        run(grid_args(train_path, out, *grid, "--workers", workers))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: stmmmf gridsearch ")
    assert "stmmmf gridsearch: error: --workers must be >= 1" in err
    assert not out.exists()


@pytest.fixture()
def serial_pool(monkeypatch):
    """Replace the process pool with one that runs its initializer and maps
    in this process on a 3-CPU host; returns the pool sizes it was given."""
    pools = []

    class SerialPool:
        """Records its size and maps in this process; starts no worker."""

        def __init__(self, max_workers, initializer, initargs):
            pools.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    # cmd_gridsearch imports the pool class from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "_grid_runs", None)
    # 3 CPUs in this process's affinity set on an 8-CPU machine
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    return pools


# 9 cells, more than the 3 or 8 CPUs the pool is capped at
NINE_CELLS = ["--lambda-grid", "0.2,0.5,1", "--tau1-grid", "30", "--s-grid", "50,80,100"]


def test_gridsearch_workers_clamped_to_cpu_count(toy_files, serial_pool):
    tmp_path, train_path, _ = toy_files
    out = tmp_path / "grid.csv"
    assert run(grid_args(train_path, out, *NINE_CELLS, "--workers", "4096")) == 0
    assert serial_pool == [3]
    assert len(out.read_text().splitlines()) == 10


def test_gridsearch_workers_clamped_to_cpu_count_without_affinity(toy_files, serial_pool,
                                                                   monkeypatch):
    tmp_path, train_path, _ = toy_files
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert run(grid_args(train_path, tmp_path / "grid.csv", *NINE_CELLS,
                         "--workers", "4096")) == 0
    assert serial_pool == [8]


def test_gridsearch_workers_clamped_to_cell_count(toy_files, serial_pool):
    tmp_path, train_path, _ = toy_files
    grid = ["--lambda-grid", "0.2", "--tau1-grid", "30", "--s-grid", "100"]
    assert run(grid_args(train_path, tmp_path / "grid.csv", *grid, "--workers", "4096")) == 0
    assert serial_pool == [1]  # no idle worker is started


def test_gridsearch_cell_payload_holds_no_matrix(toy_files, serial_pool, monkeypatch):
    tmp_path, train_path, _ = toy_files
    payloads, cell = [], cli._grid_cell

    def recording_cell(payload):
        payloads.append(payload)
        return cell(payload)

    monkeypatch.setattr(cli, "_grid_cell", recording_cell)
    grid = ["--lambda-grid", "0.2,1", "--tau1-grid", "30", "--s-grid", "100"]
    for workers in ("2", "1"):
        assert run(grid_args(train_path, tmp_path / "grid.csv", *grid, "--workers", workers)) == 0
    assert serial_pool == [2, 1]  # every --workers value runs through the pool
    assert len(payloads) == 4
    assert all(type(p) is SelfTrainConfig for p in payloads)


def test_gridsearch_carves_each_run_once(toy_files, monkeypatch):
    tmp_path, train_path, _ = toy_files
    calls, carve = [], cli.split

    def counting_split(*args):
        calls.append(args[1:])
        return carve(*args)

    monkeypatch.setattr(cli, "split", counting_split)
    grid = ["--lambda-grid", "0.2,1", "--tau1-grid", "30", "--s-grid", "50,100"]
    assert run(grid_args(train_path, tmp_path / "grid.csv", *grid, "--runs", "2")) == 0
    assert calls == [(0.9, 0), (0.9, 1)]  # one carve-out per run, not per cell and run


# ------------------------------------------------------------ baseline rounds

def test_baseline_rounds_missing_snapshots(tmp_path, capsys):
    empty, test_path = tmp_path / "snaps", tmp_path / "t.stmat"
    empty.mkdir()
    save_matrix(SparseRatingMatrix.from_triples(2, 2, 5, [(0, 0, 3)]), test_path)
    code = run(["baseline-rounds", empty, "--test", test_path,
                "--out", tmp_path / "b.csv"])
    assert code != 0
    assert "snapshot" in capsys.readouterr().err


def test_baseline_rounds_single_snapshot(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    save_matrix(load_matrix(train_path), snaps / "round_000.stmat")
    out = tmp_path / "b.csv"
    code = run(["baseline-rounds", snaps, "--test", test_path,
                "--epochs", "5", "--out", out])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,mae,rmse"
    assert len(lines) == 2 and lines[1].startswith("0,")


def test_baseline_rounds_overflowing_loss_is_one_error_line(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    save_matrix(load_matrix(train_path), snaps / "round_000.stmat")
    code = run(["baseline-rounds", snaps, "--test", test_path, "--lr", "1e10",
                "--epochs", "3", "--out", tmp_path / "b.csv"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: baseline loss is not finite"]


def test_baseline_rounds_checks_out_before_any_fit(toy_files, capsys, monkeypatch):
    tmp_path, train_path, test_path = toy_files
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    for k in range(3):
        save_matrix(load_matrix(train_path), snaps / f"round_{k:03d}.stmat")
    fits = []

    def counting_train(y, cfg):
        fits.append(y)
        return train_baseline(y, cfg)

    monkeypatch.setattr(baseline, "train_baseline", counting_train)
    out = tmp_path / "nodir" / "rounds.csv"
    assert run(["baseline-rounds", snaps, "--test", test_path, "--epochs", "1",
                "--out", out]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: file not found: {out}"]
    assert fits == []


def test_baseline_rounds_orders_snapshots_by_round_number(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    # written out of order; as text, round_1000 would sort before round_101
    for name in ("round_1000", "round_002", "round_101", "round_010"):
        save_matrix(load_matrix(train_path), snaps / f"{name}.stmat")
    out = tmp_path / "b.csv"
    assert run(["baseline-rounds", snaps, "--test", test_path,
                "--epochs", "1", "--out", out]) == 0
    rounds = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert rounds == ["2", "10", "101", "1000"]


def test_baseline_rounds_loads_each_snapshot_when_it_trains(toy_files, capsys, monkeypatch):
    tmp_path, train_path, test_path = toy_files
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    for k in range(3):
        save_matrix(load_matrix(train_path), snaps / f"round_{k:03d}.stmat")
    loads, loads_at_train = [], []

    def counting_load(source):
        loads.append(source)
        return load_matrix(source)

    def recording_train(y, cfg):
        loads_at_train.append(len(loads))
        return train_baseline(y, cfg)

    monkeypatch.setattr(cli, "load_matrix", counting_load)
    monkeypatch.setattr(baseline, "train_baseline", recording_train)
    assert run(["baseline-rounds", snaps, "--test", test_path, "--epochs", "1",
                "--out", tmp_path / "b.csv"]) == 0
    assert loads_at_train == [2, 3, 4]  # the test set, then one snapshot per round


def test_baseline_rounds_bad_later_snapshot_is_an_error_line(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    save_matrix(load_matrix(train_path), snaps / "round_000.stmat")
    (snaps / "round_001.stmat").write_text("STMAT 1 30 24 5 2\n0 0 3\n")
    out = tmp_path / "b.csv"
    assert run(["baseline-rounds", snaps, "--test", test_path, "--epochs", "1",
                "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not out.exists()


def test_baseline_rounds_two_files_for_one_round_is_an_error_line(toy_files, capsys, monkeypatch):
    tmp_path, train_path, test_path = toy_files
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    for name in ("round_1", "round_001"):
        save_matrix(load_matrix(train_path), snaps / f"{name}.stmat")
    monkeypatch.setattr(cli, "rounds_experiment", None)  # no training may start
    out = tmp_path / "b.csv"
    assert run(["baseline-rounds", snaps, "--test", test_path, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "round_1.stmat" in err[0] and "round_001.stmat" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("bad", ["round_x", "round_\u0663"], ids=["letter", "arabic-indic-digit"])
def test_baseline_rounds_non_numeric_snapshot_is_an_error_line(toy_files, capsys, bad):
    tmp_path, train_path, test_path = toy_files
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    for name in ("round_000", bad):
        save_matrix(load_matrix(train_path), snaps / f"{name}.stmat")
    assert run(["baseline-rounds", snaps, "--test", test_path,
                "--out", tmp_path / "b.csv"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f"{bad}.stmat" in err[0]
    assert not (tmp_path / "b.csv").exists()


def test_baseline_rounds_grid_mismatch_is_an_error_line(toy_files, capsys):
    tmp_path, train_path, test_path = toy_files
    train_m = load_matrix(train_path)
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    small = train_m.select(train_m.users < 10)
    save_matrix(SparseRatingMatrix(10, small.n_items, small.max_rating,
                                   small.users, small.items, small.ratings),
                snaps / "round_000.stmat")
    assert run(["baseline-rounds", snaps, "--test", test_path,
                "--out", tmp_path / "b.csv"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# ------------------------------------------------------------- error boundary

@pytest.mark.parametrize("header, kind", [
    ("STMAT 1 2 2 5 -1", "matrix"),
    ("STMAT 1 a 2 5 0", "matrix"),
    ("STMAT 1 2 2 5 99999999999999999999", "matrix"),
    pytest.param("STMAT 1 2 2 5 " + "0" * 4999 + "1", "matrix", id="5000-digit-count"),
    ("STMAT 1 1_0 2 5 0", "matrix"),
    ("STMAT 1 +3 2 5 0", "matrix"),
    ("STMAT 1 \u0663 2 5 0", "matrix"),  # the Arabic-Indic digit three
    ("STMMMF 1 -2 2 1 5", "checkpoint"),
    ("STMMMF 1 0 0 0 0", "checkpoint"),
    ("STMMMF 1 2 2 1 1", "checkpoint"),
    ("STMMMF 1 2 2 0 5", "checkpoint"),
    ("STMMMF 1 0 2 1 5", "checkpoint"),
])
def test_malformed_header_is_one_error_line(toy_files, capsys, header, kind):
    tmp_path, _, test_path = toy_files
    bad = tmp_path / "bad"
    bad.write_text(header + "\n", encoding="utf-8")
    argv = (["split", bad, "--train-out", tmp_path / "t.stmat", "--test-out", tmp_path / "e.stmat"]
            if kind == "matrix" else ["evaluate", bad, "--test", test_path])
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: not a recognized {kind} header"]


def test_input_too_large_to_allocate_is_one_error_line(toy_files, capsys, monkeypatch):
    tmp_path, train_path, test_path = toy_files
    message = ("Unable to allocate 931. GiB for an array with shape (1000000, 1000000) "
               "and data type uint8")

    def too_large(model, y, tau_augment):
        raise MemoryError(message)

    monkeypatch.setattr(selftrain, "candidate_levels", too_large)
    args = selftrain_args(tmp_path, train_path, test_path) + ["--snapshot-every", "1"]
    assert run(args) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert [f for f in (tmp_path / "run").rglob("*") if f.is_file()] == []


@pytest.mark.parametrize("argv, named", [
    (["ingest", "{dir}", "--out", "{dir}/y.stmat"], "{dir}"),
    (["split", "{dir}", "--train-out", "{dir}/t.stmat", "--test-out", "{dir}/e.stmat"],
     "{dir}"),
    (["ingest", "{ratings}", "--out", "{dir}/nodir/y.stmat"], "{dir}/nodir/y.stmat"),
    (["split", "{train}", "--train-out", "{dir}/nodir/t.stmat",
      "--test-out", "{dir}/e.stmat"], "{dir}/nodir/t.stmat"),
    (["selftrain", "{train}", "--out-dir", "{train}"], "{train}"),
    (["evaluate", "{ckpt}", "--test", "{dir}/missing.stmat"], "{dir}/missing.stmat"),
    (["baseline-rounds", "{snaps}", "--test", "{dir}/missing.stmat"],
     "{dir}/missing.stmat"),
], ids=["ingest-dir", "split-dir", "ingest-out-nodir", "split-out-nodir",
        "selftrain-out-dir-file", "evaluate-no-test", "baseline-no-test"])
def test_bad_input_is_one_error_line(toy_files, capsys, argv, named):
    tmp_path, train_path, _ = toy_files
    ratings = tmp_path / "u.data"
    ratings.write_text("1\t10\t3\t100\n")
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    save_matrix(load_matrix(train_path), snaps / "round_000.stmat")
    ckpt = tmp_path / "m.stmmmf"
    y = load_matrix(train_path)
    save_checkpoint(FactorModel(np.zeros((y.n_users, 1)), np.zeros((y.n_items, 1)),
                                np.zeros((y.n_users, y.max_rating - 1))), ckpt)
    paths = dict(dir=tmp_path, ratings=ratings, train=train_path, ckpt=ckpt, snaps=snaps)
    assert run([a.format(**paths) for a in argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert err[0].rstrip("'").endswith(named.format(**paths))  # the user's path
