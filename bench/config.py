"""Seeds, sizes and reference values of the benchmark workloads (no imports,
so run.py can read them before NumPy is loaded)."""

# Acceptance seeds. The desk data is always the acceptance dataset;
# `--seed n` offsets the split and loop seeds by n.
DESK_SEED, SPLIT_SEED, LOOP_SEED = 20260809, 42, 0
SELFTRAIN_ROUNDS = 3
# Round-by-round bookkeeping of the selftrain workload at `--seed 0`.
REFERENCE_ROUNDS = [
    {"observed": 80000, "candidates": 517690, "test_mae": 0.58145},
    {"test_mae": 0.60055},
    {"test_mae": 0.6235},
]
# Epochs of `baseline-rounds` on the transfer workload: the default 20 make
# a 21 s pass, too long for a median over several passes in one run.
BASELINE_EPOCHS = 5
GRID_LAMBDAS, GRID_TAU1S, GRID_S = ("5", "15"), ("15", "49.99"), ("100",)
GRID_CELLS = len(GRID_LAMBDAS) * len(GRID_TAU1S) * len(GRID_S)
