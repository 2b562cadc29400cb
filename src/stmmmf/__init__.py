"""Ordinal maximum-margin matrix factorization with a self-training loop
that augments confident predictions and refines noisy observations."""

from .core import (
    FactorModel,
    SparseRatingMatrix,
    avg_threshold_gaps,
    smooth_hinge,
    smooth_hinge_grad,
    t_indicator,
)
from .trainer import (
    TrainingDivergedError,
    TrainTrace,
    gd_step,
    load_checkpoint,
    predict_ratings,
    save_checkpoint,
    train,
)
from .selftrain import (
    IterationReport,
    SelfTrainConfig,
    SelfTrainResult,
    apply_augment,
    candidate_levels,
    low_confidence_observed,
    overlap_stats,
    sample_augment,
    selftrain_loop,
    skew_allocation,
)
from .evaluation import (
    MetricsSnapshot,
    confusion,
    hr_at_k,
    hr_table,
    split,
)
from .ingest import (
    ParseError,
    PreprocessResult,
    RawRatings,
    load_matrix,
    parse_ml100k,
    parse_ml1m,
    preprocess,
    save_matrix,
)
from .baseline import (
    BaselineConfig,
    BaselineModel,
    rounds_experiment,
    strip_overlap,
    train_baseline,
)

__version__ = "0.1.0"
