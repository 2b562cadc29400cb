"""Ordinal maximum-margin matrix factorization with a self-training loop
that augments confident predictions and refines noisy observations.

The top level holds the names the README and the demos use; everything
else is imported from its module."""

from .core import FactorModel, avg_threshold_gaps
from .trainer import predict_ratings, train
from .selftrain import SelfTrainConfig, selftrain_loop
from .evaluation import confusion, hr_table, split

__version__ = "0.1.0"
