"""Training loops, metrics, and checkpointing."""

from repro.train.loop import TrainHistory, fit_classifier, hep_loss_fn, step
from repro.train.metrics import (
    accuracy,
    auc,
    average_precision,
    precision_recall_curve,
    roc_curve,
    tpr_at_fpr,
)
from repro.train.checkpoint import load_checkpoint, save_checkpoint
from repro.train.search import (SearchResult, bayes_search, grid_search,
                                random_search)

__all__ = [
    "random_search",
    "grid_search",
    "bayes_search",
    "SearchResult",
    "fit_classifier",
    "hep_loss_fn",
    "step",
    "TrainHistory",
    "roc_curve",
    "tpr_at_fpr",
    "auc",
    "average_precision",
    "precision_recall_curve",
    "accuracy",
    "save_checkpoint",
    "load_checkpoint",
]
