"""Confusion-matrix metrics, cross-validation folds, and table aggregation.

Conventions used throughout: label 1 is the positive class, all six
metrics live in [0, 1] and are multiplied by 100 only at reporting time,
and higher is better for every metric. A cross-validation's scores are
one float array whose last axis holds the folds; `fold_summary` reduces
that axis to the five SUMMARY_NAMES statistics.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .mlp import Dataset
from .streams import named_rng

__all__ = [
    "METRIC_NAMES",
    "ConfusionMatrix",
    "MetricReport",
    "SUMMARY_NAMES",
    "fold_summary",
    "confusion_from_predictions",
    "metrics",
    "error_enhancement",
    "kfold_split",
    "fold_datasets",
    "pair_outcomes",
    "wtl",
    "average_ranks",
    "rank_and_mean_rank",
]

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "precision", "fscore", "gmean")

# Paired values closer than this either way are a tie.
TIE_TOL = 1e-9


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self):
        counts = (self.tp, self.tn, self.fp, self.fn)
        if any(c < 0 for c in counts):
            raise ParameterError(f"counts must be non-negative, got {counts}")
        if sum(counts) < 1:
            raise ParameterError("confusion matrix must contain at least one sample")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricReport:
    """Six classification metrics, each in [0, 1].

    `degenerate` names the metrics whose denominator was zero and whose
    value was therefore imputed as 0.
    """

    accuracy: float
    sensitivity: float
    specificity: float
    precision: float
    fscore: float
    gmean: float
    degenerate: frozenset = field(default=frozenset(), compare=False)

    def as_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in METRIC_NAMES], dtype=float)


SUMMARY_NAMES = ("mean", "std", "min", "max", "median")


def fold_summary(scores) -> np.ndarray:
    """The SUMMARY_NAMES statistics of the fold values on the last axis.

    Returns an array of the scores' shape with the fold axis replaced by
    a last axis of five: mean, sample std (ddof=1), min, max and median.
    The scores are made C-contiguous first, so every cell equals the 1-D
    statistic of its own fold values bit for bit: numpy sums 8 or more
    contiguous values in unrolled partial sums, but a strided axis one
    value at a time.
    """
    scores = np.ascontiguousarray(scores, dtype=float)
    if scores.ndim == 0 or scores.shape[-1] < 2:
        raise ParameterError("summary needs at least two fold values")
    return np.stack([np.mean(scores, axis=-1), np.std(scores, axis=-1, ddof=1),
                     np.min(scores, axis=-1), np.max(scores, axis=-1),
                     np.median(scores, axis=-1)], axis=-1)


def confusion_from_predictions(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true).astype(int)
    y_pred = np.asarray(y_pred).astype(int)
    if y_true.shape != y_pred.shape:
        raise ParameterError("prediction and truth lengths differ")
    return ConfusionMatrix(
        tp=int(np.count_nonzero((y_true == 1) & (y_pred == 1))),
        tn=int(np.count_nonzero((y_true == 0) & (y_pred == 0))),
        fp=int(np.count_nonzero((y_true == 0) & (y_pred == 1))),
        fn=int(np.count_nonzero((y_true == 1) & (y_pred == 0))),
    )


def _ratio(numerator: float, denominator: float, name: str, degenerate: set) -> float:
    if denominator == 0:
        degenerate.add(name)
        return 0.0
    return numerator / denominator


def metrics(cm: ConfusionMatrix) -> MetricReport:
    """All six metrics of one confusion matrix.

    A zero denominator (e.g. a fold without negatives) yields 0 for that
    metric and records its name in the degenerate set instead of raising.
    """
    degenerate: set = set()
    accuracy = (cm.tp + cm.tn) / cm.total
    sensitivity = _ratio(cm.tp, cm.tp + cm.fn, "sensitivity", degenerate)
    specificity = _ratio(cm.tn, cm.tn + cm.fp, "specificity", degenerate)
    precision = _ratio(cm.tp, cm.tp + cm.fp, "precision", degenerate)
    fscore = _ratio(2 * cm.tp, 2 * cm.tp + cm.fp + cm.fn, "fscore", degenerate)
    gmean = float(np.sqrt(sensitivity * specificity))
    return MetricReport(
        accuracy=accuracy,
        sensitivity=sensitivity,
        specificity=specificity,
        precision=precision,
        fscore=fscore,
        gmean=gmean,
        degenerate=frozenset(degenerate),
    )


def error_enhancement(base_metric_pct: float, codel_metric_pct: float) -> float:
    """Relative reduction of the error 100 - metric, in percent.

    Negative when the boosted variant scores below its base.
    """
    if not (0 <= base_metric_pct < 100):
        raise ParameterError(
            f"base metric must be in [0, 100), got {base_metric_pct}"
        )
    if not (0 <= codel_metric_pct <= 100):
        raise ParameterError(
            f"boosted metric must be in [0, 100], got {codel_metric_pct}"
        )
    base_err = 100.0 - base_metric_pct
    codel_err = 100.0 - codel_metric_pct
    return (base_err - codel_err) / base_err * 100.0


def kfold_split(k: int, labels, seed: int):
    """Stratified partition of range(n), n = len(labels), into k folds.

    Each class is shuffled and dealt round-robin, with the dealing
    position carried over from class to class so fold sizes differ by at
    most one overall.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ParameterError("need at least 2 folds")
    if k > len(labels):
        raise ParameterError(f"cannot split {len(labels)} samples into {k} folds")
    rng = named_rng(seed, "folds")
    folds = [[] for _ in range(k)]
    cursor = 0
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        rng.shuffle(idx)
        for i in idx:
            folds[cursor % k].append(int(i))
            cursor += 1
    return [np.array(sorted(f), dtype=int) for f in folds]


def _standardize_columns(train_rows: np.ndarray, other_rows: np.ndarray):
    """Center and scale both row sets by the training statistics only."""
    mean = np.mean(train_rows, axis=0)
    std = np.std(train_rows, axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (train_rows - mean) / std, (other_rows - mean) / std


def fold_datasets(dataset: Dataset, k: int, seed: int):
    """Materialize the k (train, test) dataset pairs of one split.

    Feature columns are standardized with statistics fitted on each
    train split, so nothing about a test fold influences training.
    """
    folds = kfold_split(k, dataset.labels, seed)
    pairs = []
    for f, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(len(dataset)), test_idx)
        train_rows, test_rows = _standardize_columns(
            dataset.rows[train_idx], dataset.rows[test_idx]
        )
        pairs.append(
            (
                Dataset(train_rows, dataset.labels[train_idx]),
                Dataset(test_rows, dataset.labels[test_idx]),
            )
        )
    return pairs


def pair_outcomes(base_means, codel_means) -> np.ndarray:
    """'win', 'tie' or 'loss' of each boosted value over its base.

    A difference within TIE_TOL either way is a tie; a NaN on either
    side is a loss.
    """
    base = np.asarray(base_means, dtype=float)
    codel = np.asarray(codel_means, dtype=float)
    if base.shape != codel.shape:
        raise ParameterError("paired sequences must have equal length")
    diff = codel - base
    return np.where(diff > TIE_TOL, "win", np.where(np.abs(diff) <= TIE_TOL, "tie", "loss"))


def wtl(base_means, codel_means):
    """Count wins, ties, losses of the boosted variants over their bases."""
    outcomes = pair_outcomes(base_means, codel_means)
    return tuple(int(np.count_nonzero(outcomes == o)) for o in ("win", "tie", "loss"))


def average_ranks(values) -> np.ndarray:
    """Ascending ranks 1..n of a 1-D array, ties sharing their mean rank.

    Equal to ``scipy.stats.rankdata(values, method="average")`` bit for
    bit: every average rank is a whole or half integer, so it is exact.
    As there, a NaN anywhere makes every rank NaN.
    """
    x = np.asarray(values, dtype=float)
    if np.isnan(x).any():
        return np.full(x.shape, np.nan)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], x.size]
    ranks = np.empty(x.shape)
    # Sorted positions start..end-1 hold ranks start+1..end.
    ranks[order] = np.repeat((starts + ends + 1) / 2, ends - starts)
    return ranks


def rank_and_mean_rank(metric_table):
    """Rank algorithms per metric and average the ranks per algorithm.

    Args:
        metric_table: array (n_algorithms, n_metrics) of metric means;
            higher is better everywhere.

    Returns:
        (ranks, mean_ranks): ranks has the table's shape with 1 = best
        and tied values sharing the average rank; mean_ranks averages
        each algorithm's row.
    """
    table = np.asarray(metric_table, dtype=float)
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
        raise ParameterError("metric table must be a nonempty 2-D array")
    ranks = np.column_stack(
        [average_ranks(-table[:, j]) for j in range(table.shape[1])]
    )
    return ranks, ranks.mean(axis=1)
