"""Confusion-matrix metrics, cross-validation folds, and table aggregation.

Conventions used throughout: label 1 is the positive class, all six
metrics live in [0, 1] and are multiplied by 100 only at reporting time,
and higher is better for every metric. Scores are plain float arrays:
`metrics` gives the six METRIC_NAMES values of one row of predictions,
or of each row of a stack, and a cross-validation's scores are one
array whose last axis holds the folds, which `fold_summary` reduces to
the five SUMMARY_NAMES statistics.
"""

import numpy as np

from .errors import ParameterError
from .mlp import Dataset
from .streams import named_rng

__all__ = [
    "METRIC_NAMES",
    "SUMMARY_NAMES",
    "fold_summary",
    "metrics",
    "error_enhancement",
    "kfold_split",
    "fold_datasets",
    "pair_outcomes",
    "average_ranks",
    "rank_and_mean_rank",
]

METRIC_NAMES = ("accuracy", "sensitivity", "specificity", "precision", "fscore", "gmean")

# Paired values closer than this either way are a tie.
TIE_TOL = 1e-9

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


def metrics(labels, predicted) -> np.ndarray:
    """The six METRIC_NAMES metrics of 0/1 predictions against 0/1 labels.

    labels is (n,) and predicted is (n,) or a stack (k, n), one row of
    predictions per classifier, giving a (6,) or (k, 6) array in [0, 1].
    A zero denominator (e.g. specificity on a fold without negatives)
    gives 0 for that metric instead of raising.
    """
    labels = np.asarray(labels)
    predicted = np.asarray(predicted)
    if labels.ndim != 1 or labels.size == 0:
        raise ParameterError("labels must be a nonempty 1-D array")
    if predicted.ndim not in (1, 2) or predicted.shape[-1] != labels.size:
        raise ParameterError(f"predictions of shape {predicted.shape} do not match "
                             f"{labels.size} labels")
    positive, hit = labels == 1, predicted == 1
    tp = np.count_nonzero(hit & positive, axis=-1)
    fp = np.count_nonzero(hit & ~positive, axis=-1)
    fn = np.count_nonzero(~hit & positive, axis=-1)
    tn = labels.size - tp - fp - fn
    # accuracy, sensitivity, specificity, precision and F-score
    numer = np.stack([tp + tn, tp, tn, tp, 2 * tp], axis=-1)
    denom = np.stack([tp + tn + fp + fn, tp + fn, tn + fp, tp + fp, 2 * tp + fp + fn], axis=-1)
    ratios = np.divide(numer, denom, out=np.zeros(denom.shape), where=denom > 0)
    gmean = np.sqrt(ratios[..., 1] * ratios[..., 2])
    return np.concatenate([ratios, gmean[..., None]], axis=-1)


def error_enhancement(base_metric_pct, codel_metric_pct):
    """Relative reduction of the error 100 - metric, in percent.

    Works elementwise on arrays (or scalars) of equal or broadcastable
    shape. Negative when the boosted variant scores below its base; a
    nan on either side gives nan.
    """
    base = np.asarray(base_metric_pct, dtype=float)
    codel = np.asarray(codel_metric_pct, dtype=float)
    # nan compares False, so only a number outside the range is caught.
    for value in base[(base < 0) | (base >= 100)][:1]:
        raise ParameterError(f"base metric must be in [0, 100), got {value}")
    for value in codel[(codel < 0) | (codel > 100)][:1]:
        raise ParameterError(f"boosted metric must be in [0, 100], got {value}")
    base_err = 100.0 - base
    return ((base_err - (100.0 - codel)) / base_err * 100.0)[()]


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
    classes = [np.flatnonzero(labels == value) for value in np.unique(labels)]
    for idx in classes:
        rng.shuffle(idx)
    # Position p of the shuffled classes, laid end to end, goes to fold p % k.
    order = np.concatenate(classes)
    return [np.sort(order[f::k]) for f in range(k)]


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
