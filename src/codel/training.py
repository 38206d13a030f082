"""Wiring of global search, refinement, and the evaluation grid.

A "variant" is one of twelve training procedures: each refinement
method either from random initial weights (its base form) or from the
best weights the global search found (its boosted form, prefixed
"codel-"). The evaluation grid runs every variant over every
cross-validation fold; tasks are independent, so they can spread over
worker processes, and results are collected by index so the output
never depends on completion order.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .evaluation import (
    METRIC_NAMES,
    CrossValidationResult,
    FoldSummary,
    confusion_from_predictions,
    error_enhancement,
    fold_datasets,
    metrics,
    pair_outcomes,
    rank_and_mean_rank,
    wtl,
)
from .errors import ParameterError
from .local_search import METHODS, LocalSearchConfig, refine
from .mlp import Dataset, MlpTopology, classification_error, predict
from .optimizer import CodelConfig, run_codel
from .streams import derive_seed, named_rng

__all__ = [
    "VARIANT_NAMES",
    "TrainedModel",
    "variant_name",
    "train_variant",
    "evaluate_grid",
    "paired_methods",
    "Comparison",
    "build_comparison",
]

# Base/boosted pairs in fixed report order.
VARIANT_NAMES = tuple(
    name for m in METHODS for name in (m, f"codel-{m}")
)


def variant_name(method: str, boosted: bool) -> str:
    return f"codel-{method}" if boosted else method


@dataclass(frozen=True)
class TrainedModel:
    """Refined weights plus the run facts a manifest needs."""

    params: np.ndarray
    topology: MlpTopology
    train_error: float
    nfe_used: int
    search_history: np.ndarray
    search_nfe: np.ndarray
    refine_loss: np.ndarray
    refine_error: np.ndarray


def train_variant(train: Dataset, seed: int, hidden, codel_config: CodelConfig,
                  ls_config: LocalSearchConfig, boosted: bool) -> TrainedModel:
    """Train one variant on one training split.

    The boosted form minimizes the classification error globally first
    and refines from its best weights; the base form refines from
    uniform random weights inside the same box.
    """
    topology = MlpTopology((train.n_features, *hidden, 1))

    if boosted:
        def objective(vectors):
            return classification_error(vectors, topology, train)

        search = run_codel(objective, topology.param_count,
                           replace(codel_config, seed=seed))
        start = search.best_params
        nfe_used = search.nfe
        history, nfe_history = search.history, search.nfe_history
    else:
        rng = named_rng(seed, "init")
        start = rng.uniform(codel_config.lower, codel_config.upper,
                            topology.param_count)
        nfe_used = 0
        history = np.array([])
        nfe_history = np.array([], dtype=int)

    refined = refine(start, topology, train, ls_config)
    return TrainedModel(
        params=refined.params,
        topology=topology,
        train_error=refined.final_train_error,
        nfe_used=nfe_used,
        search_history=history,
        search_nfe=nfe_history,
        refine_loss=refined.loss_history,
        refine_error=refined.error_history,
    )


def _grid_task(args):
    (method, boosted, train, test, task_seed, hidden,
     codel_config, ls_config) = args
    model = train_variant(train, task_seed, hidden, codel_config,
                          replace(ls_config, method=method), boosted)
    predictions = predict(model.params, model.topology, test.rows)
    return metrics(confusion_from_predictions(test.labels, predictions))


def evaluate_grid(dataset: Dataset, k: int, seed: int, hidden,
                  codel_config: CodelConfig, ls_config: LocalSearchConfig,
                  jobs: int = 1):
    """Cross-validate all twelve variants on one dataset.

    Task seeds derive from (seed, variant index, fold index), so results
    are identical whatever the worker count or completion order.

    Returns:
        dict variant name -> CrossValidationResult, in VARIANT_NAMES
        order.
    """
    if len(np.unique(dataset.labels)) < 2:
        raise ParameterError("evaluation needs both classes present")
    pairs = fold_datasets(dataset, k, seed)
    tasks = []
    for v, name in enumerate(VARIANT_NAMES):
        method = name.removeprefix("codel-")
        boosted = name.startswith("codel-")
        for f, (train, test) in enumerate(pairs):
            tasks.append((method, boosted, train, test,
                          derive_seed(seed, v, f), hidden,
                          codel_config, ls_config))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_grid_task, tasks))
    else:
        reports = [_grid_task(t) for t in tasks]

    results = {}
    for v, name in enumerate(VARIANT_NAMES):
        fold_reports = tuple(reports[v * k: (v + 1) * k])
        summaries = {
            metric: FoldSummary.from_values([getattr(r, metric) for r in fold_reports])
            for metric in METRIC_NAMES
        }
        results[name] = CrossValidationResult(fold_reports, summaries)
    return results


def paired_methods(names):
    """Base/boosted pairs present in a list of algorithm names.

    Pairing is purely by the name convention `x` / `codel-x`, so tables
    with extra or missing algorithms still compare whatever pairs exist.
    """
    present = set(names)
    return [
        (base, f"codel-{base}")
        for base in names
        if not base.startswith("codel-") and f"codel-{base}" in present
    ]


@dataclass(frozen=True)
class Comparison:
    """Rank, W/T/L, and error-enhancement view of one means table."""

    names: tuple
    means_pct: np.ndarray
    ranks: np.ndarray
    mean_ranks: np.ndarray
    wtl_per_metric: dict
    pairs: tuple
    outcomes: dict
    ee_table: np.ndarray


def build_comparison(names, means_pct) -> Comparison:
    """Derive every cross-algorithm statistic from a means table.

    Args:
        names: algorithm names, one per row.
        means_pct: array (n_algorithms, 6) of metric means in percent,
            columns in METRIC_NAMES order.
    """
    names = tuple(names)
    means_pct = np.asarray(means_pct, dtype=float)
    if means_pct.shape != (len(names), len(METRIC_NAMES)):
        raise ParameterError(
            f"means table shape {means_pct.shape} does not match "
            f"{len(names)} algorithms x {len(METRIC_NAMES)} metrics"
        )
    ranks, mean_ranks = rank_and_mean_rank(means_pct)
    pairs = tuple(paired_methods(names))
    row = {name: i for i, name in enumerate(names)}

    base = means_pct[[row[b] for b, _ in pairs]]
    boosted = means_pct[[row[c] for _, c in pairs]]
    wtl_per_metric = {
        metric: wtl(base[:, j], boosted[:, j]) for j, metric in enumerate(METRIC_NAMES)
    }
    outcomes = {c: tuple(o.tolist()) for (_, c), o in zip(pairs, pair_outcomes(base, boosted))}

    def safe_ee(base_pct: float, boosted_pct: float) -> float:
        # A perfect base score leaves no error to reduce, and a missing
        # (nan) cell leaves nothing to compare, so the enhancement is
        # undefined there; nan keeps the table shape without crashing
        # the whole report.
        if base_pct >= 100.0 or np.isnan(base_pct) or np.isnan(boosted_pct):
            return float("nan")
        return error_enhancement(base_pct, boosted_pct)

    ee_table = np.array([
        [safe_ee(b, c) for b, c in zip(base_row, boosted_row)]
        for base_row, boosted_row in zip(base, boosted)
    ]).reshape(len(pairs), len(METRIC_NAMES))

    return Comparison(
        names=names,
        means_pct=means_pct,
        ranks=ranks,
        mean_ranks=mean_ranks,
        wtl_per_metric=wtl_per_metric,
        pairs=pairs,
        outcomes=outcomes,
        ee_table=ee_table,
    )
