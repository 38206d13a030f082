"""Wiring of global search, refinement, and the evaluation grid.

A "variant" is one of twelve training procedures: each refinement
method either from random initial weights (its base form) or from the
best weights the global search found (its boosted form, prefixed
"codel-"). `train_methods` is the one path from a training split to
refined weights: as in the paper, one global search feeds every
boosted refiner, each base refiner starts from its own random weights,
and all of them refine in lockstep. The `train` command runs it for
one method; the evaluation grid runs it twice per cross-validation
fold, once per form, over all six methods. Grid tasks are independent,
so they can spread over worker processes, and results are collected by
position, so the output never depends on the worker count or
completion order. The pool's modules (`concurrent.futures` and
`multiprocessing`) load only when a grid runs with more than one job,
so `train` and a one-worker `evaluate` never load them.
`build_comparison` turns a means table into ranks, W/T/L counts and
error enhancements, one array pass over its pairs.
"""

from dataclasses import dataclass, replace

import numpy as np

from .evaluation import (
    METRIC_NAMES,
    error_enhancement,
    fold_datasets,
    metrics,
    pair_outcomes,
    rank_and_mean_rank,
)
from .errors import ParameterError
from .local_search import METHODS, LocalSearchConfig, refine_many
from .mlp import Dataset, MlpTopology, classification_error, predict
from .optimizer import CodelConfig, run_codel
from .streams import derive_seed, named_rng

__all__ = [
    "VARIANT_NAMES",
    "variant_name",
    "train_methods",
    "evaluate_grid",
    "paired_methods",
    "Comparison",
    "build_comparison",
]


def variant_name(method: str, boosted: bool) -> str:
    return f"codel-{method}" if boosted else method


# Base/boosted pairs in fixed report order.
VARIANT_NAMES = tuple(variant_name(m, boosted) for m in METHODS for boosted in (False, True))


def train_methods(train: Dataset, seeds, methods, hidden, codel_config: CodelConfig,
                  ls_config: LocalSearchConfig, boosted: bool):
    """Refine one run per method on one training split, in lockstep.

    The boosted form runs one global search of the classification error,
    seeded seeds[0], and every run starts from its best weights; the
    base form starts run i from uniform random weights inside the same
    box, seeded seeds[i].

    Returns:
        (topology, search result or None, one RefineResult per method).
    """
    topology = MlpTopology((train.n_features, *hidden, 1))
    search = None
    if boosted:
        search = run_codel(lambda v: classification_error(v, topology, train),
                           topology.param_count, replace(codel_config, seed=seeds[0]))
        starts = [search.best_params] * len(methods)
    else:
        starts = [named_rng(s, "init").uniform(codel_config.lower, codel_config.upper,
                                               topology.param_count) for s in seeds]
    return topology, search, refine_many(starts, methods, topology, train, ls_config)


def _grid_task(args):
    """One fold's six refiners on its training rows, in lockstep, and
    their scores on the fold's test rows: one stacked `predict` of the
    six refined nets and one `metrics` call give a (methods, metrics)
    array, one row per method in METHODS order."""
    boosted, train, test, seeds, hidden, codel_config, ls_config = args
    topology, _, results = train_methods(train, seeds, METHODS, hidden,
                                         codel_config, ls_config, boosted)
    return metrics(test.labels, predict(np.stack([r.params for r in results]),
                                        topology, test.rows))


def evaluate_grid(dataset: Dataset, k: int, seed: int, hidden,
                  codel_config: CodelConfig, ls_config: LocalSearchConfig,
                  jobs: int = 1):
    """Cross-validate all twelve variants on one dataset.

    Each fold runs one global search, seeded from (seed, len(VARIANT_NAMES),
    fold index), and its best weights start all six boosted refiners of
    that fold, as in the paper. Each base variant refines from its own
    random start, seeded from (seed, variant index, fold index). A fold
    is two tasks, each refining its six runs in lockstep: the boosted
    runs after the search, and the base runs. The k search tasks are
    queued first, since they take longest; results are collected by
    position, so they are identical whatever the worker count or
    completion order.

    Returns:
        C-contiguous float array (len(VARIANT_NAMES), len(METRIC_NAMES),
        k) of test-fold scores in [0, 1], in VARIANT_NAMES, METRIC_NAMES
        and fold order; `evaluation.fold_summary` reduces its fold axis.
    """
    if len(np.unique(dataset.labels)) < 2:
        raise ParameterError("evaluation needs both classes present")
    pairs = fold_datasets(dataset, k, seed)
    tasks = [
        (True, train, test, (derive_seed(seed, len(VARIANT_NAMES), f),),
         hidden, codel_config, ls_config)
        for f, (train, test) in enumerate(pairs)
    ]
    tasks += [
        (False, train, test,
         tuple(derive_seed(seed, VARIANT_NAMES.index(m), f) for m in METHODS),
         hidden, codel_config, ls_config)
        for f, (train, test) in enumerate(pairs)
    ]

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Forked pools start every worker up front, so ask for no more
        # than there are tasks.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            task_scores = list(pool.map(_grid_task, tasks))
    else:
        task_scores = [_grid_task(t) for t in tasks]

    # Tasks run (form, fold) with the boosted form first, each scoring
    # (method, metric); VARIANT_NAMES lists each method's base form
    # first, so the form axis is reversed before it joins the method's.
    scores = np.reshape(task_scores, (2, k, len(METHODS), len(METRIC_NAMES)))[::-1]
    return np.ascontiguousarray(scores.transpose(2, 0, 3, 1)).reshape(
        len(VARIANT_NAMES), len(METRIC_NAMES), k)


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
    """Ranks, W/T/L and error enhancement of one means table, as arrays:
    rows of `outcomes` and `ee_table` follow `pairs`, and `wtl` counts
    the wins, ties and losses of each `outcomes` column, one row each."""

    names: tuple
    ranks: np.ndarray
    mean_ranks: np.ndarray
    wtl: np.ndarray
    pairs: tuple
    outcomes: np.ndarray
    ee_table: np.ndarray


def build_comparison(names, means_pct) -> Comparison:
    """Derive every cross-algorithm statistic from a means table.

    One `pair_outcomes` and one `error_enhancement` call score every
    base/boosted cell pair. A base at 100 leaves no error to reduce, and
    a nan cell nothing to compare, so their enhancement is nan.

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
    base = means_pct[[names.index(b) for b, _ in pairs]]
    boosted = means_pct[[names.index(c) for _, c in pairs]]
    outcomes = pair_outcomes(base, boosted)
    return Comparison(
        names=names, ranks=ranks, mean_ranks=mean_ranks, pairs=pairs, outcomes=outcomes,
        wtl=np.count_nonzero(outcomes[..., None] == ["win", "tie", "loss"], axis=0),
        ee_table=error_enhancement(np.where(base >= 100.0, np.nan, base), boosted),
    )
