"""Wiring of global search, refinement, and the evaluation grid.

A "variant" is one of twelve training procedures: each refinement
method either from random initial weights (its base form) or from the
best weights the global search found (its boosted form, prefixed
"codel-"). `train_methods` is the one path from a training split to
refined weights: as in the paper, one global search feeds every
boosted refiner, each base refiner starts from its own random weights,
and all of them refine in lockstep. The `train` command runs it for
one method. The evaluation grid has two units per cross-validation
fold, one per form, each the six methods' runs; it deals the units into
one shard per worker, and a shard refines all its units' runs, across
folds, in one lockstep, or in a few when it is wider than a fixed cap.
Shards are independent, so they can spread over
worker processes, and results are collected by position, so the output
never depends on the worker count or completion order. The pool's
modules (`concurrent.futures` and `multiprocessing`) load only when a
grid runs with more than one job, so `train` and a one-worker
`evaluate` never load them.
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


def _starts(train: Dataset, seeds, methods, hidden, codel_config: CodelConfig,
            boosted: bool):
    """The topology, the search result or None, and one start per method
    of `train_methods`."""
    topology = MlpTopology((train.n_features, *hidden, 1))
    if boosted:
        search = run_codel(lambda v: classification_error(v, topology, train),
                           topology.param_count, replace(codel_config, seed=seeds[0]))
        return topology, search, [search.best_params] * len(methods)
    return topology, None, [named_rng(s, "init").uniform(codel_config.lower, codel_config.upper,
                                                         topology.param_count) for s in seeds]


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
    topology, search, starts = _starts(train, seeds, methods, hidden, codel_config, boosted)
    return topology, search, refine_many(starts, methods, topology, [train] * len(methods),
                                         ls_config)


# A shard of grid units runs as one task only while its widest
# activation, runs x widest layer (the input included) x training rows,
# stays within this many doubles (800 kB). A larger shard is cut into
# tasks that do, down to one unit per task. At 13 inputs and 240 rows a
# unit holds 6 x 13 x 240 = 18,720 doubles, so 30-run tasks stay whole
# and the one-job grid's 60 runs split into two of them: at one job, 60
# runs in one lockstep were slower than two 30-run tasks, and 18-run
# tasks slower again (ROADMAP, "Larger lockstep stacks").
_SHARD_DOUBLES = 100_000


def _grid_task(units):
    """The scores of a list of grid units, each one fold's six refiners
    in one form: first every unit's starts (a boosted unit runs its
    fold's search), then one `refine_many` over all their runs, each on
    its own fold's training rows, and per unit one stacked `predict` of
    its six refined nets on the fold's test rows and one `metrics` call.
    Returns one (methods, metrics) array per unit, a row per method in
    METHODS order. The units come from one grid, so they share hidden
    and both configs."""
    starts, sets = [], []
    for boosted, train, _, seeds, hidden, codel_config, _ in units:
        topology, _, unit_starts = _starts(train, seeds, METHODS, hidden, codel_config, boosted)
        starts += unit_starts
        sets += [train] * len(METHODS)
    results = refine_many(starts, METHODS * len(units), topology, sets, units[0][-1])
    n = len(METHODS)
    return [metrics(test.labels, predict(np.stack([r.params for r in results[u * n:(u + 1) * n]]),
                                         topology, test.rows))
            for u, (_, _, test, *_) in enumerate(units)]


def _shards(units, jobs: int):
    """Unit indices per grid task. Unit p, in (form, fold) order with
    the boosted form first, goes to shard p mod J, J = min(jobs, units),
    so every shard is nonempty and mixes boosted and base units. A shard
    whose widest activation would pass `_SHARD_DOUBLES` is cut into
    consecutive runs of units that stay within it, each at least one."""
    n_shards = min(jobs, len(units))
    tasks = []
    for shard in range(n_shards):
        task, size = [], 0
        for p in range(shard, len(units), n_shards):
            train, hidden = units[p][1], units[p][4]
            doubles = len(METHODS) * max((train.n_features, *hidden)) * len(train)
            if task and size + doubles > _SHARD_DOUBLES:
                tasks.append(task)
                task, size = [], 0
            task.append(p)
            size += doubles
        tasks.append(task)
    return tasks


def evaluate_grid(dataset: Dataset, k: int, seed: int, hidden,
                  codel_config: CodelConfig, ls_config: LocalSearchConfig,
                  jobs: int = 1):
    """Cross-validate all twelve variants on one dataset.

    Each fold runs one global search, seeded from (seed, len(VARIANT_NAMES),
    fold index), and its best weights start all six boosted refiners of
    that fold, as in the paper. Each base variant refines from its own
    random start, seeded from (seed, variant index, fold index). A fold
    is two units of six runs: the boosted runs after the search, and the
    base runs. The 2k units are dealt round-robin into min(jobs, 2k)
    shards (`_shards`), and each shard is one task that refines all its
    units' runs in one lockstep, so a worker's stacks stay wide across
    folds; a shard past `_SHARD_DOUBLES` is cut into several. Results are collected by position, and a run's result does
    not depend on the runs beside it, so the scores are identical
    whatever the worker count or completion order.

    Returns:
        C-contiguous float array (len(VARIANT_NAMES), len(METRIC_NAMES),
        k) of test-fold scores in [0, 1], in VARIANT_NAMES, METRIC_NAMES
        and fold order; `evaluation.fold_summary` reduces its fold axis.
    """
    if len(np.unique(dataset.labels)) < 2:
        raise ParameterError("evaluation needs both classes present")
    pairs = fold_datasets(dataset, k, seed)
    units = [
        (True, train, test, (derive_seed(seed, len(VARIANT_NAMES), f),),
         hidden, codel_config, ls_config)
        for f, (train, test) in enumerate(pairs)
    ]
    units += [
        (False, train, test,
         tuple(derive_seed(seed, VARIANT_NAMES.index(m), f) for m in METHODS),
         hidden, codel_config, ls_config)
        for f, (train, test) in enumerate(pairs)
    ]
    tasks = _shards(units, jobs)
    task_units = [[units[p] for p in task] for task in tasks]

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Forked pools start every worker up front, so ask for no more
        # than there are tasks.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            task_scores = list(pool.map(_grid_task, task_units))
    else:
        task_scores = [_grid_task(t) for t in task_units]
    unit_scores = [None] * len(units)
    for task, scores in zip(tasks, task_scores):
        for p, score in zip(task, scores):
            unit_scores[p] = score

    # Units run (form, fold) with the boosted form first, each scoring
    # (method, metric); VARIANT_NAMES lists each method's base form
    # first, so the form axis is reversed before it joins the method's.
    scores = np.reshape(unit_scores, (2, k, len(METHODS), len(METRIC_NAMES)))[::-1]
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
