"""Wiring of global search, refinement, and the evaluation grid.

A "variant" is one of twelve training procedures: each refinement
method either from random initial weights (its base form) or from the
best weights the global search found (its boosted form, prefixed
"codel-"). `train_methods` is the one path from a training split to
refined weights: as in the paper, one global search feeds every
boosted refiner, each base refiner starts from its own random weights,
and all of them refine in lockstep. The `train` command runs it for
one method. The evaluation grid has two units per cross-validation
fold, (form, fold): each is the six methods' runs in one form. It deals
the units into one shard per worker and cuts each shard into tasks of a
fixed number of units, sized by the largest fold; a task refines all
its units' runs, across folds, in one lockstep. Tasks are independent,
so they can spread over worker processes, and each unit's scores go to
its own (form, fold) place, so the output never depends on the worker
count, the cut or completion order. The pool's modules
(`concurrent.futures` and `multiprocessing`) load only when a grid runs
with more than one job, so `train` and a one-worker `evaluate` never
load them.
`build_comparison` turns a means table into ranks, W/T/L counts and
error enhancements, one array pass over its pairs.
"""

from dataclasses import dataclass, replace
from functools import partial

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


def _starts(train: Dataset, seeds, methods, topology: MlpTopology,
            codel_config: CodelConfig, boosted: bool):
    """The search result or None, and one start per method of
    `train_methods`."""
    if boosted:
        search = run_codel(lambda v: classification_error(v, topology, train),
                           topology.param_count, replace(codel_config, seed=seeds[0]))
        return search, [search.best_params] * len(methods)
    return None, [named_rng(s, "init").uniform(codel_config.lower, codel_config.upper,
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
    topology = MlpTopology((train.n_features, *hidden, 1))
    search, starts = _starts(train, seeds, methods, topology, codel_config, boosted)
    return topology, search, refine_many(starts, methods, topology, [train] * len(methods),
                                         ls_config)


# A grid task holds as many units as keep its widest activation, runs x
# widest layer (the input included) x training rows, within this many
# doubles (800 kB), and at least one, a unit sized by the largest
# training set. At 13 inputs and 240 rows a unit holds 18,720 doubles,
# so a task holds 5 units (30 runs) and the one-job grid runs as two:
# at one job, 60 runs in one lockstep were slower than two 30-run
# tasks, and 18-run tasks slower again (ROADMAP, "Larger lockstep stacks").
_SHARD_DOUBLES = 100_000


def _grid_task(units, pairs, seed, hidden, codel_config, ls_config):
    """The scores of a list of grid units, each (boosted, fold index),
    one fold's six refiners in one form: first every unit's starts (a
    boosted unit runs its fold's search), seeded as `evaluate_grid`
    says, then one `refine_many` over all their runs, each on its own
    fold's training rows, and per unit one stacked `predict` of its six
    refined nets on the fold's test rows and one `metrics` call.
    Returns one (methods, metrics) array per unit, a row per method in
    METHODS order."""
    topology = MlpTopology((pairs[0][0].n_features, *hidden, 1))
    starts, sets = [], []
    for boosted, f in units:
        seeds = ((derive_seed(seed, len(VARIANT_NAMES), f),) if boosted else
                 tuple(derive_seed(seed, VARIANT_NAMES.index(m), f) for m in METHODS))
        train = pairs[f][0]
        _, unit_starts = _starts(train, seeds, METHODS, topology, codel_config, boosted)
        starts += unit_starts
        sets += [train] * len(METHODS)
    results = refine_many(starts, METHODS * len(units), topology, sets, ls_config)
    n = len(METHODS)
    return [metrics(pairs[f][1].labels,
                    predict(np.stack([r.params for r in results[u * n:(u + 1) * n]]),
                            topology, pairs[f][1].rows))
            for u, (_, f) in enumerate(units)]


def _shards(units, pairs, hidden, jobs: int):
    """The grid's tasks, each a list of units. Unit p goes to shard
    p mod J, J = min(jobs, units), so every shard is nonempty and, with
    the boosted units first, mixes both forms. Each shard is cut into
    consecutive tasks of `_SHARD_DOUBLES` // (one unit's doubles) units,
    at least one, a unit sized by the largest training set in `pairs`."""
    n_shards = min(jobs, len(units))
    unit_doubles = (len(METHODS) * max((pairs[0][0].n_features, *hidden))
                    * max(len(train) for train, _ in pairs))
    size = max(1, _SHARD_DOUBLES // unit_doubles)
    return [shard[i:i + size] for shard in (units[s::n_shards] for s in range(n_shards))
            for i in range(0, len(shard), size)]


def evaluate_grid(dataset: Dataset, k: int, seed: int, hidden,
                  codel_config: CodelConfig, ls_config: LocalSearchConfig,
                  jobs: int = 1):
    """Cross-validate all twelve variants on one dataset.

    Each fold runs one global search, seeded from (seed, len(VARIANT_NAMES),
    fold index), and its best weights start all six boosted refiners of
    that fold, as in the paper. Each base variant refines from its own
    random start, seeded from (seed, variant index, fold index). A fold
    is two units, (boosted, fold index): the six boosted runs after the
    search, and the six base runs. The 2k units, boosted first, are
    dealt round-robin into min(jobs, 2k) shards, and `_shards` cuts each
    shard into tasks of a fixed number of units, sized by the largest
    training set. A task refines all its units' runs in one lockstep, so
    a worker's stacks stay wide across folds. Each unit's scores fill
    its own (form, fold) place, and a run's result does not depend on
    the runs beside it, so the scores are identical whatever the worker
    count, the cut or the completion order.

    Returns:
        C-contiguous float array (len(VARIANT_NAMES), len(METRIC_NAMES),
        k) of test-fold scores in [0, 1], in VARIANT_NAMES, METRIC_NAMES
        and fold order; `evaluation.fold_summary` reduces its fold axis.
    """
    if jobs < 1:
        raise ParameterError(f"jobs must be >= 1, got {jobs}")
    if len(np.unique(dataset.labels)) < 2:
        raise ParameterError("evaluation needs both classes present")
    pairs = fold_datasets(dataset, k, seed)
    tasks = _shards([(boosted, f) for boosted in (True, False) for f in range(k)],
                    pairs, hidden, jobs)
    task = partial(_grid_task, pairs=pairs, seed=seed, hidden=hidden,
                   codel_config=codel_config, ls_config=ls_config)

    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # Forked pools start every worker up front, so ask for no more
        # than there are tasks.
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            task_scores = list(pool.map(task, tasks))
    else:
        task_scores = [task(units) for units in tasks]
    scores = np.empty((2, k, len(METHODS), len(METRIC_NAMES)))
    for units, unit_scores in zip(tasks, task_scores):
        for (boosted, f), score in zip(units, unit_scores):
            scores[int(boosted), f] = score
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
