import concurrent.futures
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import codel.training as training
from codel.datasets import two_gaussian_dataset, xor_dataset
from codel.errors import ParameterError
from codel.evaluation import (
    METRIC_NAMES,
    fold_datasets,
    metrics,
)
from codel.local_search import METHODS, LocalSearchConfig, refine_many
from codel.mlp import Dataset, MlpTopology, classification_error, predict
from codel.optimizer import CodelConfig, run_codel
from codel.streams import derive_seed, named_rng
from codel.training import (
    VARIANT_NAMES,
    build_comparison,
    evaluate_grid,
    paired_methods,
    train_methods,
    variant_name,
)

_TINY_DATA = two_gaussian_dataset(n_per_class=12, n_features=2,
                                  separation=1.0, seed=5)
_TINY_CODEL = CodelConfig(population_size=8, nfe_max=160, seed=0)
_TINY_LS = LocalSearchConfig(epochs=20, patience=20)


def _serial_pool(monkeypatch) -> list:
    """Stand in a pool that maps in this process for ProcessPoolExecutor;
    returns the list of max_workers each pool is asked for."""
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return asked


def _tiny_grid(jobs: int = 1, seed: int = 2):
    return evaluate_grid(_TINY_DATA, 4, seed, (3,), _TINY_CODEL, _TINY_LS,
                         jobs=jobs)


class TestVariantNames:

    def test_order_and_count(self):
        assert len(VARIANT_NAMES) == 12
        for i, method in enumerate(METHODS):
            assert VARIANT_NAMES[2 * i] == method
            assert VARIANT_NAMES[2 * i + 1] == f"codel-{method}"

    def test_variant_name(self):
        assert variant_name("rp", boosted=False) == "rp"
        assert variant_name("rp", boosted=True) == "codel-rp"


class TestPairedMethods:

    def test_full_grid_pairs_every_method(self):
        pairs = paired_methods(VARIANT_NAMES)
        assert pairs == [(m, f"codel-{m}") for m in METHODS]

    def test_unpaired_names_dropped(self):
        assert paired_methods(["rp", "codel-rp", "oss", "codel-gd"]) == [
            ("rp", "codel-rp")
        ]
        assert paired_methods(["alone"]) == []
        assert paired_methods([]) == []


class TestTrainMethods:

    def test_base_form_skips_global_search(self):
        topology, search, (refined,) = train_methods(_TINY_DATA, (7,), ("rp",), (3,),
                                                     _TINY_CODEL, _TINY_LS, boosted=False)
        assert search is None
        assert topology.layer_sizes == (2, 3, 1)
        assert refined.params.shape == (topology.param_count,)

    def test_boosted_form_reports_search(self):
        _, search, (refined,) = train_methods(_TINY_DATA, (7,), ("rp",), (3,),
                                              _TINY_CODEL, _TINY_LS, boosted=True)
        assert 0 < search.nfe <= 160 + 8
        assert search.history.size > 0
        assert np.all(np.diff(search.history) <= 0)
        # The refiner starts at the searched weights, so it can only
        # hold or improve the searched training error.
        assert refined.final_train_error <= search.history[-1] + 1e-12

    def test_train_error_matches_weights(self):
        topology, _, (refined,) = train_methods(_TINY_DATA, (3,), ("rp",), (3,),
                                                _TINY_CODEL, _TINY_LS, boosted=True)
        assert refined.final_train_error == classification_error(
            refined.params, topology, _TINY_DATA
        )

    def test_seed_determinism(self):
        def params(seed):
            return train_methods(_TINY_DATA, (seed,), ("rp",), (3,), _TINY_CODEL,
                                 _TINY_LS, True)[2][0].params

        a, b = params(9), params(9)
        np.testing.assert_array_equal(a, b)
        c = params(10)
        assert not np.array_equal(a, c)

    def test_xor_is_learnable(self):
        config = CodelConfig(population_size=10, nfe_max=2000, seed=0)
        ls = LocalSearchConfig(epochs=200)
        _, _, (refined,) = train_methods(xor_dataset(), (0,), ("rp",), (4,), config, ls, True)
        assert refined.final_train_error == 0.0

    def test_predictor_contract(self):
        """The refined weights map a row matrix to one 0/1 label per row."""
        topology, _, (refined,) = train_methods(_TINY_DATA, (4,), ("rp",), (3,),
                                                _TINY_CODEL, _TINY_LS, boosted=False)
        out = predict(refined.params, topology, _TINY_DATA.rows)
        assert out.shape == (len(_TINY_DATA.labels),)
        assert set(np.unique(out)) <= {0, 1}


class TestLockstepEqualsOneMethod:

    @staticmethod
    def _assert_same(a, b):
        assert a.params.tobytes() == b.params.tobytes()
        assert a.loss_history.tobytes() == b.loss_history.tobytes()
        assert a.error_history.tobytes() == b.error_history.tobytes()
        assert a.stop_reason == b.stop_reason

    def test_boosted_runs_one_search_for_every_method(self, monkeypatch):
        searches = []

        def spy_run_codel(*args, _run_codel=training.run_codel):
            searches.append(args)
            return _run_codel(*args)

        monkeypatch.setattr(training, "run_codel", spy_run_codel)
        _, search, together = train_methods(_TINY_DATA, (5,), METHODS, (3,),
                                            _TINY_CODEL, _TINY_LS, True)
        assert len(searches) == 1
        monkeypatch.undo()

        for method, result in zip(METHODS, together):
            _, alone_search, (alone,) = train_methods(_TINY_DATA, (5,), (method,), (3,),
                                                      _TINY_CODEL, _TINY_LS, True)
            assert alone_search.best_params.tobytes() == search.best_params.tobytes()
            self._assert_same(result, alone)

    def test_base_runs_equal_one_seed_calls(self):
        seeds = tuple(range(11, 11 + len(METHODS)))
        _, search, together = train_methods(_TINY_DATA, seeds, METHODS, (3,),
                                            _TINY_CODEL, _TINY_LS, False)
        assert search is None
        for seed, method, result in zip(seeds, METHODS, together):
            (alone,) = train_methods(_TINY_DATA, (seed,), (method,), (3,),
                                     _TINY_CODEL, _TINY_LS, False)[2]
            self._assert_same(result, alone)


class TestGridTask:

    def test_test_labels_never_reach_training(self, monkeypatch):
        """Label-poisoning canary, for a base task and a shared-search fold
        task: flipping test labels moves every score but leaves the
        training inputs, and the fold's search, untouched."""
        rng = np.random.default_rng(10)
        train = Dataset(rng.normal(0, 1, (20, 2)), rng.integers(0, 2, 20))
        rows = rng.normal(0.5, 1, (10, 2))
        test = Dataset(rows, (rows[:, 0] > 0.3).astype(int))
        poisoned = Dataset(test.rows, 1 - test.labels)

        seen = []

        def recording_refine_many(starts, methods, topology, data, config):
            seen.extend(zip(starts, methods, data))
            # One hidden unit sigmoid(x0), output bias -0.5: class 1 where x0 >= 0.
            return [SimpleNamespace(params=np.array([1.0, 0.0, 0.0, 1.0, -0.5]))
                    for _ in starts]

        monkeypatch.setattr(training, "refine_many", recording_refine_many)
        for boosted in (False, True):
            seen.clear()
            a, b = (training._grid_task([(boosted, 0)], [(train, fold)], 0, (1,),
                                        _TINY_CODEL, _TINY_LS)[0]
                    for fold in (test, poisoned))

            assert a.shape == b.shape == (len(METHODS), len(METRIC_NAMES))
            accuracy = METRIC_NAMES.index("accuracy")
            assert all(ra[accuracy] != rb[accuracy] for ra, rb in zip(a, b))
            assert [method for _, method, _ in seen] == 2 * list(METHODS)
            assert all(arg is not fold for args in seen for arg in args
                       for fold in (test, poisoned))
            clean, dirty = seen[:len(METHODS)], seen[len(METHODS):]
            for (start_a, _, train_a), (start_b, _, train_b) in zip(clean, dirty):
                assert start_a.tobytes() == start_b.tobytes()
                np.testing.assert_array_equal(train_a.rows, train_b.rows)
                np.testing.assert_array_equal(train_a.labels, train_b.labels)


class TestSharedSearch:

    def test_one_search_per_fold_starts_every_boosted_refiner(self, monkeypatch):
        """Each fold's six boosted refiners start from that fold's one
        search; the base variants keep their own tasks and seeds."""
        seed, k, hidden = 2, 4, (3,)
        calls = []

        def spy_refine_many(starts, methods, topology, data, config,
                            _refine_many=training.refine_many):
            calls.extend((np.array(start), train, method)
                         for start, method, train in zip(starts, methods, data))
            return _refine_many(starts, methods, topology, data, config)

        monkeypatch.setattr(training, "refine_many", spy_refine_many)
        scores = evaluate_grid(_TINY_DATA, k, seed, hidden, _TINY_CODEL, _TINY_LS)
        monkeypatch.undo()

        pairs = fold_datasets(_TINY_DATA, k, seed)
        assert len(calls) == 2 * len(METHODS) * k
        topology = MlpTopology((_TINY_DATA.n_features, *hidden, 1))
        for f, (train, test) in enumerate(pairs):
            boosted = calls[f * len(METHODS): (f + 1) * len(METHODS)]
            assert [method for _, _, method in boosted] == list(METHODS)
            search = run_codel(
                lambda v: classification_error(v, topology, train),
                topology.param_count,
                replace(_TINY_CODEL, seed=derive_seed(seed, len(VARIANT_NAMES), f)),
            )
            for initial, data, _ in boosted:
                assert initial.tobytes() == search.best_params.tobytes()
                np.testing.assert_array_equal(data.rows, train.rows)

        for v, name in enumerate(VARIANT_NAMES):
            if name.startswith("codel-"):
                continue
            for f, (train, test) in enumerate(pairs):
                start = named_rng(derive_seed(seed, v, f), "init").uniform(
                    _TINY_CODEL.lower, _TINY_CODEL.upper, topology.param_count)
                refined = refine_many([start], [name], topology, [train], _TINY_LS)[0]
                predictions = predict(refined.params, topology, test.rows)
                assert scores[v, :, f].tolist() == metrics(test.labels, predictions).tolist()


class TestEvaluateGrid:

    def test_grid_shape(self):
        scores = _tiny_grid()
        assert scores.shape == (len(VARIANT_NAMES), len(METRIC_NAMES), 4)
        assert scores.dtype == float and scores.flags.c_contiguous

    def test_deterministic_across_calls(self):
        np.testing.assert_array_equal(_tiny_grid(), _tiny_grid())

    def test_worker_count_is_invisible(self):
        """Task seeds are positional, so a process pool changes nothing."""
        np.testing.assert_array_equal(_tiny_grid(jobs=1), _tiny_grid(jobs=2))

    def test_pool_never_outnumbers_tasks(self, monkeypatch):
        """A forked pool starts all its workers at once, so it is asked
        for no more workers than the grid has tasks."""
        asked = _serial_pool(monkeypatch)

        def grid(jobs):
            return evaluate_grid(_TINY_DATA, 2, 2, (3,), _TINY_CODEL, _TINY_LS,
                                 jobs=jobs).tolist()

        serial = grid(jobs=1)
        assert asked == []
        assert grid(jobs=1000) == serial
        # A boosted and a base unit on each of the 2 folds, one shard each.
        assert asked == [2 * 2]

    def test_scores_identical_at_any_shard_count(self, monkeypatch):
        """24 rows in 5 folds give training sets of 19 and 20 rows; one
        shard, 2, 3 and one per unit score alike."""
        k = 5
        splits = fold_datasets(_TINY_DATA, k, 2)
        assert len({len(train) for train, _ in splits}) == 2
        asked = _serial_pool(monkeypatch)
        serial = evaluate_grid(_TINY_DATA, k, 2, (3,), _TINY_CODEL, _TINY_LS)
        for jobs in (2, 3, 2 * k + 1):
            scores = evaluate_grid(_TINY_DATA, k, 2, (3,), _TINY_CODEL, _TINY_LS, jobs=jobs)
            assert scores.tobytes() == serial.tobytes()
        assert asked == [2, 3, 2 * k]

    def test_split_under_the_cap_gives_identical_scores(self, monkeypatch):
        """A cap below one unit cuts every shard into one-unit tasks, and
        the scores stay the same."""
        whole = _tiny_grid()
        monkeypatch.setattr(training, "_SHARD_DOUBLES", 1)
        calls = []

        def spy_grid_task(units, _grid_task=training._grid_task, **shared):
            calls.append(len(units))
            return _grid_task(units, **shared)

        monkeypatch.setattr(training, "_grid_task", spy_grid_task)
        assert _tiny_grid().tobytes() == whole.tobytes()
        assert calls == [1] * 8

    def test_unequal_folds_are_cut_by_the_largest(self, monkeypatch):
        """24 rows in 5 folds give training sets of 19 and 20 rows. A cap
        of exactly two units of the 20-row set cuts the one-job grid's 10
        units into 5 tasks of 2, and one double less into 10 tasks of 1,
        though two 19-row units would still fit; the scores stay the
        same."""
        k = 5
        splits = fold_datasets(_TINY_DATA, k, 2)
        assert sorted({len(train) for train, _ in splits}) == [19, 20]
        whole = evaluate_grid(_TINY_DATA, k, 2, (3,), _TINY_CODEL, _TINY_LS)
        calls = []

        def spy_grid_task(units, _grid_task=training._grid_task, **shared):
            calls.append(len(units))
            return _grid_task(units, **shared)

        monkeypatch.setattr(training, "_grid_task", spy_grid_task)
        two_units = 2 * len(METHODS) * max(_TINY_DATA.n_features, 3) * 20
        for cap, sizes in ((two_units, [2] * k), (two_units - 1, [1] * 2 * k)):
            calls.clear()
            monkeypatch.setattr(training, "_SHARD_DOUBLES", cap)
            scores = evaluate_grid(_TINY_DATA, k, 2, (3,), _TINY_CODEL, _TINY_LS)
            assert scores.tobytes() == whole.tobytes()
            assert calls == sizes

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_fewer_than_one_job_refused_before_any_fold(self, jobs, monkeypatch):
        def no_folds(*args):
            raise AssertionError("folds built")

        monkeypatch.setattr(training, "fold_datasets", no_folds)
        with pytest.raises(ParameterError, match="jobs"):
            evaluate_grid(_TINY_DATA, 2, 0, (3,), _TINY_CODEL, _TINY_LS, jobs=jobs)

    def test_units_are_dealt_round_robin(self):
        """Unit p, boosted units first, goes to shard p mod J: at J = 2
        and k = 5 a shard holds 3 boosted and 2 base units, the other 2
        and 3, and no shard is ever empty."""
        units = [(boosted, f) for boosted in (True, False) for f in range(5)]
        pairs = [(_TINY_DATA, None)] * 5
        assert training._shards(units, pairs, (3,), 2) == [[units[p] for p in (0, 2, 4, 6, 8)],
                                                           [units[p] for p in (1, 3, 5, 7, 9)]]
        for jobs in range(1, 12):
            shards = training._shards(units, pairs, (3,), jobs)
            assert len(shards) == min(jobs, 10) and all(shards)
            assert sorted(sum(shards, [])) == sorted(units)

    def test_bench_sized_shards_hold_thirty_runs(self):
        """At 13 inputs, 10 hidden units and 240 training rows, the two
        shards of a two-job grid stay whole, and the one-job grid's 60
        runs run as two tasks of 30."""
        train = Dataset(np.zeros((240, 13)), np.arange(240) % 2)
        units = [(boosted, f) for boosted in (True, False) for f in range(5)]
        pairs = [(train, None)] * 5
        assert training._shards(units, pairs, (10,), 2) == [[units[p] for p in (0, 2, 4, 6, 8)],
                                                            [units[p] for p in (1, 3, 5, 7, 9)]]
        assert training._shards(units, pairs, (10,), 1) == [units[:5], units[5:]]

    def test_no_hidden_layer_refused(self):
        with pytest.raises(ParameterError, match="at least one hidden"):
            evaluate_grid(_TINY_DATA, 2, 0, (), _TINY_CODEL, _TINY_LS)

    def test_single_class_rejected(self):
        data = two_gaussian_dataset(6, 2, 1.0, seed=0)
        ones = np.flatnonzero(data.labels == 1)
        bad = Dataset(data.rows[ones], data.labels[ones])
        with pytest.raises(ParameterError):
            evaluate_grid(bad, 2, 0, (3,), _TINY_CODEL, _TINY_LS)


class TestBuildComparison:

    def _table(self):
        names = ("rp", "codel-rp", "oss", "codel-oss")
        means = np.array([
            [70.0, 80.0, 60.0, 75.0, 72.0, 66.0],
            [74.0, 79.0, 64.0, 77.0, 74.0, 69.0],
            [68.0, 81.0, 58.0, 74.0, 71.0, 65.0],
            [68.0, 82.0, 59.0, 78.0, 75.0, 70.0],
        ])
        return names, means

    def test_ranks_and_mean_ranks(self):
        names, means = self._table()
        comparison = build_comparison(names, means)
        np.testing.assert_array_equal(comparison.ranks[:, 0], [2, 1, 3.5, 3.5])
        assert comparison.mean_ranks.shape == (4,)
        np.testing.assert_allclose(
            comparison.mean_ranks, comparison.ranks.mean(axis=1)
        )

    def test_wtl_counts_pairs_only(self):
        names, means = self._table()
        comparison = build_comparison(names, means)
        assert comparison.pairs == (("rp", "codel-rp"), ("oss", "codel-oss"))
        # accuracy column: rp 70->74 wins, oss 68->68 ties.
        assert comparison.wtl[METRIC_NAMES.index("accuracy")].tolist() == [1, 1, 0]
        # sensitivity column: 80->79 loses, 81->82 wins.
        assert comparison.wtl[METRIC_NAMES.index("sensitivity")].tolist() == [1, 0, 1]

    def test_ee_table_values(self):
        names, means = self._table()
        comparison = build_comparison(names, means)
        assert comparison.ee_table.shape == (2, 6)
        # rp accuracy 70 -> 74: (30 - 26) / 30 * 100.
        np.testing.assert_allclose(comparison.ee_table[0, 0], 400.0 / 30.0)
        np.testing.assert_allclose(comparison.ee_table[1, 0], 0.0)

    def test_no_pairs_is_empty_not_error(self):
        comparison = build_comparison(("a", "b"), np.full((2, 6), 50.0))
        assert comparison.pairs == ()
        assert comparison.ee_table.shape == (0, 6)

    def test_perfect_base_gives_nan_cell_not_crash(self):
        """A base variant at 100% leaves that enhancement undefined.

        Easy to hit on small separable datasets; the rest of the report
        must still come out.
        """
        means = np.full((2, 6), 90.0)
        means[0, 0] = 100.0
        means[1, 0] = 100.0
        comparison = build_comparison(("gd", "codel-gd"), means)
        assert np.isnan(comparison.ee_table[0, 0])
        assert np.all(np.isfinite(comparison.ee_table[0, 1:]))
        assert comparison.wtl[METRIC_NAMES.index("accuracy")].tolist() == [0, 1, 0]

    def test_shape_mismatch(self):
        with pytest.raises(ParameterError):
            build_comparison(("a", "b"), np.zeros((2, 5)))
        with pytest.raises(ParameterError):
            build_comparison(("a",), np.zeros((2, 6)))
