import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from codel.datasets import two_gaussian_dataset
from codel.errors import ParameterError
from codel.evaluation import (
    METRIC_NAMES,
    SUMMARY_NAMES,
    average_ranks,
    error_enhancement,
    fold_datasets,
    fold_summary,
    kfold_split,
    metrics,
    pair_outcomes,
    rank_and_mean_rank,
)
from codel.local_search import LocalSearchConfig
from codel.mlp import Dataset
from codel.optimizer import CodelConfig
from codel.training import VARIANT_NAMES, evaluate_grid

from oracles import (
    confusion_labels,
    descending_ranks_reference,
    error_enhancement_reference,
    kfold_reference,
    metric_reference,
    rankdata_reference,
    sample_std_reference,
)


def _named_metrics(tp, tn, fp, fn):
    return dict(zip(METRIC_NAMES, metrics(*confusion_labels(tp, tn, fp, fn))))


class TestMetrics:

    def test_hand_worked_matrix(self):
        m = _named_metrics(tp=50, tn=30, fp=10, fn=10)
        assert m["accuracy"] == 0.8
        assert np.isclose(m["sensitivity"], 5.0 / 6.0, rtol=1e-15)
        assert m["specificity"] == 0.75
        assert np.isclose(m["precision"], 5.0 / 6.0, rtol=1e-15)
        assert np.isclose(m["fscore"], 5.0 / 6.0, rtol=1e-15)
        assert np.isclose(m["gmean"], math.sqrt(0.625), rtol=1e-12)
        assert all(value > 0 for value in m.values())

    def test_perfect_classifier(self):
        m = _named_metrics(tp=5, tn=7, fp=0, fn=0)
        for name in METRIC_NAMES:
            assert m[name] == 1.0

    def test_missed_every_positive(self):
        m = _named_metrics(tp=0, tn=3, fp=0, fn=2)
        assert m["sensitivity"] == 0.0
        assert m["gmean"] == 0.0
        assert m["specificity"] == 1.0
        assert m["precision"] == 0.0

    def test_single_class_flags(self):
        """No negatives at all: specificity and precision lose their
        denominators and come back as 0."""
        m = _named_metrics(tp=0, tn=0, fp=0, fn=5)
        assert m["specificity"] == 0.0
        assert m["precision"] == 0.0

    def test_empty_labels_rejected(self):
        with pytest.raises(ParameterError):
            metrics([], [])
        with pytest.raises(ParameterError):
            metrics([[1, 0]], [[1, 0]])

    def test_gmean_squares_to_product(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            tp, tn, fp, fn = rng.integers(0, 40, 4)
            if tp + tn + fp + fn == 0:
                continue
            m = _named_metrics(int(tp), int(tn), int(fp), int(fn))
            assert np.isclose(m["gmean"] ** 2, m["sensitivity"] * m["specificity"],
                              rtol=1e-12, atol=1e-15)
            assert all(0 <= value <= 1 for value in m.values())

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 60, 4))
            if tp + tn + fp + fn == 0:
                continue
            m = _named_metrics(tp, tn, fp, fn)
            ref = metric_reference(tp, tn, fp, fn)
            for name in METRIC_NAMES:
                assert abs(m[name] - float(ref[name])) <= 1e-12

    @given(labels=st.lists(st.integers(0, 1), min_size=1, max_size=60).flatmap(
               lambda ls: st.sampled_from([ls, [0] * len(ls), [1] * len(ls)])),
           data=st.data())
    def test_stack_rows_equal_their_own_calls_and_the_oracle(self, labels, data):
        """Drawn labels, one-class folds among them, and a (k, n) stack of
        predictions: each row is its own 1-D call bit for bit and within
        1e-12 of the rational oracle, and a length mismatch is refused."""
        n = len(labels)
        stack = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=1, max_size=8)))
        got = metrics(labels, stack)
        assert got.shape == (len(stack), len(METRIC_NAMES))
        for row, predicted in zip(got, stack):
            assert row.tobytes() == metrics(labels, predicted).tobytes()
            y, p = np.array(labels), predicted
            ref = metric_reference(*(int(np.count_nonzero((y == a) & (p == b)))
                                     for a, b in ((1, 1), (0, 0), (0, 1), (1, 0))))
            assert all(abs(v - float(ref[name])) <= 1e-12
                       for v, name in zip(row, METRIC_NAMES))
        with pytest.raises(ParameterError):
            metrics(labels, stack[:, 1:])
        with pytest.raises(ParameterError):
            metrics(labels + [0], stack)


class TestConfusionFromPredictions:

    def test_counts(self):
        """tp 2, tn 1, fp 1, fn 1."""
        m = metrics([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert m.tolist() == [3 / 5, 2 / 3, 1 / 2, 2 / 3, 4 / 6, math.sqrt(2 / 3 * 1 / 2)]

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            metrics([1, 0], [1])


class TestErrorEnhancement:

    def test_published_pair_values(self):
        assert abs(error_enhancement(70.46, 71.13) - 2.27) <= 0.01
        assert abs(error_enhancement(79.02, 79.21) - 0.90) <= 0.01

    def test_no_change_is_zero(self):
        assert error_enhancement(64.2, 64.2) == 0.0

    def test_worse_variant_goes_negative(self):
        assert error_enhancement(83.42, 81.03) < 0.0

    def test_monotone_in_boosted_value(self):
        values = [error_enhancement(70.0, c) for c in np.linspace(50, 99, 30)]
        assert np.all(np.diff(values) > 0)

    def test_matches_error_form(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            base = rng.uniform(0, 99)
            boosted = rng.uniform(0, 100)
            assert np.isclose(
                error_enhancement(base, boosted),
                error_enhancement_reference(100.0 - base, 100.0 - boosted),
                rtol=1e-12,
            )

    def test_domain_enforced(self):
        with pytest.raises(ParameterError):
            error_enhancement(100.0, 50.0)
        with pytest.raises(ParameterError):
            error_enhancement(-1.0, 50.0)
        with pytest.raises(ParameterError):
            error_enhancement(50.0, 101.0)


class TestKfoldSplit:

    def test_singleton_folds(self):
        folds = kfold_split(10, np.zeros(10, dtype=int), seed=0)
        assert len(folds) == 10
        assert all(f.size == 1 for f in folds)

    def test_partition_property(self):
        rng = np.random.default_rng(3)
        for n, k in [(10, 2), (23, 5), (40, 10), (11, 11)]:
            labels = rng.integers(0, 2, n)
            folds = kfold_split(k, labels, seed=int(rng.integers(1000)))
            joined = np.concatenate(folds)
            assert joined.size == n
            np.testing.assert_array_equal(np.sort(joined), np.arange(n))
            sizes = [f.size for f in folds]
            assert max(sizes) - min(sizes) <= 1

    def test_balanced_positives_split_evenly(self):
        labels = np.array([1] * 10 + [0] * 10)
        folds = kfold_split(5, labels, seed=4)
        for f in folds:
            assert np.count_nonzero(labels[f] == 1) == 2

    def test_both_classes_spread_when_sizes_are_odd(self):
        labels = np.array([1] * 11 + [0] * 11)
        folds = kfold_split(5, labels, seed=5)
        sizes = sorted(f.size for f in folds)
        assert sizes == [4, 4, 4, 5, 5]
        for f in folds:
            assert np.count_nonzero(labels[f] == 1) in (2, 3)

    def test_seed_reproducibility(self):
        labels = np.random.default_rng(6).integers(0, 2, 30)
        a = kfold_split(5, labels, seed=42)
        b = kfold_split(5, labels, seed=42)
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        c = kfold_split(5, labels, seed=43)
        assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))

    @given(st.lists(st.integers(0, 2), min_size=2, max_size=60), st.integers(2, 60),
           st.integers(0, 2**31 - 1))
    def test_equals_the_dealing_loop(self, labels, k, seed):
        k = min(k, len(labels))
        folds = kfold_split(k, labels, seed)
        expected = kfold_reference(k, labels, seed)
        assert [f.dtype for f in folds] == [f.dtype for f in expected]
        assert [f.tolist() for f in folds] == [f.tolist() for f in expected]

    def test_bad_inputs(self):
        with pytest.raises(ParameterError):
            kfold_split(6, np.zeros(5, dtype=int), seed=0)
        with pytest.raises(ParameterError):
            kfold_split(1, np.zeros(5, dtype=int), seed=0)


class TestFoldSummary:

    @staticmethod
    def _named(values):
        return dict(zip(SUMMARY_NAMES, fold_summary(values).tolist()))

    def test_two_fold_hand_values(self):
        s = self._named([70.0, 80.0])
        assert s["mean"] == 75.0
        assert np.isclose(s["std"], math.sqrt(50.0))
        assert s["min"] == 70.0 and s["max"] == 80.0 and s["median"] == 75.0

    def test_constant_folds(self):
        s = self._named([0.8] * 10)
        assert s["mean"] == 0.8 and s["std"] == 0.0
        assert s["min"] == s["max"] == s["median"] == 0.8

    def test_matches_sample_std(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            values = rng.uniform(0, 100, int(rng.integers(2, 12)))
            s = self._named(values)
            assert np.isclose(s["std"], sample_std_reference(list(values)),
                              rtol=1e-12)
            assert s["min"] <= s["median"] <= s["max"]

    def test_needs_two_values(self):
        with pytest.raises(ParameterError):
            fold_summary([1.0])
        with pytest.raises(ParameterError):
            fold_summary(np.zeros((3, 1)))

    @given(st.integers(2, 40), st.integers(2, 4), st.integers(1, 3),
           st.integers(0, 2**32 - 1))
    def test_each_cell_equals_its_own_1d_statistics(self, k, rows, cols, seed):
        """Bit for bit, on a non-contiguous (transposed) input: the
        reduction never sums a strided fold axis."""
        folds_first = np.random.default_rng(seed).uniform(0.0, 1.0, (k, rows, cols))
        scores = folds_first.transpose(1, 2, 0)
        assert not scores.flags.c_contiguous
        got = fold_summary(scores)
        assert got.shape == (rows, cols, len(SUMMARY_NAMES))
        for i in range(rows):
            for j in range(cols):
                values = np.array(scores[i, j])
                want = [np.mean(values), np.std(values, ddof=1), np.min(values),
                        np.max(values), np.median(values)]
                assert got[i, j].tolist() == [float(v) for v in want]


class TestFoldDatasets:

    def test_train_columns_standardized(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(5, 3, (40, 4)), rng.integers(0, 2, 40))
        for train, test in fold_datasets(data, 4, seed=0):
            np.testing.assert_allclose(np.mean(train.rows, axis=0), 0,
                                       atol=1e-9)
            np.testing.assert_allclose(np.std(train.rows, axis=0), 1,
                                       atol=1e-9)
            assert np.all(np.isfinite(test.rows))

    def test_constant_column_survives(self):
        rng = np.random.default_rng(9)
        rows = np.column_stack([np.full(20, 3.0), rng.normal(0, 1, 20)])
        data = Dataset(rows, rng.integers(0, 2, 20))
        for train, test in fold_datasets(data, 4, seed=1):
            assert np.all(np.isfinite(train.rows))
            np.testing.assert_array_equal(train.rows[:, 0], 0.0)

    def test_test_rows_use_train_statistics(self):
        """Test folds keep their offset from the train distribution.

        Standardizing each test fold by its own statistics would zero
        every fold mean; with train statistics the fold holding the
        largest raw values lands visibly off-center.
        """
        data = Dataset(np.arange(1.0, 21.0)[:, None], np.array([0, 1] * 10))
        for seed in range(4):
            pairs = fold_datasets(data, 5, seed=seed)
            means = [abs(float(np.mean(t.rows))) for _, t in pairs]
            assert max(means) > 0.5


class TestCrossValidate:
    """The k-fold loop, run through evaluate_grid on a tiny dataset."""

    _CODEL = CodelConfig(population_size=8, nfe_max=160, seed=0)
    _LS = LocalSearchConfig(epochs=20, patience=20)

    def _grid(self, data, k, seed):
        return evaluate_grid(data, k, seed, (3,), self._CODEL, self._LS)

    def test_shapes_and_determinism(self):
        data = two_gaussian_dataset(n_per_class=15, n_features=3,
                                    separation=1.0, seed=11)
        scores = self._grid(data, k=5, seed=3)
        assert scores.shape == (len(VARIANT_NAMES), len(METRIC_NAMES), 5)
        assert scores.flags.c_contiguous
        means = fold_summary(scores)[:, :, SUMMARY_NAMES.index("mean")]
        for v in range(len(VARIANT_NAMES)):
            for i in range(len(METRIC_NAMES)):
                assert means[v, i] == np.mean(scores[v, i])

        again = self._grid(data, k=5, seed=3)
        np.testing.assert_array_equal(scores, again)

    def test_single_class_dataset_rejected(self):
        data = Dataset(np.zeros((10, 2)), np.ones(10, dtype=int))
        with pytest.raises(ParameterError):
            self._grid(data, k=2, seed=0)


class TestWtl:
    """Wins, ties and losses counted off `pair_outcomes`, as
    `build_comparison` counts them."""

    @staticmethod
    def _wtl(base, codel):
        outcomes = pair_outcomes(base, codel)
        return tuple(int(np.count_nonzero(outcomes == o)) for o in ("win", "tie", "loss"))

    def test_identical_sequences_all_tie(self):
        assert self._wtl([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0, 3, 0)

    def test_tolerance_boundary(self):
        # Anchored at 0 so the 1e-9 offsets survive the subtraction
        # exactly; around 1.0 they would round.
        assert self._wtl([0.0], [1e-9]) == (0, 1, 0)
        assert self._wtl([0.0], [2e-9]) == (1, 0, 0)
        assert self._wtl([0.0], [-2e-9]) == (0, 0, 1)

    def test_mixed_outcome(self):
        assert self._wtl([70.0, 80.0, 90.0], [75.0, 80.0, 85.0]) == (1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            pair_outcomes([1.0, 2.0], [1.0])


class TestRanks:

    def test_full_tie_averages(self):
        ranks, mean_ranks = rank_and_mean_rank(np.full((4, 2), 7.0))
        np.testing.assert_array_equal(ranks, np.full((4, 2), 2.5))
        np.testing.assert_array_equal(mean_ranks, [2.5] * 4)

    def test_partial_tie(self):
        ranks, _ = rank_and_mean_rank(np.array([[5.0], [5.0], [2.0]]))
        np.testing.assert_array_equal(ranks.ravel(), [1.5, 1.5, 3.0])

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(12)
        table = rng.uniform(0, 100, (8, 3))
        ranks, _ = rank_and_mean_rank(table)
        warped = table.copy()
        warped[:, 1] = np.exp(warped[:, 1] / 50.0)
        ranks_w, _ = rank_and_mean_rank(warped)
        np.testing.assert_array_equal(ranks, ranks_w)

    def test_matches_reference_ranking(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            col = rng.integers(0, 10, 12).astype(float)
            ranks, _ = rank_and_mean_rank(col[:, None])
            np.testing.assert_allclose(
                ranks.ravel(), descending_ranks_reference(list(col))
            )

    def test_mean_rank_averages_rows(self):
        table = np.array([[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        ranks, mean_ranks = rank_and_mean_rank(table)
        np.testing.assert_array_equal(ranks, [[1, 3], [2, 2], [3, 1]])
        np.testing.assert_array_equal(mean_ranks, [2.0, 2.0, 2.0])

    def test_nan_column_ranks_all_nan(self):
        table = np.array([[3.0, 1.0], [np.nan, 2.0], [1.0, 3.0]])
        ranks, mean_ranks = rank_and_mean_rank(table)
        assert np.isnan(ranks[:, 0]).all()
        np.testing.assert_array_equal(ranks[:, 1], [3.0, 2.0, 1.0])
        assert np.isnan(mean_ranks).all()

    def test_bad_shapes(self):
        with pytest.raises(ParameterError):
            rank_and_mean_rank(np.zeros(4))
        with pytest.raises(ParameterError):
            rank_and_mean_rank(np.zeros((0, 3)))


# A few values drawn often, so runs of ties, signed zeros, infinities and
# NaNs all turn up, mixed with arbitrary doubles.
_RANK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=False),
)


class TestAverageRanksMatchScipy:

    @given(st.lists(_RANK_VALUES, min_size=1, max_size=40))
    @example([7.0])
    @example([np.nan])
    @example([0.0, -0.0, 0.0, -0.0])
    @example([3.0, 3.0, 3.0, 1.0, 1.0, 2.0, 3.0])
    @example([np.inf, -np.inf, np.inf, 1.0, -np.inf])
    @example([np.nan, 1.0, 2.0])
    @example([1.0, np.nan, 2.0])
    @example([1.0, 2.0, np.nan])
    def test_bit_identical_to_rankdata(self, values):
        got = average_ranks(values)
        want = rankdata_reference(values)
        assert got.dtype == want.dtype == np.float64
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
