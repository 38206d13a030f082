import re
import warnings
from dataclasses import asdict, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import codel.optimizer as optimizer
from codel.errors import ContractError, ParameterError
from codel.mlp import Dataset, MlpTopology, classification_error
from codel.optimizer import (
    CodelConfig,
    Population,
    _draw_generation,
    _generation,
    _lloyd_iterations,
    cluster_update,
    kmeans,
    opposite,
    qobl_population,
    quasi_opposite,
    run_codel,
    run_plain_de,
)

from oracles import _kmeans_reference, donors_reference, run_codel_reference


def _sphere(vectors):
    return np.sum(np.asarray(vectors) ** 2, axis=1)


def _evaluated_population(vectors, objective, nfe=0, iteration=0):
    vectors = np.array(vectors, dtype=float)
    fitness = np.asarray(objective(vectors), dtype=float)
    return Population(vectors, fitness, nfe=nfe, iteration=iteration)


class _ScriptedDonors:
    """Stands in for an rng whose first random() call returns the given
    donor keys; every later draw comes from a seeded generator."""

    def __init__(self, keys, seed=0):
        self.keys = np.array(keys, dtype=float)
        self.rng = np.random.default_rng(seed)

    def random(self, shape):
        if self.keys is None:
            return self.rng.random(shape)
        keys, self.keys = self.keys, None
        assert keys.shape == shape
        return keys

    def integers(self, high, size):
        return self.rng.integers(high, size=size)


class _ScriptedChoice:
    """Stands in for the rng of `kmeans`: its one choice() call returns
    the given indices of the starting centers."""

    def __init__(self, indices):
        self.indices = indices

    def choice(self, n, size, replace):
        assert len(self.indices) == size and not replace
        return np.array(self.indices)


# Donor keys that rank the other members in index order, so member i's
# (r1, r2, r3) are the first three indices other than i.
_ASCENDING_KEYS = np.tile([0.1, 0.2, 0.3, 0.4, 0.5], (6, 1))


def _trials(vectors, rng, **knobs):
    """The trial vectors of one generation over `vectors`, in member order.

    The knobs bypass CodelConfig's checks, so a zero scale factor runs.
    """
    vectors = np.array(vectors, dtype=float)
    config = SimpleNamespace(**{**asdict(CodelConfig()), **knobs})
    seen = []
    pop = Population(vectors, np.zeros(len(vectors)), nfe=0, iteration=0)
    _generation(pop, config, lambda batch: seen.extend(batch.copy()) or np.zeros(len(batch)),
                rng)
    return np.array(seen)


def _mutants(vectors, donors, scale_factor=0.5, lower=-10.0, upper=10.0):
    r1, r2, r3 = (vectors[donors[:, k]] for k in range(3))
    return np.clip(r1 + scale_factor * (r2 - r3), lower, upper)


class TestOpposite:

    def test_reflection(self):
        assert opposite(0.3, 0.0, 1.0) == 0.7
        assert opposite(0.5, 0.0, 1.0) == 0.5

    def test_out_of_bounds_clamped_first(self):
        assert opposite(2.0, 0.0, 1.0) == 0.0
        assert opposite(-3.0, 0.0, 1.0) == 1.0

    def test_involution_on_symmetric_bounds_is_exact(self):
        """With a = -b the reflection is a plain negation, so it is exact."""
        rng = np.random.default_rng(0)
        x = rng.uniform(-10, 10, 200)
        np.testing.assert_array_equal(opposite(opposite(x, -10, 10), -10, 10), x)

    def test_involution_on_general_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a = rng.uniform(-5, 0)
            b = a + rng.uniform(0.5, 10)
            x = rng.uniform(a, b)
            assert np.isclose(opposite(opposite(x, a, b), a, b), x, rtol=1e-12)


class TestQuasiOpposite:

    def test_low_sample_lands_in_upper_half(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = quasi_opposite(0.0, 0.0, 1.0, rng)
            assert 0.5 <= q <= 1.0

    def test_high_sample_lands_between_opposite_and_midpoint(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = quasi_opposite(0.9, 0.0, 1.0, rng)
            assert 0.1 <= q <= 0.5

    def test_midpoint_is_fixed(self):
        rng = np.random.default_rng(4)
        assert quasi_opposite(0.5, 0.0, 1.0, rng) == 0.5

    def test_always_inside_ordered_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.uniform(-8, 0)
            b = a + rng.uniform(1, 12)
            x = rng.uniform(a, b)
            mid = (a + b) / 2.0
            opp = a + b - x
            q = quasi_opposite(x, a, b, rng)
            assert min(mid, opp) <= q <= max(mid, opp)
            assert a <= q <= b


class TestSelect:
    """Selection inside a generation, one trial against member 0."""

    @staticmethod
    def _one_trial(trial_fitness):
        vectors = np.random.default_rng(30).uniform(-5, 5, (4, 2))
        pop = Population(vectors, np.array([20.0, 1.0, 2.0, 3.0]), nfe=4, iteration=0)
        trials = []

        def objective(batch):
            trials.extend(batch.copy())
            return np.full(len(batch), trial_fitness)

        # The budget leaves room for exactly one trial.
        config = CodelConfig(population_size=4, nfe_max=5)
        out = _generation(pop, config, objective, np.random.default_rng(31))
        assert len(trials) == 1 and out.nfe == 5 and out.iteration == 1
        # Member 0's trial is the one its row of the generation's draws makes.
        donors, take = _draw_generation(4, 2, config.crossover_rate,
                                        np.random.default_rng(31))
        expected = np.where(take[0], _mutants(vectors, donors)[0], vectors[0])
        np.testing.assert_array_equal(trials[0], expected)
        assert not np.array_equal(trials[0], vectors[0])
        np.testing.assert_array_equal(pop.vectors, vectors)
        np.testing.assert_array_equal(out.vectors[1:], vectors[1:])
        return pop, out, trials[0]

    def test_better_trial_wins(self):
        _, out, trial = self._one_trial(10.0)
        np.testing.assert_array_equal(out.vectors[0], trial)
        assert out.fitness[0] == 10.0 and out.entered == 1

    def test_better_target_survives(self):
        pop, out, _ = self._one_trial(30.0)
        np.testing.assert_array_equal(out.vectors[0], pop.vectors[0])
        assert out.fitness[0] == 20.0 and out.entered == 0

    def test_tie_goes_to_trial(self):
        _, out, trial = self._one_trial(20.0)
        np.testing.assert_array_equal(out.vectors[0], trial)
        assert out.fitness[0] == 20.0 and out.entered == 1

    def test_nan_trial_never_replaces_target(self):
        pop, out, _ = self._one_trial(float("nan"))
        np.testing.assert_array_equal(out.vectors[0], pop.vectors[0])
        assert out.fitness[0] == 20.0 and out.entered == 0

    def test_best_is_first_member_of_least_fitness(self):
        """A budget of one population ends the search after the initial
        scores, so the result reads its best off those."""
        scored = []

        def objective(batch):
            scored.append(batch.copy())
            return np.array([3.0, 1.0, 1.0, 2.0])

        result = run_codel(objective, 2, CodelConfig(population_size=4, nfe_max=4))
        assert len(scored) == 1 and result.nfe == 4
        np.testing.assert_array_equal(result.best_params, scored[0][1])
        assert result.best_fitness == 1.0


class TestMutate:
    """The difference mutation, read off whole-generation trials at
    crossover rate 1, where every trial is its mutant."""

    def test_difference_arithmetic(self):
        vectors = np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 2.0], [9.0, 9.0]])
        trials = _trials(vectors, _ScriptedDonors(_ASCENDING_KEYS[:4, :3]),
                         crossover_rate=1.0)
        # Member 3 draws (r1, r2, r3) = (0, 1, 2): (1,1) + 0.5 ((2,0) - (0,2)).
        np.testing.assert_array_equal(trials[3], [2.0, 0.0])

    def test_zero_difference_returns_base(self):
        vectors = np.array([[1.0, 1.0], [3.0, 3.0], [3.0, 3.0], [9.0, 9.0]])
        trials = _trials(vectors, _ScriptedDonors(_ASCENDING_KEYS[:4, :3]),
                         crossover_rate=1.0)
        np.testing.assert_array_equal(trials[3], [1.0, 1.0])

    def test_zero_scale_returns_base(self):
        rng = np.random.default_rng(6)
        vectors = rng.uniform(-5, 5, (6, 3))
        # Member 0's keys rank members 3, 1, 4 first.
        keys = np.vstack([[0.2, 0.9, 0.1, 0.3, 0.8], _ASCENDING_KEYS[1:]])
        trials = _trials(vectors, _ScriptedDonors(keys), crossover_rate=1.0,
                         scale_factor=0.0)
        np.testing.assert_array_equal(trials[0], vectors[3])

    def test_donors_are_the_smallest_keys_past_the_target(self):
        donors, _ = _draw_generation(4, 2, 0.9, _ScriptedDonors(_ASCENDING_KEYS[:4, :3]))
        np.testing.assert_array_equal(donors, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])

    def test_result_clamped_to_bounds(self):
        rng = np.random.default_rng(7)
        vectors = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0]])
        for _ in range(50):
            trials = _trials(vectors, rng, scale_factor=2.0, lower=-1.0, upper=1.0)
            assert np.all((trials >= -1.0) & (trials <= 1.0))

    def test_needs_four_members(self):
        pop = Population(np.zeros((3, 2)), np.zeros(3), nfe=3, iteration=0)
        with pytest.raises(ParameterError):
            _generation(pop, CodelConfig(population_size=4, nfe_max=100), _sphere,
                        np.random.default_rng(8))


class TestBinomialCrossover:
    """The crossover mask, on whole-generation trials; the draws are
    replayed from the same seed to name each member's mutant."""

    @staticmethod
    def _replayed(vectors, seed, crossover_rate):
        """(trials, mutants, take) of one generation at this seed."""
        trials = _trials(vectors, np.random.default_rng(seed),
                         crossover_rate=crossover_rate)
        donors, take = _draw_generation(*vectors.shape, crossover_rate,
                                        np.random.default_rng(seed))
        return trials, _mutants(vectors, donors), take

    def test_full_rate_copies_mutant(self):
        vectors = np.random.default_rng(9).uniform(-5, 5, (10, 10))
        trials, mutants, _ = self._replayed(vectors, 9, 1.0)
        np.testing.assert_array_equal(trials, mutants)

    def test_zero_rate_flips_exactly_one_component(self):
        vectors = np.random.default_rng(10).uniform(-5, 5, (8, 8))
        for seed in range(50):
            trials, mutants, take = self._replayed(vectors, seed, 0.0)
            assert np.all(np.count_nonzero(take, axis=1) == 1)
            np.testing.assert_array_equal(trials[take], mutants[take])
            np.testing.assert_array_equal(trials[~take], vectors[~take])

    def test_identical_parents_are_a_fixed_point(self):
        rng = np.random.default_rng(11)
        vectors = np.tile(np.arange(5.0), (6, 1))
        for cr in (0.0, 0.4, 1.0):
            np.testing.assert_array_equal(_trials(vectors, rng, crossover_rate=cr), vectors)

    def test_components_come_from_a_parent(self):
        vectors = np.random.default_rng(12).uniform(-5, 5, (6, 6))
        for seed in range(50):
            trials, mutants, _ = self._replayed(vectors, seed, 0.5)
            assert np.all((trials == vectors) | (trials == mutants))


class TestDrawGeneration:

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(4, 60), dim=st.integers(1, 30),
           crossover_rate=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_distinct_donors_and_one_mutant_component(self, n, dim, crossover_rate, seed):
        donors, take = _draw_generation(n, dim, crossover_rate, np.random.default_rng(seed))
        assert donors.shape == (n, 3) and take.shape == (n, dim)
        assert np.all((donors >= 0) & (donors < n))
        assert np.all(donors != np.arange(n)[:, None])
        assert np.all(donors[:, 0] != donors[:, 1])
        assert np.all(donors[:, 0] != donors[:, 2])
        assert np.all(donors[:, 1] != donors[:, 2])
        assert np.all(take.any(axis=1))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(4, 40), dim=st.integers(1, 10), seed=st.integers(0, 2 ** 32 - 1))
    def test_tied_keys_give_the_stable_sort_donors(self, n, dim, seed):
        """Keys drawn from {0, 0.5} tie often: every tie goes to the lower
        index, as in a stable sort of the keys."""
        keys = np.random.default_rng(seed).choice([0.0, 0.5], (n, n - 1))
        donors, _ = _draw_generation(n, dim, 0.9, _ScriptedDonors(keys, seed))
        assert donors.tolist() == donors_reference(keys).tolist()


class TestQoblPopulation:

    def test_optimum_survives_union(self):
        rng = np.random.default_rng(13)
        vectors = list(rng.uniform(-10, 10, (7, 3)))
        vectors.append(np.zeros(3))
        pop = _evaluated_population(vectors, _sphere, nfe=8)
        config = CodelConfig(population_size=8, nfe_max=1000)
        out = qobl_population(pop, config, _sphere, rng)
        assert out.fitness.min() == 0.0

    def test_size_preserved_and_budget_spent(self):
        rng = np.random.default_rng(14)
        pop = _evaluated_population(rng.uniform(-10, 10, (10, 4)), _sphere,
                                    nfe=10)
        config = CodelConfig(population_size=10, nfe_max=1000)
        out = qobl_population(pop, config, _sphere, rng)
        assert out.vectors.shape == (10, 4) and out.fitness.shape == (10,)
        assert out.nfe == 20

    def test_union_never_worsens_any_rank(self):
        """Sorted fitnesses of the output dominate the input elementwise."""
        rng = np.random.default_rng(15)
        config = CodelConfig(population_size=12, nfe_max=10_000)
        for _ in range(20):
            pop = _evaluated_population(rng.uniform(-10, 10, (12, 3)), _sphere,
                                        nfe=12)
            out = qobl_population(pop, config, _sphere, rng)
            before = np.sort(pop.fitness)
            after = np.sort(out.fitness)
            assert np.all(after <= before)

    def test_samples_respect_bounds(self):
        rng = np.random.default_rng(16)
        config = CodelConfig(population_size=6, nfe_max=1000,
                             lower=-2.0, upper=3.0)
        pop = _evaluated_population(rng.uniform(-2, 3, (6, 5)), _sphere, nfe=6)
        out = qobl_population(pop, config, _sphere, rng)
        assert np.all(out.vectors >= -2.0) and np.all(out.vectors <= 3.0)

    def test_exhausted_budget_is_a_no_op(self):
        rng = np.random.default_rng(17)
        pop = _evaluated_population(rng.uniform(-10, 10, (5, 2)), _sphere,
                                    nfe=100)
        config = CodelConfig(population_size=5, nfe_max=100)
        assert qobl_population(pop, config, _sphere, rng) is pop


class TestKmeans:

    def test_two_gaps_in_one_dimension(self):
        points = np.array([[0.0], [1.0], [10.0], [11.0]])
        for seed in range(5):
            centers, assignments = kmeans(points, 2, np.random.default_rng(seed))
            np.testing.assert_allclose(np.sort(centers.ravel()), [0.5, 10.5])
            assert assignments[0] == assignments[1]
            assert assignments[2] == assignments[3]
            assert assignments[0] != assignments[2]

    def test_k_equals_n_reproduces_points(self):
        rng = np.random.default_rng(18)
        points = rng.uniform(-5, 5, (6, 2))
        centers, assignments = kmeans(points, 6, rng)
        order = np.lexsort(points.T)
        corder = np.lexsort(centers.T)
        np.testing.assert_allclose(centers[corder], points[order])
        sse = np.sum((points - centers[assignments]) ** 2)
        assert sse == 0.0

    def test_k_bounds_enforced(self):
        points = np.zeros((4, 2))
        for bad in (1, 5):
            with pytest.raises(ParameterError):
                kmeans(points, bad, np.random.default_rng(19))
        with pytest.raises(ParameterError):
            kmeans(np.zeros(4), 2, np.random.default_rng(19))

    def test_within_cluster_error_never_increases(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            points = np.vstack([
                rng.normal(0, 1, (12, 3)),
                rng.normal(6, 1, (12, 3)),
            ])
            previous = np.inf
            for centers, assignments in _lloyd_iterations(points, 3, rng):
                sse = float(np.sum((points - centers[assignments]) ** 2))
                assert sse <= previous + 1e-9
                previous = sse

    def test_empty_cluster_is_reseeded(self):
        """Six points on two values with k = 3: two centers start on the
        same value, one cluster comes out empty and must be reseeded."""
        points = np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [5.0]])
        for seed in range(10):
            centers, assignments = kmeans(points, 3, np.random.default_rng(seed))
            for c in range(3):
                members = points[assignments == c]
                assert len(members) > 0
                np.testing.assert_array_equal(centers[c], members.mean(axis=0))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 60), dim=st.integers(1, 160), k=st.integers(2, 8),
           log_scale=st.integers(-3, 3), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=30, dim=1, k=4, log_scale=0, seed=3)
    def test_equals_the_broadcast_reference_bit_for_bit(self, n, dim, k, log_scale, seed):
        """One center at a time, each distance reduces the same row of
        differences as the (n, k, D) broadcast, so no bit moves."""
        k = min(k, n)
        points = np.random.default_rng(seed).uniform(-10.0, 10.0, (n, dim)) * 10.0 ** log_scale
        centers, _ = kmeans(points, k, np.random.default_rng(seed + 1))
        expected = _kmeans_reference(points, k, np.random.default_rng(seed + 1))
        assert centers.tobytes() == expected.tobytes()

    def test_a_reseed_that_empties_a_later_cluster_reseeds_it_too(self):
        """Points 0, 8, 4, 9, 9, 3, 5 and k = 4, from the centers 8, 0, 9
        and 9 (members 1, 0, 4, 3). The first round leaves cluster 3
        empty and reseeds it with the 4, so the second round's centers
        are 6.5, 1.5, 9 and 4. Then cluster 0 is empty, and cluster 1
        holds only the 0, the point farthest from its own center.
        Reseeding cluster 0 takes it and empties cluster 1, which is
        reseeded in turn, with the 8."""
        points = np.array([[0.0], [8.0], [4.0], [9.0], [9.0], [3.0], [5.0]])
        centers, assignments = kmeans(points, 4, _ScriptedChoice([1, 0, 4, 3]))
        assert centers.ravel().tolist() == [0.0, 8.0, 9.0, 4.0]
        assert assignments.tolist() == [0, 1, 3, 2, 2, 3, 3]
        expected = _kmeans_reference(points, 4, _ScriptedChoice([1, 0, 4, 3]))
        assert centers.tobytes() == expected.tobytes()

    def test_final_assignments_are_nearest_center(self):
        rng = np.random.default_rng(21)
        points = rng.uniform(-5, 5, (30, 2))
        centers, assignments = kmeans(points, 4, rng)
        dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        np.testing.assert_array_equal(assignments, np.argmin(dist, axis=1))


class TestClusterUpdate:

    def _two_blob_population(self):
        vectors = np.array([
            [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
            [6.0, 5.0], [4.0, 5.0], [5.0, 6.0], [5.0, 4.0],
        ])
        return _evaluated_population(vectors, _sphere, nfe=8)

    def test_blob_mean_enters_population(self):
        """The near-origin cluster mean beats every member on the sphere.

        Both blobs are symmetric, so the discovered centers are the
        exact blob means when the clustering separates them; the seed is
        chosen so it does.
        """
        pop = self._two_blob_population()
        config = CodelConfig(population_size=8, nfe_max=1000)
        out = cluster_update(pop, config, _sphere, np.random.default_rng(1))
        assert out.vectors.shape == (8, 2) and out.fitness.shape == (8,)
        assert out.nfe == pop.nfe + 2
        assert out.fitness.min() == 0.0
        assert any(np.array_equal(v, [0.0, 0.0]) for v in out.vectors)

    def test_best_never_degrades(self):
        rng = np.random.default_rng(22)
        config = CodelConfig(population_size=16, nfe_max=10_000)
        for _ in range(15):
            pop = _evaluated_population(rng.uniform(-10, 10, (16, 3)), _sphere,
                                        nfe=16)
            out = cluster_update(pop, config, _sphere, rng)
            assert out.vectors.shape == (16, 3) and out.fitness.shape == (16,)
            assert out.fitness.min() <= pop.fitness.min()
            # k is drawn from [2, floor(sqrt(16))]
            assert 2 <= out.nfe - pop.nfe <= 4

    def test_exhausted_budget_is_a_no_op(self):
        pop = self._two_blob_population()
        config = CodelConfig(population_size=8, nfe_max=8)
        out = cluster_update(pop, config, _sphere, np.random.default_rng(23))
        assert out is pop

    def test_fewer_than_four_members_is_a_no_op(self):
        """floor(sqrt(3)) = 1 leaves no k in [2, 1]: the population comes
        back as it is, with no draw and no evaluation spent."""
        pop = _evaluated_population([[1.0, 0.0], [0.0, 2.0], [3.0, 3.0]], _sphere, nfe=3)

        def no_objective(vectors):
            raise AssertionError("no member may be evaluated")

        out = cluster_update(pop, CodelConfig(population_size=4, nfe_max=1000),
                             no_objective, SimpleNamespace())
        assert out is pop and out.nfe == 3


class TestRunCodel:

    def test_constant_objective_gives_flat_zero_history(self):
        config = CodelConfig(population_size=10, nfe_max=300, seed=0)
        result = run_codel(lambda batch: np.zeros(len(batch)), 4, config)
        assert result.best_fitness == 0.0
        assert np.all(result.history == 0.0)

    def test_history_non_increasing(self):
        for seed in range(3):
            config = CodelConfig(population_size=10, nfe_max=800, seed=seed)
            result = run_codel(_sphere, 3, config)
            assert np.all(np.diff(result.history) <= 0.0)

    def test_budget_accounting(self):
        """The counter agrees with the rows the objective scored, and overshoot is
        bounded by one generation."""
        calls = 0

        def counted(batch):
            nonlocal calls
            calls += len(batch)
            return _sphere(batch)

        config = CodelConfig(population_size=12, nfe_max=500, seed=4)
        result = run_codel(counted, 3, config)
        assert calls == result.nfe
        assert 500 <= result.nfe <= 500 + 12
        assert np.all(np.diff(result.nfe_history) >= 0)
        assert result.nfe_history[-1] == result.nfe

    def test_same_seed_reproduces_bits(self):
        config = CodelConfig(population_size=10, nfe_max=600, seed=7)
        a = run_codel(_sphere, 4, config)
        b = run_codel(_sphere, 4, config)
        np.testing.assert_array_equal(a.best_params, b.best_params)
        assert a.best_fitness == b.best_fitness
        np.testing.assert_array_equal(a.history, b.history)

    def test_small_sphere_descends(self):
        config = CodelConfig(population_size=20, nfe_max=4000, seed=1)
        result = run_codel(_sphere, 3, config)
        assert result.best_fitness < 0.1

    def test_plain_de_baseline_behaves(self):
        calls = 0

        def counted(batch):
            nonlocal calls
            calls += len(batch)
            return _sphere(batch)

        config = CodelConfig(population_size=10, nfe_max=500, seed=5)
        result = run_plain_de(counted, 3, config)
        assert calls == result.nfe
        assert np.all(np.diff(result.history) <= 0.0)

    @pytest.mark.parametrize("run", [run_codel, run_plain_de], ids=lambda f: f.__name__)
    def test_dimension_validated(self, run):
        with pytest.raises(ParameterError):
            run(_sphere, 0, CodelConfig(population_size=10, nfe_max=100))

    def test_config_validation(self):
        bad = [
            dict(population_size=3),
            dict(scale_factor=0.0),
            dict(scale_factor=2.5),
            dict(crossover_rate=1.5),
            dict(jumping_rate=0.5),
            dict(clustering_period=0),
            dict(lower=1.0, upper=1.0),
            dict(nfe_max=0),
        ]
        for kwargs in bad:
            with pytest.raises(ParameterError):
                CodelConfig(**kwargs)

    @pytest.mark.parametrize("lower, upper", [(0.0, np.inf), (-np.inf, 0.0),
                                              (-1e308, 1e308), (-8e307, 8e307),
                                              (-1e300, 1e300), (0.0, 2.0**501),
                                              (-2.0**501, -1.0)])
    def test_range_wider_than_any_float_rejected(self, lower, upper):
        """The initial population is drawn from [lower, upper), which needs
        upper - lower to be finite, and bounds past 2^500 in magnitude let
        the mutants or the k-means distances overflow; the error names
        both bounds."""
        with pytest.raises(ParameterError, match=re.escape(f"lower={lower}, upper={upper}")):
            CodelConfig(lower=lower, upper=upper)

    def test_range_up_to_two_to_the_500_accepted(self):
        """At the limit, a clustered search runs without a warning."""
        config = CodelConfig(population_size=6, nfe_max=120, clustering_period=1,
                             lower=-2.0**500, upper=2.0**500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_codel(lambda v: np.sum(v * 2.0**-500, axis=1), 40, config)
        assert np.isfinite(result.best_fitness)

    @pytest.mark.parametrize("knob, value", [
        ("population_size", 4),
        ("scale_factor", 2.0),
        ("crossover_rate", 0.0),
        ("crossover_rate", 1.0),
        ("jumping_rate", 0.0),
        ("jumping_rate", 0.4),
        ("clustering_period", 1),
        ("nfe_max", 1),
    ])
    def test_closed_bounds_accepted(self, knob, value):
        """Each closed end of a knob's range is a valid setting, and the
        search on it spends exactly its budget."""
        config = CodelConfig(**{"population_size": 10, "nfe_max": 600, "seed": 3, knob: value})
        result = run_codel(_sphere, 3, config)
        assert result.nfe == config.nfe_max


def _mlp_objective():
    """Classification error of a 3-2-1 net on 30 rows: many fitness ties."""
    rng = np.random.default_rng(0)
    rows = rng.normal(0, 1, (30, 3))
    data = Dataset(rows, (rows[:, 0] + 0.5 * rows[:, 1] > 0).astype(int))
    topology = MlpTopology((3, 2, 1))
    return (lambda batch: classification_error(batch, topology, data)), topology.param_count


OBJECTIVES = {"sphere": (_sphere, 3), "mlp": _mlp_objective()}

# nfe_max per (objective, population size) at seed 7 whose budget runs
# out partway through the named move; test_budgets_end_inside_named_move
# checks that each still does.
BUDGETS = {
    ("sphere", 4): {"generation": 13, "cluster": 49, "qobl": 71},
    ("sphere", 5): {"generation": 16, "cluster": 61, "qobl": 73},
    ("sphere", 12): {"generation": 37, "qobl": 49, "cluster": 205},
    ("sphere", 50): {"generation": 151, "qobl": 401, "cluster": 751},
    ("mlp", 4): {"generation": 13, "qobl": 25, "cluster": 65},
    ("mlp", 5): {"qobl": 16, "generation": 21, "cluster": 91},
    ("mlp", 12): {"generation": 37, "qobl": 85, "cluster": 181},
    ("mlp", 50): {"qobl": 151, "generation": 201, "cluster": 851},
}
CASES = [(name, size, move, nfe) for (name, size), moves in BUDGETS.items()
         for move, nfe in moves.items()]


class TestMatchesReference:
    """Bit for bit against the search over a tuple of frozen members."""

    @pytest.mark.parametrize("name,size,move,nfe_max", CASES)
    @pytest.mark.parametrize("plain", [False, True], ids=["codel", "plain"])
    def test_same_result_and_counts(self, name, size, move, nfe_max, plain):
        objective, dim = OBJECTIVES[name]
        config = CodelConfig(population_size=size, nfe_max=nfe_max, seed=7)
        run = run_plain_de if plain else run_codel
        result = run(objective, dim, config)
        best, history, nfe_history, nfe, iterations, counts = run_codel_reference(
            objective, dim, config, clustering=not plain, opposition=not plain)
        np.testing.assert_array_equal(result.best_params, best.params)
        assert result.best_fitness == best.fitness
        np.testing.assert_array_equal(result.history, history)
        np.testing.assert_array_equal(result.nfe_history, nfe_history)
        assert (result.nfe, result.iterations) == (nfe, iterations)
        assert result.nfe_by_source == counts["nfe_by_source"]
        assert result.entered == counts["entered"]
        assert result.trial_wins == counts["trial_wins"]

    @staticmethod
    def _spending_moves(monkeypatch, objective, dim, config):
        """(move, nfe spent) for every move of a run that spent any."""
        spent = []
        for source, attr in (("generation", "_generation"), ("cluster", "cluster_update"),
                             ("qobl", "qobl_population")):
            def recorded(pop, config, objective, rng,
                         _move=getattr(optimizer, attr), _source=source):
                out = _move(pop, config, objective, rng)
                spent.append((_source, out.nfe - pop.nfe))
                return out
            monkeypatch.setattr(optimizer, attr, recorded)
        optimizer.run_codel(objective, dim, config)
        monkeypatch.undo()
        return [s for s in spent if s[1] > 0]

    @pytest.mark.parametrize("name,size,move,nfe_max", CASES)
    def test_budgets_end_inside_named_move(self, name, size, move, nfe_max, monkeypatch):
        objective, dim = OBJECTIVES[name]
        config = CodelConfig(population_size=size, nfe_max=nfe_max, seed=7)
        moves = self._spending_moves(monkeypatch, objective, dim, config)
        roomy = self._spending_moves(monkeypatch, objective, dim,
                                     replace(config, nfe_max=nfe_max + 50))
        # The runs agree up to the last move, which spends more given room.
        last, spent = moves[-1]
        assert last == move
        assert roomy[: len(moves) - 1] == moves[:-1]
        assert roomy[len(moves) - 1][0] == move and roomy[len(moves) - 1][1] > spent


class TestObjectiveContract:
    """The objective scores a (k, D) batch and returns (k,)."""

    @pytest.mark.parametrize("objective", [
        lambda batch: 0.0,
        lambda batch: np.zeros(len(batch) - 1),
        lambda batch: np.zeros((len(batch), 1)),
    ], ids=["scalar", "short", "column"])
    def test_wrong_shape_raises(self, objective):
        with pytest.raises(ContractError):
            run_codel(objective, 3, CodelConfig(population_size=10, nfe_max=100))

    def test_one_call_per_move(self, monkeypatch):
        """Init, each generation, cluster update and jump is one batch of
        the rows the budget pays for."""
        batches = []

        def recorded(batch):
            batches.append(len(batch))
            return _sphere(batch)

        config = CodelConfig(population_size=10, nfe_max=700, seed=2)
        moves = TestMatchesReference._spending_moves(monkeypatch, recorded, 3, config)
        assert {move for move, _ in moves} == {"generation", "cluster", "qobl"}
        assert batches == [10] + [spent for _, spent in moves]


class TestRunCounts:

    def test_sources_sum_to_nfe(self):
        for seed in range(3):
            config = CodelConfig(population_size=12, nfe_max=700, seed=seed)
            result = run_codel(_sphere, 3, config)
            assert sum(result.nfe_by_source.values()) == result.nfe
            assert result.nfe_by_source["init"] == 12
            assert result.trial_wins <= result.nfe_by_source["generation"]
            assert result.entered["cluster"] <= result.nfe_by_source["cluster"]
            assert result.entered["qobl"] <= result.nfe_by_source["qobl"]

    def test_plain_de_spends_only_on_init_and_generations(self):
        result = run_plain_de(_sphere, 3, CodelConfig(population_size=10, nfe_max=305))
        assert result.nfe_by_source == {"init": 10, "generation": 295, "cluster": 0, "qobl": 0}
        assert result.entered == {"cluster": 0, "qobl": 0}

    def test_budget_below_population_evaluates_only_the_budget(self):
        calls = []
        result = run_codel(lambda batch: calls.extend([1] * len(batch)) or np.ones(len(batch)), 2,
                           CodelConfig(population_size=10, nfe_max=6))
        assert len(calls) == result.nfe == 6
        assert result.nfe_by_source == {"init": 6, "generation": 0, "cluster": 0, "qobl": 0}
        assert result.history.size == 0
