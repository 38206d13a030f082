"""Differential evolution with cluster crossover and quasi-opposition.

The global search keeps a fixed-size population inside a box, runs
classic rand/1/bin differential evolution, and layers two accelerators
on top: every few iterations the population is clustered with k-means
and cluster centers replace randomly chosen (non-best) members when they
score better, and with some probability per iteration the whole
population jumps through its quasi-opposite counterpart, keeping the
better half of the union. Termination is by objective-evaluation count.

A generation is drawn whole: one draw gives every member its three
donors, one more its crossover mask, and every trial is built from the
generation-start population, as scipy's `updating='deferred'` does.
The objective scores a whole batch per call, as scipy's
`vectorized=True` does: the initial population, each generation's
trials, the cluster centers and the quasi-opposites are one call each.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, integer
from .streams import named_rng

__all__ = [
    "CodelConfig",
    "Population",
    "CodelResult",
    "opposite",
    "quasi_opposite",
    "qobl_population",
    "kmeans",
    "cluster_update",
    "run_codel",
    "run_plain_de",
]


@dataclass(frozen=True)
class CodelConfig:
    """Knobs of the global search, with the defaults used throughout."""

    population_size: int = 50
    nfe_max: int = 25000
    scale_factor: float = 0.5
    crossover_rate: float = 0.9
    jumping_rate: float = 0.3
    clustering_period: int = 10
    lower: float = -10.0
    upper: float = 10.0
    seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "nfe_max", "clustering_period", "seed"):
            object.__setattr__(self, name, integer(name, getattr(self, name)))
        if self.population_size < 4:
            raise ParameterError("population must have at least 4 members")
        if not (0 < self.scale_factor <= 2):
            raise ParameterError(f"scale factor must be in (0, 2], got {self.scale_factor}")
        if not (0 <= self.crossover_rate <= 1):
            raise ParameterError(f"crossover rate must be in [0, 1], got {self.crossover_rate}")
        if not (0 <= self.jumping_rate <= 0.4):
            raise ParameterError(f"jumping rate must be in [0, 0.4], got {self.jumping_rate}")
        if self.clustering_period < 1:
            raise ParameterError("clustering period must be >= 1")
        # Within +-2^500, every mutant r1 + F (r2 - r3) and quasi-opposite
        # is finite, and a squared k-means distance is at most 2^1002 per
        # weight, so no sum of the search overflows.
        if not (self.lower < self.upper and max(abs(self.lower), abs(self.upper)) <= 2.0**500):
            raise ParameterError(f"need lower < upper, both within +-2^500, "
                                 f"got lower={self.lower}, upper={self.upper}")
        if self.nfe_max < 1:
            raise ParameterError("evaluation budget must be positive")


@dataclass(frozen=True)
class Population:
    """Search state: one member per row of `vectors`, their fitnesses,
    the spent budget and the iteration count. `entered` counts the
    slots that the move which made this population filled with a new
    point.
    """

    vectors: np.ndarray
    fitness: np.ndarray
    nfe: int
    iteration: int
    entered: int = 0


@dataclass(frozen=True)
class CodelResult:
    """The search's outcome plus where its budget went.

    No move ever loses the least fitness, so the elitist best_params is
    the final population's first member of least fitness, with fitness
    best_fitness. nfe_by_source splits nfe over init, generation,
    cluster and qobl (the initial jump included); entered counts the
    members that cluster centers and quasi-opposites put into the
    population; trial_wins counts the generation trials that replaced
    their target.
    """

    best_params: np.ndarray
    best_fitness: float
    history: np.ndarray
    nfe_history: np.ndarray
    nfe: int
    iterations: int
    nfe_by_source: dict
    entered: dict
    trial_wins: int


def opposite(x, a, b):
    """Reflect x through the midpoint of [a, b]; x is clamped in first."""
    return a + b - np.clip(x, a, b)


def quasi_opposite(x, a, b, rng):
    """Uniform sample between the interval midpoint and the opposite of x.

    The two endpoints are sorted before sampling, so the result lies in
    [min(m, opp), max(m, opp)] whichever side of the midpoint x falls on.
    Works elementwise on arrays.
    """
    mid = (np.asarray(a, dtype=float) + b) / 2.0
    opp = opposite(x, a, b)
    lo = np.minimum(mid, opp)
    hi = np.maximum(mid, opp)
    return rng.uniform(lo, hi)


def _evaluate(objective, rows) -> np.ndarray:
    """The objective's scores of the (k, D) batch rows, one per row."""
    scores = np.asarray(objective(rows), dtype=float)
    if scores.shape != (len(rows),):
        raise ContractError(
            f"objective must return one score per row, shape ({len(rows)},); "
            f"got shape {scores.shape}"
        )
    return scores


def _keep_best(vectors, fitness, k: int):
    """The k fittest rows; a stable sort gives ties to the earlier row."""
    keep = np.argsort(fitness, kind="stable")[:k]
    return keep, vectors[keep], fitness[keep]


def qobl_population(pop: Population, config: CodelConfig, objective, rng) -> Population:
    """Jump the population through quasi-opposition.

    Each member's quasi-opposite (against the static box bounds) is
    evaluated, and the population becomes the best population_size of
    the union, members before their opposites on ties. Evaluations stop
    early if the budget runs out.
    """
    budget_left = config.nfe_max - pop.nfe
    if budget_left <= 0:
        return pop
    n = len(pop.fitness)
    opposites = quasi_opposite(pop.vectors, config.lower, config.upper, rng)[:budget_left]
    scores = _evaluate(objective, opposites)
    keep, vectors, fitness = _keep_best(np.concatenate([pop.vectors, opposites]),
                                        np.concatenate([pop.fitness, scores]), n)
    return Population(vectors, fitness, pop.nfe + len(scores), pop.iteration,
                      entered=int(np.count_nonzero(keep >= n)))


def _lloyd_iterations(points: np.ndarray, k: int, rng):
    """Yield (centers, assignments) after every Lloyd update.

    The distances are computed one center at a time, as k (n,) rows of a
    (k, n) array: each point's distance is the same contiguous reduction
    over its D differences as in an (n, k, D) broadcast, so every bit
    matches it, without the broadcast's (n, k, D) temporaries.
    """
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    assignments = np.full(n, -1)
    dist = np.empty((k, n))
    members = np.arange(n)
    for _ in range(100):
        for c in range(k):
            diff = points - centers[c]
            np.multiply(diff, diff, out=diff)
            np.sqrt(np.add.reduce(diff, axis=1), out=dist[c])
        new_assignments = np.argmin(dist, axis=0)

        # Reseed any empty cluster with the point currently farthest
        # from its own center, one cluster at a time. A reseed can take
        # the only member of a later cluster, so each cluster is checked
        # again when its turn comes.
        if not np.bincount(new_assignments, minlength=k).all():
            taken = set()
            for c in range(k):
                if np.any(new_assignments == c):
                    continue
                own_dist = dist[new_assignments, members]
                own_dist[list(taken)] = -np.inf
                far = int(np.argmax(own_dist))
                taken.add(far)
                centers[c] = points[far]
                new_assignments[far] = c

        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for c in range(k):
            centers[c] = points[assignments == c].mean(axis=0)
        yield centers.copy(), assignments.copy()


def kmeans(points: np.ndarray, k: int, rng):
    """Cluster points with Lloyd's algorithm under Euclidean distance.

    Centers start from k distinct members of the point set; iteration
    stops when assignments stabilize or after 100 rounds. Each round
    assigns every point to its nearest center, the lowest-numbered on a
    tie, reseeds each empty cluster with the point farthest from its own
    center, and moves each center to its cluster's mean.

    Returns:
        (centers, assignments) with centers.shape == (k, dim).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ParameterError("points must be a 2-D array")
    if not (2 <= k <= points.shape[0]):
        raise ParameterError(
            f"k must be in [2, {points.shape[0]}], got {k}"
        )
    # The first round always yields: no assignment equals the initial -1.
    *_, last = _lloyd_iterations(points, k, rng)
    return last


def cluster_update(pop: Population, config: CodelConfig, objective, rng) -> Population:
    """Replace k random non-best members with the k best of centers-plus-them.

    k is drawn uniformly from [2, floor(sqrt(population_size))]. Cluster
    centers are evaluated (spending budget) and win ties against the
    drawn members; the incumbent best member is never eligible for
    replacement.
    """
    budget_left = config.nfe_max - pop.nfe
    if budget_left <= 0:
        return pop
    n = len(pop.fitness)
    k_max = int(np.floor(np.sqrt(n)))
    if k_max < 2:
        return pop
    k = int(rng.integers(2, k_max + 1))

    centers, _ = kmeans(pop.vectors, k, rng)
    centers = centers[:budget_left]
    scores = _evaluate(objective, centers)

    eligible = np.delete(np.arange(n), int(np.argmin(pop.fitness)))
    slots = rng.choice(eligible, size=k, replace=False)
    keep, survivors, survivor_fitness = _keep_best(
        np.concatenate([centers, pop.vectors[slots]]),
        np.concatenate([scores, pop.fitness[slots]]), k)

    vectors, fitness = pop.vectors.copy(), pop.fitness.copy()
    vectors[slots], fitness[slots] = survivors, survivor_fitness
    return Population(vectors, fitness, pop.nfe + len(scores), pop.iteration,
                      entered=int(np.count_nonzero(keep < len(scores))))


def _initial_population(objective, dim: int, config: CodelConfig, rng) -> Population:
    vectors = rng.uniform(config.lower, config.upper,
                          size=(config.population_size, dim))[: config.nfe_max]
    fitness = _evaluate(objective, vectors)
    return Population(vectors, fitness, nfe=len(fitness), iteration=0)


def _draw_generation(n: int, dim: int, crossover_rate: float, rng):
    """(donors, take) for a generation of n members of dimension dim.

    Draw order: a (n, n - 1) matrix of keys, whose three smallest in row
    i, in increasing order, pick member i's donors (r1, r2, r3) among
    the other members, equal keys going to the lowest index, as in a
    stable sort; a (n, dim) uniform matrix, whose entries at most
    crossover_rate mark the mutant components; and one j_rand per row,
    a component that always takes the mutant.
    """
    if n < 4:
        raise ParameterError("mutation needs at least 4 members")
    keys = rng.random((n, n - 1))
    members = np.arange(n)
    # argmin returns the first least key; each pick is then masked out.
    donors = np.empty((n, 3), dtype=np.intp)
    for j in range(3):
        donors[:, j] = pick = keys.argmin(axis=1)
        keys[members, pick] = np.inf
    donors += donors >= members[:, None]
    take = rng.random((n, dim)) <= crossover_rate
    take[members, rng.integers(dim, size=n)] = True
    return donors, take


def _generation(pop: Population, config: CodelConfig, objective, rng) -> Population:
    """One rand/1/bin pass: every member's trial, drawn at once.

    The draws come in a fixed order: the donor keys, the crossover mask,
    then the j_rand vector (see _draw_generation). Member i's mutant is
    r1 + F (r2 - r3), clamped to the box, and its trial takes the mutant
    where its mask is set; all trials come from the generation-start
    population. A trial that scores no worse replaces its target. Only
    the first members the evaluation budget can pay for get a trial.
    """
    n, dim = pop.vectors.shape
    donors, take = _draw_generation(n, dim, config.crossover_rate, rng)
    trials = max(0, min(n, config.nfe_max - pop.nfe))
    r1, r2, r3 = donors[:trials].T
    # The mutants r1 + F (r2 - r3), clamped, then the targets' own values
    # where the mask is clear, all in one (trials, dim) array: the same
    # rounded operations as the expression and np.where. It is the only
    # array the generation holds while the objective runs, so that what
    # the two free together stays under glibc's trim threshold, past
    # which the heap top goes back to the system and is faulted in
    # again on the next call.
    candidates = pop.vectors[r2]
    candidates -= pop.vectors[r3]
    candidates *= config.scale_factor
    candidates += pop.vectors[r1]
    np.clip(candidates, config.lower, config.upper, out=candidates)
    np.copyto(candidates, pop.vectors[:trials], where=~take[:trials])
    scores = _evaluate(objective, candidates)
    won = np.flatnonzero(scores <= pop.fitness[:trials])
    vectors, fitness = pop.vectors.copy(), pop.fitness.copy()
    vectors[won], fitness[won] = candidates[won], scores[won]
    return Population(vectors, fitness, pop.nfe + trials, pop.iteration + 1,
                      entered=len(won))


def _run(objective, dim: int, config: CodelConfig, enhanced: bool) -> CodelResult:
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    rng_init = named_rng(config.seed, "init")
    rng_gen = named_rng(config.seed, "generation")
    rng_cluster = named_rng(config.seed, "cluster")
    rng_qobl = named_rng(config.seed, "qobl")
    nfe_by_source = dict.fromkeys(("init", "generation", "cluster", "qobl"), 0)
    entered = dict.fromkeys(("generation", "cluster", "qobl"), 0)

    def apply(source, move, pop, rng):
        after = move(pop, config, objective, rng)
        spent = after.nfe - pop.nfe
        nfe_by_source[source] += spent
        if spent:  # a move that spends nothing returns its input as is
            entered[source] += after.entered
        return after

    pop = _initial_population(objective, dim, config, rng_init)
    nfe_by_source["init"] = pop.nfe
    if enhanced:
        pop = apply("qobl", qobl_population, pop, rng_qobl)
    history = []
    nfe_history = []
    while pop.nfe < config.nfe_max:
        pop = apply("generation", _generation, pop, rng_gen)
        if enhanced and pop.iteration % config.clustering_period == 0:
            pop = apply("cluster", cluster_update, pop, rng_cluster)
        if enhanced and rng_qobl.random() < config.jumping_rate:
            pop = apply("qobl", qobl_population, pop, rng_qobl)
        history.append(float(pop.fitness.min()))
        nfe_history.append(pop.nfe)
    best = int(np.argmin(pop.fitness))
    return CodelResult(
        best_params=pop.vectors[best],
        best_fitness=float(pop.fitness[best]),
        history=np.array(history),
        nfe_history=np.array(nfe_history, dtype=int),
        nfe=pop.nfe,
        iterations=pop.iteration,
        nfe_by_source=nfe_by_source,
        entered={"cluster": entered["cluster"], "qobl": entered["qobl"]},
        trial_wins=entered["generation"],
    )


def run_codel(objective, dim: int, config: CodelConfig) -> CodelResult:
    """Run the full global search until the evaluation budget is spent.

    Args:
        objective: callable mapping a (k, dim) batch of parameter
            vectors, one per row, to a (k,) array of fitnesses to
            minimize. Each row's fitness must not depend on the others.
        dim: dimensionality of the search space.
        config: search settings; config.seed fixes every random draw.

    Returns:
        CodelResult with the elitist best_params and best_fitness and
        the per-iteration best-fitness history (non-increasing).
    """
    return _run(objective, dim, config, enhanced=True)


def run_plain_de(objective, dim: int, config: CodelConfig) -> CodelResult:
    """Ablated baseline: the same loop without clustering or opposition."""
    return _run(objective, dim, config, enhanced=False)
