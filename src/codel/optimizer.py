"""Differential evolution with cluster crossover and quasi-opposition.

The global search keeps a fixed-size population inside a box, runs
classic rand/1/bin differential evolution, and layers two accelerators
on top: every few iterations the population is clustered with k-means
and cluster centers replace randomly chosen (non-best) members when they
score better, and with some probability per iteration the whole
population jumps through its quasi-opposite counterpart, keeping the
better half of the union. Termination is by objective-evaluation count.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ContractError, ParameterError
from .mlp import CandidateSolution
from .streams import named_rng

__all__ = [
    "CodelConfig",
    "Population",
    "CodelResult",
    "opposite",
    "quasi_opposite",
    "qobl_population",
    "mutate",
    "binomial_crossover",
    "select",
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
        if not (self.lower < self.upper):
            raise ParameterError(f"need lower < upper, got [{self.lower}, {self.upper}]")
        if self.nfe_max < 1:
            raise ParameterError("evaluation budget must be positive")


@dataclass(frozen=True)
class Population:
    """Search state: members, spent budget, iteration count, elitist best."""

    members: tuple
    nfe: int
    iteration: int
    best: CandidateSolution

    def vectors(self) -> np.ndarray:
        return np.array([m.params for m in self.members])

    def fitnesses(self) -> np.ndarray:
        return np.array([m.fitness for m in self.members])


@dataclass(frozen=True)
class CodelResult:
    best: CandidateSolution
    history: np.ndarray
    nfe_history: np.ndarray
    nfe: int
    iterations: int


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


def select(target: CandidateSolution, trial: CandidateSolution) -> CandidateSolution:
    """Greedy survivor selection; ties go to the trial vector."""
    if not target.evaluated() or not trial.evaluated():
        raise ContractError("selection requires evaluated candidates")
    return trial if trial.fitness <= target.fitness else target


def mutate(vectors: np.ndarray, target_index: int, scale_factor: float,
           lower: float, upper: float, rng) -> np.ndarray:
    """Difference mutation from three distinct other members, clamped."""
    n = vectors.shape[0]
    if n < 4:
        raise ParameterError("mutation needs at least 4 members")
    others = [i for i in range(n) if i != target_index]
    r1, r2, r3 = rng.choice(others, size=3, replace=False)
    v = vectors[r1] + scale_factor * (vectors[r2] - vectors[r3])
    return np.clip(v, lower, upper)


def binomial_crossover(target: np.ndarray, mutant: np.ndarray,
                       crossover_rate: float, rng) -> np.ndarray:
    """Mix mutant into target componentwise; one component always crosses."""
    dim = target.size
    j_rand = rng.integers(dim)
    take = rng.random(dim) <= crossover_rate
    take[j_rand] = True
    return np.where(take, mutant, target)


def _best_member(members) -> CandidateSolution:
    return min(members, key=lambda m: m.fitness)


def _evaluate_batch(vectors, objective, budget_left: int):
    """Evaluate at most budget_left vectors, in order."""
    out = []
    for v in vectors:
        if len(out) >= budget_left:
            break
        out.append(CandidateSolution(v, float(objective(v))))
    return out


def qobl_population(pop: Population, config: CodelConfig, objective, rng) -> Population:
    """Jump the population through quasi-opposition.

    Each member's quasi-opposite (against the static box bounds) is
    evaluated, and the population becomes the best population_size of
    the union. Evaluations stop early if the budget runs out.
    """
    budget_left = config.nfe_max - pop.nfe
    if budget_left <= 0:
        return pop
    opposites = [
        quasi_opposite(m.params, config.lower, config.upper, rng)
        for m in pop.members
    ]
    evaluated = _evaluate_batch(opposites, objective, budget_left)
    union = sorted(
        list(pop.members) + evaluated, key=lambda m: m.fitness
    )[: len(pop.members)]
    members = tuple(union)
    return replace(
        pop,
        members=members,
        nfe=pop.nfe + len(evaluated),
        best=select(pop.best, _best_member(members)),
    )


def _lloyd_iterations(points: np.ndarray, k: int, rng):
    """Yield (centers, assignments) after every Lloyd update."""
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    assignments = np.full(n, -1)
    for _ in range(100):
        dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_assignments = np.argmin(dist, axis=1)

        # Reseed any empty cluster with the point currently farthest
        # from its own center, one cluster at a time.
        taken = set()
        for c in range(k):
            if np.any(new_assignments == c):
                continue
            own_dist = dist[np.arange(n), new_assignments].copy()
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
    stops when assignments stabilize or after 100 rounds.

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
    centers are evaluated (spending budget); the incumbent best member
    is never eligible for replacement.
    """
    budget_left = config.nfe_max - pop.nfe
    if budget_left <= 0:
        return pop
    n = len(pop.members)
    k_max = int(np.floor(np.sqrt(n)))
    if k_max < 2:
        return pop
    k = int(rng.integers(2, k_max + 1))

    centers, _ = kmeans(pop.vectors(), k, rng)
    evaluated_centers = _evaluate_batch(centers, objective, budget_left)

    fitnesses = pop.fitnesses()
    best_index = int(np.argmin(fitnesses))
    eligible = [i for i in range(n) if i != best_index]
    replace_idx = rng.choice(eligible, size=k, replace=False)

    drawn = [pop.members[i] for i in replace_idx]
    survivors = sorted(
        evaluated_centers + drawn, key=lambda m: m.fitness
    )[:k]

    members = list(pop.members)
    for slot, member in zip(replace_idx, survivors):
        members[slot] = member
    members = tuple(members)
    return replace(
        pop,
        members=members,
        nfe=pop.nfe + len(evaluated_centers),
        best=select(pop.best, _best_member(members)),
    )


def _initial_population(objective, dim: int, config: CodelConfig, rng_init, rng_qobl,
                        with_opposition: bool) -> Population:
    vectors = rng_init.uniform(config.lower, config.upper,
                               size=(config.population_size, dim))
    members = tuple(_evaluate_batch(vectors, objective, config.nfe_max))
    pop = Population(
        members=members,
        nfe=len(members),
        iteration=0,
        best=_best_member(members),
    )
    if with_opposition:
        pop = qobl_population(pop, config, objective, rng_qobl)
    return pop


def _generation(pop: Population, config: CodelConfig, objective, rng) -> Population:
    """One pass of mutate/crossover/select over every member.

    Stops early once the evaluation budget is spent, leaving later
    members untouched for that iteration.
    """
    members = list(pop.members)
    vectors = pop.vectors()
    nfe = pop.nfe
    for i in range(len(members)):
        if nfe >= config.nfe_max:
            break
        mutant = mutate(vectors, i, config.scale_factor,
                        config.lower, config.upper, rng)
        trial_vec = binomial_crossover(vectors[i], mutant,
                                       config.crossover_rate, rng)
        trial = CandidateSolution(trial_vec, float(objective(trial_vec)))
        nfe += 1
        members[i] = select(members[i], trial)
    members = tuple(members)
    return replace(
        pop,
        members=members,
        nfe=nfe,
        iteration=pop.iteration + 1,
        best=select(pop.best, _best_member(members)),
    )


def _run(objective, dim: int, config: CodelConfig,
         clustering: bool, opposition: bool) -> CodelResult:
    rng_init = named_rng(config.seed, "init")
    rng_gen = named_rng(config.seed, "generation")
    rng_cluster = named_rng(config.seed, "cluster")
    rng_qobl = named_rng(config.seed, "qobl")

    pop = _initial_population(objective, dim, config, rng_init, rng_qobl,
                              with_opposition=opposition)
    history = []
    nfe_history = []
    while pop.nfe < config.nfe_max:
        pop = _generation(pop, config, objective, rng_gen)
        if clustering and pop.iteration % config.clustering_period == 0:
            pop = cluster_update(pop, config, objective, rng_cluster)
        if opposition and rng_qobl.random() < config.jumping_rate:
            pop = qobl_population(pop, config, objective, rng_qobl)
        history.append(pop.best.fitness)
        nfe_history.append(pop.nfe)
    return CodelResult(
        best=pop.best,
        history=np.array(history),
        nfe_history=np.array(nfe_history, dtype=int),
        nfe=pop.nfe,
        iterations=pop.iteration,
    )


def run_codel(objective, dim: int, config: CodelConfig) -> CodelResult:
    """Run the full global search until the evaluation budget is spent.

    Args:
        objective: callable mapping a parameter vector to a fitness to
            minimize.
        dim: dimensionality of the search space.
        config: search settings; config.seed fixes every random draw.

    Returns:
        CodelResult with the elitist best candidate and the
        per-iteration best-fitness history (non-increasing).
    """
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    return _run(objective, dim, config, clustering=True, opposition=True)


def run_plain_de(objective, dim: int, config: CodelConfig) -> CodelResult:
    """Ablated baseline: the same loop without clustering or opposition."""
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    return _run(objective, dim, config, clustering=False, opposition=False)
