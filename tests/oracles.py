"""Independent reference implementations used to cross-check the package.

Everything here is written from the defining formulas with plain Python
loops, fractions, or explicit DFT sums, or taken from scipy where the
package no longer uses it, deliberately avoiding the code paths the
library itself uses. A bug would have to be made twice, in two
different styles, to slip through a comparison against these.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.stats import rankdata

from codel.errors import ContractError, ParameterError, ShapeError
import codel.local_search as local_search
from codel.local_search import GRAD_TOL, LocalSearchConfig
from codel.mlp import (
    Dataset,
    MlpTopology,
    _forward_activations,
    classification_error,
    decode,
    mse_loss_and_gradient,
)
from codel.signal import Signal
from codel.streams import named_rng


# ------------------------------------------------------------------
# HRV features, transcribed with scalar loops
# ------------------------------------------------------------------

def hrv_time_domain_reference(rr):
    """Eight time-domain features from a list of RR intervals in ms."""
    x = [float(v) for v in rr]
    n = len(x)
    diffs = [x[i + 1] - x[i] for i in range(n - 1)]
    abs_diffs = [abs(d) for d in diffs]

    mean_rr = sum(x) / n
    bpm = 60000.0 / mean_rr
    sdnn = math.sqrt(sum((v - mean_rr) ** 2 for v in x) / n)
    mean_ad = sum(abs_diffs) / len(abs_diffs)
    sdsd = math.sqrt(sum((d - mean_ad) ** 2 for d in abs_diffs) / len(abs_diffs))
    rmssd = math.sqrt(sum(d * d for d in diffs) / len(diffs))
    pnn20 = 100.0 * sum(1 for d in abs_diffs if d > 20.0) / n
    pnn50 = 100.0 * sum(1 for d in abs_diffs if d > 50.0) / n

    ordered = sorted(x)
    if n % 2 == 1:
        med = ordered[n // 2]
    else:
        med = 0.5 * (ordered[n // 2 - 1] + ordered[n // 2])
    hr_mad = sum(abs(v - med) for v in x) / n
    return {
        "bpm": bpm, "ibi": mean_rr, "sdnn": sdnn, "sdsd": sdsd,
        "rmssd": rmssd, "pnn20": pnn20, "pnn50": pnn50, "hr_mad": hr_mad,
    }


def hrv_poincare_reference(rr):
    """sd1/sd2/s/ratio from the rotated lag-1 scatter; ratio None if sd2=0."""
    x = [float(v) for v in rr]
    pairs = list(zip(x[:-1], x[1:]))
    d1 = [(a - b) / math.sqrt(2.0) for a, b in pairs]
    d2 = [(a + b) / math.sqrt(2.0) for a, b in pairs]

    def pop_std(vals):
        m = sum(vals) / len(vals)
        return math.sqrt(sum((v - m) ** 2 for v in vals) / len(vals))

    sd1 = pop_std(d1)
    sd2 = pop_std(d2)
    s = math.pi * sd1 * sd2
    ratio = sd1 / sd2 if sd2 > 0 else None
    return {"sd1": sd1, "sd2": sd2, "s": s, "ratio": ratio}


def hrv_breathing_reference(rr):
    """Breathing estimate via hand-rolled interpolation and a direct DFT.

    Same recipe as the library (4 Hz tachogram grid from first to last
    beat time, mean removal, power spectrum zero-padded to the next
    power of two at or above 8x the grid length, argmax over 0.1-0.4 Hz
    inclusive) but with a bisect-based interpolation loop and an
    explicit DFT sum instead of np.interp and rfft.

    Returns (breaths_per_min, concentration_near_peak).
    """
    x = [float(v) for v in rr]
    beat_times = []
    acc = 0.0
    for v in x:
        acc += v
        beat_times.append(acc / 1000.0)

    step = 0.25
    t0, t_end = beat_times[0], beat_times[-1]
    n_grid = int(math.ceil((t_end - t0) / step))
    grid = [t0 + step * i for i in range(n_grid)]

    tachogram = []
    for t in grid:
        j = bisect_right(beat_times, t) - 1
        if j < 0:
            tachogram.append(x[0])
        elif j >= len(x) - 1:
            tachogram.append(x[-1])
        else:
            frac = (t - beat_times[j]) / (beat_times[j + 1] - beat_times[j])
            tachogram.append(x[j] + frac * (x[j + 1] - x[j]))
    mean_t = sum(tachogram) / len(tachogram)
    signal = np.array([v - mean_t for v in tachogram])

    nfft = 1
    while nfft < 8 * n_grid:
        nfft *= 2
    fs = 4.0
    ks = [k for k in range(nfft // 2 + 1) if 0.1 <= k * fs / nfft <= 0.4]
    j_idx = np.arange(signal.size)
    basis = np.exp(-2j * math.pi * np.outer(ks, j_idx) / nfft)
    power = np.abs(basis @ signal) ** 2
    band_freqs = np.array(ks) * fs / nfft

    peak = int(np.argmax(power))
    f_star = float(band_freqs[peak])
    total = float(np.sum(power))
    if total <= 0:
        return 60.0 * f_star, 0.0
    near = np.abs(band_freqs - f_star) <= 0.02
    return 60.0 * f_star, float(np.sum(power[near])) / total


def hrv_vector_reference(rr):
    """All 13 features in report order, with an undefined ratio imputed 0."""
    td = hrv_time_domain_reference(rr)
    pc = hrv_poincare_reference(rr)
    breaths, _ = hrv_breathing_reference(rr)
    ratio = pc["ratio"] if pc["ratio"] is not None else 0.0
    return [
        td["bpm"], td["ibi"], td["sdnn"], td["sdsd"], td["rmssd"],
        td["pnn20"], td["pnn50"], td["hr_mad"],
        pc["sd1"], pc["sd2"], pc["s"], ratio, breaths,
    ]


def random_rr_series(rng, min_duration_s=10.5):
    """A plausible random RR list: jittered base rate, at least 10.5 s."""
    while True:
        n = int(rng.integers(24, 121))
        base = rng.uniform(600.0, 1100.0)
        sigma = rng.uniform(5.0, 60.0)
        rr = np.maximum(rng.normal(base, sigma, n), 350.0)
        if np.sum(rr) / 1000.0 >= min_duration_s:
            return rr


# ------------------------------------------------------------------
# Classification metrics in exact rational arithmetic
# ------------------------------------------------------------------

def metric_reference(tp, tn, fp, fn):
    """Six metrics from confusion counts, zero denominators giving 0.

    All but gmean are exact Fractions; gmean needs a square root and
    comes back as a float.
    """
    def ratio(num, den):
        return Fraction(num, den) if den != 0 else Fraction(0)

    accuracy = ratio(tp + tn, tp + tn + fp + fn)
    sensitivity = ratio(tp, tp + fn)
    specificity = ratio(tn, tn + fp)
    precision = ratio(tp, tp + fp)
    fscore = ratio(2 * tp, 2 * tp + fp + fn)
    gmean = math.sqrt(float(sensitivity) * float(specificity))
    return {
        "accuracy": accuracy,
        "sensitivity": sensitivity,
        "specificity": specificity,
        "precision": precision,
        "fscore": fscore,
        "gmean": gmean,
    }


def confusion_labels(tp, tn, fp, fn):
    """(labels, predictions) holding the given confusion counts."""
    return (np.repeat([1, 0, 0, 1], [tp, tn, fp, fn]),
            np.repeat([1, 0, 1, 0], [tp, tn, fp, fn]))


def error_enhancement_reference(base_error, boosted_error):
    return (base_error - boosted_error) / base_error * 100.0


def kfold_reference(k, labels, seed):
    """Stratified folds dealt one sample at a time: each class, in
    `np.unique` order, is shuffled and dealt round-robin, the dealing
    position carried over from class to class."""
    labels = np.asarray(labels)
    rng = named_rng(seed, "folds")
    folds = [[] for _ in range(k)]
    cursor = 0
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        rng.shuffle(idx)
        for i in idx:
            folds[cursor % k].append(int(i))
            cursor += 1
    return [np.array(sorted(f), dtype=int) for f in folds]


# ------------------------------------------------------------------
# Finite-difference gradient of any scalar loss
# ------------------------------------------------------------------

def central_difference(loss, params, h=1e-5):
    """Central finite differences of loss around params."""
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + h
        up = loss(bumped)
        bumped[i] = params[i] - h
        down = loss(bumped)
        grad[i] = (up - down) / (2.0 * h)
    return grad


# ------------------------------------------------------------------
# Rank and spread helpers written the long way
# ------------------------------------------------------------------

def descending_ranks_reference(values):
    """Rank 1 = largest; tied values share the average of their ranks."""
    values = [float(v) for v in values]
    order = sorted(range(len(values)), key=lambda i: -values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def rankdata_reference(values):
    """Ascending average ranks as scipy computes them; NaN anywhere gives all NaN."""
    return rankdata(values, method="average")


def sample_std_reference(values):
    """ddof=1 standard deviation, the spread reported across folds."""
    m = sum(values) / len(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


# ------------------------------------------------------------------
# Hampel filter and logistic sigmoid, one sample at a time
# ------------------------------------------------------------------

MAD_SCALE = 1.4826


def hampel_reference(x, half_window, n_sigmas=3.0):
    """The Hampel filter as a per-sample loop over reflected windows.

    Each sample is compared with the median and MAD of the 2h + 1
    samples centred on it in the record extended at each end by its
    mirror image, the end sample repeated (``np.pad(mode="symmetric")``).
    A half window of n or more, n the record's length, acts as n - 1.
    """
    x = np.asarray(x, dtype=float)
    out = x.copy()
    half_window = min(half_window, x.size - 1)
    padded = np.pad(x, half_window, mode="symmetric")
    for i in range(x.size):
        window = padded[i: i + 2 * half_window + 1]
        med = np.median(window)
        mad = np.median(np.abs(window - med))
        if abs(x[i] - med) > n_sigmas * MAD_SCALE * mad:
            out[i] = med
    return out


def sigmoid_reference(z):
    """The logistic function with one branch per sign of z.

    exp only ever sees a non-positive argument, so it never overflows.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ------------------------------------------------------------------
# A train of pulses at known beat positions, for the peak detector
# ------------------------------------------------------------------

def synthetic_pulse_train(duration_s: float = 30.0, fs: float = 100.0,
                          beat_interval_s: float = 1.0, pulse_width_s: float = 0.03,
                          noise_std: float = 0.0, seed: int = 0):
    """A train of Gaussian bumps at known beat positions, plus noise.

    Returns:
        (Signal, true peak indices) so detector tests can compare
        against ground truth.
    """
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    step = int(round(beat_interval_s * fs))
    peak_indices = np.arange(step, n - step // 2, step)
    samples = np.zeros(n)
    for idx in peak_indices:
        samples += np.exp(-0.5 * ((t - idx / fs) / pulse_width_s) ** 2)
    if noise_std > 0:
        samples = samples + named_rng(seed, "pulse-noise").normal(0, noise_std, n)
    return Signal(samples, fs), peak_indices


# ------------------------------------------------------------------
# A numeric file, read whole and converted row by row
# ------------------------------------------------------------------

def read_numbers_reference(path, check):
    """What the numeric readers make of a file: the whole text split at
    "\n", the line rules, then `check(header, comments)`, then every
    cell through `float(cell.strip())`, with the package's messages.

    Returns:
        (check's result, float array of shape (rows, len(header))).
    """
    path = Path(path)
    if not path.is_file():
        raise ParameterError(f"no such file: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ParameterError(
            f"{path}: not {exc.encoding} text: {exc.reason} at byte {exc.start}") from None
    comments, header, rows = [], None, []
    for number, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        elif len(line.split(",")) != len(header):
            raise ParameterError(
                f"{path}: line {number}: ragged row of {len(line.split(','))} "
                f"cells under a {len(header)}-column header")
        else:
            rows.append(line.split(","))
    if header is None:
        raise ParameterError(f"{path} has no header row")
    checked = check(header, comments)
    values = []
    for row in rows:
        for cell in row:
            try:
                values.append(float(cell.strip()))
            except ValueError as exc:
                raise ParameterError(f"{path}: non-numeric value ({exc})") from None
    return checked, np.array(values, dtype=float).reshape(len(rows), len(header))


# ------------------------------------------------------------------
# The global search with a tuple of frozen members, one per object
# ------------------------------------------------------------------

class _Member(NamedTuple):
    """One evaluated member of the reference population."""

    params: np.ndarray
    fitness: float


def _select_reference(target, trial):
    return trial if trial.fitness <= target.fitness else target


def _best_member_reference(members):
    return min(members, key=lambda m: m.fitness)


def _score_reference(objective, v):
    """One member's fitness, from a batch objective given a one-row batch."""
    return float(objective(np.asarray(v)[None])[0])


def _evaluate_batch_reference(vectors, objective, budget_left):
    out = []
    for v in vectors:
        if len(out) >= budget_left:
            break
        out.append(_Member(np.array(v, dtype=float), _score_reference(objective, v)))
    return out


def _quasi_opposite_reference(x, a, b, rng):
    mid = (np.asarray(a, dtype=float) + b) / 2.0
    opp = a + b - np.clip(x, a, b)
    return rng.uniform(np.minimum(mid, opp), np.maximum(mid, opp))


def donors_reference(keys):
    """Member i's donors (r1, r2, r3) from row i of the (n, n - 1) donor
    keys: the three smallest keys in a stable sort, ties to the lower
    index, each index past i moved up by one."""
    donors = keys.argsort(axis=1, kind="stable")[:, :3]
    return donors + (donors >= np.arange(len(keys))[:, None])


def _kmeans_reference(points, k, rng):
    """Lloyd's algorithm, reseeding empty clusters with the farthest point."""
    n = points.shape[0]
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    assignments = np.full(n, -1)
    for _ in range(100):
        dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        new_assignments = np.argmin(dist, axis=1)
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
    return centers


def run_codel_reference(objective, dim, config, clustering=True, opposition=True):
    """Cluster/quasi-opposition DE over a tuple of _Member objects.

    Every member is its own frozen object, every selection compares two
    of them, and each quasi-opposite is drawn member by member. Each
    generation makes its three draws up front and then builds the trials
    member by member and component by component. The batch objective
    scores one member per call, as a one-row batch. Returns
    (best, history, nfe_history, nfe, iterations), with best a
    _Member; clustering=opposition=False gives plain DE.
    A sixth item holds the run's counts: nfe by source, and the members
    each move put in, counted by object identity.
    """
    rng_init = named_rng(config.seed, "init")
    rng_gen = named_rng(config.seed, "generation")
    rng_cluster = named_rng(config.seed, "cluster")
    rng_qobl = named_rng(config.seed, "qobl")
    state = {}
    nfe_by_source = dict.fromkeys(("init", "generation", "cluster", "qobl"), 0)
    entered = dict.fromkeys(("generation", "cluster", "qobl"), 0)

    def counted(source, move, members):
        nfe, ids = state["nfe"], {id(m) for m in members}
        out = move(members)
        nfe_by_source[source] += state["nfe"] - nfe
        entered[source] += sum(1 for m in out if id(m) not in ids)
        return out

    def qobl(members):
        budget_left = config.nfe_max - state["nfe"]
        if budget_left <= 0:
            return members
        opposites = [_quasi_opposite_reference(m.params, config.lower, config.upper,
                                               rng_qobl) for m in members]
        evaluated = _evaluate_batch_reference(opposites, objective, budget_left)
        state["nfe"] += len(evaluated)
        return tuple(sorted(list(members) + evaluated,
                            key=lambda m: m.fitness)[: len(members)])

    def cluster(members):
        budget_left = config.nfe_max - state["nfe"]
        if budget_left <= 0:
            return members
        n = len(members)
        k_max = int(np.floor(np.sqrt(n)))
        if k_max < 2:
            return members
        k = int(rng_cluster.integers(2, k_max + 1))
        vectors = np.array([m.params for m in members])
        centers = _kmeans_reference(vectors, k, rng_cluster)
        evaluated_centers = _evaluate_batch_reference(centers, objective, budget_left)
        state["nfe"] += len(evaluated_centers)
        best_index = int(np.argmin([m.fitness for m in members]))
        eligible = [i for i in range(n) if i != best_index]
        replace_idx = rng_cluster.choice(eligible, size=k, replace=False)
        drawn = [members[i] for i in replace_idx]
        survivors = sorted(evaluated_centers + drawn, key=lambda m: m.fitness)[:k]
        out = list(members)
        for slot, member in zip(replace_idx, survivors):
            out[slot] = member
        return tuple(out)

    def generation(members):
        # The three draws, in order: donor keys, crossover keys, j_rand.
        n = len(members)
        donor_keys = rng_gen.random((n, n - 1))
        crossover_keys = rng_gen.random((n, dim))
        j_rand = rng_gen.integers(dim, size=n)
        out = list(members)
        for i in range(n):
            if state["nfe"] >= config.nfe_max:
                break
            others = [j for j in range(n) if j != i]
            by_key = sorted(range(n - 1), key=lambda j: donor_keys[i][j])
            r1, r2, r3 = (members[others[j]].params for j in by_key[:3])
            trial_vec = members[i].params.copy()
            for d in range(dim):
                if crossover_keys[i][d] <= config.crossover_rate or d == j_rand[i]:
                    mutant = float(r1[d]) + config.scale_factor * (float(r2[d]) - float(r3[d]))
                    trial_vec[d] = min(max(mutant, config.lower), config.upper)
            trial = _Member(trial_vec, _score_reference(objective, trial_vec))
            state["nfe"] += 1
            out[i] = _select_reference(out[i], trial)
        return tuple(out)

    vectors = rng_init.uniform(config.lower, config.upper,
                               size=(config.population_size, dim))
    members = tuple(_evaluate_batch_reference(vectors, objective, config.nfe_max))
    state["nfe"] = nfe_by_source["init"] = len(members)
    best = _best_member_reference(members)
    if opposition:
        members = counted("qobl", qobl, members)
        best = _select_reference(best, _best_member_reference(members))
    history, nfe_history = [], []
    iteration = 0
    while state["nfe"] < config.nfe_max:
        members = counted("generation", generation, members)
        iteration += 1
        best = _select_reference(best, _best_member_reference(members))
        if clustering and iteration % config.clustering_period == 0:
            members = counted("cluster", cluster, members)
            best = _select_reference(best, _best_member_reference(members))
        if opposition and rng_qobl.random() < config.jumping_rate:
            members = counted("qobl", qobl, members)
            best = _select_reference(best, _best_member_reference(members))
        history.append(best.fitness)
        nfe_history.append(state["nfe"])
    counts = {"nfe_by_source": nfe_by_source,
              "entered": {"cluster": entered["cluster"], "qobl": entered["qobl"]},
              "trial_wins": entered["generation"]}
    return (best, np.array(history), np.array(nfe_history, dtype=int),
            state["nfe"], iteration, counts)


# ------------------------------------------------------------------
# MLP decisions through the output activation, and the plain MSE
# ------------------------------------------------------------------

def predict_reference(params, topology, rows):
    """Class 1 where the output neuron's sigmoid activation is >= 0.5."""
    columns = np.ascontiguousarray(np.transpose(rows), dtype=float)
    out = _forward_activations(decode(params, topology), columns)[-1]
    return (out[0] >= 0.5).astype(int)


def classification_error_reference(params, topology, data):
    wrong = np.count_nonzero(predict_reference(params, topology, data.rows) != data.labels)
    return 100.0 * wrong / len(data)


def percent_wrong_reference(ones, labels):
    """Per row of the class-1 flags, the percentage that disagree with the
    0/1 labels, counted by `count_nonzero`."""
    return 100.0 * np.count_nonzero(ones != labels, axis=-1) / labels.shape[-1]


def mse_loss(params, topology: MlpTopology, data: Dataset) -> float:
    """Mean squared error of the output against the labels, from a plain
    forward pass of one flat vector; a (k, D) stack is a shape error."""
    if np.ndim(params) != 1:
        raise ShapeError(f"expected one flat parameter vector, got shape {np.shape(params)}")
    out = _forward_activations(decode(params, topology), data.columns)[-1]
    targets = data.labels.astype(float)
    return float(np.mean((out - targets) ** 2))


# ------------------------------------------------------------------
# Refiners: one state object and one kernel per method, dispatched by
# method name in a single loop. Returns (params, final error,
# loss history, error history). The loss functions are looked up here,
# and the methods' fixed settings in codel.local_search, at call time:
# a test can swap the loss functions here and in codel.local_search
# alike, and a setting it patches there holds here too.
# ------------------------------------------------------------------

class _RpState(NamedTuple):
    weights: np.ndarray
    step_sizes: np.ndarray
    prev_grad: np.ndarray


class _GdmState(NamedTuple):
    weights: np.ndarray
    velocity: np.ndarray


class _GdaDecision(NamedTuple):
    learning_rate: float
    accept: bool


class _OssState(NamedTuple):
    step: np.ndarray | None
    grad_change: np.ndarray | None


class _CgprState(NamedTuple):
    prev_grad: np.ndarray | None
    prev_direction: np.ndarray | None
    since_restart: int
    restart_period: int


def _step_rp(state: _RpState, gradient: np.ndarray) -> _RpState:
    """One resilient-propagation update.

    Per weight, the step size grows when the gradient keeps its sign,
    shrinks when it flips, and stays put when either gradient is zero;
    the weight then moves by the step size against the gradient's sign.
    Only the sign of the gradient is used, never its magnitude.
    """
    product = state.prev_grad * gradient
    steps = state.step_sizes.copy()
    steps[product > 0] = np.minimum(steps[product > 0] * local_search.RP_INCREASE,
                                    local_search.RP_STEP_MAX)
    steps[product < 0] = np.maximum(steps[product < 0] * local_search.RP_DECREASE,
                                    local_search.RP_STEP_MIN)
    weights = state.weights - np.sign(gradient) * steps
    return _RpState(weights, steps, gradient.copy())


def _step_gd(weights: np.ndarray, gradient: np.ndarray, learning_rate: float) -> np.ndarray:
    """Plain steepest-descent update."""
    return weights - learning_rate * gradient


def _step_gdm(state: _GdmState, gradient: np.ndarray, learning_rate: float,
              momentum: float) -> _GdmState:
    """Momentum update; with momentum 0 this is exactly _step_gd."""
    velocity = momentum * state.velocity + learning_rate * (1.0 - momentum) * gradient
    return _GdmState(state.weights - velocity, velocity)


def _step_gda(learning_rate: float, loss_now: float, loss_prev: float) -> _GdaDecision:
    """Adaptive-rate rule: grow on improvement, shrink and reject on blow-up.

    A loss increase within the tolerance band is accepted with the rate
    unchanged, so the trajectory can cross small ridges.
    """
    if loss_now < loss_prev:
        return _GdaDecision(learning_rate * local_search.GDA_INCREASE, True)
    if loss_now > loss_prev * (1.0 + local_search.GDA_MAX_LOSS_INCREASE):
        return _GdaDecision(learning_rate * local_search.GDA_DECREASE, False)
    return _GdaDecision(learning_rate, True)


def _step_oss(state: _OssState, gradient: np.ndarray) -> np.ndarray:
    """One-step secant search direction.

    Combines the negative gradient with the previous step s and gradient
    change y through the two secant scalars. Degenerate curvature
    (|s.y| below 1e-12) resets to steepest descent, as does the first
    call.
    """
    if state.step is None or state.grad_change is None:
        return -gradient
    s, y = state.step, state.grad_change
    sty = float(s @ y)
    if abs(sty) < 1e-12:
        return -gradient
    b_c = float(s @ gradient) / sty
    a_c = -(1.0 + float(y @ y) / sty) * b_c + float(y @ gradient) / sty
    return -gradient + a_c * s + b_c * y


def _step_cgpr(state: _CgprState, gradient: np.ndarray):
    """Polak-Ribiere conjugate direction with restarts.

    The mixing coefficient is clipped at zero and the direction resets
    to steepest descent periodically, so a poorly conditioned history
    can never push the search uphill for long.

    Returns:
        (direction, next state)
    """
    restart = (
        state.prev_grad is None
        or state.prev_direction is None
        or state.since_restart >= state.restart_period
    )
    if not restart:
        denom = float(state.prev_grad @ state.prev_grad)
        if denom == 0.0:
            return np.zeros_like(gradient), _CgprState(
                gradient.copy(), np.zeros_like(gradient), 0, state.restart_period
            )
        beta = float((gradient - state.prev_grad) @ gradient) / denom
        beta = max(beta, 0.0)
        direction = -gradient + beta * state.prev_direction
    else:
        direction = -gradient
    return direction, _CgprState(
        gradient.copy(), direction.copy(),
        0 if restart else state.since_restart + 1,
        state.restart_period,
    )


def _line_search_reference(f, x: np.ndarray, d: np.ndarray, g: np.ndarray) -> float:
    """Largest halved step satisfying the sufficient-decrease condition.

    Tries a = 1, then shrinks up to MAX_BACKTRACKS times; returns 0 when
    even the smallest step fails the test.
    """
    slope = float(g @ d)
    if slope >= 0:
        raise ContractError("line search requires a descent direction")
    f0 = f(x)
    a = 1.0
    for _ in range(local_search.MAX_BACKTRACKS + 1):
        if f(x + a * d) <= f0 + local_search.ARMIJO_C1 * a * slope:
            return a
        a *= local_search.BACKTRACK_SHRINK
    return 0.0


class _BestTrackerReference:
    """Keeps the iterate with the lowest classification error, MSE tiebreak."""

    def __init__(self, params, error, loss):
        self.params = np.array(params, dtype=float)
        self.error = error
        self.loss = loss

    def offer(self, params, error, loss) -> bool:
        """Record params if better; True when classification error dropped."""
        improved_error = error < self.error
        if improved_error or (error == self.error and loss < self.loss):
            self.params = np.array(params, dtype=float)
            self.error = error
            self.loss = loss
        return improved_error


def refine_reference(initial, method: str, topology: MlpTopology, data: Dataset,
                     config: LocalSearchConfig):
    """Run `method` from the given weights.

    The starting point is used exactly as passed, never re-randomized,
    and the returned weights are the best iterate encountered, so the
    result is never worse than the initialization on the training data.
    Stops early at a stationary point or after `patience` epochs without
    a drop in classification error.
    """
    w = np.array(initial, dtype=float)
    if w.shape != (topology.param_count,):
        raise ParameterError(
            f"expected {topology.param_count} weights, got {w.shape}"
        )

    def loss_at(params):
        return mse_loss(params, topology, data)

    loss, grad, _ = mse_loss_and_gradient(w, topology, data)
    error = classification_error(w, topology, data)
    best = _BestTrackerReference(w, error, loss)
    loss_history = [loss]
    error_history = [error]

    rp_state = _RpState(w, np.full(w.size, local_search.RP_STEP_INIT), np.zeros_like(w))
    gdm_state = _GdmState(w, np.zeros_like(w))
    oss_state = _OssState(None, None)
    cgpr_state = _CgprState(None, None, 0, topology.param_count)
    gda_rate = config.learning_rate

    stale_epochs = 0
    for _ in range(config.epochs - 1):
        if np.max(np.abs(grad)) < GRAD_TOL:
            break

        if method == "rp":
            rp_state = _step_rp(rp_state, grad)
            w_next = rp_state.weights
        elif method == "gd":
            w_next = _step_gd(w, grad, config.learning_rate)
        elif method == "gdm":
            gdm_state = _step_gdm(gdm_state, grad, config.learning_rate,
                                  config.momentum)
            w_next = gdm_state.weights
        elif method == "gda":
            proposed = w - gda_rate * grad
            decision = _step_gda(gda_rate, loss_at(proposed), loss)
            gda_rate = decision.learning_rate
            w_next = proposed if decision.accept else w
        elif method == "oss":
            d = _step_oss(oss_state, grad)
            if float(grad @ d) >= 0:
                d = -grad
            a = _line_search_reference(loss_at, w, d, grad)
            if a == 0.0:
                break
            w_next = w + a * d
        else:
            d, cgpr_state = _step_cgpr(cgpr_state, grad)
            if float(grad @ d) >= 0:
                # Restart: a conjugate direction that fails the descent
                # test must not stay in the history.
                d = -grad
                cgpr_state = _CgprState(grad.copy(), d.copy(), 0,
                                        cgpr_state.restart_period)
            a = _line_search_reference(loss_at, w, d, grad)
            if a == 0.0:
                break
            w_next = w + a * d

        loss_next, grad_next, _ = mse_loss_and_gradient(w_next, topology, data)
        if method == "oss":
            oss_state = _OssState(w_next - w, grad_next - grad)
        w, loss, grad = w_next, loss_next, grad_next

        error = classification_error(w, topology, data)
        loss_history.append(loss)
        error_history.append(error)
        if best.offer(w, error, loss):
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= config.patience:
                break

    return (best.params, best.error, np.array(loss_history),
            np.array(error_history))
