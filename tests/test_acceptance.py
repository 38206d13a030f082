"""Acceptance gate: one test per release criterion.

Each test prints a single `criterion NN <label>: PASS/FAIL` line and
then asserts, so a full run gives a twelve-line scoreboard under
`pytest -s`. Fixed fixtures (the reference means table, seed lists,
budgets) are frozen here on purpose; loosening them quietly would
defeat the gate.
"""

import math
import time

import numpy as np

from codel.cli import main
from codel.datasets import (
    modulated_rr,
    two_gaussian_dataset,
    xor_dataset,
)
from codel.evaluation import (METRIC_NAMES, SUMMARY_NAMES, error_enhancement, fold_summary,
                              pair_outcomes, rank_and_mean_rank)
from codel.hrv import extract_features
from codel.io import read_table, write_table
from codel.local_search import METHODS, LocalSearchConfig
from codel.mlp import Dataset, MlpTopology, mse_loss_and_gradient
from codel.optimizer import (
    CodelConfig,
    Population,
    _lloyd_iterations,
    cluster_update,
    kmeans,
    opposite,
    qobl_population,
    quasi_opposite,
    run_codel,
    run_plain_de,
)
from codel.signal import RrSeries
from codel.streams import named_rng
from codel.training import VARIANT_NAMES, evaluate_grid, train_methods

from oracles import (central_difference, confusion_labels, hrv_vector_reference,
                     metric_reference, mse_loss, random_rr_series)
from codel.evaluation import metrics

# Reference table of metric means (percent) for the twelve variants on
# a large clinical ECG benchmark. The comparison statistics derived
# from it (error enhancement, ranks, win/tie/loss) have known values
# that criteria 1-3 check exactly.
REFERENCE_NAMES = (
    "rp", "codel-rp", "oss", "codel-oss", "gdm", "codel-gdm",
    "gda", "codel-gda", "gd", "codel-gd", "cgpr", "codel-cgpr",
)
REFERENCE_MEANS = np.array([
    # accuracy, sensitivity, specificity, precision, fscore, gmean
    [70.46, 83.42, 50.68, 72.09, 77.32, 64.97],   # rp
    [71.13, 83.89, 51.68, 72.61, 77.83, 65.80],   # codel-rp
    [70.88, 83.77, 51.21, 72.42, 77.66, 65.41],   # oss
    [75.36, 81.03, 66.70, 79.40, 79.98, 72.99],   # codel-oss
    [68.21, 83.50, 44.89, 70.18, 76.05, 60.46],   # gdm
    [72.11, 87.91, 48.03, 72.53, 79.25, 64.17],   # codel-gdm
    [69.33, 83.89, 47.11, 76.10, 76.99, 47.51],   # gda
    [71.23, 84.35, 51.22, 72.95, 78.02, 64.97],   # codel-gda
    [69.43, 83.31, 48.26, 71.09, 76.70, 63.35],   # gd
    [71.06, 84.20, 51.03, 72.41, 77.84, 65.50],   # codel-gd
    [79.02, 84.43, 70.78, 81.59, 82.94, 77.23],   # cgpr
    [79.21, 79.79, 78.32, 84.99, 82.28, 79.00],   # codel-cgpr
])

_ROW = {name: i for i, name in enumerate(REFERENCE_NAMES)}


def _verdict(number: int, label: str, failures) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"criterion {number:02d} {label}: {status}", flush=True)
    assert not failures, "; ".join(failures)


def _column(metric: str, names) -> list:
    j = METRIC_NAMES.index(metric)
    return [REFERENCE_MEANS[_ROW[n], j] for n in names]


def _sphere(x):
    """x @ x per row of the batch x, by the dot product np.dot(row, row) makes."""
    return (x[:, None, :] @ x[:, :, None])[:, 0, 0]


def test_criterion_01_error_enhancement_reproduction():
    failures = []
    start = time.perf_counter()

    worst = error_enhancement(70.46, 71.13)
    best = error_enhancement(79.02, 79.21)
    if abs(worst - 2.27) > 0.01:
        failures.append(f"rp pair gave {worst:.4f}, expected 2.27 +/- 0.01")
    if abs(best - 0.90) > 0.01:
        failures.append(f"cgpr pair gave {best:.4f}, expected 0.90 +/- 0.01")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    _verdict(1, "error enhancement reproduction", failures)


def test_criterion_02_mean_rank_reproduction():
    failures = []
    ranks, mean_ranks = rank_and_mean_rank(REFERENCE_MEANS)

    got_cgpr = list(ranks[_ROW["codel-cgpr"]])
    if got_cgpr != [1, 12, 1, 1, 2, 1]:
        failures.append(f"codel-cgpr ranks {got_cgpr}, expected [1,12,1,1,2,1]")
    got_oss = list(ranks[_ROW["codel-oss"]])
    if got_oss != [3, 11, 3, 3, 3, 3]:
        failures.append(f"codel-oss ranks {got_oss}, expected [3,11,3,3,3,3]")

    if abs(mean_ranks[_ROW["codel-cgpr"]] - 3.0) > 0.05:
        failures.append(f"codel-cgpr mean rank {mean_ranks[_ROW['codel-cgpr']]:.4f}")
    if abs(mean_ranks[_ROW["codel-oss"]] - 4.3) > 0.05:
        failures.append(f"codel-oss mean rank {mean_ranks[_ROW['codel-oss']]:.4f}")
    _verdict(2, "mean rank reproduction", failures)


def test_criterion_03_win_tie_loss_reproduction():
    failures = []
    bases = [m for m in METHODS]
    boosted = [f"codel-{m}" for m in METHODS]

    expected = {"accuracy": (6, 0, 0), "specificity": (6, 0, 0),
                "sensitivity": (4, 0, 2)}
    for metric, want in expected.items():
        outcomes = pair_outcomes(_column(metric, bases), _column(metric, boosted))
        got = tuple(int(np.count_nonzero(outcomes == o)) for o in ("win", "tie", "loss"))
        if got != want:
            failures.append(f"{metric} W/T/L {got}, expected {want}")
    _verdict(3, "win tie loss reproduction", failures)


def test_criterion_04_metric_oracle():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    worst = 0.0
    while checked < 1000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
        if tp + tn + fp + fn == 0:
            continue
        report = metrics(*confusion_labels(tp, tn, fp, fn))
        reference = metric_reference(tp, tn, fp, fn)
        for value, name in zip(report, METRIC_NAMES):
            worst = max(worst, abs(value - float(reference[name])))
        checked += 1
    if worst > 1e-12:
        failures.append(f"worst metric deviation {worst:.3e} > 1e-12")

    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, limit 5s")
    _verdict(4, "metric oracle equivalence", failures)


def test_criterion_05_gradient_correctness():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for layer_sizes in [(2, 3, 1), (13, 10, 1)]:
        topology = MlpTopology(layer_sizes)
        for _ in range(50):
            params = rng.uniform(-2.0, 2.0, topology.param_count)
            rows = rng.normal(0.0, 1.0, (12, layer_sizes[0]))
            labels = rng.integers(0, 2, 12)
            data = Dataset(rows, labels)
            _, grad, _ = mse_loss_and_gradient(params, topology, data)
            fd = central_difference(
                lambda p: mse_loss(p, topology, data), params, h=1e-5
            )
            # Central differences carry cancellation noise of roughly
            # eps * |loss| / h ~ 1e-11, so components below 1e-6 are
            # judged on absolute deviation at that floor; anything
            # passing there agrees to 1e-11 absolute.
            rel = np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-6)
            worst = max(worst, float(np.max(rel)))
    if worst >= 1e-5:
        failures.append(f"worst relative gradient error {worst:.3e} >= 1e-5")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, limit 30s")
    _verdict(5, "gradient correctness", failures)


def test_criterion_06_opposition_properties():
    failures = []
    rng = np.random.default_rng(13)

    # 1e5 quasi-opposite draws stay between midpoint and opposite.
    n = 100_000
    a = rng.uniform(-5.0, 0.0, n)
    b = a + rng.uniform(0.1, 10.0, n)
    x = rng.uniform(a, b)
    mid = (a + b) / 2.0
    opp = opposite(x, a, b)
    qo = quasi_opposite(x, a, b, rng)
    lo = np.minimum(mid, opp)
    hi = np.maximum(mid, opp)
    outside = int(np.count_nonzero((qo < lo) | (qo > hi)))
    if outside:
        failures.append(f"{outside} of {n} quasi-opposite samples left their interval")

    # Reflection through the default symmetric box inverts itself to
    # the bit.
    x = rng.uniform(-10.0, 10.0, 10_000)
    if not np.array_equal(opposite(opposite(x, -10.0, 10.0), -10.0, 10.0), x):
        failures.append("double reflection is not the identity")

    # Jumping keeps the population size and never worsens any sorted
    # fitness slot, on 100 random populations.
    config = CodelConfig(population_size=20, nfe_max=10_000, seed=0)
    for trial in range(100):
        vectors = rng.uniform(config.lower, config.upper, (20, 4))
        pop = Population(vectors, _sphere(vectors),
                         nfe=0, iteration=0)
        jumped = qobl_population(pop, config, _sphere, rng)
        if jumped.vectors.shape != (20, 4) or jumped.fitness.shape != (20,):
            failures.append(f"trial {trial}: population size {len(jumped.fitness)}")
            break
        before = np.sort(pop.fitness)
        after = np.sort(jumped.fitness)
        if not np.all(after <= before + 1e-12):
            failures.append(f"trial {trial}: union selection lost ground")
            break
    _verdict(6, "opposition properties", failures)


def test_criterion_07_optimizer_on_sphere():
    failures = []
    start = time.perf_counter()
    config = CodelConfig()

    codel_best = []
    plain_best = []
    for seed in range(20):
        result = run_codel(_sphere, 5, CodelConfig(seed=seed))
        codel_best.append(result.best_fitness)
        if not np.all(np.diff(result.history) <= 0):
            failures.append(f"seed {seed}: best-fitness history increased")
        if result.nfe > config.nfe_max + config.population_size:
            failures.append(f"seed {seed}: nfe {result.nfe} over budget")
        if result.nfe != result.nfe_history[-1]:
            failures.append(f"seed {seed}: nfe history out of step")
        plain_best.append(run_plain_de(_sphere, 5, CodelConfig(seed=seed)).best_fitness)

    codel_median = float(np.median(codel_best))
    plain_median = float(np.median(plain_best))
    if codel_median >= 1e-3:
        failures.append(f"median best {codel_median:.3e} >= 1e-3")
    if codel_median > plain_median:
        failures.append(
            f"median best {codel_median:.3e} worse than plain DE {plain_median:.3e}"
        )

    # Size preservation of the two population-reshaping operations,
    # checked directly on random populations.
    rng = named_rng(99, "acceptance-size")
    small = CodelConfig(population_size=16, nfe_max=10_000, seed=0)
    for _ in range(30):
        vectors = rng.uniform(small.lower, small.upper, (16, 5))
        pop = Population(vectors, _sphere(vectors),
                         nfe=32, iteration=1)
        for op in (qobl_population, cluster_update):
            out = op(pop, small, _sphere, rng)
            if out.vectors.shape != (16, 5) or out.fitness.shape != (16,):
                failures.append(f"{op.__name__} changed the population size")

    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.2f}s, limit 120s")
    _verdict(7, "optimizer on sphere", failures)


def test_criterion_08_kmeans_properties():
    failures = []
    rng = np.random.default_rng(17)

    for trial in range(20):
        points = rng.normal(0.0, 3.0, (40, 3))
        k = int(rng.integers(2, 7))
        sse_path = []
        for centers, assignments in _lloyd_iterations(points, k, rng):
            sse_path.append(
                float(np.sum((points - centers[assignments]) ** 2))
            )
        if not np.all(np.diff(sse_path) <= 1e-9):
            failures.append(f"trial {trial}: SSE rose during Lloyd iterations")
            break
        dist = np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
        if not np.array_equal(assignments, np.argmin(dist, axis=1)):
            failures.append(f"trial {trial}: final assignment not nearest-center")
            break

    points = np.array([[0.0], [1.0], [10.0], [11.0]])
    centers, _ = kmeans(points, 2, np.random.default_rng(0))
    got = sorted(float(c) for c in centers.ravel())
    if got != [0.5, 10.5]:
        failures.append(f"four-point example centers {got}, expected [0.5, 10.5]")
    _verdict(8, "k-means properties", failures)


def test_criterion_09_xor_learnability():
    failures = []
    start = time.perf_counter()
    data = xor_dataset()
    hits = dict.fromkeys(METHODS, 0)
    for seed in range(20):
        _, _, results = train_methods(
            data, (seed,), METHODS, (4,),
            CodelConfig(nfe_max=10_000, seed=seed),
            LocalSearchConfig(),
            boosted=True,
        )
        for method, refined in zip(METHODS, results):
            hits[method] += refined.final_train_error == 0.0
    for method in METHODS:
        if hits[method] < 18:
            failures.append(f"{method}: only {hits[method]}/20 seeds reached 0% error")

    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.2f}s, limit 300s")
    _verdict(9, "xor learnability", failures)


def test_criterion_10_boosting_direction():
    failures = []
    start = time.perf_counter()
    data = two_gaussian_dataset(n_per_class=500, n_features=13,
                                separation=2.0, seed=7)
    scores = evaluate_grid(
        data, 10, 11, (10,),
        CodelConfig(nfe_max=2000, seed=0),
        LocalSearchConfig(),
    )
    medians = fold_summary(scores)[:, METRIC_NAMES.index("accuracy"),
                                   SUMMARY_NAMES.index("median")]
    improved = 0
    detail = []
    for method in METHODS:
        base = medians[VARIANT_NAMES.index(method)]
        boosted = medians[VARIANT_NAMES.index(f"codel-{method}")]
        improved += boosted >= base
        detail.append(f"{method} {base:.4f}->{boosted:.4f}")
    if improved < 5:
        failures.append(
            f"only {improved}/6 methods kept or raised the median accuracy "
            f"({', '.join(detail)})"
        )

    elapsed = time.perf_counter() - start
    if elapsed >= 900.0:
        failures.append(f"took {elapsed:.2f}s, limit 900s")
    _verdict(10, "boosting direction", failures)


def test_criterion_11_feature_oracle():
    failures = []
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        intervals = random_rr_series(rng)
        got = extract_features(RrSeries(intervals)).as_vector()
        want = np.array(hrv_vector_reference(intervals))
        worst = max(worst, float(np.max(
            np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        )))
    if worst > 1e-9:
        failures.append(f"worst relative feature deviation {worst:.3e} > 1e-9")

    breathing = extract_features(modulated_rr(freq_hz=0.25)).breathing_rate
    if abs(breathing - 15.0) > 0.5:
        failures.append(f"0.25 Hz series read as {breathing:.3f} breaths/min")
    _verdict(11, "feature oracle equivalence", failures)


def test_criterion_12_determinism(tmp_path):
    failures = []

    def compare(label, argv, out_dir_a, out_dir_b, names):
        rc_a = main(argv + ["--out-dir", str(out_dir_a)])
        rc_b = main(argv + ["--out-dir", str(out_dir_b)])
        if rc_a != 0 or rc_b != 0:
            failures.append(f"{label}: exit codes {rc_a}/{rc_b}")
            return
        for name in names:
            if (out_dir_a / name).read_bytes() != (out_dir_b / name).read_bytes():
                failures.append(f"{label}: {name} differs between runs")

    rr = tmp_path / "rr.csv"
    write_table(rr, ["rr_ms"], [[900.0], [1000.0], [950.0]] * 20)
    compare(
        "extract",
        ["extract", "--rr-csv", str(rr), "--seed", "3",
         "--out-csv", "features.csv"],
        tmp_path / "ex_a", tmp_path / "ex_b", ["features.csv"],
    )

    xor_csv = tmp_path / "xor.csv"
    write_table(xor_csv, ["a", "b", "label"],
                [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
    compare(
        "train",
        ["train", "--features-csv", str(xor_csv), "--seed", "0",
         "--method", "gd", "--hidden", "4", "--nfe", "400",
         "--population-size", "10", "--epochs", "60"],
        tmp_path / "tr_a", tmp_path / "tr_b",
        ["weights.csv", "search_history.csv", "refine_history.csv",
         "manifest.csv"],
    )

    toy = tmp_path / "toy.csv"
    dataset = two_gaussian_dataset(12, 2, 1.0, seed=5)
    write_table(
        toy, ["f0", "f1", "label"],
        [list(row) + [int(label)]
         for row, label in zip(dataset.rows, dataset.labels)],
    )
    eval_argv = ["evaluate", "--features-csv", str(toy), "--seed", "2",
                 "-k", "4", "--population-size", "8", "--nfe", "160",
                 "--hidden", "3", "--epochs", "20", "--patience", "20"]
    eval_files = [f"{m}.csv" for m in METRIC_NAMES] + [
        "mean_rank.csv", "wtl.csv", "ee.csv", "ranks.csv",
    ]
    compare("evaluate", eval_argv, tmp_path / "ev_a", tmp_path / "ev_b",
            eval_files)
    # Worker processes must not leak into any byte of the output.
    compare("evaluate --jobs 4", eval_argv + ["--jobs", "4"],
            tmp_path / "ev_a2", tmp_path / "ev_par", eval_files)
    if not failures:
        for name in eval_files:
            if ((tmp_path / "ev_a" / name).read_bytes()
                    != (tmp_path / "ev_par" / name).read_bytes()):
                failures.append(f"evaluate: {name} differs serial vs parallel")

    means = tmp_path / "means.csv"
    write_table(
        means, ["algorithm", *METRIC_NAMES],
        [[name, *row] for name, row in zip(REFERENCE_NAMES, REFERENCE_MEANS)],
    )
    compare(
        "compare-tables",
        ["compare-tables", "--means-csv", str(means), "--seed", "1"],
        tmp_path / "ct_a", tmp_path / "ct_b",
        ["mean_rank.csv", "wtl.csv", "ee.csv", "ranks.csv"],
    )
    _verdict(12, "determinism", failures)
