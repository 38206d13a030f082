"""Cross-validate all twelve variants on a small synthetic problem.

Uses a two-Gaussian feature set small enough to finish in seconds, then
derives the comparison statistics (ranks, win/tie/loss, error
enhancement) the same way the `evaluate` command does. Expect the
boosted variants to sit above their bases on most metrics, with plenty
of noise at this scale.
"""

import numpy as np

from codel.datasets import two_gaussian_dataset
from codel.evaluation import METRIC_NAMES, fold_summary
from codel.local_search import LocalSearchConfig
from codel.optimizer import CodelConfig
from codel.training import VARIANT_NAMES, build_comparison, evaluate_grid


def main() -> None:
    data = two_gaussian_dataset(n_per_class=40, n_features=5,
                                separation=1.5, seed=3)
    scores = evaluate_grid(
        data, k=5, seed=9, hidden=(6,),
        codel_config=CodelConfig(population_size=10, nfe_max=400, seed=0),
        ls_config=LocalSearchConfig(epochs=60, patience=30),
    )
    # Mean, std, min, max and median of the five fold scores, in percent.
    summary = fold_summary(scores) * 100.0
    means_pct = summary[:, :, 0]

    acc, gmean = METRIC_NAMES.index("accuracy"), METRIC_NAMES.index("gmean")
    print(f"{'variant':>12}  {'accuracy':>9}  {'gmean':>9}")
    for name, means in zip(VARIANT_NAMES, means_pct):
        print(f"{name:>12}  {means[acc]:8.2f}%  {means[gmean]:8.2f}%")

    comparison = build_comparison(VARIANT_NAMES, means_pct)

    print()
    order = np.argsort(comparison.mean_ranks)
    print("mean ranks, best first:")
    for i in order:
        print(f"  {comparison.names[i]:>12}  {comparison.mean_ranks[i]:.2f}")

    print()
    print("boosted vs base per metric (wins/ties/losses):")
    for metric, (w, t, l) in zip(METRIC_NAMES, comparison.wtl):
        print(f"  {metric:12s} {w}/{t}/{l}")


if __name__ == "__main__":
    main()
