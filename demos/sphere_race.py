"""Race the clustered, opposition-jumping optimizer against plain DE.

Both get the same budget on the 5-D sphere. The enhanced search
typically lands dozens of orders of magnitude deeper; the printed
history shows where the cluster updates and opposition jumps pay off.
"""

import numpy as np

from codel.optimizer import CodelConfig, run_codel, run_plain_de


def sphere(X) -> np.ndarray:
    """x @ x for each row x of the batch X."""
    return np.einsum("ij,ij->i", X, X)


def main() -> None:
    config = CodelConfig(nfe_max=25000)

    print(f"{'seed':>4}  {'enhanced':>12}  {'plain DE':>12}")
    enhanced, plain = [], []
    for seed in range(5):
        cfg = CodelConfig(nfe_max=config.nfe_max, seed=seed)
        a = run_codel(sphere, 5, cfg)
        b = run_plain_de(sphere, 5, cfg)
        enhanced.append(a.best_fitness)
        plain.append(b.best_fitness)
        print(f"{seed:>4}  {a.best_fitness:12.3e}  {b.best_fitness:12.3e}")

    print(f"{'med':>4}  {np.median(enhanced):12.3e}  {np.median(plain):12.3e}")

    result = run_codel(sphere, 5, CodelConfig(nfe_max=25000, seed=0))
    marks = np.linspace(0, len(result.history) - 1, 8).astype(int)
    print()
    print("best fitness along the run (seed 0):")
    for i in marks:
        print(f"  iter {i + 1:4d}  nfe {result.nfe_history[i]:6d}  "
              f"best {result.history[i]:.3e}")


if __name__ == "__main__":
    main()
