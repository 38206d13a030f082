"""Train a tiny network on XOR with every refinement method.

Each method runs twice: once from random weights and once from the
best weights the global search found. One call trains each form, all
six methods in lockstep. XOR is small enough that the boosted runs all
reach zero training error almost immediately.
"""

from codel.datasets import xor_dataset
from codel.local_search import METHODS, LocalSearchConfig
from codel.optimizer import CodelConfig
from codel.training import VARIANT_NAMES, train_methods, variant_name


def main() -> None:
    data = xor_dataset()
    codel_config = CodelConfig(nfe_max=4000, seed=0)

    runs = {}
    for boosted in (False, True):
        seeds = (0,) if boosted else (0,) * len(METHODS)
        _, search, results = train_methods(
            data, seeds, METHODS, hidden=(4,), codel_config=codel_config,
            ls_config=LocalSearchConfig(), boosted=boosted,
        )
        for method, refined in zip(METHODS, results):
            runs[variant_name(method, boosted)] = (search.nfe if search else 0, refined)

    print(f"{'variant':>12}  {'search nfe':>10}  {'epochs':>6}  {'error %':>8}")
    for name in VARIANT_NAMES:
        nfe, refined = runs[name]
        print(f"{name:>12}  {nfe:>10}  "
              f"{len(refined.error_history):>6}  "
              f"{refined.final_train_error:>8.1f}")


if __name__ == "__main__":
    main()
