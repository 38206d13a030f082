"""Median time of one call of the two MLP kernels that the search and the
refiners spend their time in.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/kernel_timing.py

It prints the median microseconds per `mse_loss_and_gradient` call on
240 rows through a 13-10-1 net, for stacks of 1 to 6 members (the
refiners' lockstep stacks), and per 50-member `classification_error`
call on 400 rows (a search generation's objective call). Each median is
over 7 runs of 300 calls (30 for `classification_error`), in one
process, at whatever BLAS thread count the environment sets. Run it
with OPENBLAS_NUM_THREADS=1, and PYTHONPATH set to each checkout's `src`
in turn, to compare two checkouts on a shared machine.
"""

import statistics
import time

import numpy as np

import codel
from codel.mlp import Dataset, MlpTopology, classification_error, mse_loss_and_gradient


def median_us(call, calls: int) -> float:
    """Median over 7 runs of the mean microseconds of one `call()` in a
    run of `calls`, after one warm-up call."""
    call()
    runs = []
    for _ in range(7):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        runs.append((time.perf_counter() - start) / calls * 1e6)
    return statistics.median(runs)


def main() -> None:
    rng = np.random.default_rng(1)
    topology = MlpTopology((13, 10, 1))

    def dataset(rows: int) -> Dataset:
        return Dataset(rng.normal(0.0, 1.0, (rows, 13)), np.arange(rows) % 2)

    train = dataset(240)
    print(f"codel from {codel.__path__[0]}")
    print("mse_loss_and_gradient, 240 rows x 13-10-1")
    for k in range(1, 7):
        stack = rng.uniform(-2.0, 2.0, (k, topology.param_count))
        us = median_us(lambda: mse_loss_and_gradient(stack, topology, train), 300)
        print(f"  {k} member{'s' if k > 1 else ' '}: {us:8.1f} us per call, "
              f"{us / k:6.1f} us per member")
    search = dataset(400)
    population = rng.uniform(-10.0, 10.0, (50, topology.param_count))
    us = median_us(lambda: classification_error(population, topology, search), 30)
    print("classification_error, 50 members, 400 rows x 13-10-1")
    print(f"  {us:8.1f} us per call")


if __name__ == "__main__":
    main()
