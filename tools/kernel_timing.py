"""Median time of one call of the two MLP kernels that the search and the
refiners spend their time in, and of the global search's own fixed work.

Usage, from the repository root:

    PYTHONPATH=src python3 tools/kernel_timing.py
    python3 tools/kernel_timing.py SRC [SRC ...]

It times `mse_loss_and_gradient` on 240 rows through a 13-10-1 net, for
stacks of 1 to 6 members (one grid unit's lockstep stack as its runs
stop) and of 12 and 30 members (a grid shard's stack across folds), all
on one training set so that any checkout can run them, and a 50-member
`classification_error` call on 400 rows (a search generation's
objective call). The search's fixed work around its objective calls is
timed on a 50-member population of 151 weights (a 13-10-1 net): one
generation's draws (`draw50`), one `kmeans` with k = 5 (`lloyd50`), and
one whole generation, `_generation`, with an objective that returns
zeros (`generation50`). A process's figure for one of these is the
median over 7 runs of 300 calls (60 for the wide stacks and `lloyd50`,
30 for `classification_error`), after one warm-up call, at whatever
BLAS thread count the environment sets; every process draws the same
inputs.

With no SRC, `codel` comes from PYTHONPATH; with one, from SRC. Either
way one process times every kernel and prints its median microseconds
per call.

With two or more SRC directories, each kernel is timed in fresh
processes, one per directory per round, for ROUNDS = 10 rounds. The
rounds alternate the order in ABBA fashion: even rounds run the
directories as given, odd rounds in reverse. Per kernel and directory
it prints the median and quartiles of the per-process medians, and in
how many rounds that directory's median was the lowest. A median
measured in one process moves with the machine's state, by more than
half on a shared machine, so compare checkouts this way, with
OPENBLAS_NUM_THREADS=1 set.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

import numpy as np

# The timed kernels, in print order: mse_loss_and_gradient on stacks of
# k = 1 to 6, 12 and 30 members, one classification_error call, then the
# search's draws, k-means and generation.
STACKS = (1, 2, 3, 4, 5, 6, 12, 30)
NAMES = (*(f"mse{k}" for k in STACKS), "error50", "draw50", "lloyd50", "generation50")

# Rounds of fresh processes per kernel when comparing directories.
ROUNDS = 10


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


def kernels() -> dict:
    """Name in NAMES -> (calls per run, members, the call) of each timed
    kernel. The inputs are drawn in one fixed order from one seed."""
    from codel.mlp import Dataset, MlpTopology, classification_error, mse_loss_and_gradient
    from codel.optimizer import CodelConfig, Population, _draw_generation, _generation, kmeans

    rng = np.random.default_rng(1)
    topology = MlpTopology((13, 10, 1))

    def dataset(rows: int) -> Dataset:
        return Dataset(rng.normal(0.0, 1.0, (rows, 13)), np.arange(rows) % 2)

    def call(kernel, *args):
        return lambda: kernel(*args)

    train = dataset(240)
    table = {}
    for k in STACKS:
        stack = rng.uniform(-2.0, 2.0, (k, topology.param_count))
        table[f"mse{k}"] = (300 if k <= 6 else 60, k,
                            call(mse_loss_and_gradient, stack, topology, train))
    search = dataset(400)
    population = rng.uniform(-10.0, 10.0, (50, topology.param_count))
    table["error50"] = (30, 50, call(classification_error, population, topology, search))
    config = CodelConfig()
    dim = topology.param_count
    table["draw50"] = (300, 50, call(_draw_generation, 50, dim, config.crossover_rate, rng))
    table["lloyd50"] = (60, 50, call(kmeans, population, 5, rng))
    table["generation50"] = (300, 50, call(_generation, Population(population, np.zeros(50), 0, 0),
                                           config, lambda rows: np.zeros(len(rows)), rng))
    return table


TITLES = {
    "error50": "classification_error, 50 members, 400 rows x 13-10-1",
    "draw50": "_draw_generation, 50 members x 151 weights",
    "lloyd50": "kmeans, k = 5, 50 members x 151 weights",
    "generation50": "_generation, 50 members x 151 weights, zero objective",
}


def title(name: str) -> str:
    if name.startswith("mse"):
        k = int(name[3:])
        return f"mse_loss_and_gradient, 240 rows x 13-10-1, {k} member{'s' if k > 1 else ''}"
    return TITLES[name]


def time_here() -> None:
    """Time every kernel in this process, printing as it goes."""
    import codel

    print(f"codel from {codel.__path__[0]}")
    print("mse_loss_and_gradient, 240 rows x 13-10-1")
    table = kernels()
    for name, (calls, k, call) in table.items():
        us = median_us(call, calls)
        if name.startswith("mse"):
            print(f"  {k} member{'s' if k > 1 else ' '}: {us:8.1f} us per call, "
                  f"{us / k:6.1f} us per member")
        else:
            print(title(name))
            print(f"  {us:8.1f} us per call")


def time_in_process(src: str, name: str) -> float:
    """The median of kernel `name` in a fresh process with `codel` from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__, "--measure", name], env=env,
                          capture_output=True, text=True, check=True)
    origin, us = done.stdout.rsplit(maxsplit=1)
    if os.path.realpath(origin) != os.path.realpath(os.path.join(src, "codel")):
        raise SystemExit(f"{src}: the process imported codel from {origin}")
    return float(us)


def compare(srcs: list) -> None:
    """Time every kernel in alternating fresh processes per directory."""
    print(f"{ROUNDS} rounds, ABBA order, one process per directory per round")
    for i, src in enumerate(srcs):
        print(f"  [{i}] {src}")
    order = list(range(len(srcs)))
    for name in NAMES:
        # medians[i][r]: directory i's process median in round r. Positions,
        # not paths, tell the sides apart, so one directory given twice
        # gives an A/A run.
        medians = [[] for _ in srcs]
        for r in range(ROUNDS):
            for i in (order if r % 2 == 0 else order[::-1]):
                medians[i].append(time_in_process(srcs[i], name))
        print(title(name))
        for i in order:
            q1, q2, q3 = statistics.quantiles(medians[i], n=4, method="inclusive")
            won = sum(medians[i][r] < min(medians[j][r] for j in order if j != i)
                      for r in range(ROUNDS))
            print(f"  [{i}] {q2:8.1f} us per call ({q1:.1f}-{q3:.1f}), "
                  f"lowest in {won} of {ROUNDS} rounds")


def main(argv: list) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("srcs", nargs="*", metavar="SRC",
                        help="a checkout's src directory, holding codel")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        import codel

        calls, _, call = kernels()[args.measure]
        print(codel.__path__[0], median_us(call, calls))
    elif len(args.srcs) >= 2:
        compare(args.srcs)
    else:
        if args.srcs:
            sys.path.insert(0, args.srcs[0])
        time_here()


if __name__ == "__main__":
    main(sys.argv[1:])
