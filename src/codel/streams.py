"""Named, reproducible random substreams.

Every stochastic component draws from its own generator, derived from one
root seed plus a stream name. Adding a new consumer therefore never
perturbs the draws seen by existing ones, and identical seeds give
bit-identical runs regardless of execution order.
"""

import numpy as np


# A quoted annotation is never evaluated, so importing this module does not
# load numpy.random: commands that draw no random number never pay for it.
def named_rng(seed: int, name: str) -> "np.random.Generator":
    """Return the generator for substream `name` under the given root seed."""
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF] + list(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *indices: int) -> int:
    """Derive a child seed from a root seed and a stable index path."""
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *[int(i) for i in indices]])
    return int(ss.generate_state(1, dtype=np.uint64)[0])
