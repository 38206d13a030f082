"""The traced bench still sees the program.

`perfbench/tracer.py` wraps program functions by module attribute name,
so renaming or deleting one of them silently drops its spans and
counters from the bench's per-layer metrics. This test pins the names
the tracer cannot find today: a refactor that blinds the tracer further
fails here, and a change to the bench that wraps other names updates
this list with it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Wrapped names whose functions are gone: mse_loss moved to the test
# oracles, the line search became part of each refiner's generator,
# train_methods replaced train_variant, and the FIR `lowpass` replaced
# `butterworth_lowpass`. `refine` and the two CSV writers were one-line
# wrappers that no command called, so their metrics read 0 and the
# bytes written are still counted through `write_table`; every command
# runs `refine_many` and `Table.write` instead.
UNTRACED = [
    "codel.signal.butterworth_lowpass",
    "codel.mlp.mse_loss",
    "codel.local_search.refine",
    "codel.io.write_features_csv",
    "codel.io.write_weights_csv",
    "codel.local_search.backtracking_line_search",
    "codel.training.train_variant",
]

SCRIPT = """
import json
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_tracer_misses_only_the_known_names():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == UNTRACED
