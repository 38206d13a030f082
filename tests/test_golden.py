"""Output pins: SHA-256 of every file the CLI writes for small fixed runs.

Rerun determinism (criterion 12) only compares two runs of the same
code. These pins compare against the bytes an earlier version wrote, so
a refactor that claims to change nothing can prove it. A change that
moves a pin on purpose must say so and why, then refresh the pins with

    PYTHONPATH=src python tests/test_golden.py

which rewrites tests/golden/sha256.json from the current code.

The inputs are drawn here from their own generator, not from
codel.datasets, so a change to the package's fixtures cannot move a pin.
Every run uses relative paths inside a scratch directory, because input
paths are echoed into the output headers.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from codel.cli import main

PINS = Path(__file__).parent / "golden" / "sha256.json"
FS_HZ = 100.0


def _write_column(path, name, values) -> None:
    Path(path).write_text(
        name + "\n" + "".join(f"{float(v)!r}\n" for v in values)
    )


def _write_table(path, rows, labels) -> None:
    header = [f"f{i}" for i in range(rows.shape[1])] + ["label"]
    lines = [",".join(header)]
    lines += [",".join(repr(float(v)) for v in row) + f",{int(y)}"
              for row, y in zip(rows, labels)]
    Path(path).write_text("\n".join(lines) + "\n")


def _raw_signal(rng, fs=FS_HZ, beats=44, spikes=12) -> np.ndarray:
    """A pulse wave at fs with downward spikes in the troughs.

    The defaults give 40 s at 100 Hz: at the default half window of
    fs / 2 the Hampel window is 101 samples wide, so most of the 4,000
    samples are interior ones, and the spikes give the filter something
    to repair. The record lasts 40 s for every 44 beats.
    """
    rr_ms = rng.uniform(800.0, 1000.0, beats)
    beats_ms = 500.0 + np.concatenate([[0.0], np.cumsum(rr_ms)])
    n = int(beats / 44 * 40.0 * fs)
    t_ms = np.arange(n) * 1000.0 / fs
    cycle = np.searchsorted(beats_ms, t_ms, side="right") - 1
    cycle = np.clip(cycle, 0, rr_ms.size - 1)
    since = t_ms - beats_ms[cycle]
    phase = 2.0 * np.pi * since / rr_ms[cycle]
    samples = np.cos(phase) - 0.15 * np.cos(2.0 * phase)
    samples += rng.normal(0.0, 0.03, n)
    trough = np.flatnonzero((np.abs(phase - np.pi) < 0.6)
                            & (t_ms > 2000.0) & (t_ms < t_ms[-1] - 2000.0))
    spiked = rng.choice(trough, size=spikes, replace=False)
    samples[spiked] -= rng.uniform(3.0, 5.0, spiked.size)
    return samples


def _feature_table(rng, n_rows: int, n_features: int = 4):
    labels = np.arange(n_rows) % 2
    rows = rng.normal(0.0, 1.0, size=(n_rows, n_features))
    rows[:, 0] += np.where(labels == 1, 1.5, -1.5)
    return rows, labels


def _means_table(rng) -> str:
    """Six algorithms' metric means in percent, rounded so some tie."""
    header = "algorithm,accuracy,sensitivity,specificity,precision,fscore,gmean"
    names = ("rp", "codel-rp", "gd", "codel-gd", "cgpr", "codel-cgpr")
    means = np.round(rng.uniform(60.0, 90.0, (len(names), 6)) / 5.0) * 5.0
    return "\n".join([header] + [
        ",".join([name, *(repr(float(v)) for v in row)])
        for name, row in zip(names, means)
    ]) + "\n"


def _inputs(case: str) -> None:
    rng = np.random.default_rng([20230504, *case.encode()])
    if case == "extract-signal":
        _write_column("signal.csv", "sample", _raw_signal(rng))
    elif case == "extract-signal-250hz":
        # 180 s at 250 Hz: the default half window is 125, so the 45,000
        # samples span many of the Hampel filter's chunks, and its end
        # windows reach 125 samples into the record's mirror image.
        _write_column("signal.csv", "sample",
                      _raw_signal(rng, fs=250.0, beats=198, spikes=54))
    elif case == "extract-rr":
        _write_column("rr.csv", "rr_ms", rng.uniform(700.0, 1100.0, 120))
    elif case == "compare-tables":
        Path("means.csv").write_text(_means_table(rng))
    else:
        _write_table("features.csv", *_feature_table(rng, 40))


CASES = {
    "extract-signal": ["extract", "--signal-csv", "signal.csv", "--fs", "100",
                       "--seed", "1", "--out-dir", "out"],
    "extract-signal-250hz": ["extract", "--signal-csv", "signal.csv",
                             "--fs", "250", "--seed", "1", "--out-dir", "out"],
    "extract-rr": ["extract", "--rr-csv", "rr.csv", "--label", "1",
                   "--seed", "1", "--out-dir", "out"],
    "train": ["train", "--features-csv", "features.csv", "--seed", "3",
              "--np", "10", "--nfe", "400", "--hidden", "3", "--epochs", "20",
              "--out-dir", "out"],
    "evaluate": ["evaluate", "--features-csv", "features.csv", "--seed", "5",
                 "-k", "2", "--np", "8", "--nfe", "120", "--hidden", "2",
                 "--epochs", "5", "--jobs", "1", "--out-dir", "out"],
    # Same inputs as "evaluate": the worker count must not move a byte.
    "evaluate-jobs2": ["evaluate", "--features-csv", "features.csv",
                       "--seed", "5", "-k", "2", "--np", "8", "--nfe", "120",
                       "--hidden", "2", "--epochs", "5", "--jobs", "2",
                       "--out-dir", "out"],
    # Ten folds: every per-metric summary reduces 10 fold values, where
    # numpy's pairwise summation order differs from a one-by-one sum.
    "evaluate-k10": ["evaluate", "--features-csv", "features.csv",
                     "--seed", "5", "-k", "10", "--np", "8", "--nfe", "120",
                     "--hidden", "2", "--epochs", "5", "--jobs", "1",
                     "--out-dir", "out"],
    "compare-tables": ["compare-tables", "--means-csv", "means.csv",
                       "--seed", "1", "--out-dir", "out"],
    # Budgets that run out inside a move: the train search stops two
    # trials into a generation; the evaluate searches stop inside
    # generations and inside quasi-opposition jumps.
    "train-edge": ["train", "--features-csv", "features.csv", "--seed", "3",
                   "--np", "5", "--nfe", "37", "--hidden", "3",
                   "--epochs", "5", "--out-dir", "out"],
    "evaluate-edge": ["evaluate", "--features-csv", "features.csv",
                      "--seed", "5", "-k", "2", "--np", "4", "--nfe", "60",
                      "--hidden", "2", "--epochs", "3", "--jobs", "1",
                      "--out-dir", "out"],
}
# Every other refiner on the "train" inputs, with enough epochs to
# reach each one's own update rule many times.
REFINER_CASES = {f"train-{method}": [*CASES["train"], "--method", method,
                                     "--epochs", "60"]
                 for method in ("rp", "oss", "gd", "gdm", "gda")}
CASES.update(REFINER_CASES)
# Cases that run on another case's inputs.
SHARED_INPUTS = {"evaluate-jobs2": "evaluate",
                 **{case: "train" for case in REFINER_CASES}}


def _run_case(case: str) -> dict:
    """Write the case's inputs into the working directory, run it, hash outputs."""
    _inputs(SHARED_INPUTS.get(case, case))
    assert main(CASES[case]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path("out").iterdir())
    }


def _run_all() -> dict:
    """Every case's hashes, each case run in its own scratch directory."""
    start = os.getcwd()
    pins = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            pins[case] = _run_case(case)
            os.chdir(start)
    return pins


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pins(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pins = json.loads(PINS.read_text())
    assert _run_case(case) == pins[case]


def test_pins_hold_at_one_blas_thread(tmp_path):
    """Every case, run in a fresh interpreter with one BLAS thread, hashes
    to the same pins: no output depends on how BLAS splits its work."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), *sys.path])}
    script = "import json, test_golden; print(json.dumps(test_golden._run_all()))"
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    assert json.loads(done.stdout) == json.loads(PINS.read_text())


if __name__ == "__main__":
    pins = _run_all()
    PINS.parent.mkdir(exist_ok=True)
    PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {PINS}", file=sys.stderr)
