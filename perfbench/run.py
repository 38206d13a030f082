"""Benchmark of the codel command line: three workloads, one process each.

Usage, from the repository root:

    python3 perfbench/run.py --workload extract-signal --seed 1 --seconds 25 --trace 0

The run generates its inputs from --seed, starts a fresh worker process
that calls `codel.cli.main` in a closed loop (one client, each call
waiting for the previous one) for --seconds, checks every output, and
prints the metrics. With --trace 0 the last line holds the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced call.
Everything the run writes lands in `.bench_work/` under the root, and a
full record of the run (seed, input sizes, machine, output hashes) goes
to `results.json` there.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
GRID_JOBS = 2
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 150
# Cumulative import time of each, as `python -X importtime` reports it; a
# module's figure includes the first import of everything it pulls in
# (scipy.stats under codel.evaluation, scipy.signal under codel.signal).
IMPORT_MODULES = (
    "codel.cli", "numpy", "codel.signal", "codel.evaluation", "codel.local_search",
    "codel.optimizer", "codel.hrv", "codel.training", "codel.config", "codel.io",
)
EVALUATE_TABLES = (
    "accuracy", "sensitivity", "specificity", "precision", "fscore", "gmean",
    "mean_rank", "wtl", "ee", "ranks",
)


class Workload:
    """Inputs, CLI calls and output checks of one workload.

    `prepare` writes the inputs under `in/` and keeps the facts the
    checks need; `ops` are the distinct CLI calls the loop cycles
    through; `check` returns the problems found in one call's outputs;
    `quality` turns the worker's result and the outputs of the first
    pass over the ops into the workload's named figures, `error_pct`
    among them, raising ValueError when they contradict the generated
    truth.
    """

    CAPTURE_RR = False

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.sizes = {}

    def jobs(self, trace: bool) -> int:
        return 1


class ExtractSignal(Workload):
    """Signal cleaning and features, one raw 250 Hz record per call.

    One record per call, cycling over the batch, keeps each call short
    (~2.5 s), so the median over a run's calls is steadier on a shared
    machine than the median over a few long batch calls would be.
    """

    RECORDS = 6
    CAPTURE_RR = True

    def prepare(self):
        self.truth = []
        lengths = []
        for i in range(self.RECORDS):
            samples, beats_ms = inputs.pulse_record(inputs.seeded(self.seed, f"record-{i}"))
            inputs.write_signal_csv(self.work / f"in/rec{i}.csv", samples)
            self.truth.append(np.diff(beats_ms))
            lengths.append(samples.size)
        self.sizes = {"records": self.RECORDS, "samples": lengths,
                      "fs_hz": inputs.FS_HZ, "beats": [t.size + 1 for t in self.truth]}

    def ops(self, trace: bool):
        return [["extract", "--signal-csv", f"in/rec{i}.csv", "--fs", str(inputs.FS_HZ),
                 "--label", "0", "--seed", str(self.seed), "--out-csv", "features.csv"]
                for i in range(self.RECORDS)]

    def check(self, out: Path):
        rows = read_rows(out / "features.csv")
        problems = []
        if len(rows) != 1:
            problems.append(f"{len(rows)} feature rows for one record")
        if any(len(r) != 14 or not np.all(np.isfinite(r[:13])) for r in rows):
            problems.append("a feature row without 13 finite features")
        return problems

    def quality(self, result, outs):
        """Recovered intervals against the generated ones."""
        captured = result["rr"]
        problems = []
        errors = []
        for i, (truth, got) in enumerate(zip(self.truth, captured)):
            got = np.asarray(got)
            if got.shape != truth.shape:
                problems.append(f"record {i}: {got.size} intervals, expected {truth.size}")
                continue
            err = np.abs(got - truth)
            # A missed or extra beat shifts every later interval by a
            # whole beat; sample spacing alone stays far below this.
            if err.max() > 40.0:
                problems.append(f"record {i}: an interval off by {err.max():.1f} ms")
            errors.append(err)
        if len(captured) != len(self.truth):
            problems.append(f"{len(captured)} interval series for {len(self.truth)} records")
        if problems:
            raise ValueError("; ".join(problems))
        errors = np.concatenate(errors)
        truth = np.concatenate(self.truth)
        mae = float(np.mean(errors))
        walls = statistics.median(result["walls"])
        return {"extract.samples_per_s": (np.mean(self.sizes["samples"]) / walls, "1/s"),
                "extract.rr_error_ms": (mae, "ms"),
                "error_pct": (100.0 * mae / float(np.mean(truth)), "%")}


class TrainHrv(Workload):
    """One default `codel train` per call, cycling over three search seeds."""

    ROWS = 400
    TWINS = 20
    SEEDS = (1, 2, 3)

    def prepare(self):
        rows, labels = inputs.feature_table(inputs.seeded(self.seed, "train"), self.ROWS, self.TWINS)
        inputs.write_feature_csv(self.work / "in/features.csv", rows, labels)
        self.sizes = {"rows": self.ROWS, "features": rows.shape[1], "twin_rows": self.TWINS,
                      "search_seeds": list(self.SEEDS)}

    def ops(self, trace: bool):
        return [["train", "--features-csv", "in/features.csv", "--seed", str(s),
                 "--np", "50", "--nfe", "25000", "--method", "cgpr", "--hidden", "10"]
                for s in self.SEEDS]

    def check(self, out: Path):
        from codel.io import read_features_csv, read_weights_csv
        from codel.mlp import classification_error

        manifest = dict(read_rows(out / "manifest.csv", numeric=False))
        params, topology = read_weights_csv(out / "weights.csv")
        data = read_features_csv(self.work / "in/features.csv")
        recomputed = classification_error(params, topology, data)
        problems = []
        if abs(float(manifest["final_train_error"]) - recomputed) > 1e-9:
            problems.append(f"manifest error {manifest['final_train_error']} but weights give {recomputed}")
        if int(manifest["nfe_used"]) != 25000:
            problems.append(f"search spent {manifest['nfe_used']} evaluations, not 25000")
        return problems

    def quality(self, result, outs):
        errors = [float(dict(read_rows(o / "manifest.csv", numeric=False))["final_train_error"])
                  for o in outs]
        return {"train.error_pct": (float(np.mean(errors)), "%"),
                "error_pct": (float(np.mean(errors)), "%")}


class EvaluateGrid(Workload):
    """The 12-variant, 5-fold cross-validation grid, cycling over two seeds."""

    ROWS = 300
    TWINS = 16
    SEEDS = (1, 2)

    def prepare(self):
        rows, labels = inputs.feature_table(inputs.seeded(self.seed, "evaluate"), self.ROWS, self.TWINS)
        inputs.write_feature_csv(self.work / "in/features.csv", rows, labels)
        self.sizes = {"rows": self.ROWS, "features": rows.shape[1], "twin_rows": self.TWINS,
                      "folds": 5, "nfe": 1000, "tasks": 60, "grid_seeds": list(self.SEEDS)}

    def jobs(self, trace: bool) -> int:
        # Traced, the grid runs in one process so every span is seen.
        return 1 if trace else GRID_JOBS

    def ops(self, trace: bool):
        return [["evaluate", "--features-csv", "in/features.csv", "--seed", str(s),
                 "-k", "5", "--nfe", "1000", "--hidden", "10", "--jobs", str(self.jobs(trace))]
                for s in self.SEEDS]

    def check(self, out: Path):
        problems = []
        for table in EVALUATE_TABLES:
            if not (out / f"{table}.csv").is_file():
                problems.append(f"{table}.csv missing")
        if problems:
            return problems
        for table in EVALUATE_TABLES[:6] + ("mean_rank", "ranks"):
            if len(read_rows(out / f"{table}.csv", numeric=False)) != 12:
                problems.append(f"{table}.csv lacks 12 algorithm rows")
        if len(read_rows(out / "ee.csv", numeric=False)) != 6:
            problems.append("ee.csv lacks 6 pair rows")
        wtl = read_rows(out / "wtl.csv", numeric=False)
        if len(wtl) != 6 or any(sum(int(v) for v in r[1:]) != 6 for r in wtl):
            problems.append("wtl.csv counts do not sum to six pairs")
        return problems

    def quality(self, result, outs):
        accuracy = [np.mean([float(r[1]) for r in read_rows(o / "accuracy.csv", numeric=False)])
                    for o in outs]
        mean = float(np.mean(accuracy))
        return {"evaluate.accuracy_pct": (mean, "%"), "error_pct": (100.0 - mean, "%")}


WORKLOADS = {"extract-signal": ExtractSignal, "train-hrv": TrainHrv, "evaluate-grid": EvaluateGrid}


def read_rows(path: Path, numeric: bool = True):
    """Data rows of a CSV written by the program, without header or comments."""
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    rows = [l.split(",") for l in lines[1:]]
    return [np.array([float(v) for v in r]) for r in rows] if numeric else rows


def guarded(check, *args):
    """A check's problems, with an unreadable output counted as one."""
    try:
        return check(*args) or []
    except Exception as exc:
        return [f"{type(exc).__name__}: {exc}"]


def sha256_tree(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def child_env(blas_threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    return env


def run_child(argv, env, cwd, timeout):
    """Run a process in its own group and make sure the whole group ends."""
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    finally:
        end_group(proc.pid)
    return proc.returncode, out, err


def end_group(pgid):
    """Kill what is left of a process group and wait, briefly, until it is gone."""
    deadline = time.monotonic() + 5.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def measure_setup(argv, env, cwd):
    """Wall seconds for a fresh interpreter to import the CLI and parse argv."""
    snippet = "import sys; from codel.cli import build_parser; build_parser().parse_args(sys.argv[1:])"
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code, _, err = run_child([sys.executable, "-c", snippet, *argv], env, cwd, 60)
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"CLI setup failed: {err}")
    return times


def measure_imports(env, cwd):
    """Cumulative import seconds per module, from `python -X importtime`."""
    samples = {m: [] for m in IMPORT_MODULES}
    for _ in range(SETUP_REPEATS):
        _, _, err = run_child([sys.executable, "-X", "importtime", "-c", "import codel.cli"],
                              env, cwd, 60)
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for m in IMPORT_MODULES:
            samples[m].append(seen.get(m, 0.0))
    return {f"setup.import.{m}_s": statistics.median(v) for m, v in samples.items()}


def machine(blas_threads: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.startswith("io.bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "codel" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'codel'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "in").mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    start = time.perf_counter()
    workload.prepare()
    generate_s = time.perf_counter() - start

    trace = bool(args.trace)
    ops = workload.ops(trace)
    blas_threads = max(1, (os.cpu_count() or 1) // workload.jobs(trace))
    env = child_env(blas_threads)
    spec = {"ops": ops, "seconds": args.seconds, "trace": trace,
            "capture_rr": workload.CAPTURE_RR, "spans_out": "spans.csv"}
    (work / "spec.json").write_text(json.dumps(spec))

    code, _, err = run_child([sys.executable, str(WORKER), "spec.json", "result.json"],
                             env, work, WORKER_TIMEOUT_S)
    if code != 0:
        print(f"error: worker exited with {code}:\n{err[-4000:]}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())

    outs = [work / d for d in result["out_dirs"]]
    problems = {}
    for i, (out, exit_code) in enumerate(zip(outs, result["codes"])):
        found = [f"exit code {exit_code}"] if exit_code != 0 else guarded(workload.check, out)
        if found:
            problems[f"op{i}"] = found
    distinct = 1 if trace else len(ops)
    named = {}
    if not problems and not trace:
        found = guarded(lambda: named.update(workload.quality(result, outs[:distinct])))
        if found:
            problems["quality"] = found
    hashes = {d.name: sha256_tree(d) for d in outs}
    repeats_identical = all(
        hashes[outs[i].name] == hashes[outs[i % distinct].name] for i in range(len(outs))
    )

    setup_times = measure_setup(ops[0], env, work)
    attempted = len(outs)
    failed = sum(1 for i in range(attempted) if f"op{i}" in problems) + ("quality" in problems)
    walls = result["walls"]
    if not trace:
        named[f"{args.workload.split('-')[0]}.wall_s"] = (statistics.median(walls), "s")
    named.update({
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (max(result["rss_self_kb"], result["rss_children_kb"]) / 1024.0, "MB"),
        "failed_frac": (failed / attempted, "fraction"),
    })

    if trace:
        metrics = dict(result["layers"])
        metrics.update(measure_imports(env, work))
        report = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
    else:
        # A failed run has no error figure; report the worst possible one.
        error_pct = named.get("error_pct", (100.0, "%"))
        report = {
            "setup_s": named["setup_s"],
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": named["peak_rss_mb"],
            "error_pct": error_pct,
        }
        report = {k: {"value": v, "unit": u} for k, (v, u) in report.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": workload.sizes, "generate_s": generate_s,
        "machine": machine(blas_threads), "grid_jobs": GRID_JOBS, "ops": ops,
        "op_walls_s": walls, "op_cpu_s": result["cpus"], "setup_runs_s": setup_times,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "metrics": report, "problems": problems, "output_sha256": hashes,
        "repeated_outputs_identical": repeats_identical,
        "unwrapped": result.get("unwrapped", []),
    }
    (work / "results.json").write_text(json.dumps(record, indent=1))

    for name, (value, unit) in named.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for name in record["unwrapped"]:
        print(f"{args.workload} not traced (the program changed shape): {name}")
    for name, problem in problems.items():
        print(f"{args.workload} FAILED {name}: {'; '.join(problem)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
