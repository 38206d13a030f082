"""Layer spans and counters for the traced pass, installed from outside.

`install` replaces the program's layer functions with wrappers by
rebinding module attributes at run time; no program file is edited.
Because modules import functions from each other by name, a function is
rebound in every `codel` module that holds it, so calls through any
import path reach the wrapper.

Each wrapped call records a span (name, start, end, parent) in memory.
A layer's self time is its spans' durations minus the time their child
spans cover. Counters come from comparing a call's inputs with its
result, outside the program; they run after the call's span closes, so
their small cost lands in the caller's self time and in the overhead.
"""

import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

REFINE_METHODS = ("rp", "oss", "gd", "gdm", "gda", "cgpr")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(float)
        self.durations = defaultdict(list)
        self._installed = []
        self.missing = []
        self.unobserved = set()

    def wrap(self, name, fn, observe=None):
        """Span wrapper; `name` is a string or a function of the call's args."""

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(self.spans)
            record = [label, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.spans.append(record)
            self.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                record[1] = start
                record[2] = end
            if observe is not None:
                try:
                    observe(result, *args, **kwargs)
                except (AttributeError, TypeError):
                    # The program's data shapes changed under the counter;
                    # report it rather than fail the traced call.
                    self.unobserved.add(label)
            return result

        return traced

    def timed(self, name, fn):
        """Wrapper that only records each call's duration, without a span."""

        def timed_call(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.durations[name].append(time.perf_counter() - start)
            return result

        return timed_call

    def _rebind(self, attr, original, replacement):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] != "codel":
                continue
            if module.__dict__.get(attr) is original:
                setattr(module, attr, replacement)
                self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for (label, start, end, _), child in zip(self.spans, covered):
            out[label] += end - start - child
        return dict(out)

    def span_count(self, label: str) -> int:
        return sum(1 for s in self.spans if s[0] == label)

    def write_spans(self, path) -> None:
        lines = ["name,start_s,end_s,parent"]
        origin = self.spans[0][1] if self.spans else 0.0
        lines += [f"{n},{s - origin:.9f},{e - origin:.9f},{p}" for n, s, e, p in self.spans]
        Path(path).write_text("\n".join(lines) + "\n")

    # -- the layer table -------------------------------------------------

    def install(self):
        """Wrap every layer boundary the per-layer metrics name."""
        import codel.cli as cli
        import codel.hrv as hrv
        import codel.io as io
        import codel.local_search as local_search
        import codel.mlp as mlp
        import codel.optimizer as optimizer
        import codel.signal as signal
        import codel.training as training

        c = self.counts

        def add(key, value=1):
            c[key] += value

        def file_size(path):
            return Path(path).stat().st_size

        def entered(before, after):
            # Members of `after` that were not in `before`: population
            # slots won by a move, counted by object identity.
            old = {id(m) for m in before.members}
            return sum(1 for m in after.members if id(m) not in old)

        def on_generation(pop, before, *_, **__):
            trials = pop.nfe - before.nfe
            add("optimizer.nfe.generation", trials)
            add("optimizer.select.trials", trials)
            add("optimizer.select.trial_wins",
                sum(1 for a, b in zip(before.members, pop.members) if a is not b))

        def on_move(source, move):
            def observe(pop, before, *_, **__):
                add(f"optimizer.nfe.{source}", pop.nfe - before.nfe)
                add(f"optimizer.{move}.replaced", entered(before, pop))
            return observe

        def refine_name(initial, topology, data, config):
            return f"local_search.refine.{config.method}"

        def on_refine(result, initial, topology, data, config):
            add(f"local_search.refine.{config.method}.epochs", len(result.loss_history) - 1)

        def count_line_search(original):
            # Counted without a span: its time stays in refine's self time.
            def line_search(f, *args, **kwargs):
                def probe(x):
                    add("local_search.line_search.probes")
                    return f(x)
                step = original(probe, *args, **kwargs)
                add("local_search.line_search.calls")
                add("local_search.line_search.zero_step", step == 0.0)
                return step
            return line_search

        def time_train_variant(original):
            return self.wrap("training", self.timed("training.train_variant", original))

        table = [
            (cli, "main", "cli", None),
            (signal, "standardize", "signal.standardize",
             lambda r, s, *a, **k: add("signal.samples", len(s))),
            (signal, "butterworth_lowpass", "signal.butterworth_lowpass", None),
            (signal, "hampel_filter", "signal.hampel_filter",
             lambda r, s, *a, **k: add("signal.hampel_filter.repaired",
                                       int(np.count_nonzero(r.samples != s.samples)))),
            (signal, "detect_r_peaks", "signal.detect_r_peaks",
             lambda r, *a, **k: add("signal.detect_r_peaks.beats", len(r))),
            (hrv, "extract_features", "hrv.extract_features",
             lambda r, *a, **k: add("hrv.records")),
            (hrv, "breathing_rate", "hrv.breathing_rate", None),
            (io, "read_table", "io.read",
             lambda r, path, *a, **k: add("io.bytes_read", file_size(path))),
            (io, "write_table", "io.write",
             lambda r, path, *a, **k: add("io.bytes_written", file_size(path))),
            (mlp, "classification_error", "mlp.classification_error",
             lambda r, *a, **k: add("mlp.classification_error.calls")),
            (mlp, "mse_loss_and_gradient", "mlp.mse_loss_and_gradient",
             lambda r, *a, **k: add("mlp.mse_loss_and_gradient.calls")),
            (mlp, "mse_loss", "mlp.mse_loss",
             lambda r, *a, **k: add("mlp.mse_loss.calls")),
            (optimizer, "run_codel", "optimizer.run_codel",
             lambda r, *a, **k: (add("optimizer.nfe.total", r.nfe),
                                 add("optimizer.iterations", r.iterations))),
            (optimizer, "_generation", "optimizer.generation", on_generation),
            (optimizer, "cluster_update", "optimizer.cluster_update", on_move("cluster", "cluster_update")),
            (optimizer, "qobl_population", "optimizer.qobl_population", on_move("qobl", "qobl_population")),
            (optimizer, "kmeans", "optimizer.kmeans", None),
            (local_search, "refine", refine_name, on_refine),
            (training, "evaluate_grid", "training", None),
            (training, "_grid_task", "training",
             lambda r, *a, **k: add("training.grid.tasks")),
            (training, "fold_datasets", "evaluation.fold_datasets", None),
            (training, "build_comparison", "evaluation.compare", None),
        ]
        # The remaining readers and writers nest read_table/write_table;
        # their own parsing and formatting time belongs to io as well.
        for attr in ("read_signal_csv", "read_rr_csv", "read_features_csv", "read_weights_csv"):
            table.append((io, attr, "io.read", None))
        for attr in ("write_features_csv", "write_weights_csv"):
            table.append((io, attr, "io.write", None))

        makers = [
            (module, attr, lambda fn, n=name, o=observe: self.wrap(n, fn, o))
            for module, attr, name, observe in table
        ]
        makers += [
            (local_search, "backtracking_line_search", count_line_search),
            (training, "train_variant", time_train_variant),
        ]
        for module, attr, make in makers:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._rebind(attr, original, make(original))
        return cli.main

    def layer_metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """The per-layer metrics of one traced call, keyed by metric name."""
        selfs = self.self_times()
        c = self.counts
        out = {}

        def self_s(label):
            return selfs.get(label, 0.0)

        for name in ("standardize", "butterworth_lowpass", "hampel_filter", "detect_r_peaks"):
            out[f"signal.{name}.self_s"] = self_s(f"signal.{name}")
        out["signal.samples"] = c["signal.samples"]
        out["signal.hampel_filter.repaired"] = c["signal.hampel_filter.repaired"]
        out["signal.detect_r_peaks.beats"] = c["signal.detect_r_peaks.beats"]

        out["hrv.extract_features.self_s"] = self_s("hrv.extract_features")
        out["hrv.breathing_rate.self_s"] = self_s("hrv.breathing_rate")
        out["hrv.records"] = c["hrv.records"]

        out["io.read.self_s"] = self_s("io.read")
        out["io.write.self_s"] = self_s("io.write")
        out["io.bytes_read"] = c["io.bytes_read"]
        out["io.bytes_written"] = c["io.bytes_written"]

        for name in ("classification_error", "mse_loss_and_gradient", "mse_loss"):
            out[f"mlp.{name}.calls"] = c[f"mlp.{name}.calls"]
            out[f"mlp.{name}.self_s"] = self_s(f"mlp.{name}")

        iterations = self.span_count("optimizer.generation")
        generation_s = self_s("optimizer.generation")
        out["optimizer.run_codel.self_s"] = self_s("optimizer.run_codel")
        out["optimizer.generation.self_us"] = generation_s / iterations * 1e6 if iterations else 0.0
        out["optimizer.iterations"] = c["optimizer.iterations"]
        out["optimizer.kmeans.self_s"] = self_s("optimizer.kmeans")
        moves = {k: c[f"optimizer.nfe.{k}"] for k in ("generation", "cluster", "qobl")}
        out["optimizer.nfe.init"] = c["optimizer.nfe.total"] - sum(moves.values())
        for k, v in moves.items():
            out[f"optimizer.nfe.{k}"] = v
        for move in ("cluster_update", "qobl_population"):
            out[f"optimizer.{move}.self_s"] = self_s(f"optimizer.{move}")
            out[f"optimizer.{move}.replaced"] = c[f"optimizer.{move}.replaced"]
        trials = c["optimizer.select.trials"]
        out["optimizer.select.trial_win_frac"] = c["optimizer.select.trial_wins"] / trials if trials else 0.0

        for method in REFINE_METHODS:
            out[f"local_search.refine.{method}.self_s"] = self_s(f"local_search.refine.{method}")
            out[f"local_search.refine.{method}.epochs"] = c[f"local_search.refine.{method}.epochs"]
        for name in ("calls", "probes", "zero_step"):
            out[f"local_search.line_search.{name}"] = c[f"local_search.line_search.{name}"]

        durations = self.durations["training.train_variant"]
        out["training.train_variant.p50_s"] = float(np.median(durations)) if durations else 0.0
        out["training.grid.tasks"] = c["training.grid.tasks"]
        out["training.self_s"] = self_s("training")
        out["evaluation.fold_datasets.self_s"] = self_s("evaluation.fold_datasets")
        out["evaluation.compare.self_s"] = self_s("evaluation.compare")
        out["cli.self_s"] = self_s("cli")

        # Every span's self time must be one of the metrics above, so that
        # they and the remainder, which ran outside any span, add up to
        # the traced wall time.
        reported = generation_s + sum(v for k, v in out.items() if k.endswith(".self_s"))
        if abs(reported - sum(selfs.values())) > 1e-9:
            raise ValueError(f"spans without a metric: {sorted(selfs)}")
        out["trace.wall_s"] = traced_wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = traced_wall_s - untraced_wall_s
        out["trace.remainder_s"] = traced_wall_s - sum(selfs.values())
        return {k: float(v) for k, v in out.items()}
