"""Command-line entry points: extract, train, evaluate, compare-tables.

Every run requires a seed. A command computes its output tables and
returns them, with the comment lines that name its inputs; it writes
nothing. `main` then writes every table in one loop, under --out-dir,
creating any directory an output path names. Every file starts with
the same run comment block: the command, its inputs and the fully
resolved configuration, so outputs are reproducible byte-for-byte from
their own headers, and a command that fails writes no file. `train` is
the boosted form of `training.train_methods` for the configured method,
and `evaluate` is its cross-validation grid. Exit status is 0 only when
every requested output was written.
"""

import argparse
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import ALIASES, RunConfig, parse_config
from .errors import CodelError, InsufficientDataError, ParameterError
from .evaluation import METRIC_NAMES, SUMMARY_NAMES, fold_summary
from .hrv import extract_features
from .io import (
    Table,
    features_table,
    parse_numbers,
    read_features_csv,
    read_rr_csv,
    read_signal_csv,
    read_table,
    weights_table,
)
from .signal import RrSeries, Signal, signal_to_rr
from .training import VARIANT_NAMES, build_comparison, evaluate_grid, train_methods

__all__ = ["main"]


# The knob flags of `evaluate`; `train` takes all but the grid's two.
_EVALUATE_KNOBS = tuple(f.name for f in fields(RunConfig) if f.name != "seed")
_TRAIN_KNOBS = tuple(name for name in _EVALUATE_KNOBS if name not in ("folds", "jobs"))


def _resolve_config(args):
    """The run's config: the file, then any knob flag the command has."""
    knobs = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    return parse_config(args.config, **knobs)


@contextmanager
def _naming(path):
    """Put a record's path in front of any error raised while it is
    cleaned or featurized."""
    try:
        yield
    except CodelError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def cmd_extract(args, config):
    if not args.signal_csv and not args.rr_csv:
        raise ParameterError("extract needs --signal-csv or --rr-csv input files")
    if args.signal_csv and args.fs is None:
        raise ParameterError("raw signal input needs --fs")

    records = []
    for path in args.signal_csv or ():
        samples = read_signal_csv(path)
        # `breathing_rate` needs 10 s. This is checked before any filter
        # runs, as peak detection's scratch grows with fs, not with length.
        if samples.size < 10 * args.fs:
            raise InsufficientDataError(f"{path}: {samples.size} samples at {args.fs:g} Hz "
                                        f"span {samples.size / args.fs:g} s, under 10 s")
        with _naming(path):
            records.append(extract_features(signal_to_rr(Signal(samples, args.fs))))
    for path in args.rr_csv or ():
        intervals = read_rr_csv(path)
        with _naming(path):
            records.append(extract_features(RrSeries(intervals)))

    inputs = [*(args.signal_csv or ()), *(args.rr_csv or ())]
    lines = [f"inputs={';'.join(inputs)}", f"fs={args.fs}", f"label={args.label}"]
    return lines, {args.out_csv: features_table(records, [args.label] * len(records))}


def cmd_train(args, config):
    dataset = read_features_csv(args.features_csv)
    topology, search, (refined,) = train_methods(
        dataset, (config.seed,), (config.method,), config.hidden,
        config.codel_config(), config.local_search_config(), boosted=True,
    )
    # A cell holds no comma, so multi-layer sizes are joined by a space.
    manifest_rows = [[key, value.replace(",", " ")] for key, value in
                     (line.split("=", 1) for line in config.manifest_lines())]
    manifest_rows.append(["nfe_used", search.nfe])
    manifest_rows.append(["final_train_error", float(refined.final_train_error)])
    return [f"input={args.features_csv}"], {
        "weights.csv": weights_table(refined.params, topology),
        "search_history.csv": Table(
            ["iteration", "nfe", "best_fitness"],
            [[i, int(nfe), float(best)]
             for i, (nfe, best) in enumerate(zip(search.nfe_history, search.history), 1)],
        ),
        "refine_history.csv": Table(
            ["epoch", "mse", "classification_error"],
            [[i, float(loss), float(error)]
             for i, (loss, error) in enumerate(zip(refined.loss_history, refined.error_history), 1)],
        ),
        "manifest.csv": Table(["key", "value"], manifest_rows),
    }


def _comparison_tables(comparison) -> dict:
    """The four derived tables: mean ranks, W/T/L, error enhancement, ranks."""
    return {
        "mean_rank.csv": Table(
            ["algorithm", "mean_rank"],
            [[name, float(r)] for name, r in zip(comparison.names, comparison.mean_ranks)],
        ),
        "wtl.csv": Table(
            ["metric", "wins", "ties", "losses"],
            [[metric, *counts] for metric, counts in zip(METRIC_NAMES, comparison.wtl.tolist())],
        ),
        "ee.csv": Table(
            ["algorithm", *METRIC_NAMES],
            [[boosted] + [float(v) for v in comparison.ee_table[p]]
             for p, (_, boosted) in enumerate(comparison.pairs)],
        ),
        "ranks.csv": Table(
            ["algorithm", *[f"rank_{m}" for m in METRIC_NAMES], "mean_rank"],
            [[name, *(float(r) for r in ranks), float(mean_rank)] for name, ranks, mean_rank
             in zip(comparison.names, comparison.ranks, comparison.mean_ranks)],
        ),
    }


def cmd_evaluate(args, config):
    dataset = read_features_csv(args.features_csv)
    scores = evaluate_grid(
        dataset, config.folds, config.seed, config.hidden,
        config.codel_config(), config.local_search_config(),
        jobs=config.jobs,
    )
    summary = fold_summary(scores) * 100.0
    comparison = build_comparison(VARIANT_NAMES, summary[:, :, 0])

    tables = _comparison_tables(comparison)
    for j, metric in enumerate(METRIC_NAMES):
        # VARIANT_NAMES lists pair i // 2 at row i, its base form first.
        rows = [[name, *summary[i, j].tolist(), float(comparison.ranks[i, j]),
                 comparison.outcomes[i // 2, j] if i % 2 else ""]
                for i, name in enumerate(VARIANT_NAMES)]
        wtl = "/".join(str(n) for n in comparison.wtl[j])
        tables[f"{metric}.csv"] = Table(
            ["algorithm", *SUMMARY_NAMES, "rank", "wtl"], rows, last=(f"wtl={wtl}",))
    return [f"input={args.features_csv}"], tables


def cmd_compare_tables(args, config):
    header, rows, _ = read_table(args.means_csv)
    if header != ["algorithm", *METRIC_NAMES]:
        raise ParameterError(
            f"{args.means_csv}: expected header algorithm,{','.join(METRIC_NAMES)}"
        )
    if not rows:
        raise ParameterError(f"{args.means_csv} contains no data rows")
    names = [r[0] for r in rows]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParameterError(f"{args.means_csv}: algorithm {name!r} appears more than once")
    means_pct = np.array([parse_numbers(args.means_csv, r[1:]) for r in rows])
    # A nan cell is a missing score and passes; see `build_comparison`.
    for i, j in np.argwhere((means_pct < 0.0) | (means_pct > 100.0)):
        raise ParameterError(f"{args.means_csv}: {names[i]} {METRIC_NAMES[j]} is "
                             f"{means_pct[i, j]:g}, outside [0, 100]")
    comparison = build_comparison(names, means_pct)
    return [f"input={args.means_csv}"], _comparison_tables(comparison)


def _add_common(parser) -> None:
    parser.add_argument("--seed", help="root random seed (required)")
    parser.add_argument("--config", default=None,
                        help="key = value settings file")
    parser.add_argument("--out-dir", default=".",
                        help="directory receiving output files")


def _add_knobs(parser, names) -> None:
    """One text flag per named RunConfig field: `--field-name`, plus
    `--alias` (and `-a` for a one-letter alias) where it has one."""
    alias_of = {name: alias for alias, name in ALIASES.items()}
    for name in names:
        flags = ["--" + name.replace("_", "-")]
        alias = alias_of.get(name)
        if alias:
            flags += [f"-{alias}", f"--{alias}"] if len(alias) == 1 else [f"--{alias}"]
        parser.add_argument(*flags, dest=name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codel",
        description="Evolutionary MLP training on heart-rate-variability features",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute feature rows from signals or RR files")
    p.add_argument("--signal-csv", action="append", default=None,
                   help="raw signal file (one `sample` column); repeatable")
    p.add_argument("--rr-csv", action="append", default=None,
                   help="RR interval file (one `rr_ms` column); repeatable")
    p.add_argument("--fs", type=float, default=None,
                   help="sampling rate in Hz for raw signal input")
    p.add_argument("--label", type=int, default=0, choices=(0, 1),
                   help="class label attached to every extracted row")
    p.add_argument("--out-csv", default="features.csv")
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="global search plus refinement on a feature file")
    p.add_argument("--features-csv", required=True)
    _add_common(p)
    _add_knobs(p, _TRAIN_KNOBS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate",
                       help="cross-validate all twelve training variants")
    p.add_argument("--features-csv", required=True)
    _add_common(p)
    _add_knobs(p, _EVALUATE_KNOBS)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare-tables",
                       help="ranks, W/T/L, and error enhancement from a means table")
    p.add_argument("--means-csv", required=True,
                   help="CSV: algorithm plus the six metric means in percent")
    _add_common(p)
    p.set_defaults(func=cmd_compare_tables)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        lines, tables = args.func(args, config)
        # Every table is computed before the first file is written.
        run_block = [f"command={args.command}", *lines, *config.manifest_lines()]
        for name, table in tables.items():
            path = Path(args.out_dir) / name  # an absolute name stands alone
            path.parent.mkdir(parents=True, exist_ok=True)
            table.write(path, run_block)
    except (CodelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
