"""Command-line entry points: extract, train, evaluate, compare-tables.

Every run requires a seed and echoes its fully resolved configuration
into each output file as leading comment lines, so outputs are
reproducible byte-for-byte from their own headers. `train` is the
boosted form of `training.train_methods` for the configured method,
and `evaluate` is its cross-validation grid. Outputs land under
--out-dir, and any directory an output path names is created on
demand. Exit status is 0 only when every requested output was written.
"""

import argparse
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import ALIASES, RunConfig, parse_config
from .errors import CodelError, ParameterError
from .evaluation import METRIC_NAMES
from .hrv import extract_features
from .io import (
    read_features_csv,
    read_rr_csv,
    read_signal_csv,
    read_table,
    write_features_csv,
    write_table,
    write_weights_csv,
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


def _out_path(args, name) -> Path:
    """`name` under --out-dir (an absolute name stands alone), with its
    directory created on demand."""
    path = Path(args.out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def cmd_extract(args) -> None:
    config = _resolve_config(args)
    if not args.signal_csv and not args.rr_csv:
        raise ParameterError("extract needs --signal-csv or --rr-csv input files")
    if args.signal_csv and args.fs is None:
        raise ParameterError("raw signal input needs --fs")

    records = []
    inputs = []
    for path in args.signal_csv or ():
        samples = read_signal_csv(path)
        rr = signal_to_rr(Signal(samples, args.fs))
        records.append(extract_features(rr))
        inputs.append(str(path))
    for path in args.rr_csv or ():
        rr = RrSeries(read_rr_csv(path))
        records.append(extract_features(rr))
        inputs.append(str(path))

    comments = [
        "command=extract",
        f"inputs={';'.join(inputs)}",
        f"fs={args.fs}",
        f"label={args.label}",
    ] + config.manifest_lines()
    write_features_csv(_out_path(args, args.out_csv), records,
                       [args.label] * len(records), comments)


def cmd_train(args) -> None:
    config = _resolve_config(args)
    dataset = read_features_csv(args.features_csv)
    topology, search, (refined,) = train_methods(
        dataset, (config.seed,), (config.method,), config.hidden,
        config.codel_config(), config.local_search_config(), boosted=True,
    )
    comments = [
        "command=train",
        f"input={args.features_csv}",
    ] + config.manifest_lines()

    write_weights_csv(_out_path(args, "weights.csv"), refined.params, topology, comments)
    write_table(
        _out_path(args, "search_history.csv"),
        ["iteration", "nfe", "best_fitness"],
        [[i, int(nfe), float(best)]
         for i, (nfe, best) in enumerate(zip(search.nfe_history, search.history), 1)],
        comments,
    )
    write_table(
        _out_path(args, "refine_history.csv"),
        ["epoch", "mse", "classification_error"],
        [[i, float(loss), float(error)]
         for i, (loss, error) in enumerate(zip(refined.loss_history, refined.error_history), 1)],
        comments,
    )
    # A cell holds no comma, so multi-layer sizes are joined by a space.
    manifest_rows = [[key, value.replace(",", " ")] for key, value in
                     (line.split("=", 1) for line in config.manifest_lines())]
    manifest_rows.append(["nfe_used", search.nfe])
    manifest_rows.append(["final_train_error", float(refined.final_train_error)])
    write_table(_out_path(args, "manifest.csv"), ["key", "value"],
                manifest_rows, comments)


def _write_comparison(args, comparison, comments) -> None:
    write_table(
        _out_path(args, "mean_rank.csv"),
        ["algorithm", "mean_rank"],
        [
            [name, float(comparison.mean_ranks[i])]
            for i, name in enumerate(comparison.names)
        ],
        comments,
    )
    write_table(
        _out_path(args, "wtl.csv"),
        ["metric", "wins", "ties", "losses"],
        [
            [metric, *comparison.wtl_per_metric[metric]]
            for metric in METRIC_NAMES
        ],
        comments,
    )
    write_table(
        _out_path(args, "ee.csv"),
        ["algorithm", *METRIC_NAMES],
        [
            [boosted] + [float(v) for v in comparison.ee_table[p]]
            for p, (_, boosted) in enumerate(comparison.pairs)
        ],
        comments,
    )
    write_table(
        _out_path(args, "ranks.csv"),
        ["algorithm", *[f"rank_{m}" for m in METRIC_NAMES], "mean_rank"],
        [
            [name]
            + [float(comparison.ranks[i, j]) for j in range(len(METRIC_NAMES))]
            + [float(comparison.mean_ranks[i])]
            for i, name in enumerate(comparison.names)
        ],
        comments,
    )


def cmd_evaluate(args) -> None:
    config = _resolve_config(args)
    dataset = read_features_csv(args.features_csv)
    results = evaluate_grid(
        dataset, config.folds, config.seed, config.hidden,
        config.codel_config(), config.local_search_config(),
        jobs=config.jobs,
    )
    means_pct = np.array([
        [results[name].summaries[m].mean * 100.0 for m in METRIC_NAMES]
        for name in VARIANT_NAMES
    ])
    comparison = build_comparison(VARIANT_NAMES, means_pct)
    comments = [
        "command=evaluate",
        f"input={args.features_csv}",
    ] + config.manifest_lines()

    _write_comparison(args, comparison, comments)
    for j, metric in enumerate(METRIC_NAMES):
        w, t, l = comparison.wtl_per_metric[metric]
        rows = []
        for i, name in enumerate(VARIANT_NAMES):
            s = results[name].summaries[metric]
            rows.append([
                name,
                s.mean * 100.0, s.std * 100.0, s.min * 100.0,
                s.max * 100.0, s.median * 100.0,
                float(comparison.ranks[i, j]),
                comparison.outcomes[name][j] if name in comparison.outcomes else "",
            ])
        write_table(
            _out_path(args, f"{metric}.csv"),
            ["algorithm", "mean", "std", "min", "max", "median", "rank", "wtl"],
            rows,
            comments + [f"wtl={w}/{t}/{l}"],
        )


def cmd_compare_tables(args) -> None:
    config = _resolve_config(args)
    header, rows, _ = read_table(args.means_csv)
    if header != ["algorithm", *METRIC_NAMES]:
        raise ParameterError(
            f"{args.means_csv}: expected header algorithm,{','.join(METRIC_NAMES)}"
        )
    if not rows:
        raise ParameterError(f"{args.means_csv} contains no data rows")
    names = [r[0] for r in rows]
    try:
        means_pct = np.array([[float(c) for c in r[1:]] for r in rows])
    except ValueError as exc:
        raise ParameterError(f"{args.means_csv}: non-numeric value ({exc})") from None
    comparison = build_comparison(names, means_pct)
    comments = [
        "command=compare-tables",
        f"input={args.means_csv}",
    ] + config.manifest_lines()
    _write_comparison(args, comparison, comments)


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
        args.func(args)
    except (CodelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
