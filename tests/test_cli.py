import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import codel
from codel.cli import _resolve_config, build_parser, main
from codel.config import ALIASES, RunConfig
from codel.datasets import synthetic_heartbeat, two_gaussian_dataset
from codel.evaluation import METRIC_NAMES
from codel.hrv import FEATURE_NAMES
from codel.io import read_table, read_weights_csv, write_table
from codel.training import VARIANT_NAMES

EVALUATE_FILES = [f"{m}.csv" for m in METRIC_NAMES] + [
    "mean_rank.csv", "wtl.csv", "ee.csv", "ranks.csv",
]


def _write_rr(path, intervals) -> None:
    write_table(path, ["rr_ms"], [[float(v)] for v in intervals])


def _write_features(path, dataset) -> None:
    header = [f"f{i}" for i in range(dataset.n_features)] + ["label"]
    rows = [
        list(row) + [int(label)]
        for row, label in zip(dataset.rows, dataset.labels)
    ]
    write_table(path, header, rows)


def _write_xor_features(path) -> None:
    write_table(path, ["a", "b", "label"],
                [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])


def _write_means(path) -> None:
    header = ["algorithm", *METRIC_NAMES]
    rows = [
        ["rp", 70.0, 80.0, 60.0, 75.0, 72.0, 66.0],
        ["codel-rp", 74.0, 82.0, 64.0, 77.0, 74.0, 69.0],
        ["oss", 68.0, 81.0, 58.0, 74.0, 71.0, 65.0],
        ["codel-oss", 69.0, 83.0, 59.0, 78.0, 75.0, 70.0],
    ]
    write_table(path, header, rows)


def _snapshot(out_dir, names):
    return {name: (out_dir / name).read_bytes() for name in names}


class TestExtract:

    def test_constant_rr_gives_flat_feature_row(self, tmp_path):
        rr = tmp_path / "rr.csv"
        _write_rr(rr, [1000.0] * 60)
        out = tmp_path / "features.csv"
        rc = main(["extract", "--rr-csv", str(rr), "--seed", "1",
                   "--out-csv", str(out)])
        assert rc == 0
        header, rows, comments = read_table(out)
        assert header == list(FEATURE_NAMES) + ["label"]
        assert len(rows) == 1
        row = dict(zip(header, rows[0]))
        assert float(row["bpm"]) == 60.0
        for name in ("sdnn", "sdsd", "rmssd", "hr_mad", "sd1", "sd2", "s"):
            assert float(row[name]) == 0.0
        assert row["label"] == "0"
        assert "command=extract" in comments
        assert "seed=1" in comments

    def test_label_flag(self, tmp_path):
        rr = tmp_path / "rr.csv"
        _write_rr(rr, [1000.0] * 60)
        out = tmp_path / "features.csv"
        assert main(["extract", "--rr-csv", str(rr), "--seed", "1",
                     "--label", "1", "--out-csv", str(out)]) == 0
        _, rows, _ = read_table(out)
        assert rows[0][-1] == "1"

    def test_multiple_inputs_stack_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_rr(a, [1000.0] * 30)
        _write_rr(b, [800.0] * 30)
        out = tmp_path / "features.csv"
        assert main(["extract", "--rr-csv", str(a), "--rr-csv", str(b),
                     "--seed", "1", "--out-csv", str(out)]) == 0
        _, rows, _ = read_table(out)
        assert len(rows) == 2
        assert float(rows[1][0]) == 75.0

    def test_raw_signal_input(self, tmp_path):
        """A clean 60 bpm waveform comes out near 60 bpm."""
        signal, _ = synthetic_heartbeat([1000.0] * 25, fs=100.0,
                                        noise_std=0.0)
        sig = tmp_path / "sig.csv"
        write_table(sig, ["sample"], [[s] for s in signal.samples])
        out = tmp_path / "features.csv"
        rc = main(["extract", "--signal-csv", str(sig), "--fs", "100",
                   "--seed", "1", "--out-csv", str(out)])
        assert rc == 0
        _, rows, _ = read_table(out)
        assert 55.0 <= float(rows[0][0]) <= 65.0

    def test_rerun_is_byte_identical(self, tmp_path):
        rr = tmp_path / "rr.csv"
        _write_rr(rr, [900.0, 1000.0, 950.0] * 20)
        out = tmp_path / "features.csv"
        argv = ["extract", "--rr-csv", str(rr), "--seed", "3",
                "--out-csv", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_signal_without_fs_fails(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        write_table(sig, ["sample"], [[0.0]])
        rc = main(["extract", "--signal-csv", str(sig), "--seed", "1",
                   "--out-csv", str(tmp_path / "f.csv")])
        assert rc == 2
        assert "fs" in capsys.readouterr().err

    def test_no_inputs_fails(self, tmp_path):
        assert main(["extract", "--seed", "1",
                     "--out-csv", str(tmp_path / "f.csv")]) == 2

    def test_missing_input_names_path(self, tmp_path, capsys):
        rc = main(["extract", "--rr-csv", str(tmp_path / "absent.csv"),
                   "--seed", "1", "--out-csv", str(tmp_path / "f.csv")])
        assert rc == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_unwritable_output_is_reported(self, tmp_path, capsys):
        """A file the OS refuses is an `error:` line and exit 2, not a traceback."""
        rr = tmp_path / "rr.csv"
        _write_rr(rr, [1000.0] * 60)
        (tmp_path / "o" / "sub" / "f.csv").mkdir(parents=True)
        rc = main(["extract", "--rr-csv", str(rr), "--seed", "1",
                   "--out-dir", str(tmp_path / "o"), "--out-csv", "sub/f.csv"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "f.csv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fs, span", [("inf", "0 s"), ("1e9", "3e-06 s"), ("400", "7.5 s")])
    def test_unusable_rate_or_short_record_fails_before_any_filter(
            self, tmp_path, capsys, monkeypatch, fs, span):
        """3,000 samples are under 10 s at these rates. The record is
        rejected, naming the file and its span, before `signal_to_rr`
        runs: at fs = 1e9 its peak detection would allocate gigabytes."""
        def spy(*args, **kwargs):
            raise AssertionError("signal_to_rr ran")

        monkeypatch.setattr(codel.cli, "signal_to_rr", spy)
        sig = tmp_path / "short.csv"
        write_table(sig, ["sample"], [[float(v)] for v in np.sin(np.arange(3000.0))])
        out_dir = tmp_path / "out"
        rc = main(["extract", "--signal-csv", str(sig), "--fs", fs, "--seed", "1",
                   "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "short.csv" in err and span in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_rate_at_twice_the_cutoff_is_a_named_error(self, tmp_path, capsys):
        """At fs = 50 the low-pass cutoff of 25 Hz sits at Nyquist: the
        record's error names the rate, and nothing is written."""
        sig = tmp_path / "sig.csv"
        write_table(sig, ["sample"], [[float(v)] for v in np.sin(np.arange(3000.0))])
        out_dir = tmp_path / "out"
        rc = main(["extract", "--signal-csv", str(sig), "--fs", "50", "--seed", "1",
                   "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sig}: sampling rate fs ") and "fs=50.0" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flag, values, says", [
        ("--signal-csv", np.linspace(0.0, 1.0, 3000).tolist(), "need at least 3 beats"),
        ("--signal-csv", [0.0] * 1500 + [float("nan")] + [0.0] * 1499, "non-finite samples"),
        ("--rr-csv", [800.0] * 4, "need at least 10 s of intervals"),
        ("--signal-csv", [0.0] * 3000, "flat record: all 3000 samples equal 0.0"),
        ("--rr-csv", [1e160] * 5, "intervals must be at most 60000 ms (one beat a minute), "
                                  "got 1e+160 ms"),
        ("--rr-csv", [61000.0] * 12, "intervals must be at most 60000 ms"),
    ])
    def test_record_error_names_its_file(self, tmp_path, capsys, flag, values, says):
        """An error while a record is cleaned or featurized names that
        record's file, and nothing is written."""
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        _write_rr(good, [1000.0] * 60)
        write_table(bad, ["sample" if flag == "--signal-csv" else "rr_ms"],
                    [[v] for v in values])
        out_dir = tmp_path / "out"
        rc = main(["extract", "--rr-csv", str(good), flag, str(bad), "--fs", "100",
                   "--seed", "1", "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and says in err
        assert not out_dir.exists()

    def test_undecodable_signal_file_is_a_named_error(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        path.write_bytes(b"sample\n1.0\n\xff\n")
        rc = main(["extract", "--signal-csv", str(path), "--fs", "100", "--seed", "1",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not ")

    def test_out_csv_directory_is_created(self, tmp_path, monkeypatch):
        """A missing parent of --out-csv is made, whether the path is
        relative (to --out-dir or the working directory) or absolute."""
        rr = tmp_path / "rr.csv"
        _write_rr(rr, [1000.0] * 60)
        monkeypatch.chdir(tmp_path)
        cases = [
            (["--out-csv", "sub/f.csv"], tmp_path / "sub" / "f.csv"),
            (["--out-dir", "d", "--out-csv", "sub/f.csv"], tmp_path / "d" / "sub" / "f.csv"),
            (["--out-dir", "unused", "--out-csv", str(tmp_path / "abs" / "f.csv")],
             tmp_path / "abs" / "f.csv"),
        ]
        for flags, out in cases:
            assert main(["extract", "--rr-csv", str(rr), "--seed", "1", *flags]) == 0
            assert read_table(out)[0][-1] == "label"
        assert not (tmp_path / "unused").exists()


class TestTrain:

    TRAIN_FILES = ["weights.csv", "search_history.csv",
                   "refine_history.csv", "manifest.csv"]

    def _run(self, tmp_path, out_name="out"):
        features = tmp_path / "xor.csv"
        _write_xor_features(features)
        out_dir = tmp_path / out_name
        argv = ["train", "--features-csv", str(features), "--seed", "0",
                "--method", "gd", "--hidden", "4", "--nfe", "400",
                "--population-size", "10", "--epochs", "60",
                "--out-dir", str(out_dir)]
        return argv, out_dir

    def test_outputs(self, tmp_path):
        argv, out_dir = self._run(tmp_path)
        assert main(argv) == 0
        for name in self.TRAIN_FILES:
            assert (out_dir / name).is_file()

        params, topo = read_weights_csv(out_dir / "weights.csv")
        assert topo.layer_sizes == (2, 4, 1)
        assert params.shape == (topo.param_count,)

        _, rows, _ = read_table(out_dir / "search_history.csv")
        fitness = [float(r[2]) for r in rows]
        assert np.all(np.diff(fitness) <= 0)
        assert int(rows[-1][1]) <= 400 + 10

        manifest = dict(read_table(out_dir / "manifest.csv")[1])
        assert manifest["method"] == "gd"
        assert manifest["nfe_max"] == "400"
        assert int(manifest["nfe_used"]) <= 410
        assert 0.0 <= float(manifest["final_train_error"]) <= 100.0

        _, refine_rows, _ = read_table(out_dir / "refine_history.csv")
        assert 1 <= len(refine_rows) <= 60

    def test_rerun_is_byte_identical(self, tmp_path):
        argv_a, dir_a = self._run(tmp_path, "a")
        argv_b, dir_b = self._run(tmp_path, "b")
        assert main(argv_a) == 0
        assert main(argv_b) == 0
        snap_a = _snapshot(dir_a, self.TRAIN_FILES)
        snap_b = _snapshot(dir_b, self.TRAIN_FILES)
        assert snap_a == snap_b

    def test_multi_layer_manifest_reads_back(self, tmp_path):
        """Layer sizes share one cell, so the manifest stays two columns wide."""
        features = tmp_path / "xor.csv"
        _write_xor_features(features)
        out_dir = tmp_path / "out"
        assert main(["train", "--features-csv", str(features), "--seed", "0",
                     "--hidden", "4,3", "--nfe", "60", "--population-size", "6",
                     "--epochs", "5", "--out-dir", str(out_dir)]) == 0
        manifest = dict(read_table(out_dir / "manifest.csv")[1])
        assert manifest["hidden"] == "4 3"
        assert read_weights_csv(out_dir / "weights.csv")[1].layer_sizes == (2, 4, 3, 1)

    @pytest.mark.parametrize("bounds", [["--upper", "inf"],
                                        ["--lower=-1e308", "--upper=1e308"],
                                        ["--lower=-8e307", "--upper=8e307"],
                                        ["--lower=-1e300", "--upper=1e300", "--cp", "1"]])
    def test_search_range_beyond_floats_fails(self, tmp_path, capsys, bounds):
        """A range wider than floats hold, or one whose search sums can
        overflow, exits 2 before any search, naming both bounds."""
        argv, out_dir = self._run(tmp_path)
        assert main(argv + bounds) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lower=" in err and "upper=" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    def test_non_binary_labels_fail(self, tmp_path, capsys):
        features = tmp_path / "bad.csv"
        write_table(features, ["a", "label"], [[0.0, 2]])
        rc = main(["train", "--features-csv", str(features), "--seed", "0",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "0 or 1" in capsys.readouterr().err


class TestEvaluate:

    def _argv(self, features, out_dir, jobs=None):
        argv = ["evaluate", "--features-csv", str(features), "--seed", "2",
                "-k", "4", "--population-size", "8", "--nfe", "160",
                "--hidden", "3", "--epochs", "20", "--patience", "20",
                "--out-dir", str(out_dir)]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        return argv

    def test_full_report_set(self, tmp_path):
        features = tmp_path / "toy.csv"
        _write_features(features, two_gaussian_dataset(12, 2, 1.0, seed=5))
        out_dir = tmp_path / "out"
        assert main(self._argv(features, out_dir)) == 0

        for name in EVALUATE_FILES:
            assert (out_dir / name).is_file()

        header, rows, comments = read_table(out_dir / "accuracy.csv")
        assert header == ["algorithm", "mean", "std", "min", "max",
                          "median", "rank", "wtl"]
        assert [r[0] for r in rows] == list(VARIANT_NAMES)
        assert any(c.startswith("wtl=") for c in comments)
        for row in rows:
            assert 0.0 <= float(row[1]) <= 100.0
            assert row[7] in ("", "win", "tie", "loss")

        _, rank_rows, _ = read_table(out_dir / "mean_rank.csv")
        assert len(rank_rows) == 12
        means = [float(r[1]) for r in rank_rows]
        # Average ranks over 12 algorithms always center on 6.5.
        assert np.isclose(np.mean(means), 6.5)

        _, ee_rows, _ = read_table(out_dir / "ee.csv")
        assert [r[0] for r in ee_rows] == [
            n for n in VARIANT_NAMES if n.startswith("codel-")
        ]

    def test_parallel_run_matches_serial_bytes(self, tmp_path):
        """Worker processes change nothing in any output file."""
        features = tmp_path / "toy.csv"
        _write_features(features, two_gaussian_dataset(12, 2, 1.0, seed=5))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(self._argv(features, serial)) == 0
        assert main(self._argv(features, parallel, jobs=2)) == 0
        assert _snapshot(serial, EVALUATE_FILES) == _snapshot(
            parallel, EVALUATE_FILES
        )

    def test_single_class_fails(self, tmp_path):
        features = tmp_path / "one.csv"
        write_table(features, ["a", "label"], [[0.1, 1], [0.2, 1]])
        rc = main(self._argv(features, tmp_path / "out"))
        assert rc == 2


class TestCompareTables:

    def test_reports(self, tmp_path):
        means = tmp_path / "means.csv"
        _write_means(means)
        out_dir = tmp_path / "out"
        rc = main(["compare-tables", "--means-csv", str(means),
                   "--seed", "1", "--out-dir", str(out_dir)])
        assert rc == 0

        _, rows, _ = read_table(out_dir / "wtl.csv")
        assert [r[0] for r in rows] == list(METRIC_NAMES)
        # Both boosted variants improve every metric mean here.
        assert rows[0][1:] == ["2", "0", "0"]

        _, rank_rows, _ = read_table(out_dir / "mean_rank.csv")
        by_name = {r[0]: float(r[1]) for r in rank_rows}
        assert by_name["codel-rp"] < by_name["rp"]

        _, ee_rows, _ = read_table(out_dir / "ee.csv")
        assert float(dict((r[0], r) for r in ee_rows)["codel-rp"][1]) == (
            pytest.approx(400.0 / 30.0)
        )

    def test_nan_cell_in_a_pair_is_a_loss_not_an_abort(self, tmp_path):
        """A nan in a paired row leaves its enhancement nan and scores a loss."""
        means = tmp_path / "means.csv"
        write_table(means, ["algorithm", *METRIC_NAMES], [
            ["rp", 70.0, 80.0, 60.0, 75.0, 72.0, 66.0],
            ["codel-rp", float("nan"), 82.0, 64.0, 77.0, 74.0, 69.0],
            ["oss", 68.0, 81.0, 58.0, 74.0, 71.0, 65.0],
        ])
        out_dir = tmp_path / "out"
        rc = main(["compare-tables", "--means-csv", str(means),
                   "--seed", "1", "--out-dir", str(out_dir)])
        assert rc == 0

        _, ee_rows, _ = read_table(out_dir / "ee.csv")
        ee = {r[0]: [float(v) for v in r[1:]] for r in ee_rows}["codel-rp"]
        assert np.isnan(ee[0])
        assert ee[1] == pytest.approx(10.0)

        _, wtl_rows, _ = read_table(out_dir / "wtl.csv")
        wtl_by_metric = {r[0]: r[1:] for r in wtl_rows}
        assert wtl_by_metric["accuracy"] == ["0", "0", "1"]
        assert wtl_by_metric["sensitivity"] == ["1", "0", "0"]

    @pytest.mark.parametrize("name, metric, value", [
        ("gd", "accuracy", 170.0), ("oss", "precision", -5.0), ("codel-gd", "gmean", 150.0),
    ])
    def test_percentage_outside_0_100_fails(self, tmp_path, capsys, name, metric, value):
        """A base, an unpaired and a boosted cell outside [0, 100] are each
        refused, naming the file, the algorithm and the metric."""
        rows = {"rp": [70.0] * 6, "codel-rp": [100.0] * 6, "gd": [100.0] * 6,
                "codel-gd": [75.0] * 6, "oss": [0.0] * 6}
        rows[name][METRIC_NAMES.index(metric)] = value
        means = tmp_path / "means.csv"
        write_table(means, ["algorithm", *METRIC_NAMES], [[n, *v] for n, v in rows.items()])
        out_dir = tmp_path / "out"
        rc = main(["compare-tables", "--means-csv", str(means),
                   "--seed", "1", "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {means}: {name} {metric} is {value:g}, outside [0, 100]\n"
        assert not out_dir.exists()

    def test_percentages_at_0_and_100_pass(self, tmp_path):
        """The bounds themselves are scores: a base of exactly 100 leaves
        no error to reduce, so its enhancement is nan."""
        means = tmp_path / "means.csv"
        write_table(means, ["algorithm", *METRIC_NAMES], [
            ["gd", 100.0, *[70.0] * 5], ["codel-gd", 100.0, *[0.0] * 5],
        ])
        out_dir = tmp_path / "out"
        assert main(["compare-tables", "--means-csv", str(means),
                     "--seed", "1", "--out-dir", str(out_dir)]) == 0
        _, ee_rows, _ = read_table(out_dir / "ee.csv")
        ee = [float(v) for v in ee_rows[0][1:]]
        assert np.isnan(ee[0]) and ee[1] == pytest.approx(-100.0 * 70.0 / 30.0)

    def test_repeated_algorithm_fails(self, tmp_path, capsys):
        """A name listed twice would pair one base with two rows, so the
        table is refused, naming the file and the name."""
        means = tmp_path / "means.csv"
        write_table(means, ["algorithm", *METRIC_NAMES], [
            ["gd", *[70.0] * 6], ["gd", *[80.0] * 6], ["codel-gd", *[75.0] * 6],
        ])
        out_dir = tmp_path / "out"
        rc = main(["compare-tables", "--means-csv", str(means),
                   "--seed", "1", "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(means) in err and "'gd'" in err
        assert not out_dir.exists()

    def test_wrong_header_fails(self, tmp_path, capsys):
        means = tmp_path / "means.csv"
        write_table(means, ["algorithm", "acc"], [["rp", 70.0]])
        rc = main(["compare-tables", "--means-csv", str(means),
                   "--seed", "1", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "expected header" in capsys.readouterr().err

    def test_empty_table_fails(self, tmp_path):
        means = tmp_path / "means.csv"
        write_table(means, ["algorithm", *METRIC_NAMES], [])
        assert main(["compare-tables", "--means-csv", str(means),
                     "--seed", "1", "--out-dir", str(tmp_path / "out")]) == 2


class TestFailureWritesNothing:
    """Every table is computed before the first file is written, so a
    command that fails leaves --out-dir as it was."""

    @pytest.mark.parametrize("command, flag, header, row", [
        ("compare-tables", "--means-csv", ["algorithm", "acc"], ["rp", 70.0]),
        ("train", "--features-csv", ["a", "label"], [0.0, 2]),
    ])
    def test_out_dir_stays_empty(self, tmp_path, command, flag, header, row):
        source = tmp_path / "in.csv"
        write_table(source, header, [row])
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main([command, flag, str(source), "--seed", "1",
                     "--out-dir", str(out_dir)]) == 2
        assert list(out_dir.iterdir()) == []


class TestConfigResolution:

    def test_flag_beats_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nnp = 50\nnfe = 400\nmethod = gd\n"
                       "epochs = 30\nhidden = 4\n")
        features = tmp_path / "xor.csv"
        _write_xor_features(features)
        out_dir = tmp_path / "out"
        rc = main(["train", "--features-csv", str(features),
                   "--config", str(cfg), "--population-size", "10",
                   "--out-dir", str(out_dir)])
        assert rc == 0
        manifest = dict(read_table(out_dir / "manifest.csv")[1])
        assert manifest["population_size"] == "10"
        assert manifest["nfe_max"] == "400"
        assert manifest["seed"] == "5"

    def test_every_knob_flag_reaches_the_config(self):
        """Each RunConfig field but the seed is a flag of `evaluate`, and
        each lands with its given value and type, none a default."""
        args = build_parser().parse_args([
            "evaluate", "--features-csv", "f.csv", "--seed", "1",
            "--np", "6", "--nfe", "90",
            "--f", "0.6", "--cr", "0.8", "--jr", "0.2", "--cp", "4",
            "--lower", "-3", "--upper", "3", "-k", "3", "--method", "gd",
            "--hidden", "2,2", "--epochs", "7", "--patience", "5",
            "--lr", "0.1", "--momentum", "0.4", "--jobs", "2",
        ])
        expected = dict(
            seed=1, population_size=6, nfe_max=90, scale_factor=0.6,
            crossover_rate=0.8, jumping_rate=0.2, clustering_period=4,
            lower=-3.0, upper=3.0, folds=3, method="gd", hidden=(2, 2),
            epochs=7, patience=5, learning_rate=0.1, momentum=0.4, jobs=2,
        )
        assert list(expected) == [f.name for f in fields(RunConfig)]
        config = _resolve_config(args)
        default = RunConfig()
        for name, value in expected.items():
            landed = getattr(config, name)
            assert (type(landed), landed) == (type(value), value), name
            assert landed != getattr(default, name), name

    @pytest.mark.parametrize("flag", ["--folds", "-k", "--k", "--jobs"])
    def test_train_has_no_grid_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["train", "--features-csv", "f.csv", "--seed", "1", flag, "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # Each knob's long flag, spelled out so a renamed field shows here,
    # then each alias as `--alias`, and as `-a` when it is one letter.
    SPELLINGS = {
        "--population-size": "population_size", "--nfe-max": "nfe_max",
        "--scale-factor": "scale_factor", "--crossover-rate": "crossover_rate",
        "--jumping-rate": "jumping_rate", "--clustering-period": "clustering_period",
        "--lower": "lower", "--upper": "upper", "--folds": "folds",
        "--method": "method", "--hidden": "hidden", "--epochs": "epochs",
        "--patience": "patience", "--learning-rate": "learning_rate",
        "--momentum": "momentum", "--jobs": "jobs",
        **{f"--{alias}": name for alias, name in ALIASES.items()},
        **{f"-{alias}": name for alias, name in ALIASES.items() if len(alias) == 1},
    }

    @pytest.mark.parametrize("spelling, field", sorted(SPELLINGS.items()))
    def test_every_spelling_is_a_flag_of_its_field(self, spelling, field):
        args = build_parser().parse_args(
            ["evaluate", "--features-csv", "f.csv", spelling, "7"])
        assert [k for k, v in vars(args).items() if v == "7"] == [field]

    @pytest.mark.parametrize("flag, value, named", [
        ("--np", "many", "population_size"),
        ("--method", "newton", "method"),
    ])
    def test_bad_flag_value_names_its_field(self, tmp_path, capsys, flag, value, named):
        features = tmp_path / "xor.csv"
        _write_xor_features(features)
        out_dir = tmp_path / "out"
        rc = main(["evaluate", "--features-csv", str(features), "--seed", "1",
                   flag, value, "--out-dir", str(out_dir)])
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and repr(value) in err
        assert not out_dir.exists()

    def test_missing_seed_fails(self, tmp_path, capsys):
        features = tmp_path / "xor.csv"
        _write_xor_features(features)
        rc = main(["train", "--features-csv", str(features),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    def test_out_dir_created_nested(self, tmp_path):
        rr = tmp_path / "rr.csv"
        _write_rr(rr, [1000.0] * 30)
        out_dir = tmp_path / "deep" / "nested"
        rc = main(["extract", "--rr-csv", str(rr), "--seed", "1",
                   "--out-csv", "features.csv", "--out-dir", str(out_dir)])
        assert rc == 0
        assert (out_dir / "features.csv").is_file()


class TestStartupImports:
    """No command loads scipy, which the package needs only as the tests'
    oracle. Importing scipy.signal alone pulls in scipy.stats, optimize,
    sparse and more, over a second of start-up. Nor does a command load
    what it never runs: the process pool's modules load only for a grid
    of more than one job, and numpy.random only for a random draw.
    """

    POOL_MODULES = ("concurrent.futures", "multiprocessing")

    SCRIPT = """
import sys
from codel.cli import build_parser, main

parser = build_parser()
parser.parse_args(["train", "--features-csv", "xor.csv", "--seed", "0"])
parser.parse_args(["evaluate", "--features-csv", "xor.csv", "--seed", "0"])
parser.parse_args(["compare-tables", "--means-csv", "means.csv", "--seed", "0"])
assert main(["train", "--features-csv", "xor.csv", "--seed", "0",
             "--method", "gd", "--hidden", "4", "--nfe", "400",
             "--population-size", "10", "--epochs", "60",
             "--out-dir", "train"]) == 0
assert main(["compare-tables", "--means-csv", "means.csv", "--seed", "0",
             "--out-dir", "compare"]) == 0
print("\\n".join(sorted(sys.modules)))
"""

    def test_train_and_compare_tables_never_load_scipy_subpackages(self, tmp_path):
        _write_xor_features(tmp_path / "xor.csv")
        _write_means(tmp_path / "means.csv")
        src = str(Path(codel.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "train" / "weights.csv").is_file()
        assert (tmp_path / "compare" / "wtl.csv").is_file()
        loaded = done.stdout.split()
        for heavy in ("scipy.signal", "scipy.stats", "scipy.ndimage", *self.POOL_MODULES):
            assert not [m for m in loaded if m == heavy or m.startswith(heavy + ".")]

    EXTRACT_SCRIPT = """
import sys
from codel.cli import main

assert main(["extract", "--signal-csv", "rec.csv", "--fs", "100", "--seed", "0",
             "--out-dir", "extract"]) == 0
print("\\n".join(sorted(sys.modules)))
"""

    def test_extract_of_a_raw_signal_never_loads_scipy_signal(self, tmp_path):
        """The whole cleaning chain is numpy: no scipy module is loaded."""
        sig, _ = synthetic_heartbeat(np.full(15, 1000.0), fs=100.0, noise_std=0.01)
        write_table(tmp_path / "rec.csv", ["sample"], [[float(v)] for v in sig.samples])
        src = str(Path(codel.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", self.EXTRACT_SCRIPT], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "extract" / "features.csv").is_file()
        loaded = done.stdout.split()
        for heavy in ("scipy", "numpy.random", *self.POOL_MODULES):
            assert not [m for m in loaded if m == heavy or m.startswith(heavy + ".")]
