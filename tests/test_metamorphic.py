"""Metamorphic relations: how outputs must move when an input moves.

A relation needs no oracle, only a reason it holds by construction,
which each test states. Tables are drawn with nan cells, cells at
exactly 100, near-ties, unpaired names and tables with no pair at all.
"""

from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from codel.cli import main
from codel.datasets import synthetic_heartbeat, two_gaussian_dataset
from codel.evaluation import METRIC_NAMES, TIE_TOL, metrics, pair_outcomes
from codel.io import read_table, write_table
from codel.mlp import Dataset, MlpTopology, classification_error, decode
from codel.signal import Signal, signal_to_rr
from codel.training import build_comparison

from oracles import classification_error_reference, error_enhancement_reference

# Three pairs, two lone boosted or base names, and an unrelated one.
_NAMES = ("rp", "codel-rp", "oss", "codel-oss", "gd", "codel-gd", "codel-gda", "cgpr", "x")

# Few distinct values, so ties (in ranks and in pairs) are common.
_CELLS = st.one_of(
    st.sampled_from([0.0, 50.0, 50.0 + TIE_TOL / 2, 50.0 + 2 * TIE_TOL, 87.5, 100.0, np.nan]),
    st.floats(0.0, 100.0),
)


@st.composite
def _means_tables(draw):
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=len(_NAMES),
                          unique=True))
    cells = draw(st.lists(_CELLS, min_size=6 * len(names), max_size=6 * len(names)))
    return tuple(names), np.array(cells).reshape(len(names), len(METRIC_NAMES))


def _by_boosted_name(comparison, field):
    return {c: getattr(comparison, field)[p].tobytes()
            for p, (_, c) in enumerate(comparison.pairs)}


class TestRowPermutation:
    """Ranks, pairing and counts depend on which row holds which name,
    never on where a row sits, so a permuted table gives each name the
    same statistics bit for bit. Killed mutant: ordinal ranks (ties
    broken by row position) in place of average ranks."""

    @given(table=_means_tables(), data=st.data())
    def test_each_name_keeps_its_statistics(self, table, data):
        names, means = table
        order = data.draw(st.permutations(range(len(names))))
        before = build_comparison(names, means)
        after = build_comparison([names[i] for i in order], means[order])

        assert after.ranks.tobytes() == before.ranks[order].tobytes()
        assert after.mean_ranks.tobytes() == before.mean_ranks[order].tobytes()
        assert sorted(after.pairs) == sorted(before.pairs)
        for field in ("outcomes", "ee_table"):
            assert _by_boosted_name(after, field) == _by_boosted_name(before, field)
        assert np.array_equal(after.wtl, before.wtl)

    def test_compare_tables_files_hold_the_same_rows(self, tmp_path):
        """The same relation through the whole command: every output file
        holds the same data rows, whatever their order."""
        rows = [["rp", 70.0, 80.0, 60.0, 75.0, 72.0, 66.0],
                ["codel-rp", 74.0, 79.0, 64.0, 100.0, 74.0, 69.0],
                ["oss", 68.0, 100.0, 58.0, 74.0, float("nan"), 65.0],
                ["codel-oss", 68.0, 82.0, 59.0, 78.0, 75.0, 70.0],
                ["gd", 70.0, 80.0, 60.0, 74.0, 72.0, 65.0]]
        outputs = []
        for run, order in enumerate(([0, 1, 2, 3, 4], [3, 4, 0, 2, 1])):
            out_dir = tmp_path / str(run)
            out_dir.mkdir()
            write_table(out_dir / "means.csv", ["algorithm", *METRIC_NAMES],
                        [rows[i] for i in order])
            assert main(["compare-tables", "--means-csv", str(out_dir / "means.csv"),
                         "--seed", "1", "--out-dir", str(out_dir)]) == 0
            outputs.append({name: sorted(read_table(out_dir / name)[1])
                            for name in ("mean_rank.csv", "wtl.csv", "ee.csv", "ranks.csv")})
        assert outputs[0] == outputs[1]


class TestLabelSwap:
    """Swapping the classes turns true positives into true negatives and
    false positives into false negatives, so sensitivity and specificity
    trade places, and accuracy and G-mean, symmetric in the two, keep
    every bit. Killed mutant: specificity over tn + fn in place of
    tn + fp."""

    @given(labels=st.lists(st.integers(0, 1), min_size=1, max_size=40), data=st.data())
    def test_sensitivity_and_specificity_trade_places(self, labels, data):
        labels = np.array(labels)
        stack = np.array(data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=labels.size, max_size=labels.size),
            min_size=1, max_size=6)))
        scores = metrics(labels, stack)
        swapped = metrics(1 - labels, 1 - stack)
        kept = [METRIC_NAMES.index("accuracy"), METRIC_NAMES.index("gmean")]
        traded = [METRIC_NAMES.index("sensitivity"), METRIC_NAMES.index("specificity")]
        assert swapped[:, kept].tobytes() == scores[:, kept].tobytes()
        assert swapped[:, traded].tobytes() == scores[:, traded[::-1]].tobytes()


class TestComparisonCells:
    """Each array statistic of `build_comparison` equals the scalar rule
    applied to its own cells. Killed mutant: masking a base above 100
    (`>`) in place of at or above it (`>=`), which lets a perfect base
    reach `error_enhancement` and raise."""

    @given(table=_means_tables())
    def test_every_cell_follows_its_scalar_rule(self, table):
        names, means = table
        comparison = build_comparison(names, means)
        base = np.array([means[names.index(b)] for b, _ in comparison.pairs]).reshape(-1, 6)
        boosted = np.array([means[names.index(c)] for _, c in comparison.pairs]).reshape(-1, 6)
        assert comparison.outcomes.shape == comparison.ee_table.shape == base.shape
        assert comparison.wtl.shape == (len(METRIC_NAMES), 3)

        for (p, j), b in np.ndenumerate(base):
            c = boosted[p, j]
            assert comparison.outcomes[p, j] == pair_outcomes(b, c)
            if b == 100.0 or np.isnan(b) or np.isnan(c):
                assert np.isnan(comparison.ee_table[p, j])
            else:
                assert comparison.ee_table[p, j] == error_enhancement_reference(100.0 - b,
                                                                                100.0 - c)
        for j in range(len(METRIC_NAMES)):
            outcomes = pair_outcomes(base[:, j], boosted[:, j])
            assert comparison.wtl[j].tolist() == [np.count_nonzero(outcomes == o)
                                                  for o in ("win", "tie", "loss")]


class TestSignalScaling:
    """Multiplying a record by a power of two scales every sample
    exactly, and `standardize` divides that scale out exactly, so the
    cleaning chain sees the same samples and `extract` writes the same
    features. That holds out to both ends of the range of k in which
    every sample of 2^k·x stays finite and normal. Killed mutants: a
    flat-record cut-off `std < 0.1` in `standardize`, which flattens
    the 2^-5 copy, and `standardize` without its power-of-two prescale,
    which flattens the copies at both ends.

    Adding an offset is not exact, but it only rounds each sample to the
    offset's ulp (2^-9 at 1e13), so the intervals stay. `standardize`
    zeroes only a record whose samples are all equal. Killed mutant: its
    earlier relative cut-off, std under 1e-12 of the largest magnitude,
    which flattened the record from an offset of 1e12 up."""

    RR = 1000.0 + 150.0 * np.sin(np.arange(15))

    def test_extract_writes_the_same_features(self, tmp_path):
        sig, _ = synthetic_heartbeat(self.RR, fs=100.0, noise_std=0.02, seed=3)
        magnitudes = np.abs(sig.samples[sig.samples != 0])
        lowest = -1021 - np.frexp(magnitudes.min())[1]
        highest = 1024 - np.frexp(magnitudes.max())[1]
        features = []
        for k in (0, 3, -5, lowest, highest):
            path = tmp_path / f"x{k}.csv"
            write_table(path, ["sample"], [[v] for v in np.ldexp(sig.samples, k)])
            out_dir = tmp_path / f"out{k}"
            assert main(["extract", "--signal-csv", str(path), "--fs", "100",
                         "--seed", "1", "--out-dir", str(out_dir)]) == 0
            header, rows, _ = read_table(out_dir / "features.csv")
            features.append((header, rows))
        assert all(f == features[0] for f in features[1:])

    def test_offset_keeps_the_intervals(self):
        sig, _ = synthetic_heartbeat(self.RR, fs=100.0, noise_std=0.02, seed=3)
        plain = signal_to_rr(sig).intervals
        assert plain.size == self.RR.size
        for offset in (1e9, 1e10, 1e11, 1e12, 1e13):
            shifted = signal_to_rr(Signal(sig.samples + offset, sig.fs)).intervals
            assert shifted.size == self.RR.size, offset
            np.testing.assert_allclose(shifted, plain, atol=20.0, err_msg=f"offset {offset:g}")


class TestColumnScaling:
    """Multiplying a feature column by 2^k scales its values, their mean
    and their std exactly, so each fold's standardized columns, and with
    them every search and refiner run, are the same bits. That holds
    near both ends of the range of k in which the columns stay finite
    and normal. Killed mutants: `fold_datasets` without standardization,
    and `_standardize_columns` without its power-of-two prescale, which
    leaves the 2^-1000 column unscaled and overflows the 2^1022 ones."""

    EXPONENTS = ([0, 0, 0], [-6, 6, 3], [6, -6, -1], [-6, -6, -6], [6, 6, 6], [2, -3, 5],
                 [-1000, 500, 900], [1022, -1017, 1022])

    def test_evaluate_writes_the_same_tables(self, tmp_path, monkeypatch):
        data = two_gaussian_dataset(15, 3, 1.5, seed=5)
        tables = []
        for run, k in enumerate(self.EXPONENTS):
            (tmp_path / str(run)).mkdir()
            monkeypatch.chdir(tmp_path / str(run))
            write_table("features.csv", ["f0", "f1", "f2", "label"],
                        [[*np.ldexp(row, k), int(label)] for row, label in zip(data.rows, data.labels)])
            assert main(["evaluate", "--features-csv", "features.csv", "--seed", "2", "-k", "3",
                         "--population-size", "6", "--nfe", "120", "--hidden", "3",
                         "--epochs", "10", "--patience", "10", "--out-dir", "out"]) == 0
            tables.append({p.name: p.read_bytes() for p in sorted(Path("out").iterdir())})
        assert len(tables[0]) == 10
        assert all(t == tables[0] for t in tables[1:])

    def test_classification_error_follows_the_first_layer(self):
        """Scaling input column i by 2^k_i and the first layer's weights
        on it by 2^-k_i keeps every product x_i w_ji, so the exact pass
        is the same bits. The fast pass's bound reads the rows' largest
        magnitude and the weights' 1-norms, so mixed exponents move it:
        the error is the same at every input scale, whichever members
        the bound sends to the exact pass."""
        rng = np.random.default_rng(21)
        topo = MlpTopology((4, 6, 1))
        rows, labels = rng.normal(0, 1, (60, 4)), rng.integers(0, 2, 60)
        stack = rng.uniform(-10.0, 10.0, (12, topo.param_count))
        for v in stack[:4]:  # every row exactly at 0, -1e-17 or next to the edge
            w2, b2 = decode(v, topo)[-1]
            w2[...], b2[...] = 0.0, rng.choice([0.0, -1e-17, 1e-16])
        expected = classification_error(stack, topo, Dataset(rows, labels))
        assert expected.tolist() == [classification_error_reference(v, topo, Dataset(rows, labels))
                                     for v in stack]
        for k in ([-6, -6, -6, -6], [6, 6, 6, 6], [-6, 6, 0, 3]):
            scaled = stack.copy()
            w1, _ = decode(scaled, topo)[0]
            w1 *= np.ldexp(1.0, -np.array(k))
            errors = classification_error(scaled, topo, Dataset(np.ldexp(rows, k), labels))
            assert errors.tobytes() == expected.tobytes()
