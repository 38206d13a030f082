import math
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import codel.io
from codel.cli import main
from codel.config import ALIASES, RunConfig, parse_config
from codel.errors import ParameterError
from codel.hrv import FEATURE_NAMES, FeatureRecord
from codel.io import (
    features_table,
    format_value,
    read_features_csv,
    read_rr_csv,
    read_signal_csv,
    read_table,
    read_weights_csv,
    weights_table,
    write_table,
)
from codel.local_search import LocalSearchConfig
from codel.mlp import MlpTopology
from codel.optimizer import CodelConfig
from codel.streams import derive_seed, named_rng

from oracles import read_numbers_reference


def _record(offset: float = 0.0) -> FeatureRecord:
    return FeatureRecord(*(offset + i / 3.0 for i in range(13)))


class TestFormatValue:

    def test_scalars(self):
        assert format_value(5) == "5"
        assert format_value(np.int64(-3)) == "-3"
        assert format_value(True) == "True"
        assert format_value(np.bool_(False)) == "False"
        assert format_value("rp") == "rp"

    def test_float_repr_round_trips(self):
        for value in [0.1, 1 / 3, math.pi, 1e-17, -2.5e300]:
            assert float(format_value(value)) == value
        assert float(format_value(np.float64(0.2))) == 0.2


class TestTableRoundTrip:

    def test_header_rows_comments(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ["a", "b"], [[1, 2.5], [3, "x"]],
                    comments=["seed=7", "note"])
        header, rows, comments = read_table(path)
        assert header == ["a", "b"]
        assert rows == [["1", "2.5"], ["3", "x"]]
        assert comments == ["seed=7", "note"]

    def test_floats_exact_through_text(self, tmp_path):
        """repr-written cells parse back to the same bits."""
        path = tmp_path / "f.csv"
        values = [1 / 3, math.sqrt(2), 6.02e23, 5e-324]
        write_table(path, ["v"], [[v] for v in values])
        _, rows, _ = read_table(path)
        assert [float(r[0]) for r in rows] == values

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_table(path, ["only"], [])
        header, rows, _ = read_table(path)
        assert header == ["only"] and rows == []

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ParameterError, match="nowhere.csv"):
            read_table(tmp_path / "nowhere.csv")

    @pytest.mark.parametrize("reader", [read_table, read_signal_csv, read_rr_csv,
                                        read_features_csv, read_weights_csv, parse_config])
    def test_undecodable_byte_names_the_file(self, tmp_path, reader):
        path = tmp_path / "f.csv"
        path.write_bytes(b"sample\n1.0\n\xff\n")
        with pytest.raises(ParameterError, match=r"f\.csv: not .+ text: .+ at byte 11"):
            reader(path)

    def test_file_without_header_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("# just a comment\n\n")
        with pytest.raises(ParameterError):
            read_table(path)


class TestSignalAndRrReaders:

    def test_signal_round_trip(self, tmp_path):
        path = tmp_path / "sig.csv"
        samples = np.sin(np.linspace(0, 4, 50))
        write_table(path, ["sample"], [[s] for s in samples])
        np.testing.assert_array_equal(read_signal_csv(path), samples)

    def test_rr_round_trip(self, tmp_path):
        path = tmp_path / "rr.csv"
        write_table(path, ["rr_ms"], [[800.0], [812.5], [790.0]])
        np.testing.assert_array_equal(read_rr_csv(path), [800.0, 812.5, 790.0])

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        write_table(path, ["rr_ms"], [[1.0]])
        with pytest.raises(ParameterError, match="sample"):
            read_signal_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("sample\n1.0\noops\n")
        with pytest.raises(ParameterError, match="non-numeric"):
            read_signal_csv(path)

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "rr.csv"
        write_table(path, ["rr_ms"], [])
        with pytest.raises(ParameterError):
            read_rr_csv(path)

    @given(values=st.lists(st.one_of(
               st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                1.7976931348623157e308, -1.7976931348623157e308]),
               st.floats(allow_nan=False, allow_infinity=False)), min_size=1),
           extra=st.lists(st.tuples(st.integers(0, 10**6),
                                    st.sampled_from(["", " ", "\t", "  \t ",
                                                     "#", "# note", "#1.0,2.0"]))))
    @example(values=[-0.0, 5e-324, -1.7976931348623157e308], extra=[(2, "  "), (3, "# x")])
    def test_round_trip_matches_row_by_row_reader(self, tmp_path_factory, values, extra):
        """Comments and blank or whitespace-only lines anywhere in the body
        are skipped, and every value comes back bit for bit."""
        path = tmp_path_factory.mktemp("column") / "column.csv"
        for name, reader in (("sample", read_signal_csv), ("rr_ms", read_rr_csv)):
            write_table(path, [name], [[v] for v in values])
            lines = path.read_text().splitlines()
            for position, line in extra:
                lines.insert(position % (len(lines) + 1), line)
            path.write_text("\n".join(lines) + "\n")
            got = reader(path)
            assert got.dtype == np.float64
            header, reference = read_numbers_reference(path, lambda header, comments: header)
            assert header == [name]
            assert got.tobytes() == reference[:, 0].tobytes()
            assert got.tobytes() == np.array(values, dtype=float).tobytes()

    @pytest.mark.parametrize("reader, header, noun", [
        (read_signal_csv, "sample", "samples"), (read_rr_csv, "rr_ms", "intervals")])
    @pytest.mark.parametrize("body, row", [
        ("1.0\n2.0\nnan\n3.0\ninf\n", 3),
        ("-inf\n", 1),
        # Blank and comment lines are not data rows.
        ("# note\n1.0\n\n2.0\n  \n-Infinity\n", 3),
    ])
    def test_non_finite_cell_names_its_data_row(self, tmp_path, reader, header, noun, body, row):
        path = tmp_path / "col.csv"
        path.write_text(f"{header}\n{body}")
        with pytest.raises(ParameterError,
                           match=f"col.csv: data row {row}: non-finite {noun} are not allowed"):
            reader(path)

    def test_long_record_holds_no_list_of_lines(self, tmp_path):
        """Three minutes at 250 Hz peak near 0.73 MB: the floats, one
        copy of them, and one block of lines. A list of the file's lines
        took 5.81 MB."""
        path = tmp_path / "sig.csv"
        samples = np.sin(np.arange(45_000) / 40.0) ** 15
        write_table(path, ["sample"], [[s] for s in samples])
        tracemalloc.start()
        try:
            got = read_signal_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == samples.tobytes()
        assert peak < 1e6

    def test_run_block_keeps_a_long_record_off_the_list_of_lines(self, tmp_path):
        """Leading comment lines keep the record off a list of its
        lines too: with one, the list of lines took 5.35 MB."""
        path = tmp_path / "sig.csv"
        samples = np.cos(np.arange(45_000) / 40.0) ** 15
        write_table(path, ["sample"], [[s] for s in samples], comments=["fs=250"])
        tracemalloc.start()
        try:
            got = read_signal_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == samples.tobytes()
        assert peak < 1e6

    def test_two_cell_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("sample\n1.0\n\n1.0,2.0\n3.0\n")
        with pytest.raises(ParameterError, match="sig.csv: line 4: ragged row of 2 cells"):
            read_signal_csv(path)


def _signal_bytes(path):
    return read_signal_csv(path).tobytes()


class TestBlockEdges:
    """A 45,000-line record spans many of the reader's blocks. Line
    numbers and byte offsets count from the start of the file, and a
    line cut at a block's edge reads whole."""

    def _write(self, path, edit=lambda lines: None, comments=()):
        """The record under its header, with `edit` applied to its list of
        lines; line k of the file is entry k - 1."""
        lines = [f"# {c}" for c in comments] + ["sample"]
        lines += [repr(v) for v in (np.sin(np.arange(45_000) / 40.0) ** 15).tolist()]
        edit(lines)
        path.write_text("\n".join(lines) + "\n")
        return lines

    def test_ragged_row_names_its_line(self, tmp_path):
        path = tmp_path / "sig.csv"
        self._write(path, lambda lines: lines.__setitem__(30_000, "1.0,2.0"))
        assert _reads_as_reference(_signal_bytes, path) == (
            f"{path}: line 30001: ragged row of 2 cells under a 1-column header")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "sig.csv"
        self._write(path, lambda lines: lines.__setitem__(30_000, "oops"))
        assert _reads_as_reference(_signal_bytes, path) == (
            f"{path}: non-numeric value (could not convert string to float: 'oops')")

    def test_ragged_row_after_a_non_numeric_cell_comes_first(self, tmp_path):
        path = tmp_path / "sig.csv"

        def edit(lines):
            lines[30_000] = "oops"
            lines[44_000] = "1,2,3"

        self._write(path, edit)
        assert _reads_as_reference(_signal_bytes, path) == (
            f"{path}: line 44001: ragged row of 3 cells under a 1-column header")

    def test_check_sees_every_comment_before_a_non_numeric_cell(self, tmp_path):
        """The weights' topology line comes last, after a bad cell: the
        check reads it and refuses it before the cell is reported."""
        path = tmp_path / "w.csv"

        def edit(lines):
            lines[0] = "weight"
            lines[30_000] = "oops"
            lines.append("# topology=2,3.5,1")

        self._write(path, edit)

        def read(path):
            params, topology = read_weights_csv(path)
            return params.tobytes(), topology.layer_sizes

        assert _reads_as_reference(read, path) == (
            f"{path}: bad value (invalid literal for int() with base 10: '3.5')")

    def test_blank_and_comment_lines_at_block_edges(self, tmp_path):
        """Runs of blank and '#' lines straddle the first three block
        edges, each starting one line before the line the edge cuts."""
        path = tmp_path / "sig.csv"
        run = ["", "#", "   ", "# a comment line that a block edge may cut in two", "",
               "#1.0", "\t", "#"]

        def edit(lines):
            for edge in (1, 2, 3):
                at = edge * codel.io._BLOCK
                ends = np.cumsum([len(line) + 1 for line in lines])
                i = int(np.searchsorted(ends, at, side="right"))
                lines[i - 1:i - 1] = run

        lines = self._write(path, edit)
        text = path.read_text()
        for edge in (1, 2, 3):
            cut = text[edge * codel.io._BLOCK - 60:edge * codel.io._BLOCK + 60]
            assert "\n\n" in cut[:60] and "\n#" in cut[60:]
        samples = [float(line) for line in lines[1:] if line.strip() and line[0] != "#"]
        assert _reads_as_reference(_signal_bytes, path) == np.array(samples).tobytes()
        # The runs count as lines: a ragged last row is named by its line.
        lines[-1] = "1,2"
        path.write_text("\n".join(lines) + "\n")
        assert _reads_as_reference(_signal_bytes, path) == (
            f"{path}: line {len(lines)}: ragged row of 2 cells under a 1-column header")

    def test_comment_block_longer_than_a_block(self, tmp_path):
        path = tmp_path / "sig.csv"
        comments = [f"note {i:04d}: a run block of many lines" for i in range(1_000)]
        lines = self._write(path, comments=comments)
        assert sum(len(line) + 1 for line in lines[:1_000]) > 2 * codel.io._BLOCK
        assert _reads_as_reference(_signal_bytes, path) == (
            np.array([float(line) for line in lines[1_001:]]).tobytes())
        self._write(path, lambda lines: lines.__setitem__(31_000, "1,2"), comments)
        assert _reads_as_reference(_signal_bytes, path) == (
            f"{path}: line 31001: ragged row of 2 cells under a 1-column header")

    @pytest.mark.parametrize("ragged", [False, True])
    def test_undecodable_byte_names_its_offset_in_the_file(self, tmp_path, ragged):
        """Also behind a ragged row, which the reader meets first."""
        path = tmp_path / "sig.csv"
        self._write(path, lambda lines: lines.__setitem__(2, "1,2") if ragged else None)
        data = bytearray(path.read_bytes())
        data[200_000] = 0xFF
        path.write_bytes(bytes(data))
        got = _reads_as_reference(_signal_bytes, path)
        assert got.startswith(f"{path}: not ") and got.endswith(" text: invalid start byte "
                                                                "at byte 200000")


class TestRaggedFeatureRows:

    def test_balanced_ragged_rows_past_the_first_block(self, tmp_path):
        """A row one cell too wide and the next one cell too narrow hold
        as many cells as two good rows."""
        path = tmp_path / "feat.csv"
        rows = [[0.5, 0.25, i % 2] for i in range(3_000)]
        rows[2_000], rows[2_001] = [0.5, 0.25, 0.125, 1], [0.5, 1]
        write_table(path, ["a", "b", "label"], rows)
        assert 2_000 * len("0.5,0.25,0\n") > codel.io._BLOCK
        assert _reads_as_reference(_dataset_bytes, path) == (
            f"{path}: line 2002: ragged row of 4 cells under a 3-column header")


def _reads_as_reference(read, path):
    """Assert that `read` makes the same of `path` with the package's
    reader and with `read_numbers_reference` in its place, and so does
    the reader alone with a check that keeps the header and comments,
    with no warning let out either way. Return what `read` made of it:
    its result, or its ParameterError text."""
    def outcome(fn):
        try:
            return fn()
        except ParameterError as exc:
            return str(exc)

    def both():
        def shared():
            (header, comments), values = codel.io._scan(path, lambda *head: head)
            return header, comments, values.shape, values.tobytes()

        return outcome(lambda: read(path)), outcome(shared)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = both()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codel.io, "_scan", read_numbers_reference)
            assert got == both()
    return got[0]


_PLAIN_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f" \t{v!r}  "),
    st.integers(-10**20, 10**20).map(str),
)
_ODD_LINES = [
    "", "   ", "\t", "# note", "#1.0", "oops", "1.0,2.0", "1.0 2.0", "nan", "-inf",
    "Infinity", "1e999",
    # Line breaks to `str.splitlines` but not to file iteration, inside a
    # line and at its end, and \x1f, which `str.strip` strips and `float`
    # does not.
    *(f"{a}{c}{b}" for c in "\x0c\x1c\x85\u2028\x1f" for a, b in [("1.0", ""), ("1", "2")]),
    # `float` takes these, as 1000.0 and 12.0.
    "1_000", "\u0661\u0662"]


# Comment lines, some holding characters that `str.splitlines` breaks
# at and file iteration does not: every reader keeps those lines whole.
_COMMENT_LINES = st.sampled_from(["# run", "#", "##", "#seed=1 ", "#\tfs=250", "# a,b",
                                  "#1\x1c2", "# x\x85y", "#\u2028", "#\x0c"])


class TestSingleColumnReader:
    """Every file reads as `read_numbers_reference` reads it: the same
    bits and comments, or the same ParameterError text."""

    def test_float_takes_a_padded_cell_only_as_strip_does(self):
        """The one-pass conversion calls `float` on unstripped cells: it
        succeeds only where `float(cell.strip())` gives the same value."""
        spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
        assert len(spaces) == 29
        for c in spaces:
            for cell in (f"{c}1.5", f"-2e3{c}", f"{c}{c}7{c}"):
                try:
                    got = float(cell)
                except ValueError:
                    continue
                assert got == float(cell.strip())

    @given(column=st.sampled_from([("sample", "samples"), ("rr_ms", "intervals")]),
           comments=st.lists(_COMMENT_LINES, max_size=3),
           first=st.sampled_from(["", "\ufeff", " ", "# run\n", "x,", "\n"]),
           lines=st.lists(st.one_of(_PLAIN_CELLS, st.sampled_from(_ODD_LINES)), max_size=30),
           newline=st.sampled_from(["\n", "\r\n"]),
           trailing=st.booleans())
    @example(column=("sample", "samples"), comments=[], first="", lines=[], newline="\n",
             trailing=True)
    @example(column=("sample", "samples"), comments=[], first="\ufeff", lines=["1.0"],
             newline="\n", trailing=True)
    @example(column=("rr_ms", "intervals"), comments=[], first="", lines=["800.0", "", "oops"],
             newline="\r\n", trailing=False)
    @example(column=("sample", "samples"), comments=[], first="", lines=[], newline="\n",
             trailing=False)
    @example(column=("sample", "samples"), comments=[], first="", lines=["1.0,2.0"],
             newline="\n", trailing=True)
    @example(column=("sample", "samples"), comments=[], first="", lines=["1.0\x1f", "2.5\u2028"],
             newline="\n", trailing=True)
    @example(column=("rr_ms", "intervals"), comments=[], first="", lines=["1\x1c2", "nan\x85"],
             newline="\n", trailing=False)
    @example(column=("sample", "samples"), comments=[], first="", lines=["1_000", "\u0661\u0662"],
             newline="\n", trailing=True)
    @example(column=("sample", "samples"), comments=["# fs=250", "#", "#seed=1 "], first="",
             lines=["1.0", "2.5"], newline="\r\n", trailing=True)
    @example(column=("rr_ms", "intervals"), comments=["#1\x1c2"], first="", lines=["800.0"],
             newline="\n", trailing=True)
    # A blank line ahead of a header that is itself a number.
    @example(column=("0", "samples"), comments=["# run"], first="\n", lines=["1.0"],
             newline="\n", trailing=True)
    def test_reads_as_reference(self, tmp_path_factory, column, comments, first, lines,
                                newline, trailing):
        header, noun = column
        path = tmp_path_factory.mktemp("column") / "column.csv"
        text = newline.join([*comments, first + header, *lines]) + (newline if trailing else "")
        path.write_bytes(text.encode("utf-8"))
        got = _reads_as_reference(
            lambda path: codel.io._read_single_column(path, header, noun).tobytes(), path)
        # A file of plain numbers reads as those numbers.
        if first == "" and lines and not set(lines) & set(_ODD_LINES):
            assert got == np.array([float(line) for line in lines]).tobytes()


def _dataset_bytes(path):
    data = read_features_csv(path)
    return data.rows.tobytes(), data.labels.tobytes()


class TestFeaturesCsv:

    @given(width=st.sampled_from([2, 14]),
           rows=st.lists(st.tuples(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                            min_size=13, max_size=13),
                                   st.integers(0, 1)), max_size=8),
           odd=st.lists(st.tuples(st.integers(0, 10**6),
                                  st.sampled_from(["nan", "-inf", " 1.5 ", "1.0\x1f", "oops",
                                                   "1_000", "", "2", "1,0"])), max_size=2),
           run_block=st.booleans())
    @example(width=14, rows=[([0.5] * 13, 1)], odd=[], run_block=True)
    @example(width=2, rows=[], odd=[], run_block=True)
    def test_reads_as_reference(self, tmp_path_factory, width, rows, odd, run_block):
        """Feature tables of 2 and 14 columns as `write_table` writes them,
        with and without a run block, and with odd cells swapped in, read
        as `read_numbers_reference` reads them."""
        path = tmp_path_factory.mktemp("features") / "features.csv"
        header = ["a", "label"] if width == 2 else [*FEATURE_NAMES, "label"]
        table = [[*features[:width - 1], label] for features, label in rows]
        for position, cell in odd:
            if table:
                table[position % len(table)][position // len(table) % width] = cell
        comments = ["command=extract", *parse_config(seed=1).manifest_lines()] if run_block else ()
        write_table(path, header, table, comments)
        got = _reads_as_reference(_dataset_bytes, path)
        if table and not odd:
            assert got == (np.array([row[:-1] for row in table], dtype=float).tobytes(),
                           np.array([row[-1] for row in table], dtype=int).tobytes())

    def test_round_trip(self, tmp_path):
        path = tmp_path / "feat.csv"
        records = [_record(0.0), _record(1.0), _record(-2.0)]
        features_table(records, [0, 1, 1]).write(path, ["run"])
        data = read_features_csv(path)
        expected = np.vstack([r.as_vector() for r in records])
        np.testing.assert_array_equal(data.rows, expected)
        np.testing.assert_array_equal(data.labels, [0, 1, 1])

    def test_header_is_names_plus_label(self, tmp_path):
        path = tmp_path / "feat.csv"
        features_table([_record()], [1]).write(path, ())
        header, _, _ = read_table(path)
        assert header == list(FEATURE_NAMES) + ["label"]

    def test_label_count_mismatch(self, tmp_path):
        with pytest.raises(ParameterError):
            features_table([_record()], [0, 1]).write(tmp_path / "x.csv", ())

    def test_reader_takes_any_width(self, tmp_path):
        """Feature files are not pinned to 13 columns."""
        path = tmp_path / "toy.csv"
        write_table(path, ["a", "b", "label"], [[0, 0, 0], [1, 1, 1]])
        data = read_features_csv(path)
        assert data.rows.shape == (2, 2)

    def test_bad_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_table(path, ["a", "label"], [[0.5, 2]])
        with pytest.raises(ParameterError, match="0 or 1"):
            read_features_csv(path)
        path2 = tmp_path / "bad2.csv"
        write_table(path2, ["a", "b"], [[0.5, 1]])
        with pytest.raises(ParameterError, match="label"):
            read_features_csv(path2)

    def test_label_alone_has_no_feature_columns(self, tmp_path):
        path = tmp_path / "labels.csv"
        write_table(path, ["label"], [[0], [1]])
        with pytest.raises(ParameterError) as info:
            read_features_csv(path)
        assert str(info.value) == f"{path}: no feature columns"

    def test_non_finite_cell_names_file_row_and_column(self, tmp_path):
        path = tmp_path / "feat.csv"
        for cell in ("nan", "inf", "-inf"):
            path.write_text(f"a,b,label\n1,2,0\n3,{cell},1\n")
            with pytest.raises(ParameterError,
                               match=f"feat.csv: data row 2, column 'b': non-finite"):
                read_features_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        for text, line in [("a,b,label\n1,2,0\n1,0\n", 3),
                           ("# note\na,b,label\n1,2,0\n1,2,3,0\n", 4)]:
            path.write_text(text)
            with pytest.raises(ParameterError, match=f"ragged.csv: line {line}: ragged"):
                read_features_csv(path)


class TestWeightsCsv:

    def test_round_trip_with_topology(self, tmp_path):
        path = tmp_path / "w.csv"
        topo = MlpTopology((2, 3, 1))
        params = np.linspace(-1, 1, topo.param_count) / 3.0
        weights_table(params, topo).write(path, ["seed=5"])
        back, back_topo = read_weights_csv(path)
        np.testing.assert_array_equal(back, params)
        assert back_topo.layer_sizes == (2, 3, 1)

    def test_count_must_fit_topology(self, tmp_path):
        path = tmp_path / "w.csv"
        weights_table(np.zeros(13), MlpTopology((2, 3, 1))).write(path, ())
        text = path.read_text()
        (tmp_path / "short.csv").write_text(
            "\n".join(text.splitlines()[:-1]) + "\n"
        )
        with pytest.raises(ParameterError, match="12"):
            read_weights_csv(tmp_path / "short.csv")

    def test_reads_as_reference(self, tmp_path):
        """A `weights.csv` written by `train`, run block and all, reads
        as `read_numbers_reference` reads it."""
        write_table(tmp_path / "xor.csv", ["a", "b", "label"],
                    [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert main(["train", "--features-csv", str(tmp_path / "xor.csv"), "--seed", "0",
                     "--method", "gd", "--hidden", "4", "--nfe", "400",
                     "--population-size", "10", "--epochs", "60",
                     "--out-dir", str(tmp_path / "train")]) == 0

        def read(path):
            params, topology = read_weights_csv(path)
            return params.tobytes(), topology.layer_sizes

        params, sizes = _reads_as_reference(read, tmp_path / "train" / "weights.csv")
        assert sizes == (2, 4, 1) and len(params) == 17 * 8

    @pytest.mark.parametrize("header", [["weights"], ["weight", "bias"]])
    def test_header_other_than_weight_refused(self, tmp_path, header):
        path = tmp_path / "w.csv"
        write_table(path, header, [[0.0] * len(header)] * 13, comments=["topology=2,3,1"])
        with pytest.raises(ParameterError) as info:
            read_weights_csv(path)
        assert str(info.value) == f"{path}: expected a single `weight` column"

    def test_missing_topology_comment(self, tmp_path):
        path = tmp_path / "w.csv"
        write_table(path, ["weight"], [[0.0]])
        with pytest.raises(ParameterError, match="topology"):
            read_weights_csv(path)

    def test_non_numeric_weight_names_file(self, tmp_path):
        path = tmp_path / "w.csv"
        write_table(path, ["weight"], [[0.0]] * 12 + [["abc"]], comments=["topology=2,3,1"])
        with pytest.raises(ParameterError, match="w.csv: non-numeric value .*abc"):
            read_weights_csv(path)

    @pytest.mark.parametrize("weights, row, value", [
        (["nan", "1.0", "inf", "0.5"], 1, "nan"),
        (["1.0", "-inf", "nan", "0.5"], 2, "-inf"),
    ])
    def test_non_finite_weight_names_its_row(self, tmp_path, weights, row, value):
        path = tmp_path / "w.csv"
        write_table(path, ["weight"], [[w] for w in weights], comments=["topology=1,1,1"])
        with pytest.raises(ParameterError) as info:
            read_weights_csv(path)
        assert str(info.value) == (f"{path}: data row {row}: non-finite weights "
                                   f"are not allowed, got {value}")

    def test_non_integer_topology_names_file(self, tmp_path):
        path = tmp_path / "w.csv"
        write_table(path, ["weight"], [[0.0]] * 13, comments=["topology=2,3.5,1"])
        with pytest.raises(ParameterError, match="w.csv: bad value .*3.5"):
            read_weights_csv(path)


class TestRunConfig:

    def test_defaults(self):
        config = parse_config(seed=1)
        assert config.population_size == 50
        assert config.nfe_max == 25000
        assert config.scale_factor == 0.5
        assert config.crossover_rate == 0.9
        assert config.jumping_rate == 0.3
        assert config.clustering_period == 10
        assert (config.lower, config.upper) == (-10.0, 10.0)
        assert config.folds == 10
        assert config.method == "cgpr"
        assert config.hidden == (10,)
        assert config.epochs == 500 and config.patience == 50

    def test_defaults_follow_their_owners(self):
        config = RunConfig(seed=0)
        assert config.codel_config() == CodelConfig(seed=0)
        assert config.local_search_config() == LocalSearchConfig()
        # An owner's field that a run cannot set would be a fixed value
        # posing as a setting: it belongs in a module constant.
        run_fields = {f.name for f in fields(RunConfig)}
        for owner in (CodelConfig, LocalSearchConfig):
            assert {f.name for f in fields(owner)} <= run_fields

    def test_seed_required(self):
        with pytest.raises(ParameterError, match="seed"):
            parse_config()

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("np = 50\nseed = 3\n")
        config = parse_config(path, population_size=20)
        assert config.population_size == 20
        assert config.seed == 3

    def test_every_alias_lands_on_its_field(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "seed = 9\nnp = 30\nnfe = 1200\nf = 0.7\ncr = 0.8\n"
            "jr = 0.2\ncp = 5\nk = 4\nlr = 0.05\n"
        )
        config = parse_config(path)
        assert config.population_size == 30
        assert config.nfe_max == 1200
        assert config.scale_factor == 0.7
        assert config.crossover_rate == 0.8
        assert config.jumping_rate == 0.2
        assert config.clustering_period == 5
        assert config.folds == 4
        assert config.learning_rate == 0.05

    def test_alias_table_is_total(self):
        for alias, canonical in ALIASES.items():
            assert parse_config(seed=1, **{alias: None}) == parse_config(
                seed=1, **{canonical: None}
            )

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nnpop_size = 40\n")
        with pytest.raises(ParameterError, match="npop_size"):
            parse_config(path)
        with pytest.raises(ParameterError, match="unknown config key"):
            parse_config(seed=1, npop_size=40)

    @pytest.mark.parametrize("text, message", [
        ("seed = 1\nk = 5\nfolds = 7\n", r"run\.cfg:3: folds already set on line 2"),
        ("np = 10\nseed = 1\npopulation_size = 20\n",
         r"run\.cfg:3: population_size already set on line 1"),
        ("seed = 1\n\nseed = 2\n", r"run\.cfg:3: seed already set on line 1"),
        # Lines break at "\n" alone: \x0c and \x85, which `str.splitlines`
        # breaks at, neither start a line nor end a comment.
        ("seed = 1\x0c\r\nk = 5  # x\x85k = 6\nfolds = 7\n",
         r"run\.cfg:3: folds already set on line 2"),
    ])
    def test_knob_set_twice_rejected(self, tmp_path, text, message):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        with pytest.raises(ParameterError, match=message):
            parse_config(path)
        # A flag still overrides the file's single setting.
        path.write_text("seed = 1\nk = 5\n")
        assert parse_config(path, folds=7).folds == 7

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a run\n\nseed = 2  # inline\n\n# done\n")
        assert parse_config(path).seed == 2

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\njust words\n")
        with pytest.raises(ParameterError, match=":2"):
            parse_config(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nnp = many\n")
        with pytest.raises(ParameterError, match="population_size"):
            parse_config(path)
        # Text given to RunConfig directly is parsed the same way.
        assert RunConfig(seed=1, population_size="50").population_size == 50
        with pytest.raises(ParameterError, match="folds"):
            RunConfig(seed=1, folds="x")

    def test_hidden_parsing(self):
        assert parse_config(seed=1, hidden="10,5").hidden == (10, 5)
        assert parse_config(seed=1, hidden="8").hidden == (8,)
        assert RunConfig(seed=1, hidden="12").hidden == (12,)
        with pytest.raises(ParameterError):
            parse_config(seed=1, hidden="a,b")
        with pytest.raises(ParameterError):
            parse_config(seed=1, hidden=",")
        with pytest.raises(ParameterError, match="layer sizes"):
            parse_config(seed=1, hidden="0")
        with pytest.raises(ParameterError, match="layer sizes"):
            parse_config(seed=1, hidden="-2,3")

    def test_field_validation(self):
        with pytest.raises(ParameterError, match="method"):
            parse_config(seed=1, method="newton")
        with pytest.raises(ParameterError):
            parse_config(seed=1, folds=1)
        with pytest.raises(ParameterError):
            parse_config(seed=1, jobs=0)
        # Optimizer knob ranges are enforced on construction too.
        with pytest.raises(ParameterError):
            parse_config(seed=1, jumping_rate=0.7)

    def test_none_override_means_absent(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 4\nnp = 25\n")
        config = parse_config(path, population_size=None)
        assert config.population_size == 25

    def test_manifest_lines(self):
        config = parse_config(seed=6, hidden="7,3", population_size=12)
        lines = config.manifest_lines()
        assert "seed=6" in lines
        assert "population_size=12" in lines
        assert "hidden=7,3" in lines
        # Every knob except the worker count, which cannot affect
        # results and would spoil byte-level output comparisons.
        assert len(lines) == len(RunConfig.__dataclass_fields__) - 1
        assert not any(line.startswith("jobs=") for line in lines)

    def test_derived_configs_carry_values(self):
        config = parse_config(seed=8, nfe_max=500, method="gdm",
                              momentum=0.5, epochs=40)
        assert config.codel_config().nfe_max == 500
        assert config.codel_config().seed == 8
        ls = config.local_search_config()
        assert config.method == "gdm" and ls.momentum == 0.5 and ls.epochs == 40


class TestStreams:

    def test_named_rng_reproducible(self):
        a = named_rng(11, "init").uniform(size=6)
        b = named_rng(11, "init").uniform(size=6)
        np.testing.assert_array_equal(a, b)

    def test_streams_are_distinct(self):
        draws = {
            name: named_rng(11, name).uniform(size=4).tobytes()
            for name in ("init", "generation", "cluster", "qobl", "folds")
        }
        assert len(set(draws.values())) == len(draws)
        assert not np.array_equal(
            named_rng(11, "init").uniform(size=4),
            named_rng(12, "init").uniform(size=4),
        )

    def test_derive_seed_stable_and_ordered(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)
        assert derive_seed(5, 0) != derive_seed(6, 0)
        assert 0 <= derive_seed(123, 4, 5, 6) < 2 ** 64

    def test_negative_root_seed_accepted(self):
        assert derive_seed(-3, 0) == derive_seed(-3, 0)
        named_rng(-3, "init").uniform()
