"""CSV reading and writing for every file the pipeline touches.

One dialect everywhere: comma separators, '.' decimal point, one header
row, LF line endings. Lines starting with '#' before the header carry
the resolved run configuration, so any output can be traced back to the
exact settings and seed that produced it. Floats are written with repr,
which round-trips exactly and keeps reruns byte-identical. A `Table`
is one file's content; `features_table` and `weights_table` own those
two formats.

`_scan` is the one reader, behind `read_table` and the four numeric
readers (signal, RR, features, weights), and it owns the line rules.
Lines break at '\n' alone: reading the text turns '\r\n' and '\r' into
'\n'. Blank lines are skipped, lines starting with '#' are comments
wherever they appear, the first other line is the header, split at
commas, and a row with another number of cells is refused with its line
number. The file is read in blocks of about 16 KB, so a long record is
never a list of its lines: a 3-minute 250 Hz signal peaks near 0.73 MB
of Python memory, its floats, one copy of them and a block of lines,
where a list of all its lines took 5.3 to 5.8 MB. A numeric reader
converts each block's cells in one pass of `float`. That pass adds no
rule of its own, since `float(s)` succeeds only where
`float(s.strip())` gives the same value; a block it cannot take whole
(a blank, comment or ragged line, a cell that is not a number, or
padding that `str.strip` strips and `float` does not, such as '\x1f')
goes line by line through `float(cell.strip())`, which words the error
for a non-numeric cell.

The errors come in one order: an undecodable byte, with its offset
from the start of the file; a missing header or a ragged row; the
caller's check of the header and of every comment line; the first cell
that is not a number; the data row of the first non-finite value.
"""

from pathlib import Path

import numpy as np

from .errors import ParameterError
from .hrv import FEATURE_NAMES, FeatureRecord
from .mlp import Dataset, MlpTopology

__all__ = [
    "format_value",
    "write_table",
    "Table",
    "read_table",
    "read_signal_csv",
    "read_rr_csv",
    "features_table",
    "write_features_csv",
    "read_features_csv",
    "weights_table",
    "write_weights_csv",
    "read_weights_csv",
]


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_table(path, header, rows, comments=()) -> None:
    """Write one CSV table with optional leading '#' comment lines."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


class Table:
    """One CSV file's header and rows, with the table's own comment
    lines: `first` goes before the caller's comments, `last` after."""

    def __init__(self, header, rows, first=(), last=()):
        self.header, self.rows, self.first, self.last = header, rows, first, last

    def write(self, path, comments) -> None:
        write_table(path, self.header, self.rows, [*self.first, *comments, *self.last])


# Characters read at a time: a long record is never a list of its lines.
_BLOCK = 1 << 14


def _read_text(path) -> str:
    path = Path(path)
    if not path.is_file():
        raise ParameterError(f"no such file: {path}")
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise ParameterError(
            f"{path}: not {exc.encoding} text: {exc.reason} at byte {exc.start}"
        ) from None


def _floats(lines, commas: int):
    """The cells of data lines of `commas` + 1 cells each, in one pass of
    `float`, or None if that pass cannot take every line whole."""
    if commas and any(line.count(",") != commas for line in lines):
        return None
    cells = ",".join(lines).split(",") if commas else lines
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return None


def _scan(path, check):
    """Read a file block by block under the line rules.

    Blank lines are skipped, lines starting with '#' are comments, the
    first other line is the header, and a data line with a different
    number of cells from the header raises ParameterError. A numeric
    block that `_floats` takes whole holds no blank, '#' or ragged line,
    since none of those is a number; any other block goes line by line
    through those rules before `_floats` converts its data lines.

    `check` is None for `read_table`: the result is (header, rows,
    comments), with rows as lists of strings. Otherwise `check(header,
    comments)`, given every comment line, raises ParameterError for a
    file the caller refuses; only then is a cell that is not a number
    reported, "non-numeric value", and the result is (check's result,
    float array of shape (rows, len(header))).
    """
    # Each block's cells as a float array, or else its data lines.
    comments, data, header, number, carry = [], [], None, 0, ""
    try:
        with open(path) as f:
            while carry is not None:
                block = f.read(_BLOCK)
                lines = (carry + block).split("\n")
                carry = lines.pop() if block else None
                first, number = number + 1, number + len(lines)
                values = None
                if check is not None and header is not None:
                    values = _floats(lines, len(header) - 1)
                if values is None:
                    kept = []
                    for at, line in enumerate(lines, first):
                        if not line.strip():
                            continue
                        if line.startswith("#"):
                            comments.append(line[1:].strip())
                        elif header is None:
                            header = line.split(",")
                        elif line.count(",") != len(header) - 1:
                            f.read()  # an undecodable byte further on is reported first
                            raise ParameterError(
                                f"{path}: line {at}: ragged row of {line.count(',') + 1} "
                                f"cells under a {len(header)}-column header"
                            )
                        else:
                            kept.append(line)
                    if check is not None and kept:
                        values = _floats(kept, len(header) - 1)
                # A block with a cell `float` refuses keeps its lines until `check` has run.
                data.append(kept if values is None else values)
    except (OSError, UnicodeDecodeError):
        _read_text(path)  # its message counts the byte offset from the file's start
        raise
    if header is None:
        raise ParameterError(f"{path} has no header row")
    if check is None:
        return header, [line.split(",") for kept in data for line in kept], comments
    checked = check(header, comments)
    try:
        parts = [part if isinstance(part, np.ndarray) else
                 [float(cell.strip()) for line in part for cell in line.split(",")]
                 for part in data]
    except ValueError as exc:
        raise ParameterError(f"{path}: non-numeric value ({exc})") from None
    return checked, np.concatenate([np.empty(0), *parts]).reshape(-1, len(header))


def read_table(path):
    """Read a CSV written by write_table.

    Returns:
        (header, rows, comments) with rows as lists of strings, each as
        long as the header; a ragged row raises ParameterError.
    """
    return _scan(path, None)


def _read_single_column(path, expected_header: str, noun: str) -> np.ndarray:
    def check(header, comments):
        if header != [expected_header]:
            raise ParameterError(
                f"{path}: expected header {expected_header!r}, got {','.join(header)!r}"
            )

    _, values = _scan(path, check)
    values = values[:, 0]
    if values.size == 0:
        raise ParameterError(f"{path} contains no data rows")
    _refuse_non_finite(path, values, noun)
    return values


def _refuse_non_finite(path, values: np.ndarray, noun: str) -> None:
    """Raise ParameterError naming the data row of the first non-finite value."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ParameterError(f"{path}: data row {bad[0] + 1}: non-finite {noun} "
                             f"are not allowed, got {values[bad[0]]}")


def read_signal_csv(path) -> np.ndarray:
    """One raw sample per line under a `sample` header."""
    return _read_single_column(path, "sample", "samples")


def read_rr_csv(path) -> np.ndarray:
    """One interval in milliseconds per line under a `rr_ms` header."""
    return _read_single_column(path, "rr_ms", "intervals")


def features_table(records, labels) -> Table:
    """Feature matrix: the 13 named features plus a label column."""
    if len(records) != len(labels):
        raise ParameterError("need one label per feature record")
    rows = [list(rec.as_vector()) + [int(label)] for rec, label in zip(records, labels)]
    return Table(list(FEATURE_NAMES) + ["label"], rows)


def write_features_csv(path, records, labels, comments=()) -> None:
    features_table(records, labels).write(path, comments)


def read_features_csv(path) -> Dataset:
    """Load any feature matrix whose last column is the binary label.

    The feature columns need not be the 13 canonical ones; training on
    e.g. a 2-feature toy file goes through the same reader.
    """
    def check(header, comments):
        if header[-1] != "label":
            raise ParameterError(f"{path}: last column must be `label`, got {header[-1]!r}")
        if len(header) < 2:
            raise ParameterError(f"{path}: no feature columns")
        return header

    header, matrix = _scan(path, check)
    if not len(matrix):
        raise ParameterError(f"{path} contains no data rows")
    for i, j in np.argwhere(~np.isfinite(matrix)):
        raise ParameterError(f"{path}: data row {i + 1}, column {header[j]!r}: "
                             f"non-finite value {matrix[i, j]}")
    labels = matrix[:, -1]
    if not np.all(np.isin(labels, (0.0, 1.0))):
        raise ParameterError(f"{path}: labels must be 0 or 1")
    return Dataset(matrix[:, :-1], labels.astype(int))


def weights_table(params, topology: MlpTopology) -> Table:
    """Flat weight vector, one value per line, topology recorded up top."""
    topology_line = "topology=" + ",".join(str(s) for s in topology.layer_sizes)
    return Table(["weight"], [[float(v)] for v in params], first=(topology_line,))


def write_weights_csv(path, params, topology: MlpTopology, comments=()) -> None:
    weights_table(params, topology).write(path, comments)


def read_weights_csv(path):
    """Read a weight file back into (params, topology)."""
    def topology_of(header, comments):
        if header != ["weight"]:
            raise ParameterError(f"{path}: expected a single `weight` column")
        topology = None
        try:
            for comment in comments:
                if comment.startswith("topology="):
                    sizes = comment.split("=", 1)[1].split(",")
                    topology = MlpTopology(tuple(int(s) for s in sizes))
        except ValueError as exc:
            raise ParameterError(f"{path}: bad value ({exc})") from None
        return topology

    topology, params = _scan(path, topology_of)
    params = params[:, 0]
    _refuse_non_finite(path, params, "weights")
    if topology is None:
        raise ParameterError(f"{path}: missing topology comment line")
    if params.shape != (topology.param_count,):
        raise ParameterError(
            f"{path}: {params.size} weights do not fit topology "
            f"{topology.layer_sizes} ({topology.param_count} expected)"
        )
    return params, topology
