"""CSV reading and writing for every file the pipeline touches.

One dialect everywhere: comma separators, '.' decimal point, one header
row, LF line endings. Lines starting with '#' before the header carry
the resolved run configuration, so any output can be traced back to the
exact settings and seed that produced it. Floats are written with repr,
which round-trips exactly and keeps reruns byte-identical. A `Table`
is one file's content; `features_table` and `weights_table` own those
two formats.

`_scan` owns the line rules: blank lines, comments, the header and
ragged rows. The numeric readers (signal, RR, features, weights) share
one fast path, `_fast_numbers`, which keeps no Python object per row:
tens of thousands of them made the read slow (each list of cells is
garbage-collected) and its memory grow with the record. It keeps the
file's leading '#' lines as its comments, stripped as `_scan` strips
them, takes the next line as the header, and hands the rest of the open
file to ``np.loadtxt``. Its C reader takes one line at a time, strips
the whitespace that `str.strip` strips, and parses each cell with the
same ``PyOS_string_to_double`` as `float`, into one growing array: a
3-minute 250 Hz record peaks near 0.45 MB of Python memory, with or
without a run block, where a list of its lines took 5.3 to 5.8 MB. A
file it cannot take whole goes through `_scan`, the one fallback, which
gives every error message and converts each stripped cell with `float`:
a blank line before the header, a comment or header line that
`str.splitlines` would split (it breaks lines at more characters than
file iteration does), a body line numpy's reader rejects (a comment, a
non-number, the underscores and non-ASCII digits that `float` also
takes, a change of width), or rows narrower or wider than the header.
Both paths skip blank lines in the body, and the readers name the data
row of the first non-finite value.
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


def _scan(path, text: str):
    """Split a file's text into its header cells, data lines and comments.

    Blank lines are skipped, lines starting with '#' are comments, the
    first other line is the header, and a data line with a different
    number of cells from the header raises ParameterError.
    """
    comments = []
    header = None
    lines = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
            commas = len(header) - 1
        elif line.count(",") != commas:
            raise ParameterError(
                f"{path}: line {number}: ragged row of {line.count(',') + 1} "
                f"cells under a {len(header)}-column header"
            )
        else:
            lines.append(line)
    if header is None:
        raise ParameterError(f"{path} has no header row")
    return header, lines, comments


def read_table(path):
    """Read a CSV written by write_table.

    Returns:
        (header, rows, comments) with rows as lists of strings, each as
        long as the header; a ragged row raises ParameterError.
    """
    header, lines, comments = _scan(path, _read_text(path))
    return header, [line.split(",") for line in lines], comments


def _fast_numbers(path):
    """The header cells, (rows, columns) values and comments of a plain
    numeric file, or None when it needs `_scan`.

    The leading '#' lines are the comments and the next line is the
    header, split at every comma; numpy's reader parses the rest, any
    number of columns. None for a blank header line, a comment or
    header line that `str.splitlines` would split, a body line that
    numpy's reader rejects, or rows not as wide as the header.
    """
    import warnings

    lines = []
    try:
        with open(path) as f, warnings.catch_warnings():
            # A body of blank lines reads as no rows, which the caller reports.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            lines.append(f.readline())
            while lines[-1].startswith("#"):
                lines.append(f.readline())
            if not lines[-1].strip() or any(len(line.splitlines()) != 1 for line in lines):
                return None
            values = np.loadtxt(f, dtype=float, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError):
        return None
    *comments, header = lines
    header = header.rstrip("\n").split(",")
    if values.shape[1] != len(header):
        return None
    return header, values, [line[1:].strip() for line in comments]


def _read_numbers(path, check, bad: str):
    """Read a numeric table whose header and comments pass `check`.

    `check(header, comments)` raises ParameterError for a file the
    caller refuses; it runs before any cell is converted, so a bad
    header is reported before a bad cell, on both paths. A cell that
    is not a number raises ParameterError("{path}: {bad} (...)").

    Returns:
        (check's result, float array of shape (rows, len(header))).
    """
    fast = _fast_numbers(path)
    if fast is not None:
        header, values, comments = fast
        return check(header, comments), values
    header, lines, comments = _scan(path, _read_text(path))
    checked = check(header, comments)
    try:
        values = [[float(cell.strip()) for cell in line.split(",")] for line in lines]
    except ValueError as exc:
        raise ParameterError(f"{path}: {bad} ({exc})") from None
    return checked, np.array(values).reshape(len(lines), len(header))


def _read_single_column(path, expected_header: str, noun: str) -> np.ndarray:
    def check(header, comments):
        if header != [expected_header]:
            raise ParameterError(
                f"{path}: expected header {expected_header!r}, got {','.join(header)!r}"
            )

    _, values = _read_numbers(path, check, "non-numeric value")
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

    header, matrix = _read_numbers(path, check, "non-numeric value")
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

    topology, params = _read_numbers(path, topology_of, "bad value")
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
