"""`tools/src_size.py` counts what its docstring says it counts."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "src_size.py"
_SPEC = importlib.util.spec_from_file_location("src_size", _PATH)
src_size = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_size)

# Seven knobs: b, d and e of f (a default of None is still a default),
# the lambda's y, h of the async g, and Config's given and listed.
# Config's required has no default, Config.plain is no field, and
# Plain is no dataclass, so none of those count.
KNOBS_SOURCE = '''
from dataclasses import dataclass, field


def f(a, b=1, *args, c, d=2, e=None, **kwargs):
    return lambda x, y=0: x + y


async def g(h=1):
    return h


@dataclass(frozen=True)
class Config:
    required: int
    given: int = 3
    listed: list = field(default_factory=list)
    plain = 5


class Plain:
    size: int = 4
    name = "x"
'''


def test_knob_count():
    assert src_size.knob_count(ast.parse(KNOBS_SOURCE)) == 7


def test_rewrapping_moves_lines_but_not_statements(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("x = (1,\n     2)\ny = 3\n")
    assert src_size.module_size(path) == (3, 2, 0)


# `b` reads a.live, a.LIMIT (through an attribute) and its own helper.
# a.dead is named only in a docstring, a comment and `__all__`, and b
# imports it without reading it; a.Box, b.UNREAD and b.VALUE are never
# read.
UNUSED_SOURCES = {
    "a": '''"""The module around `dead`."""

__all__ = ["live", "dead", "Box"]
LIMIT = 3


def live():
    return 1


def dead():
    # dead() calls live() only in this comment.
    return 0


class Box:
    pass
''',
    "b": '''from . import a
from .a import dead, live

UNREAD = 2


def helper():
    return live() + a.LIMIT


VALUE = helper()
''',
}


def test_unused_names_skip_docstrings_comments_imports_and_all():
    trees = {module: ast.parse(source) for module, source in UNUSED_SOURCES.items()}
    assert src_size.unused_names(trees) == ["a.dead", "a.Box", "b.UNREAD", "b.VALUE"]


ROOT = _PATH.parents[1]

# The top-level `src/codel` names that no `src/codel` code reads, each an
# entry point with its caller outside `src/`. A wrapper that no command
# calls would join this list, and fail here.
ENTRY_POINTS = {
    "datasets.xor_dataset": "demos/xor_training.py",
    "datasets.two_gaussian_dataset": "README.md",
    "datasets.synthetic_heartbeat": "demos/signal_chain.py",
    "datasets.modulated_rr": "demos/feature_tour.py",
    "io.read_weights_csv": "perfbench/run.py",
    "optimizer.run_plain_de": "demos/sphere_race.py",
}


def test_src_names_no_module_reads_are_entry_points():
    paths = sorted((ROOT / "src" / "codel").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_bytes()) for path in paths}
    assert src_size.unused_names(trees) == list(ENTRY_POINTS)
    for name, caller in ENTRY_POINTS.items():
        assert f"{name.split('.')[1]}(" in (ROOT / caller).read_text(), (name, caller)
