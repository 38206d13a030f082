"""Lines, statements and knobs of each `src/codel` module, and their totals.

Usage, from the repository root (or with the root of another checkout):

    python3 tools/src_size.py [ROOT]

A statement is a logical line: one NEWLINE token of Python's tokenizer.
Unlike the line count, it does not move when code is only rewrapped,
so the two together tell a deletion from a reformatting. A knob is a
setting a caller may leave out: a parameter with a default value (of a
function, method or lambda) or a dataclass field with a default.
"""

import ast
import sys
import tokenize
from pathlib import Path


def knob_count(tree: ast.AST) -> int:
    """Defaulted parameters plus defaulted dataclass fields in a module."""
    knobs = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            knobs += len(node.args.defaults)
            knobs += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            knobs += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return knobs


def module_size(path: Path) -> tuple[int, int, int]:
    """(lines, statements, knobs) of one Python source file."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    source = path.read_bytes()
    lines = source.count(b"\n")
    statements = sum(token.type == tokenize.NEWLINE for token in tokens)
    return lines, statements, knob_count(ast.parse(source))


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    totals = [0, 0, 0]
    print(f"{'module':<20} {'lines':>6} {'stmts':>6} {'knobs':>6}")
    for path in sorted((root / "src" / "codel").glob("*.py")):
        sizes = module_size(path)
        totals = [t + s for t, s in zip(totals, sizes)]
        print(f"{path.name:<20}" + "".join(f" {s:>6}" for s in sizes))
    print(f"{'total':<20}" + "".join(f" {t:>6}" for t in totals))


if __name__ == "__main__":
    main(sys.argv[1:])
