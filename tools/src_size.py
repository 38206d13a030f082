"""Lines, statements and knobs of each `src/codel` module, their totals, and
the top-level names that no code in `src/codel` uses.

Usage, from the repository root (or with the root of another checkout):

    python3 tools/src_size.py [ROOT]

A statement is a logical line: one NEWLINE token of Python's tokenizer.
Unlike the line count, it does not move when code is only rewrapped,
so the two together tell a deletion from a reformatting. A knob is a
setting a caller may leave out: a parameter with a default value (of a
function, method or lambda) or a dataclass field with a default. An
unused name is a top-level function, class or variable that no module
reads (`unused_names`).
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


def unused_names(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` of each top-level function, class or assigned name
    of `trees` (module name -> parsed source) that no code reads.

    A read is a loaded name, or an attribute of that name, anywhere in any
    of the modules, its own included. Imports, docstrings, comments and the
    strings of ``__all__`` are no reads. Dunder names are left out.
    """
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{module}.{name}" for name in names
                       if name not in read and not (name.startswith("__") and name.endswith("__"))]
    return unused


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
    paths = sorted((root / "src" / "codel").glob("*.py"))
    totals = [0, 0, 0]
    print(f"{'module':<20} {'lines':>6} {'stmts':>6} {'knobs':>6}")
    for path in paths:
        sizes = module_size(path)
        totals = [t + s for t, s in zip(totals, sizes)]
        print(f"{path.name:<20}" + "".join(f" {s:>6}" for s in sizes))
    print(f"{'total':<20}" + "".join(f" {t:>6}" for t in totals))
    unused = unused_names({path.stem: ast.parse(path.read_bytes()) for path in paths})
    print(f"unused top-level names: {len(unused)}")
    for name in unused:
        print(f"  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
