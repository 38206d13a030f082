"""Lines and statements of each `src/codel` module, and their totals.

Usage, from the repository root (or with the root of another checkout):

    python3 tools/src_size.py [ROOT]

A statement is a logical line: one NEWLINE token of Python's tokenizer.
Unlike the line count, it does not move when code is only rewrapped,
so the two together tell a deletion from a reformatting.
"""

import sys
import tokenize
from pathlib import Path


def module_size(path: Path) -> tuple[int, int]:
    """(lines, statements) of one Python source file."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    lines = path.read_bytes().count(b"\n")
    statements = sum(token.type == tokenize.NEWLINE for token in tokens)
    return lines, statements


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    total_lines = total_statements = 0
    print(f"{'module':<20} {'lines':>6} {'stmts':>6}")
    for path in sorted((root / "src" / "codel").glob("*.py")):
        lines, statements = module_size(path)
        total_lines += lines
        total_statements += statements
        print(f"{path.name:<20} {lines:>6} {statements:>6}")
    print(f"{'total':<20} {total_lines:>6} {total_statements:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
