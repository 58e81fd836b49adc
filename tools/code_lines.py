"""Print the code lines of each module of src/terragp and their total.

A code line is a source line that some token of the program touches,
after dropping comments, the layout tokens (NL, NEWLINE, INDENT, DEDENT,
ENDMARKER) and every string statement standing alone (docstrings).  A
token spanning several lines, such as a multi-line string argument,
counts each line it spans.  Blank lines, comment lines and docstrings
therefore count nothing.

Run from the repository root:

    python tools/code_lines.py
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "terragp"

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _statements(path: Path):
    """The tokens of each logical line of `path`, layout tokens dropped."""
    statement = []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.ENCODING:
                continue
            if tok.type == tokenize.NEWLINE or tok.type == tokenize.ENDMARKER:
                if statement:
                    yield statement
                statement = []
            elif tok.type not in _LAYOUT:
                statement.append(tok)


def code_lines(path: Path) -> int:
    lines: set[int] = set()
    for statement in _statements(path):
        if all(tok.type == tokenize.STRING for tok in statement):
            continue  # a docstring or another string standing alone
        for tok in statement:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    counts = {path.stem: code_lines(path) for path in sorted(SRC.glob("*.py"))}
    width = max(map(len, counts))
    for name, count in counts.items():
        print(f"{name:<{width}} {count:5d}")
    print(f"{'total':<{width}} {sum(counts.values()):5d} in {len(counts)} modules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
