"""Count the code lines of Python sources, by the standard `tokenize` module.

A physical line counts when it holds a token other than a comment, a line
break, an indent or dedent, or the end marker. The lines of a string
literal that opens a statement (a docstring) do not count.

    python tools/code_lines.py [PATH ...]

Each PATH is a `.py` file or a directory searched for them; the default is
`src/pseudoprob`. Prints each file's count, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def code_lines(path: Path) -> int:
    """Number of code lines of one source file."""
    lines = set()
    opens_statement = True
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _LAYOUT:
                opens_statement = opens_statement or tok.type == tokenize.NEWLINE
                continue
            if not (opens_statement and tok.type == tokenize.STRING):
                lines.update(range(tok.start[0], tok.end[0] + 1))
            opens_statement = False
    return len(lines)


def main(argv: list[str]) -> None:
    files = []
    for arg in argv or ["src/pseudoprob"]:
        p = Path(arg)
        files.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    total = 0
    for f in files:
        n = code_lines(f)
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
