"""Count the lines of Python source that hold code.

A line holds code when some token other than a comment or layout
(newlines, indentation, the encoding marker) covers it. Blank lines,
comment-only lines and docstrings are skipped; a docstring is a string
literal that makes up a whole statement, as the first statement of a
module, class or function does. A token that spans lines, such as a
triple-quoted string inside an expression, counts every line it covers.

Usage: ``python tools/code_lines.py [PATH ...]``. Each path is a file or
a directory, searched for ``*.py`` files; the default is ``src/callpath``.
Prints one count per file, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

#: Tokens after which a new statement begins.
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
#: Layout tokens, which hold no code; comments and NL tokens are dropped first.
_LAYOUT = _STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """How many lines of the Python file at ``path`` hold code."""
    lines: set[int] = set()
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        is_docstring = (
            tok.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        if not is_docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(a) for a in argv] or [Path("src/callpath")]
    files = sorted(f for root in roots for f in (root.rglob("*.py") if root.is_dir() else [root]))
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
