import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent / "tools"))

from code_lines import code_lines  # noqa: E402

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment-only line
def f(x):
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    attribute = 1
    "a bare string statement"
'''


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path):
    # code: import, def, the two lines of ``text``, the two of the
    # return, class, attribute
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines(path) == 8
