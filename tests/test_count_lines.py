"""tools/count_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_lines", _TOOL)
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


# a comment line
TEXT = """a string that is no docstring:

its three lines are code"""


class C:
    """One line."""

    def f(self):
        """Two
        lines."""
        return os.sep
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, the three lines of TEXT, class, def and return
    assert count_lines.count(SOURCE) == (19, 7)


def test_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert count_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["a.py", "19", "7"], ["b.py", "3", "1"], ["total", "22", "8"]]
