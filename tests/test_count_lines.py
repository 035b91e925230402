"""tools/count_lines.py: what counts as a code line."""

import importlib.util
import subprocess
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


def _git(repo, *args):
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com",
                    *args], check=True, capture_output=True)


def test_rev_prints_the_code_lines_at_a_revision_and_now(tmp_path, capsys):
    package = tmp_path / "pkg"  # a package below the repository's root
    package.mkdir()
    (package / "a.py").write_text(SOURCE)
    (package / "gone.py").write_text("x = 1\n")
    (package / "notes.txt").write_text("not a module\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "one")
    (package / "a.py").write_text(SOURCE + "y = 2\n")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("z = 3\n\n# two code lines\nw = 4\n")
    assert count_lines.main(["--rev", "HEAD", str(package)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "rev", "tree", "diff"], ["a.py", "7", "8", "+1"],
                    ["gone.py", "1", "0", "-1"], ["new.py", "0", "2", "+2"],
                    ["total", "8", "10", "+2"]]
