"""tools/code_lines.py, the line count that change reports give for the code."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os   # a comment after code counts


class A:
    """Class docstring."""

    # a comment-only line
    x = """a string that is not a docstring
spans two lines"""

    def f(self):
        """Function docstring.

        Three lines."""
        return (1,

                2)
'''


def test_counts_code_and_leaves_out_blanks_comments_and_docstrings():
    # import, class, x (two lines), def, return (two lines; the blank line
    # inside the parentheses is not code)
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.docstring_lines(SOURCE) == {1, 2, 8, 15, 16, 17}


def test_prints_a_total_per_directory(tmp_path, capsys):
    (tmp_path / "a" / "sub").mkdir(parents=True)
    (tmp_path / "a" / "one.py").write_text(SOURCE)
    (tmp_path / "a" / "sub" / "two.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "a" / "notes.txt").write_text("x = 1\n")
    code_lines.main([str(tmp_path / "a"), "--files"])
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert out == [["7", str(tmp_path / "a" / "one.py")],
                   ["1", str(tmp_path / "a" / "sub" / "two.py")],
                   ["8", str(tmp_path / "a"), "(total)"]]


def test_no_directory_counts_the_repository_src_tests_and_tools(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)   # the default directories do not depend on where it runs
    code_lines.main([])
    out = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(name, tag) for _, name, tag in out] == [("src", "(total)"), ("tests", "(total)"),
                                                      ("tools", "(total)")]
    repo = Path(__file__).resolve().parents[1]
    code_lines.main([str(repo / "src")])
    assert capsys.readouterr().out.split()[0] == out[0][0]
    assert all(int(n) > 0 for n, _, _ in out)
