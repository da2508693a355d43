"""``tools/code_lines.py``: the one count of code lines that judges whether ``src/`` shrinks."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

import os  # 1, with a comment

# a comment line
X = 1  # 2
"""The doc string of X."""


def f(a,  # 3
      b):  # 4
    """A docstring."""
    "another string statement"
    return a + """a string argument
over two lines"""  # 5 and 6


class C:  # 7
    y = (1 +  # 8
         2)  # 9
'''


def test_a_code_line_holds_a_token_that_is_not_a_comment_or_layout_outside_a_string_statement():
    assert code_lines.code_lines(FIXTURE) == 9
    assert code_lines.code_lines("") == 0


def test_the_script_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("import os\n")
    code_lines.main([str(tmp_path / "pkg")])
    assert capsys.readouterr().out.splitlines() == [
        f"     9 {tmp_path / 'pkg' / 'a.py'}", f"     1 {tmp_path / 'pkg' / 'b.py'}", "    10 total"]
