import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"

# 7 code lines: the import, the def, both lines of the non-docstring string,
# the return, the class line and its assignment
SNIPPET = '''"""Module docstring
over two lines."""

import os  # a trailing comment does not hide the code


# a comment-only line
def f(x):
    """Function docstring."""
    text = """a multi-line string
that is not a docstring"""
    return x + len(text) + len(os.sep)


class C:
    """Class docstring."""

    value = 1
'''


def test_code_line_counter_on_a_fixed_snippet(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("count_code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.code_lines(SNIPPET) == 7
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    tool.main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "7"], ["b.py", "1"], ["total", "8"]]
