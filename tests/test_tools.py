import hashlib
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
SAME_BYTES = TOOL.with_name("same_bytes.py")

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


def test_same_bytes_compares_files_by_digest(tmp_path):
    spec = importlib.util.spec_from_file_location("same_bytes", SAME_BYTES)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    a, b = tmp_path / "a", tmp_path / "b"
    for directory in (a, b):
        directory.mkdir()
        (directory / "x.txt").write_text("same\n")
    (a / "y.txt").write_text("one\n")
    (b / "y.txt").write_text("two\n")
    rows = tool.compare(a, b, files=("x.txt", "y.txt", "z.txt"))
    assert [(name, same) for name, _, _, same in rows] == [
        ("x.txt", True),
        ("y.txt", False),
        ("z.txt", False),
    ]
    assert rows[0][1] == rows[0][2] == hashlib.sha256(b"same\n").hexdigest()
    assert rows[2][1:3] == (None, None)
