"""The code-line counter in tools/: what it counts as a code line."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_docstrings_comments_and_blank_lines_are_not_code():
    source = '''"""A module docstring,
over two lines."""

# a comment
X = 1  # a comment after code


class C:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        return """a string that is
no docstring"""
'''
    # X = 1, class C:, def f(self):, and the two lines of the returned string
    assert code_lines.code_lines(source) == 5


def test_it_counts_the_package(capsys):
    assert code_lines.main(["code_lines.py"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split() == ["module", "code", "wc", "-l"]
    rows = {line.split()[0]: (int(line.split()[1]), int(line.split()[2])) for line in out[1:]}
    assert "kernel.py" in rows
    total = rows.pop("total")
    assert total == tuple(map(sum, zip(*rows.values())))
    assert all(0 < code <= wc for code, wc in rows.values())
