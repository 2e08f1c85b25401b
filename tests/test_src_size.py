"""tools/src_size.py: what counts as a code-only line."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_size.py"
_spec = importlib.util.spec_from_file_location("src_size", _TOOL)
src_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_size)


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    text = '''"""Module docstring,
over two lines."""

# a comment

def f(x):
    """Function docstring."""
    # another comment
    return (x +
            1)  # trailing comment


class C:
    """Class docstring."""

    s = """a string that is
    not a docstring"""
'''
    # def, return over two lines, class, and the two lines of s.
    assert src_size.code_lines(text) == 6


def test_main_prints_one_line_per_module_then_the_total(capsys):
    assert src_size.main() == 0
    lines = capsys.readouterr().out.splitlines()
    modules = sorted(p.name for p in src_size.SRC.glob("*.py"))
    assert [line.split()[0] for line in lines[:-1]] == modules
    assert lines[-1].startswith("src/diffext: ") and lines[-1].endswith(" code-only lines")
