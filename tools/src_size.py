"""Print the size of the library source: total lines and code-only lines,
one line per module and then the total.

Code-only lines are the lines of src/diffext/*.py that hold at least one
token other than a comment, with blank lines and docstrings (the string
that opens a module, class or function body) left out.  Standard library
only; run from anywhere:

    python tools/src_size.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "diffext"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """Line numbers covered by the docstrings of a parsed module."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def code_lines(text):
    """Number of lines with a code token outside every docstring."""
    skip = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main():
    total = code = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines, module_code = len(text.splitlines()), code_lines(text)
        print("  %-12s %5d lines, %5d code-only lines" % (path.name, lines, module_code))
        total += lines
        code += module_code
    print("src/diffext: %d lines, %d code-only lines" % (total, code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
