"""Print every definition in src/diffext that nothing in the library or the
demos uses, one line per definition and then the count.

A definition is a function, a class or a method, at any depth.  A function
or class counts as used when its name appears in src/diffext/*.py or
demos/*.py as a name or as an attribute (``scalars.poly_gcd``); a method
counts as used only through an attribute (``m.kernel``).  Imports are not
uses, a name in any module's ``__all__`` is exported and so used, and
dunders are exempt, since Python calls them.  The export covers the class
and module-level function it names, not the methods of an exported class.
The scan matches names, not objects, so it is conservative: a definition
whose name is used for something else, such as a method named like an
attribute read elsewhere, goes unreported.  So code that only tests call
can pass: an operator is a dunder, and a method such as ``DensePoly.lc``
was counted as used through ``DiffPoly.lc``.  It exits 0 whatever it
finds; tests/test_src_callers.py is the gate.  Standard library only; run
from anywhere:

    python tools/src_callers.py
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diffext"
DEMOS = ROOT / "demos"


def _definitions(tree):
    """(lineno, qualified name, is_method) of each def and class in a module."""
    out = []

    def visit(body, prefix, in_class):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((node.lineno, prefix + node.name, in_class))
                visit(node.body, prefix + node.name + ".", isinstance(node, ast.ClassDef))

    visit(tree.body, "", False)
    return out


def _exports(tree):
    """The names listed in a module-level ``__all__``: the string constants
    of a list or tuple display.  An ``__all__`` computed otherwise, such as
    the package's union of its layers' lists, names nothing here; the
    layers' own lists hold the names."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if not isinstance(node.value, (ast.List, ast.Tuple)):
                return set()
            return {
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return set()


def _references(tree):
    """(names, attributes) the module refers to."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
    return names, attrs


def uncalled(sources, users=()):
    """Definitions in ``sources`` that nothing refers to.

    ``sources`` maps a module's file name to its text; ``users`` holds the
    texts of further files, such as demos, whose references count but
    whose definitions are not listed.  Returns (file name, line, qualified
    name) triples in file and line order.
    """
    trees = {name: ast.parse(text) for name, text in sources.items()}
    exported = set().union(*map(_exports, trees.values()))
    names, attrs = set(), set()
    for tree in list(trees.values()) + [ast.parse(text) for text in users]:
        n, a = _references(tree)
        names |= n
        attrs |= a
    out = []
    for file_name in sorted(trees):
        for line, qualname, is_method in _definitions(trees[file_name]):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in attrs or (not is_method and (name in names or qualname in exported)):
                continue
            out.append((file_name, line, qualname))
    return out


def main():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    users = [p.read_text() for p in sorted(DEMOS.glob("*.py"))]
    found = uncalled(sources, users)
    for file_name, line, qualname in found:
        print("  %s:%d %s" % (file_name, line, qualname))
    print("src/diffext: %d uncalled definitions" % len(found))
    return 0


if __name__ == "__main__":
    sys.exit(main())
