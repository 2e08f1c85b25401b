"""tools/src_callers.py: every src/diffext definition has a user.

The scan matches names, not objects, so it is conservative: a method that
shares its name with an attribute used elsewhere (``kernel`` on another
class, say) counts as used and goes unreported.  What it does report has
no caller in src/diffext or demos/ and no ``__all__`` entry.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_callers.py"
_spec = importlib.util.spec_from_file_location("src_callers", _TOOL)
src_callers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_callers)


def test_uncalled_reports_only_definitions_without_a_user():
    lib = '''__all__ = ["exported"]


def exported():
    return _helper()


def _helper():
    return C().used()


def _demo_only():
    pass


def unused():
    pass


class C:
    def __init__(self):
        pass

    def used(self):
        return 1

    def named_only(self):
        pass

    def unused_method(self):
        return named_only()
'''
    demo = "from lib import _demo_only\n_demo_only()\n"
    # named_only is called as a bare name, which does not reach a method;
    # _demo_only's only user is the demo, whose own definitions are not listed.
    assert src_callers.uncalled({"lib.py": lib}, [demo]) == [
        ("lib.py", 16, "unused"),
        ("lib.py", 27, "C.named_only"),
        ("lib.py", 30, "C.unused_method"),
    ]
    assert [q for _, _, q in src_callers.uncalled({"lib.py": lib})] == [
        "_demo_only",
        "unused",
        "C.named_only",
        "C.unused_method",
    ]


def test_exports_read_only_a_list_or_tuple_display():
    # A computed __all__ exports nothing by itself; a display exports its strings.
    computed = '__all__ = sorted({"a", "b"}) + ["__version__"]\n\n\ndef a():\n    pass\n'
    assert src_callers.uncalled({"pkg.py": computed}) == [("pkg.py", 4, "a")]
    displayed = '__all__ = ("a", 1)\n\n\ndef a():\n    pass\n'
    assert src_callers.uncalled({"pkg.py": displayed}) == []


def test_src_has_no_uncalled_definition(capsys):
    assert src_callers.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["src/diffext: 0 uncalled definitions"], "\n".join(lines)
