"""tools/mutants.py: every mutant applies to the tree as it is.

No mutant runs here: tools/mutants.py runs tier-1 on a mutated copy of the
tree.  This only checks that each mutant's old text occurs exactly once in
its file, so a refactor that moves the code must update the list, and that
its recorded first killer names a test function that exists.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", _TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_old_text_occurs_once_in_its_file():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, rel, old, new, reason, _ in mutants.MUTANTS:
        text = (mutants.ROOT / rel).read_text(encoding="utf-8")
        assert text.count(old) == 1, name
        assert old != new and reason, name


def test_every_first_killer_names_a_test_function():
    for name, _, _, _, _, killer in mutants.MUTANTS:
        path, _, function = killer.partition("::")
        assert path.startswith("tests/test_"), name
        test = "def %s(" % function.split("[", 1)[0]
        assert test in (mutants.ROOT / path).read_text(encoding="utf-8"), name
