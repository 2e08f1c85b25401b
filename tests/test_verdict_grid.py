"""tools/verdict_grid.py: the grid is whole and every verdict is a known one.

The counts are a measure and are not pinned here.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "verdict_grid.py"
_spec = importlib.util.spec_from_file_location("verdict_grid", _TOOL)
verdict_grid = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verdict_grid)


def test_grid_covers_300_instances_with_the_three_verdicts(capsys):
    rows = verdict_grid.grid()
    assert len(rows) == 300
    assert {e for e, _, _ in rows} == {1, 2}
    assert {v for _, _, v in rows} <= set(verdict_grid.VERDICTS)
    assert verdict_grid.main() == 0
    lines = capsys.readouterr().out.splitlines()
    # A header, one row per (e, d in F) and the total.
    assert len(lines) == 6
    assert lines[-1].startswith("300 instances: ")
    assert all(v in lines[-1] for v in verdict_grid.VERDICTS)
