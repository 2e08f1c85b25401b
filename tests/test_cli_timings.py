"""tools/cli_timings.py: every entry's config loads and its argv parses.

No command runs here: the entries are timings, printed by CI.
"""

import importlib.util
from pathlib import Path

from diffext.cli import _build_parser
from diffext.frontend import instance_from_text

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_timings.py"
_spec = importlib.util.spec_from_file_location("cli_timings", _TOOL)
cli_timings = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_timings)


def test_every_entry_loads_its_config_and_parses_its_argv():
    labels = [label for label, _, _ in cli_timings.TIMINGS]
    assert len(set(labels)) == len(labels) == 10
    for label, config, argv in cli_timings.TIMINGS:
        instance_from_text(config)
        args = _build_parser().parse_args(["instance.cfg" if a == "CFG" else a for a in argv])
        assert args.config == "instance.cfg", label
