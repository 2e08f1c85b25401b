"""tools/cli_timings.py: every entry's config loads and its argv is plain.

No command runs here: the entries are timings, printed by CI.
"""

import importlib.util
from pathlib import Path

from diffext.cli import _build_parser, _read_plain
from diffext.frontend import instance_from_text

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "cli_timings.py"
_spec = importlib.util.spec_from_file_location("cli_timings", _TOOL)
cli_timings = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_timings)


def test_every_entry_loads_its_config_and_parses_its_argv():
    labels = [label for label, _, _ in cli_timings.TIMINGS]
    assert len(set(labels)) == len(labels) == 14
    for label, config, argv in cli_timings.TIMINGS:
        instance_from_text(config)
        argv = ["instance.cfg" if a == "CFG" else a for a in argv]
        # The plain reader reads it, as argparse does: the timings leave argparse out.
        args = _read_plain(argv)
        assert args is not None and args.config == "instance.cfg", label
        assert vars(args) == vars(_build_parser().parse_args(argv)), label
