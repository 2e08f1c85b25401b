"""Print the wall seconds of a few in-process `diffext` commands.

Each entry of TIMINGS is (label, config text, argv); "CFG" in argv stands
for the path of the config, written to a temporary file.  Every entry runs
in its own interpreter, which calls diffext.cli.main once and prints the
command's report and then "<label>: <seconds> s".  The script exits 1 when
any command exits nonzero, after running all of them.  No threshold: hosts
vary.  Standard library only; run from anywhere:

    python tools/cli_timings.py           # every entry
    python tools/cli_timings.py LABEL     # one entry, in this process
"""

import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

TIMINGS = [
    # p = 7: dim 49, a table of 49^3 coordinates.
    ("structure table, p = 7", "p = 7\ndelta_of_x = x\nd = x\n", ["build", "CFG"]),
    # p = 13: dim 169, 169^3 (about 4.8 M) coordinates, the largest table
    # dext.MAX_TABLE_ENTRIES allows.  Each distinct fraction is split over F
    # once (the field's coordinate memo).
    ("structure table, p = 13", "p = 13\ndelta_of_x = x\nd = x\n", ["build", "CFG"]),
    # The cost at large p, where the fraction gcds take much of the time.
    # Both run division.probe (an m x m elimination over K per sample),
    # which read unknown (over budget) while the probe worked on dim x dim
    # matrices over F.
    (
        "verify --suite all, p = 5",
        "p = 5\ndelta_of_x = x\nd = x\n",
        ["verify", "CFG", "--suite", "all"],
    ),
    (
        "verify --suite all, p = 7",
        "p = 7\ndelta_of_x = x\nd = x\n",
        ["verify", "CFG", "--suite", "all"],
    ),
    # Twisted products and right division at p = 5, where no benchmark
    # workload runs them: algebra products step (t^i v) mod f.
    (
        "verify --suite ring, p = 5",
        "p = 5\ndelta_of_x = x\nd = x\n",
        ["verify", "CFG", "--suite", "ring"],
    ),
    # d = x^20 + x^10: its only factor t - x^10 lies above the bound, and the
    # pole of order 20 at infinity fixes the pole order 10 of every
    # solution, so the search is decided at infinity and draws 0 of the 511
    # monic denominators (verdict unknown, exit 0).
    (
        "factor search, p = 2, bound 8",
        "p = 2\ndelta_of_x = x\nd = x^20 + x^10\n",
        ["divcheck", "CFG", "--bound", "8"],
    ),
    # g = t^4 + t = z1^2 + z1, z1 = t^2 + t, and d = x^2, which has no linear
    # right factor up to the bound; there is no degree cap at e = 2, so all
    # 511 monic denominators are searched through V_g = h(V_z1) (verdict
    # unknown, exit 0).
    (
        "factor search, exponent two, p = 2, bound 8",
        "p = 2\ndelta_of_x = x\nd = x^2\ng = t^4 + t\n",
        ["divcheck", "CFG", "--bound", "8"],
    ),
    # d = 1/(x^6 + x^3 + 2) = 1/(x^2 + x + 2)^3 has no pole at infinity, so
    # no denominator is capped; it has no linear right factor up to the
    # bound, so all 1,093 monic denominators are searched (verdict unknown,
    # exit 0).
    (
        "factor search, p = 3, bound 6",
        "p = 3\ndelta_of_x = x\nd = 1/(x^6 + x^3 + 2)\n",
        ["divcheck", "CFG", "--bound", "6"],
    ),
    # d = 1/(x^5 + 1) = 1/(x + 1)^5, no pole at infinity and no linear right
    # factor up to the bound, so all 3,906 monic denominators are searched
    # (verdict unknown, exit 0).  The entries above pack one byte per column
    # coefficient; this one packs two.
    (
        "factor search, p = 5, bound 5",
        "p = 5\ndelta_of_x = x\nd = 1/(x^5 + 1)\n",
        ["divcheck", "CFG", "--bound", "5"],
    ),
    # The V-tower checked level by level in K[t^(p^k); delta^(p^k)]: 30
    # towers, 15 of them to p^2 = 169.
    (
        "verify --suite vops, p = 13",
        "p = 13\ndelta_of_x = x\nd = x\n",
        ["verify", "CFG", "--suite", "vops"],
    ),
    # Order and composition checked on the K-basis t^j, j < 11, not on the
    # 121 elements of the F-basis.
    (
        "verify --suite autos, p = 11",
        "p = 11\ndelta_of_x = x\nd = x\n",
        ["verify", "CFG", "--suite", "autos"],
    ),
    # The order of a shift at p = 67, read off the triples by the
    # composition law: no power of the map is applied to an element.
    (
        "autos --order 1, p = 67",
        "p = 67\ndelta_of_x = x\nd = x\n",
        ["autos", "CFG", "--order", "1"],
    ),
    # The right nucleus at p = 61 (dim 3,721) is K at e = 1, cut from its 61
    # unit vectors: no dim x dim identity is built.
    (
        "nucleus --which right, p = 61",
        "p = 61\ndelta_of_x = x\nd = x\n",
        ["nucleus", "CFG", "--which", "right"],
    ),
    # At e = 2 over K the right nucleus is the kernel of the commutator with
    # d on all dim = 343 unit vectors: the cost grows as dim^3.
    (
        "nucleus --which right, exponent two, p = 7",
        "p = 7\ndelta_of_x = x\nd = x\ng = t^49 + 6*t^7\n",
        ["nucleus", "CFG", "--which", "right"],
    ),
]


def run(label: str) -> int:
    """Run the entry named label in this process; its command's exit code."""
    sys.path.insert(0, str(SRC))
    from diffext.cli import main

    _, config, argv = next(entry for entry in TIMINGS if entry[0] == label)
    with tempfile.TemporaryDirectory(prefix="cli-timings-") as tmp:
        path = Path(tmp) / "instance.cfg"
        path.write_text(config, encoding="utf-8")
        t0 = time.perf_counter()
        code = main([str(path) if a == "CFG" else a for a in argv])
        print("%s: %.3f s" % (label, time.perf_counter() - t0), flush=True)
    return code


def main(argv) -> int:
    if argv:
        return run(argv[0])
    codes = [subprocess.run([sys.executable, __file__, label]).returncode for label, _, _ in TIMINGS]
    return 1 if any(codes) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
