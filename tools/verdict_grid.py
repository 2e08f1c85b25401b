"""Print how often each division verdict comes out on a fixed grid of
instances, per exponent e and per whether d lies in F = F_p(x^p).

The grid is 300 instances:

* p in {2, 3, 5}, with the closed-form g of exponent e = 1 and e = 2
  (``p_polynomial_at_exponent``);
* delta(x) in {x, 1, x^2 + 1, 1/x, x/(x+1)};
* d in {1, x, x + 1, 1/x, x^2 + x} and their p-th powers;
* search bound 6, 3 and 2 for p = 2, 3 and 5.

Each instance reads ``ExtAlgebra.division_verdict`` at its bound.  The
counts are a measure of how much the library settles, not a bound: an
exact verdict for more instances lowers the ``unknown`` column.  It exits
0 whatever it finds.  Run from anywhere:

    python tools/verdict_grid.py
"""

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diffext import (  # noqa: E402
    ExtAlgebra,
    derived_field,
    p_polynomial_at_exponent,
    parse_field_element,
)

BOUNDS = {2: 6, 3: 3, 5: 2}
WEIGHTS = ("x", "1", "x^2 + 1", "1/x", "x/(x+1)")
DS = ("1", "x", "x + 1", "1/x", "x^2 + x")
VERDICTS = ("not division (witness)", "division (proved)", "unknown (bound exhausted)")


def grid():
    """(e, d in F, verdict) for each instance of the grid, in a fixed order."""
    out = []
    for p, bound in BOUNDS.items():
        for w in WEIGHTS:
            K = derived_field(p, w)
            for e in (1, 2):
                g = p_polynomial_at_exponent(K, e)
                for text in DS:
                    base = parse_field_element(text, K)
                    for d in (base, base ** p):
                        verdict, _ = ExtAlgebra(K, g, d).division_verdict(bound)
                        out.append((e, K.is_constant(d), verdict))
    return out


def main() -> int:
    rows = grid()
    counts = Counter(rows)
    print("%-3s %-7s %s" % ("e", "d in F", "  ".join(VERDICTS)))
    for e in (1, 2):
        for in_f in (False, True):
            cells = ["%*d" % (len(v), counts[e, in_f, v]) for v in VERDICTS]
            print("%-3d %-7s %s" % (e, "yes" if in_f else "no", "  ".join(cells)))
    total = Counter(v for _, _, v in rows)
    print("%d instances: %s" % (len(rows), ", ".join("%d %s" % (total[v], v) for v in VERDICTS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
