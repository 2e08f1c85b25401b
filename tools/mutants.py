"""Run tier-1 against one-line faults in src/diffext and say which are caught.

Each mutant is (name, file, old text, new text, reason).  The old text
occurs exactly once in its file (tests/test_mutants.py checks that, so a
refactor that moves the code must update the list here).  For each mutant
the tree is copied to a temporary directory, the old text is replaced
there, and tier-1 runs in the copy with -x; the tree itself is never
written.  A mutant is killed when some test fails, and the first failing
test is printed; a survivor is a fault that no test catches, a missing
oracle to mend with a test.  tests/test_mutants.py is left out of the
copy's run: in a mutated copy its old text is gone by construction.
Standard library and pytest only; it exits 0 whatever it finds.  Run from
anywhere:

    python tools/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    (
        "quotient-rule-second-cancel",
        "src/diffext/towers.py",
        "        if len(g) > 1:\n            h, num1, _ = _cancel(field, num, g)",
        "        if False:\n            h, num1, _ = _cancel(field, num, g)",
        "the quotient rule's second cancellation skipped",
    ),
    (
        "henrici-second-gcd",
        "src/diffext/scalars.py",
        "    if len(g) > 1 and len(t) > 1:",
        "    if False:",
        "Henrici's second gcd skipped",
    ),
    (
        "vg-columns-falling-factorial",
        "src/diffext/dext.py",
        "                falling = falling * (k - l) % p",
        "                falling = falling * (k - l - 1) % p",
        "the falling factorial in _vg_columns off by one",
    ),
    (
        "fact-b-every-h",
        "src/diffext/dext.py",
        "        if ring.is_commutative and self._constant_scalar_d() is None and not any(hs[1:]):",
        "        if ring.is_commutative and self._constant_scalar_d() is None:",
        "the Fact B shortcut widened to every h",
    ),
    (
        "p-step-one-level",
        "src/diffext/diffpoly.py",
        "        for _ in range((p - 1) * p ** level):",
        "        for _ in range(p - 1):",
        "_p_step iterating delta^(p-1) at every level",
    ),
    (
        "reduced-t-step-drops-f",
        "src/diffext/dext.py",
        "        if top:\n            for k, fk in enumerate(self.f.coeffs[:-1]):",
        "        if False:\n            for k, fk in enumerate(self.f.coeffs[:-1]):",
        "the reduced t-step (t s) mod f dropping t s's top term without subtracting s_(m-1) f",
    ),
    (
        "nucleus-row-top-term",
        "src/diffext/dext.py",
        "            cols.append([w[k] if k < i else zero for k in range(m - 1)])",
        "            cols.append([w[k] if k <= i else zero for k in range(m - 1)])",
        "a right-nucleus row t^i d - d t^i that keeps the top term d t^i",
    ),
    (
        "division-ladder-from-f",
        "src/diffext/diffpoly.py",
        "            ladder.append(_t_step(ring, ladder[-1]))",
        "            ladder.append(_t_step(ring, ladder[0]))",
        "every rung of the right-division ladder one t-step from f, not from the rung below",
    ),
    (
        "log-derivative-by-v-g",
        "src/diffext/autos.py",
        "    return not v_g(algebra.ring, z1, c)",
        "    return not v_g(algebra.ring, algebra.g, c)",
        "is_log_derivative deciding V_g(c) = 0, not V_z1(c) = 0",
    ),
    (
        "autos-suite-invalid-c-is-x",
        "src/diffext/frontend.py",
        " for k in range(g.e + 1)):",
        " for k in range(1)):",
        "the autos suite's invalid shift pinned to c = x",
    ),
    (
        "autos-suite-invalid-c-k1",
        "src/diffext/frontend.py",
        " for k in range(g.e + 1)):",
        " for k in range(2)):",
        "the autos suite's invalid-shift candidates stopped at delta(x)/x^2",
    ),
    (
        "cancel-memo-key",
        "src/diffext/scalars.py",
        "    key = (u, v)",
        "    key = u",
        "the cancellation memo keyed by the numerator alone",
    ),
    (
        "remainder-no-inverse",
        "src/diffext/scalars.py",
        "        c = (rem >> lead & mask) * inv % p",
        "        c = (rem >> lead & mask) % p",
        "_remainder's quotient entry not divided by the divisor's leading coefficient",
    ),
    (
        "exquo-cut-short",
        "src/diffext/scalars.py",
        "        cut = db - steps + 1",
        "        cut = db - steps",
        "_exquo cutting its operands one entry short",
    ),
    (
        "gcd-linear-root-sign",
        "src/diffext/scalars.py",
        "        return (1,) if c else ((-r) % p, 1)",
        "        return (1,) if c else (r % p, 1)",
        "_gcd's linear tail returning x + r, not x - r",
    ),
    (
        "solve-pivot-unscaled",
        "src/diffext/linalg.py",
        "        if a != 1:",
        "        if a == 0:",
        "solve_columns_mod_p never scaling a pivot to 1",
    ),
    (
        "byte-residues-power",
        "src/diffext/scalars.py",
        "        m = pow(256, j, p)",
        "        m = pow(256, j + 1, p)",
        "_byte_residues mapping byte j by 256^(j+1), not 256^j",
    ),
    (
        "reduced-t-step-top-slot",
        "src/diffext/dext.py",
        "        top = out.pop()",
        "        top = out.pop(-2)",
        "the reduced t-step reading s_(m-1) f's multiplier from the t^(m-1) slot, not the t^m one",
    ),
    (
        "quotient-product-unpadded",
        "src/diffext/dext.py",
        "self.rep.coeffs, alg._padded(other.rep), alg._t_mod_f",
        "self.rep.coeffs, other.rep.coeffs, alg._t_mod_f",
        "the quotient product stepping an unpadded v, so a v of degree below m - 1 has a lower coefficient read as its top",
    ),
    (
        "declared-g-leftover-skipped",
        "src/diffext/frontend.py",
        "    if rest:",
        "    if False:",
        "a declared g that is no monic p-polynomial accepted",
    ),
    (
        "ratfunc-inverse-exponent",
        "src/diffext/scalars.py",
        "        inv = (pow(num[-1], -1, field.p),)",
        "        inv = (pow(num[-1], 1, field.p),)",
        "RatFunc.inverse scaling by the numerator's leading coefficient, not its inverse",
    ),
    (
        "unpack-slot-byte-order",
        "src/diffext/scalars.py",
        '        return [int.from_bytes(raw[i : i + w], "little") % p for i in range(0, w * size, w)]',
        '        return [int.from_bytes(raw[i : i + w], "big") % p for i in range(0, w * size, w)]',
        "_unpack reading a wide slot big-endian",
    ),
    (
        "unpack-slot-stride",
        "src/diffext/scalars.py",
        "int.from_bytes(raw[i : i + w]",
        "int.from_bytes(raw[i : i + 8]",
        "_unpack reading each wide slot as 8 bytes, whatever its width",
    ),
    (
        "level-step-scale-one",
        "src/diffext/diffpoly.py",
        "        self.scale = ring.embed(a ** ((p ** level - 1) // (p - 1)))",
        "        self.scale = ring.one()",
        "v_p_tower's level k taking delta^(p^k) as delta",
    ),
    (
        "level-step-exponent",
        "src/diffext/diffpoly.py",
        "a ** ((p ** level - 1) // (p - 1))",
        "a ** ((p ** level - 1) // (p - 1) + 1)",
        "the exponent (p^k - 1)/(p - 1) of a in delta^(p^k) one too large",
    ),
    (
        "k-basis-scalars-only",
        "src/diffext/dext.py",
        "self._ring_basis[:: self.ring.p]",
        "self._ring_basis[:1]",
        "the K-basis of a quaternion algebra cut to the powers of t",
    ),
    (
        "search-cap-off-by-one",
        "src/diffext/dext.py",
        "        return bound - deg(c) // K.p\n",
        "        return bound - deg(c) // K.p - 1\n",
        "the factor search's denominator cap one below bound - D/p",
    ),
    (
        "search-cap-ignores-delta",
        "src/diffext/dext.py",
        "    if c and deg(c) > K.p * sigma:",
        "    if c and deg(c) > 0:",
        "the denominator cap applied to every pole at infinity, whatever delta(x) is",
    ),
    (
        "search-cap-every-exponent",
        "src/diffext/dext.py",
        "        cap = _denominator_cap(K, c, bound) if len(self.z1_split[1]) == 1 else bound",
        "        cap = _denominator_cap(K, c, bound)",
        "the exponent-one denominator cap applied at e >= 2",
    ),
    (
        "descriptor-equality-blind-to-tau",
        "src/diffext/autos.py",
        "            and other.images == self.images",
        "            and other.images[:1] == self.images[:1]",
        "descriptor equality blind to tau, so two conjugations compare equal",
    ),
    (
        "auto-order-bound-p",
        "src/diffext/autos.py",
        "range(1, ring.p * (ring.p + 1) + 1)",
        "range(1, ring.p + 1)",
        "auto_order searching to n = p only, too few for a tau that moves K (order 6 at p = 3)",
    ),
    (
        "auto-order-blind-to-tau",
        "src/diffext/autos.py",
        "        if images == basis and not c and eps == ring.one():",
        "        if not c and eps == ring.one():",
        "auto_order's identity test reading c and eps alone, blind to a tau that moves K",
    ),
    (
        "compose-c-untwisted",
        "src/diffext/autos.py",
        "    return e * H1.c + H1.tau(c2), e * H1.eps",
        "    return e * H1.c + c2, e * H1.eps",
        "the composite's c taking c2 for tau1(c2)",
    ),
    (
        "compose-no-target-check",
        "src/diffext/autos.py",
        "    if H2.target != H1.algebra:",
        "    if False:",
        "compose_autos composing a map with one that does not act on its target",
    ),
    (
        "terms-never-parenthesised",
        "src/diffext/scalars.py",
        '("(%s)*%s" if _needs_parens(s) else "%s*%s")',
        '("(%s)*%s" if False else "%s*%s")',
        "the shared term printer writing every coefficient before *unit without parentheses",
    ),
    (
        "standalone-fraction-unwrapped",
        "src/diffext/diffpoly.py",
        '            terms.append(("(%s)" % s if "/" in s else s, ""))',
        '            terms.append((s, ""))',
        "a DiffPoly's constant fraction printed without its parentheses",
    ),
    (
        "plain-reader-no-choices",
        "src/diffext/cli.py",
        "        if choices is not None and value not in choices:",
        "        if False:",
        "the plain command-line reader taking a value outside its flag's choices",
    ),
    (
        "plain-reader-no-required",
        "src/diffext/cli.py",
        "    if any(dest not in values for dest in required):",
        "    if False:",
        "the plain command-line reader taking a line without a required flag",
    ),
    (
        "plain-reader-repeated-flag",
        "src/diffext/cli.py",
        "        if dest in values:  # a repeated flag",
        "        if False:  # a repeated flag",
        "the plain command-line reader taking a flag given twice",
    ),
    (
        "search-guard-counts-to-bound",
        "src/diffext/dext.py",
        "    for _ in range(den_bound + 1):",
        "    for _ in range(bound + 1):",
        "the search guard counting the denominators to the bound, not to the degree cap",
    ),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_*")


def run(mutant):
    """(killed, first failing test or None, seconds) of one mutant."""
    name, rel, old, new, _ = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        path = copy / rel
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit("%s: the old text occurs %d times in %s" % (name, text.count(old), rel))
        path.write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - t0
    # A summary line reads "FAILED <test id> - <message>"; a test id can hold spaces.
    first = next(
        (
            line.split(" ", 1)[1].split(" - ", 1)[0]
            for line in out.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))
        ),
        None,
    )
    return out.returncode != 0, first, seconds


def main():
    killed = 0
    for mutant in MUTANTS:
        dead, first, seconds = run(mutant)
        killed += dead
        status = "killed by %s" % first if dead else "SURVIVED"
        print("%-30s %s (%.1f s): %s" % (mutant[0], status, seconds, mutant[4]), flush=True)
    print("%d of %d mutants killed" % (killed, len(MUTANTS)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
