"""Run tier-1 against one-line faults in src/diffext and say which are caught.

Each mutant is (name, file, old text, new text, reason, first killer).
The old text occurs exactly once in its file (tests/test_mutants.py checks
that, so a refactor that moves the code must update the list here).  The
first killer is the test at which tier-1's -x run stopped when the mutant
was recorded.  For each mutant the tree is copied to a temporary
directory, the old text is replaced there, and the first killer runs
alone in the copy; the tree itself is never written.  When it fails
(pytest exit 1) the mutant is killed.  Otherwise (it passes, is gone or
does not run) tier-1 runs in the copy with -x, and the mutant is killed
when some test fails.  Each line names the first failing test and the
route that decided; a survivor is a fault that no test catches, a missing
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
        "tests/test_acceptance.py::test_c01_skew_identity",
    ),
    (
        "henrici-second-gcd",
        "src/diffext/scalars.py",
        "    if len(g) > 1 and len(t) > 1:",
        "    if False:",
        "Henrici's second gcd skipped",
        "tests/test_acceptance.py::test_c01_skew_identity",
    ),
    (
        "vg-columns-falling-factorial",
        "src/diffext/dext.py",
        "                falling = falling * (k - l) % p",
        "                falling = falling * (k - l - 1) % p",
        "the falling factorial in _vg_columns off by one",
        "tests/test_dext.py::test_linear_right_factor_x_squared",
    ),
    (
        "fact-b-every-h",
        "src/diffext/dext.py",
        "        if ring.is_commutative and self._constant_scalar_d() is None and not any(hs[1:]):",
        "        if ring.is_commutative and self._constant_scalar_d() is None:",
        "the Fact B shortcut widened to every h",
        "tests/test_dext.py::test_division_at_exponent_two_searches_for_g_not_closed_form",
    ),
    (
        "p-step-one-level",
        "src/diffext/diffpoly.py",
        "        for _ in range((p - 1) * p ** level):",
        "        for _ in range(p - 1):",
        "_p_step iterating delta^(p-1) at every level",
        "tests/test_dext.py::test_fraction_free_rows_match_coords_route[p2-1/x-t^4+(1/(x^4))*t^2]",
    ),
    (
        "reduced-t-step-drops-f",
        "src/diffext/dext.py",
        "        if top:\n            for k, fk in enumerate(self.f.coeffs[:-1]):",
        "        if False:\n            for k, fk in enumerate(self.f.coeffs[:-1]):",
        "the reduced t-step (t s) mod f dropping t s's top term without subtracting s_(m-1) f",
        "tests/test_acceptance.py::test_c09_division_verdict",
    ),
    (
        "right-nucleus-K-every-exponent",
        "src/diffext/dext.py",
        '        elif which in ("left", "middle") or self.ring.is_commutative and (which == "full" or self.g.e == 1):',
        '        elif which in ("left", "middle") or self.ring.is_commutative:',
        "the right nucleus over K read as K at every exponent, not only at e = 1",
        "tests/test_dext.py::test_exponent_two_nuclei_match_table_engine",
    ),
    (
        "associative-nucleus-is-A",
        "src/diffext/dext.py",
        "        if self.is_associative():\n            count = self.dim",
        "        if self.is_associative():\n            count = n",
        "every nucleus of an associative quotient cut to the coefficient ring A",
        "tests/test_acceptance.py::test_c03_nuclei",
    ),
    (
        "division-ladder-from-f",
        "src/diffext/diffpoly.py",
        "            ladder.append(_t_step(ring, ladder[-1]))",
        "            ladder.append(_t_step(ring, ladder[0]))",
        "every rung of the right-division ladder one t-step from f, not from the rung below",
        "tests/test_acceptance.py::test_c02_right_division",
    ),
    (
        "log-derivative-by-v-g",
        "src/diffext/autos.py",
        "    return not v_g(algebra.ring, z1, c)",
        "    return not v_g(algebra.ring, algebra.g, c)",
        "is_log_derivative deciding V_g(c) = 0, not V_z1(c) = 0",
        "tests/test_autos.py::test_valid_shift_that_is_not_inner",
    ),
    (
        "autos-suite-invalid-c-is-x",
        "src/diffext/frontend.py",
        " for k in range(g.e + 1)):",
        " for k in range(1)):",
        "the autos suite's invalid shift pinned to c = x",
        "tests/test_frontend.py::test_autos_suite_when_x_is_a_valid_shift[p3-x^2]",
    ),
    (
        "autos-suite-invalid-c-k1",
        "src/diffext/frontend.py",
        " for k in range(g.e + 1)):",
        " for k in range(2)):",
        "the autos suite's invalid-shift candidates stopped at delta(x)/x^2",
        "tests/test_frontend.py::test_autos_suite_when_x_is_a_valid_shift[p2-x^2-t^4 + t^2]",
    ),
    (
        "cancel-memo-key",
        "src/diffext/scalars.py",
        "    key = (u, v)",
        "    key = u",
        "the cancellation memo keyed by the numerator alone",
        "tests/test_acceptance.py::test_c01_skew_identity",
    ),
    (
        "coords-memo-key",
        "src/diffext/towers.py",
        "        memo = self._coords_memo\n        key = (a.num_coeffs, a.den_coeffs)",
        "        memo = self._coords_memo\n        key = a.num_coeffs",
        "the coordinate memo keyed by the numerator alone",
        "tests/test_dext.py::test_coords_roundtrip_sampled",
    ),
    (
        "coords-basis-power",
        "src/diffext/towers.py",
        "            self._basis = tuple(x ** j for j in range(self.p))",
        "            self._basis = tuple(x ** j for j in range(1, self.p + 1))",
        "the field's basis of K over F read one power off, x^1 .. x^p",
        "tests/test_acceptance.py::test_c03_nuclei",
    ),
    (
        "remainder-no-inverse",
        "src/diffext/scalars.py",
        "        c = (rem >> lead & mask) * inv % p",
        "        c = (rem >> lead & mask) % p",
        "_remainder's quotient entry not divided by the divisor's leading coefficient",
        "tests/test_acceptance.py::test_c01_skew_identity",
    ),
    (
        "exquo-cut-short",
        "src/diffext/scalars.py",
        "        cut = db - steps + 1",
        "        cut = db - steps",
        "_exquo cutting its operands one entry short",
        "tests/test_acceptance.py::test_c01_skew_identity",
    ),
    (
        "gcd-linear-root-sign",
        "src/diffext/scalars.py",
        "        return (1,) if c else ((-r) % p, 1)",
        "        return (1,) if c else (r % p, 1)",
        "_gcd's linear tail returning x + r, not x - r",
        "tests/test_acceptance.py::test_c01_skew_identity",
    ),
    (
        "solve-pivot-unscaled",
        "src/diffext/linalg.py",
        "        if a != 1:",
        "        if a == 0:",
        "solve_columns_mod_p never scaling a pivot to 1",
        "tests/test_autos.py::test_log_derivative_witness_matches_enumeration[x-p3]",
    ),
    (
        "byte-residues-power",
        "src/diffext/scalars.py",
        "        m = pow(256, j, p)",
        "        m = pow(256, j + 1, p)",
        "_byte_residues mapping byte j by 256^(j+1), not 256^j",
        "tests/test_acceptance.py::test_c09_division_verdict",
    ),
    (
        "reduced-t-step-top-slot",
        "src/diffext/dext.py",
        "        top = out.pop()",
        "        top = out.pop(-2)",
        "the reduced t-step reading s_(m-1) f's multiplier from the t^(m-1) slot, not the t^m one",
        "tests/test_acceptance.py::test_c07_inner_conjugation",
    ),
    (
        "quotient-product-unpadded",
        "src/diffext/dext.py",
        "self.rep.coeffs, alg._padded(other.rep), alg._t_mod_f",
        "self.rep.coeffs, other.rep.coeffs, alg._t_mod_f",
        "the quotient product stepping an unpadded v, so a v of degree below m - 1 has a lower coefficient read as its top",
        "tests/test_acceptance.py::test_c04_centralizer_of_k",
    ),
    (
        "declared-g-leftover-skipped",
        "src/diffext/frontend.py",
        "    if rest:",
        "    if False:",
        "a declared g that is no monic p-polynomial accepted",
        "tests/test_frontend.py::test_declared_g_shape_errors",
    ),
    (
        "ratfunc-inverse-exponent",
        "src/diffext/scalars.py",
        "        inv = (pow(num[-1], -1, field.p),)",
        "        inv = (pow(num[-1], 1, field.p),)",
        "RatFunc.inverse scaling by the numerator's leading coefficient, not its inverse",
        "tests/test_autos.py::test_log_derivative_witness_is_exact[5]",
    ),
    (
        "unpack-slot-byte-order",
        "src/diffext/scalars.py",
        '        return [int.from_bytes(raw[i : i + w], "little") % p for i in range(0, w * size, w)]',
        '        return [int.from_bytes(raw[i : i + w], "big") % p for i in range(0, w * size, w)]',
        "_unpack reading a wide slot big-endian",
        "tests/test_linalg.py::test_solve_columns_mod_p_matches_row_oracles[131]",
    ),
    (
        "unpack-slot-stride",
        "src/diffext/scalars.py",
        "int.from_bytes(raw[i : i + w]",
        "int.from_bytes(raw[i : i + 8]",
        "_unpack reading each wide slot as 8 bytes, whatever its width",
        "tests/test_linalg.py::test_solve_columns_mod_p_matches_row_oracles[131]",
    ),
    (
        "level-step-scale-one",
        "src/diffext/diffpoly.py",
        "        self.scale = ring.embed(a ** ((p ** level - 1) // (p - 1)))",
        "        self.scale = ring.one()",
        "v_p_tower's level k taking delta^(p^k) as delta",
        "tests/test_diffpoly.py::test_level_two_p_step_matches_expansion[p2-1/x]",
    ),
    (
        "level-step-exponent",
        "src/diffext/diffpoly.py",
        "a ** ((p ** level - 1) // (p - 1))",
        "a ** ((p ** level - 1) // (p - 1) + 1)",
        "the exponent (p^k - 1)/(p - 1) of a in delta^(p^k) one too large",
        "tests/test_diffpoly.py::test_level_two_p_step_matches_expansion[p2-1/x]",
    ),
    (
        "k-basis-scalars-only",
        "src/diffext/dext.py",
        "self._ring_basis[:: self.ring.p]",
        "self._ring_basis[:1]",
        "the K-basis of a quaternion algebra cut to the powers of t",
        "tests/test_autos.py::test_k_basis_spans_the_f_basis",
    ),
    (
        "search-cap-off-by-one",
        "src/diffext/dext.py",
        "        return bound - deg(c) // K.p\n",
        "        return bound - deg(c) // K.p - 1\n",
        "the factor search's denominator cap one below bound - D/p",
        "tests/test_dext.py::test_linear_right_factor_x_squared",
    ),
    (
        "search-cap-ignores-delta",
        "src/diffext/dext.py",
        "    if c and deg(c) > K.p * sigma:",
        "    if c and deg(c) > 0:",
        "the denominator cap applied to every pole at infinity, whatever delta(x) is",
        "tests/test_dext.py::test_degree_cap_keeps_every_witness_on_planted_instances[p2]",
    ),
    (
        "search-cap-every-exponent",
        "src/diffext/dext.py",
        "        cap = _denominator_cap(K, c, bound) if len(self.z1_split[1]) == 1 else bound",
        "        cap = _denominator_cap(K, c, bound)",
        "the exponent-one denominator cap applied at e >= 2",
        "tests/test_dext.py::test_quaternion_search_on_scalar_constant_matches_k[p3-b2-e2-z1^3+z1]",
    ),
    (
        "descriptor-equality-blind-to-tau",
        "src/diffext/autos.py",
        "            and other.images == self.images",
        "            and other.images[:1] == self.images[:1]",
        "descriptor equality blind to tau, so two conjugations compare equal",
        "tests/test_autos.py::test_conjugations_with_one_name_compare_by_tau",
    ),
    (
        "auto-order-bound-p",
        "src/diffext/autos.py",
        "range(1, ring.p * (ring.p + 1) + 1)",
        "range(1, ring.p + 1)",
        "auto_order searching to n = p only, too few for a tau that moves K (order 6 at p = 3)",
        "tests/test_autos.py::test_order_and_composition_match_the_iteration_over_pgl2",
    ),
    (
        "auto-order-blind-to-tau",
        "src/diffext/autos.py",
        "        if images == basis and not c and eps == ring.one():",
        "        if not c and eps == ring.one():",
        "auto_order's identity test reading c and eps alone, blind to a tau that moves K",
        "tests/test_autos.py::test_auto_order_counts_a_tau_that_moves_k",
    ),
    (
        "compose-c-untwisted",
        "src/diffext/autos.py",
        "    return e * H1.c + H1.tau(c2), e * H1.eps",
        "    return e * H1.c + c2, e * H1.eps",
        "the composite's c taking c2 for tau1(c2)",
        "tests/test_autos.py::test_order_and_composition_match_the_iteration_over_pgl2",
    ),
    (
        "compose-no-target-check",
        "src/diffext/autos.py",
        "    if H2.target != H1.algebra:",
        "    if False:",
        "compose_autos composing a map with one that does not act on its target",
        "tests/test_autos.py::test_order_and_composition_refuse_maps_onto_another_algebra",
    ),
    (
        "terms-never-parenthesised",
        "src/diffext/scalars.py",
        '("(%s)*%s" if _needs_parens(s) else "%s*%s")',
        '("(%s)*%s" if False else "%s*%s")',
        "the shared term printer writing every coefficient before *unit without parentheses",
        "tests/test_parsing.py::test_poly_print_parse_roundtrip",
    ),
    (
        "standalone-fraction-unwrapped",
        "src/diffext/diffpoly.py",
        '            terms.append(("(%s)" % s if "/" in s else s, ""))',
        '            terms.append((s, ""))',
        "a DiffPoly's constant fraction printed without its parentheses",
        "tests/test_parsing.py::test_printed_sums_of_terms",
    ),
    (
        "plain-reader-no-choices",
        "src/diffext/cli.py",
        '        if value not in kwargs.get("choices", (value,)):',
        "        if False:",
        "the plain command-line reader taking a value outside its flag's choices",
        "tests/test_cli.py::test_plain_reader_and_argparse_agree_on_a_grid_of_command_lines",
    ),
    (
        "plain-reader-no-required",
        "src/diffext/cli.py",
        '        if flag not in given and kwargs.get("required"):',
        "        if False:",
        "the plain command-line reader taking a line without a required flag",
        "tests/test_cli.py::test_plain_reader_and_argparse_agree_on_a_grid_of_command_lines",
    ),
    (
        "plain-reader-repeated-flag",
        "src/diffext/cli.py",
        '        if kwargs is None or flag in given or text[:1] == "-":',
        '        if kwargs is None or text[:1] == "-":',
        "the plain command-line reader taking a flag given twice",
        "tests/test_cli.py::test_plain_reader_and_argparse_agree_on_a_grid_of_command_lines",
    ),
    (
        "search-guard-counts-to-bound",
        "src/diffext/dext.py",
        "    for _ in range(den_bound + 1):",
        "    for _ in range(bound + 1):",
        "the search guard counting the denominators to the bound, not to the degree cap",
        "tests/test_dext.py::test_search_guard_refuses_before_any_work",
    ),
    (
        "plain-reader-unknown-flag",
        "src/diffext/cli.py",
        "        kwargs = options.get(flag)\n",
        "        kwargs = options.get(flag, {})\n",
        "the plain command-line reader taking a flag that is not in its command's table",
        "tests/test_cli.py::test_plain_reader_and_argparse_agree_on_a_grid_of_command_lines",
    ),
    (
        "config-requires-every-key",
        "src/diffext/frontend.py",
        "        if key not in values and key not in InstanceConfig._field_defaults:",
        "        if key not in values:",
        "the config reader requiring every key, those with a default too",
        "tests/test_autos.py::test_build_auto_rejects_bad_eps",
    ),
    (
        "autos-refused-constraints-pass",
        "src/diffext/cli.py",
        '        verdict, witness = "unknown", {"reason": str(exc)}',
        '        verdict, witness = "pass", {"reason": str(exc)}',
        "diffext autos reporting the constraints it could not analyse as pass",
        "tests/test_frontend.py::test_cli_autos_runs_its_probes_when_the_constraints_are_refused[delta-1]",
    ),
    (
        "report-indent-one-space",
        "src/diffext/frontend.py",
        '    inner = indent + "  "\n',
        '    inner = indent + " "\n',
        "the JSON report writer indenting by one space a level, not two",
        "tests/test_frontend.py::test_report_dumps_is_the_indenting_encoder_byte_for_byte[empty]",
    ),
    (
        "report-keys-unsorted",
        "src/diffext/frontend.py",
        "for k in sorted(value)]",
        "for k in value]",
        "the JSON report writer writing keys in insertion order, not sorted",
        "tests/test_frontend.py::test_report_dumps_is_the_indenting_encoder_byte_for_byte[empty]",
    ),
    (
        "draw-accepts-p",
        "src/diffext/scalars.py",
        "            while c >= p:",
        "            while c > p:",
        "the sampler keeping a drawn coefficient equal to p",
        "tests/test_acceptance.py::test_c01_skew_identity",
    ),
    (
        "draw-degree-bits-short",
        "src/diffext/scalars.py",
        "    kn, kp = n.bit_length(), p.bit_length()",
        "    kn, kp = (n - 1).bit_length(), p.bit_length()",
        "the sampler drawing the degree bound below n on (n - 1).bit_length() bits, not randrange's n.bit_length()",
        "tests/test_sampling.py::test_random_poly_matches_randrange_draw_for_draw[2]",
    ),
    (
        "table-check-skips-new-entries",
        "src/diffext/dext.py",
        "                            if key not in checked:",
        "                            if key in checked:",
        "the structure table checking only entries already checked, so none is checked",
        "tests/test_dext.py::test_structure_constants_check_every_entry_is_constant",
    ),
]

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench_*")


def _pytest(copy, *args):
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def run(mutant):
    """(killed, first failing test or None, route, seconds) of one mutant.

    The route is "first killer" when the recorded first killer, run alone,
    failed (pytest exit 1), and "full run" otherwise: it passed, is gone or
    did not run, and tier-1 decides.
    """
    name, rel, old, new, _, killer = mutant
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        path = copy / rel
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            raise SystemExit("%s: the old text occurs %d times in %s" % (name, text.count(old), rel))
        path.write_text(text.replace(old, new), encoding="utf-8")
        t0 = time.perf_counter()
        out, route = _pytest(copy, killer), "first killer"
        if out.returncode != 1:
            out, route = _pytest(
                copy, "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"
            ), "full run"
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
    return out.returncode != 0, first, route, seconds


def main():
    killed = 0
    for mutant in MUTANTS:
        dead, first, route, seconds = run(mutant)
        killed += dead
        status = "killed by %s" % first if dead else "SURVIVED"
        print("%-30s %s (%s, %.1f s): %s" % (mutant[0], status, route, seconds, mutant[4]), flush=True)
    print("%d of %d mutants killed" % (killed, len(MUTANTS)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
