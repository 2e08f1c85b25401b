"""Linear right factors, division verdicts, and shifting the variable.

t - b right-divides g(t) - d exactly when V_g(b) = d, so hunting for
factors is a search through candidate fractions b.  The same V controls
where the substitution t -> t - a lands: it is an isomorphism onto the
algebra with constant term d + V_g(a).

Run:  python3 demos/05_factors_and_shifts.py
"""

import random

from diffext import (
    DiffPoly,
    ExtAlgebra,
    derived_field,
    minimal_p_polynomial,
    shift_isomorphism,
    v_g,
)

K = derived_field(2, "x")
x = K.x()
g = minimal_p_polynomial(K)

# d = x is not in F = F_2(x^2), so f is irreducible: proved without a search.
S = ExtAlgebra(K, g, x)
verdict, witness = S.division_verdict(4)
print("f =", S.f)
print("verdict:", verdict)
assert verdict == "division (proved)"
print("every nonzero element acts invertibly; sampled left multiplications agree:")
print("  injective on samples:", S.is_division_probe(random.Random(5), samples=50))
print()

# d = 0: t - 1 splits off because V_g(1) = 0 = d.
Z = ExtAlgebra(K, g, K.zero())
b = Z.linear_right_factor_search(4)
print("f =", Z.f, "   found factor t -", b)
lin = DiffPoly(K, (-b, K.one()))
q, r = Z.f.right_divmod(lin)
print("quotient:", q, "  remainder:", r)
assert b == K.one() and not r
# the factor pair is a zero-divisor pair downstairs
qe, le = Z.element(q), Z.element(lin)
assert qe and le and not qe * le
print("its image in the quotient multiplies to zero: not a division algebra")
print()

# Shifting t by a = x moves d by V_g(x) = x^2.
iso = shift_isomorphism(S, x)
print("V_g(x) =", v_g(K, g, x))
print("t -> t - x sends (K, delta, x) onto (K, delta, %s)" % iso.target.d)
u = S.t()
v = S.scalar(x) * S.t()
assert iso(u * v) == iso(u) * iso(v)
assert shift_isomorphism(iso.target, -x)(iso(u)) == u
print("the map respects products and undoes itself; the two algebras")
print("are the same structure wearing different constant terms")
