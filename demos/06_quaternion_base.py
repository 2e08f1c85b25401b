"""A quaternion division ring as the coefficient ring: the paper's second setting.

Q = (x^3, 2) over K = F_3(x) is a division algebra with center K: i^2 =
x^3, j^2 = 2 and ij = -ji, and delta = x d/dx acts on the four
K-coordinates of a + b i + c j + e ij.  Dividing Q[t; delta] by t^3 - t -
d gives an algebra of dimension 36 over F = F_3(x^3).  For d = x, central
but not a constant, it is not associative, and, Q being a division ring,
its left and middle nuclei are Q itself (Petit).

Run:  python3 demos/06_quaternion_base.py
"""

from diffext import (
    ExtAlgebra,
    QuaternionRing,
    apply_auto,
    derived_field,
    inner_auto,
    minimal_p_polynomial,
)

K = derived_field(3, "x")
Q = QuaternionRing(K)
zero, one, x = K.zero(), K.one(), K.x()
i, j = Q.of(zero, one, zero, zero), Q.of(zero, zero, one, zero)
print("i^2 =", i * i, "  j^2 =", j * j, "  ij =", i * j, "  ji =", j * i)
q = Q.of(one, x, zero, one)
print("q =", q, "  N(q) =", Q.norm(q), "  q^(-1) q =", Q.invert(q) * q)
assert Q.invert(q) * q == Q.one() == q * Q.invert(q)
print()

S = ExtAlgebra(Q, minimal_p_polynomial(K), Q.embed(x))
print("modulus:", S.f, "  dim over F:", S.dim, "  associative:", S.is_associative())
assert S.dim == 36 and not S.is_associative()
scalars = [S.scalar(b) for b in Q.constant_basis()]
for which in ("left", "middle"):
    basis = S.nucleus(which)
    print("%-6s nucleus: dim %d, %s" % (which, len(basis), ", ".join(str(b) for b in basis)))
    assert basis == scalars  # Q itself, dim 4p = 12 over F
print("center:", ", ".join(str(z) for z in S.center()))
print()

# Conjugation by i fixes t and twists the coefficients: the descriptor
# (tau, 0, 1) with tau(j) = i^(-1) j i = -j, which inner_auto checks
# against literal conjugation.  Its repr names tau by the images of x, i, j.
G = inner_auto(S, i)
print("conjugation by i:", G)
assert G.c == Q.zero() and G(S.t()) == S.t()
assert G(S.scalar(j)) == S.scalar(-j) and G(S.scalar(i)) == S.scalar(i)
u = S.scalar(i + j) * S.t() + S.scalar(Q.embed(x))
i_el, i_inv = S.scalar(i), S.scalar(Q.invert(i))
print("u =", u, "  i^(-1) u i =", apply_auto(G, u))
assert apply_auto(G, u) == (i_inv * u) * i_el
