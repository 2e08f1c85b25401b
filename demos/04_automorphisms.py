"""The automorphism group of (K, delta, d): shifts t -> t + c.

Candidate maps send sum d_i t^i to sum tau(d_i) (eps*t + c)^i.  Validity
pins tau and eps down completely here, and leaves for c exactly the kernel
of V_g, which is the set of logarithmic derivatives.  Conjugation by a
nonzero scalar is the inner case and lands on c = delta(a)/a.

Run:  python3 demos/04_automorphisms.py
"""

import random

from diffext import (
    ConditionFailed,
    ExtAlgebra,
    apply_auto,
    auto_constraints,
    auto_order,
    build_auto,
    compose_autos,
    derived_field,
    inner_auto,
    minimal_p_polynomial,
)

K = derived_field(2, "x")
x = K.x()
S = ExtAlgebra(K, minimal_p_polynomial(K), x)
ident = lambda z: z

# c = 1 is delta(x)/x, a logarithmic derivative, so the shift is valid.
H = build_auto(S, ident, K.one(), K.one())
print("t -> t + 1 is an automorphism; its order is", auto_order(H))
assert auto_order(H) == 2
print()

# c = x is not, and the builder names the condition that broke.
try:
    build_auto(S, ident, x, K.one())
except ConditionFailed as exc:
    print("t -> t + x rejected:", exc.condition)
print()

# Composition adds the shift constants: tau = id and eps = 1 in the law
# H1 o H2 = (tau1 tau2, tau1(eps2) c1 + tau1(c2), tau1(eps2) eps1).
rng = random.Random(4)
u1 = x + K.one()
u2 = x * x + x + K.one()
c1, c2 = K.log_derivative(u1), K.log_derivative(u2)
H1 = build_auto(S, ident, c1, K.one())
H2 = build_auto(S, ident, c2, K.one())
both = compose_autos(H1, H2)
print("c1 =", c1)
print("c2 =", c2)
print("composite shift:", both.c)
assert both == build_auto(S, ident, c1 + c2, K.one())
print()

# Conjugation by a = x^2 + x is the shift by delta(a)/a.
a = x * x + x
G = inner_auto(S, a)
print("inner map for a = x^2 + x has c =", G.c)
assert G.c == K.log_derivative(a)
u = S.random_element(rng, 2)
ainv = S.scalar(K.invert(a))
ae = S.scalar(a)
assert (ainv * u) * ae == apply_auto(G, u)
print("(a^(-1) o u) o a agrees with the descriptor on a random u")
print()

report = auto_constraints(S)
print("constraint report: tau =", report.tau_forced, " eps =", report.eps_forced)
print("admissible c:", report.c_condition)
for fact in report.facts:
    print("  -", fact)
