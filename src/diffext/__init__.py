"""Exact arithmetic for twisted polynomial rings over F_p(x) and the
nonassociative algebras obtained by dividing out g(t) - d.

The layers, bottom up:

    scalars   F_p, dense polynomials, reduced rational functions
    linalg    exact matrices: RREF, kernels; the F_p column solver
    towers    F_p(x) with a derivation, its constants, p-polynomials, a
              quaternion division ring over it
    diffpoly  the ring K[t; delta] and the V operators
    dext      quotient algebras, nuclei, center, factor search
    autos     automorphism descriptors, inner and shift maps, constraints
    parsing   expressions like (x^2 + 1)/(x) * t^2 + x
    frontend  config files, verification suites, reports
    cli       the diffext command
"""

from .autos import (
    AutoConstraintReport,
    AutoDescriptor,
    apply_auto,
    auto_constraints,
    auto_order,
    build_auto,
    compose_shift_autos,
    inner_auto,
    is_log_derivative,
    log_derivative_witness,
    shift_isomorphism,
)
from .dext import AlgebraElement, ExtAlgebra
from .diffpoly import (
    DiffPoly,
    is_right_invariant,
    p_poly_as_diffpoly,
    substitute,
    v_g,
    v_p_tower,
)
from .errors import (
    ConditionFailed,
    ConfigError,
    ExprSyntaxError,
    GNotAnnihilating,
    InternalInvariantViolation,
    NoSolution,
    NotInvertible,
    NotNuclear,
    TInDenominator,
    UnknownSuite,
    UnsupportedInstance,
    ZeroDerivation,
)
from .frontend import (
    Instance,
    derived_field,
    InstanceConfig,
    Report,
    instance_from_text,
    load_instance,
    run_suite,
)
from .linalg import Matrix
from .parsing import parse_diffpoly, parse_field_element
from .scalars import DensePoly, PrimeField, RatFunc, RationalFunctionField
from .towers import (
    DerivedField,
    PPolynomial,
    QuaternionRing,
    minimal_p_polynomial,
    p_polynomial_at_exponent,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement",
    "AutoConstraintReport",
    "AutoDescriptor",
    "ConditionFailed",
    "ConfigError",
    "DensePoly",
    "DerivedField",
    "DiffPoly",
    "ExprSyntaxError",
    "ExtAlgebra",
    "GNotAnnihilating",
    "Instance",
    "InstanceConfig",
    "InternalInvariantViolation",
    "Matrix",
    "NoSolution",
    "NotInvertible",
    "NotNuclear",
    "PPolynomial",
    "PrimeField",
    "QuaternionRing",
    "RatFunc",
    "RationalFunctionField",
    "Report",
    "TInDenominator",
    "UnknownSuite",
    "UnsupportedInstance",
    "ZeroDerivation",
    "apply_auto",
    "auto_constraints",
    "auto_order",
    "build_auto",
    "derived_field",
    "compose_shift_autos",
    "inner_auto",
    "instance_from_text",
    "is_log_derivative",
    "is_right_invariant",
    "load_instance",
    "log_derivative_witness",
    "minimal_p_polynomial",
    "p_polynomial_at_exponent",
    "p_poly_as_diffpoly",
    "parse_diffpoly",
    "parse_field_element",
    "run_suite",
    "shift_isomorphism",
    "substitute",
    "v_g",
    "v_p_tower",
    "__version__",
]
