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

from . import autos, dext, diffpoly, errors, frontend, linalg, parsing, scalars, towers
from .autos import *
from .dext import *
from .diffpoly import *
from .errors import *
from .frontend import *
from .linalg import *
from .parsing import *
from .scalars import *
from .towers import *

__version__ = "0.1.0"

# The package exports the union of the layers' own lists.  cli is the
# command, not an API layer, and is not imported here.
_LAYERS = (autos, dext, diffpoly, errors, frontend, linalg, parsing, scalars, towers)
__all__ = sorted({name for layer in _LAYERS for name in layer.__all__}) + ["__version__"]
