"""Exception types shared across the library.

Built-in exceptions are reused where they fit (ZeroDivisionError for
division by zero in a field or in the quaternion ring, ValueError for
malformed arguments).  Everything that a
caller might want to catch selectively gets its own class here.
"""

__all__ = [
    "NoSolution",
    "ZeroDerivation",
    "InternalInvariantViolation",
    "NotInner",
    "ConditionFailed",
    "NotNuclear",
    "NotInvertible",
    "UnsupportedInstance",
    "GNotAnnihilating",
    "TInDenominator",
    "ExprSyntaxError",
    "UnknownSuite",
    "ConfigError",
]


class NoSolution(Exception):
    """A linear system is inconsistent."""


class ZeroDerivation(ValueError):
    """The derivation is identically zero, which the construction forbids."""


class InternalInvariantViolation(RuntimeError):
    """An identity that must hold exactly failed; signals an arithmetic bug."""


class NotInner(Exception):
    """No constant d0 realizes g(delta) as the inner derivation [d0, -]."""


class ConditionFailed(Exception):
    """A candidate automorphism descriptor violates a defining condition.

    The ``condition`` attribute names the failed check: ``"eq1"`` for the
    commutation constraint on coefficients, ``"fixes_f"`` for the modulus
    not being preserved.  Both come only from the descriptor checks of
    build_auto and shift_isomorphism; a disagreement found afterwards is an
    InternalInvariantViolation.
    """

    def __init__(self, condition, message):
        super().__init__(message)
        self.condition = condition


class NotNuclear(Exception):
    """Conjugation was requested by an element outside the nucleus."""


class NotInvertible(Exception):
    """The element has no two-sided inverse."""


class UnsupportedInstance(Exception):
    """The requested analysis is not defined for this kind of instance."""


class GNotAnnihilating(ValueError):
    """A declared p-polynomial does not annihilate the instance derivation."""


class TInDenominator(ValueError):
    """An expression divides by a polynomial that involves t."""


class ExprSyntaxError(ValueError):
    """An expression failed to parse; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class UnknownSuite(ValueError):
    """A verification suite name is not recognized."""


class ConfigError(ValueError):
    """An instance configuration file is malformed."""
