"""Exception hierarchy.

Every domain error maps to a named code (the class name) so the CLI can
report failures uniformly and scripts can match on them.
"""


class ModwdError(Exception):
    """Base class for all library errors."""


class NonPrime(ModwdError):
    pass


class QDivisibleByEll(ModwdError):
    pass


class ZeroElement(ModwdError):
    pass


class NeedsLargerField(ModwdError):
    pass


class DimensionTooLarge(ModwdError):
    pass


class DivisionByZero(ModwdError):
    pass


class MissingFusionRule(ModwdError):
    pass


class MixedLines(ModwdError):
    pass


class ContainsCyc(ModwdError):
    pass


class RamifiedLine(ModwdError):
    pass


class RelationViolated(ModwdError):
    pass


class FNotInvertible(ModwdError):
    pass


class NotSemisimple(ModwdError):
    pass


class EpsilonNotUnit(ModwdError):
    """Carries the non-unit epsilon, printed only when the message is read:
    its fraction can have degree in the hundreds."""

    def __init__(self, eps):
        super().__init__(eps)
        self.eps = eps

    def __str__(self):
        return f"epsilon is not a unit: {self.eps!r}"


class RamifiedCuspLine(ModwdError):
    pass


class InvalidGenericRep(ModwdError):
    pass


class ParseError(ModwdError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
