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
    pass


class RamifiedCuspLine(ModwdError):
    pass


class InvalidGenericRep(ModwdError):
    pass


class ParseError(ModwdError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos
