"""Exception hierarchy for coxvar."""


class CoxvarError(Exception):
    """Base class for all coxvar errors."""


class ParseError(CoxvarError):
    pass


class UnsupportedType(CoxvarError):
    pass


class RankOutOfRange(CoxvarError):
    pass


class OrderLimitExceeded(CoxvarError):
    def __init__(self, msg, known_order=None):
        super().__init__(msg)
        self.known_order = known_order


class NonFiniteDiagram(CoxvarError):
    pass


class MixedRings(CoxvarError, TypeError):
    pass


class DivisionByZero(CoxvarError, ZeroDivisionError):
    pass


class UnassignedVariable(CoxvarError, KeyError):
    pass


class GeneratorNotInJ(CoxvarError):
    pass


class ReflectionNotOnEdge(CoxvarError):
    pass


class InvarianceViolation(CoxvarError):
    pass


class BlocksOverlap(CoxvarError):
    pass


class InvariantError(CoxvarError):
    """An identity that the theory guarantees failed on computed data."""


class NoFullSupportReflection(CoxvarError):
    pass


class VariableCollision(CoxvarError):
    pass


class NonIntegerExponent(CoxvarError):
    pass


class NonSquareMatrix(CoxvarError, ValueError):
    pass


class ModulusOutOfRange(CoxvarError, ValueError):
    pass


class CountOutOfRange(CoxvarError, ValueError):
    pass


class ParameterOutOfRange(CoxvarError, ValueError):
    """A numeric argument, such as a rank or a bond label, is not accepted."""


class UnknownAmbient(CoxvarError, ValueError):
    pass


class ReducibleSubset(CoxvarError, ValueError):
    pass


class SupportMismatch(CoxvarError, ValueError):
    pass


class NonIntegerMatrix(CoxvarError, ValueError):
    """A matrix handed to an integer kernel has a non-integer entry or dtype."""
