"""Exception hierarchy for the library.

Errors that correspond to a mathematical rejection carry an optional
``witness``: the first counterexample found (an element index or a small
tuple of indices), so callers and the CLI can emit actionable diagnostics.
"""


class PPInvError(Exception):
    """Base class for every error raised by this package."""

    def __init__(self, message: str = "", witness=None):
        super().__init__(message)
        self.witness = witness

    @property
    def name(self) -> str:
        return type(self).__name__


# field construction

class NotPrime(PPInvError):
    pass


class Reducible(PPInvError):
    pass


class TooLarge(PPInvError):
    pass


class NotDivisor(PPInvError):
    pass


class NotCoprime(PPInvError):
    pass


# expression parsing and polynomial values

class PolySyntaxError(PPInvError):
    """Malformed expression text; ``position`` is a 0-based text offset."""

    def __init__(self, message: str, position: int):
        super().__init__(message, witness=position)
        self.position = position


class BadTraceDegree(PPInvError, ValueError):
    """A ``Tr{d}`` whose d does not divide n: bad input, not a rejection."""


class ConstantOutOfRange(PPInvError, ValueError):
    """A constant outside (-q, q): bad input, not a rejection."""


class CtxMismatch(PPInvError):
    pass


class LengthMismatch(PPInvError, ValueError):
    """A value table of the wrong length: bad input, not a rejection."""


class Singular(PPInvError):
    pass


# permutation tables and diagrams

class NotBijective(PPInvError):
    pass


class SizeMismatch(PPInvError):
    pass


# family construction and inversion

class NotPermutation(PPInvError):
    pass


class HVanishes(PPInvError):
    pass


class HVanishesOnImage(PPInvError):
    pass


class ConditionFail(PPInvError):
    pass


class NotTranslator(PPInvError):
    pass


class BPlusOneZero(PPInvError):
    pass


class LambdaZero(PPInvError):
    pass


class NotInjectivePhi(PPInvError):
    pass


class SquareDoesNotCommute(PPInvError):
    pass


class GammaZero(PPInvError):
    pass


class CertificationFailed(PPInvError):
    """A computed answer failed its exhaustive self-check; ``witness`` is
    the first element where it fails."""


# involution constructors

class BadK(PPInvError):
    pass


class TraceNonzero(PPInvError):
    pass


class NotInSubfield(PPInvError):
    pass


class OddN(PPInvError):
    pass


class OddChar(PPInvError):
    pass
