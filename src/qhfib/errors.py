"""Exception types shared across the package.

Everything raised on purpose derives from QhfibError so callers can catch
one base class at the CLI boundary.
"""


class QhfibError(Exception):
    pass


class NotInvertible(QhfibError):
    """Element is not a unit."""


class CutoffTooSmall(QhfibError):
    """A truncation cutoff does not cover the terms the operation needs."""


class UnknownBasisLabel(QhfibError):
    """A class expression mentions a label the manifold model does not declare."""


class DegeneratePairing(QhfibError):
    """The intersection pairing is singular, so dual bases do not exist."""


class MissingTripleData(QhfibError):
    """A classical triple intersection needed by a product is not determined."""


class TableIncomplete(QhfibError):
    """A Gromov-Witten invariant was requested outside the table's declared range."""

    def __init__(self, message, missing=None):
        super().__init__(message)
        self.missing = missing


class MissingInput(QhfibError):
    """A model lacks optional data a computation needs; a verify check skips."""


class DimensionRuleViolation(QhfibError):
    """A table entry violates the dimension constraint for its arity."""


class Inconsistent(QhfibError):
    """A linear system that should have a solution does not."""


class FiberMismatch(QhfibError):
    """Two fibrations that must share a fiber model do not."""


class PrimingInvalid(QhfibError):
    """A splitting map fails the section-of-restriction property."""


class UnknownSuite(QhfibError):
    """The verifier was asked for a suite name it does not define."""
