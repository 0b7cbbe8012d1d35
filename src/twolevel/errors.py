"""Exception types raised across the package."""

from __future__ import annotations


class TwoLevelError(Exception):
    """Base class for all package errors."""


class InvalidInput(TwoLevelError):
    """Malformed or out-of-domain input (non-finite entries, bad JSON, ...)."""


class DimMismatch(TwoLevelError):
    """Operands have incompatible dimensions."""


class NotUnitary(TwoLevelError):
    """Matrix fails the unitarity check at the requested tolerance."""


class NotSpecial(TwoLevelError):
    """Determinant-one constraint violated where SU membership is required."""


class NumericalFailure(TwoLevelError):
    """A numerical routine could not meet its internal accuracy contract."""


class InvalidIndex(TwoLevelError):
    """Coordinate or qubit index out of range."""


class InvalidFrame(TwoLevelError):
    """Frame columns are not orthonormal at the requested tolerance."""


class InvalidDim(TwoLevelError):
    """Dimension outside the operation's domain."""


class UnknownLetter(TwoLevelError):
    """Gate word references a label not present in the gate set."""


class NetTooLarge(TwoLevelError):
    """Word enumeration exceeded the configured entry cap."""


class NoFaithfulStrata(TwoLevelError):
    """No faithful embedding exists at the requested dimension."""


class AccuracyNotReached(TwoLevelError):
    """Approximation could not meet the requested accuracy.

    Attributes:
        achieved: best operator-norm distance reached (float, or None).
        word: best word found (GateWord, or None).
        blocks: for pipeline failures, a list of per-block reports
            ``(block_index, p, q, budget, achieved)``.
    """

    def __init__(self, message, achieved=None, word=None, blocks=None):
        super().__init__(message)
        self.achieved = achieved
        self.word = word
        self.blocks = blocks
