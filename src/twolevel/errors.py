"""Exception types raised across the package."""

from __future__ import annotations


class TwoLevelError(Exception):
    """Base class for all package errors."""


class InvalidInput(TwoLevelError):
    """Malformed or out-of-domain input: bad JSON or shape, non-finite entries,
    an index, plane or dimension out of range, a bad frame, an unknown letter."""


class NotUnitary(TwoLevelError):
    """Matrix fails the unitarity check at the requested tolerance."""


class NotSpecial(TwoLevelError):
    """Determinant-one constraint violated where SU membership is required."""


class NumericalFailure(TwoLevelError):
    """A numerical routine could not meet its internal accuracy contract."""


class NetTooLarge(TwoLevelError):
    """Word enumeration exceeded the configured entry cap."""


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
