"""Shared exception types."""

from __future__ import annotations


class TriplePassError(Exception):
    """Base class for errors raised by this package."""


class DomainMismatchError(TriplePassError):
    """Two exact values from different scalar domains were combined."""


class SingularMatrixError(TriplePassError):
    """A matrix that must be invertible has determinant zero."""


class InconsistentTranscriptError(TriplePassError):
    """No secret/mask assignment reproduces the given transcript."""


class AttackInapplicableError(TriplePassError):
    """The transcript does not meet the attack's preconditions."""


class WorkCapExceeded(TriplePassError):
    """An exhaustive job was refused because its size estimate exceeds the cap."""

    def __init__(self, job: str, estimate: int, cap: int):
        super().__init__(f"{job}: estimated work {estimate} exceeds cap {cap}")
        self.job = job
        self.estimate = estimate
        self.cap = cap
