"""Exact 2x2 matrices over a scalar domain, plus the text literal format.

Matrices act on row vectors from the right (``v . A``), so all
composition order in the package follows from that convention.
"""

from __future__ import annotations

import re

from .errors import DomainMismatchError, SingularMatrixError
from .fields import (
    Domain,
    PrimeField,
    Scalar,
    domain_from_label,
    format_scalar,
    parse_value,
)
from .records import Frozen, setfield

__all__ = [
    "Mat2",
    "format_matrix",
    "parse_matrix",
    "parse_matrix_values",
]


class Mat2(Frozen):
    """Row-major 2x2 matrix ``[[a, b], [c, d]]`` with entries in one domain."""

    __slots__ = _fields = ("a", "b", "c", "d")

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar) -> None:
        dom = a.domain
        if not (b.domain == dom and c.domain == dom and d.domain == dom):
            raise DomainMismatchError("matrix entries must share one scalar domain")
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "c", c)
        setfield(self, "d", d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    @property
    def domain(self) -> Domain:
        return self.a.domain

    @property
    def entries(self) -> tuple[Scalar, Scalar, Scalar, Scalar]:
        return (self.a, self.b, self.c, self.d)

    def residues(self) -> tuple[int, int, int, int]:
        """Raw residue 4-tuple; the canonical ordering key over prime fields."""
        if not isinstance(self.domain, PrimeField):
            raise ValueError("residues() requires a prime-field matrix")
        return (self.a.value, self.b.value, self.c.value, self.d.value)

    @property
    def det(self) -> Scalar:
        return self.a * self.d - self.b * self.c

    @property
    def is_invertible(self) -> bool:
        return not self.det.is_zero

    def __matmul__(self, other: "Mat2") -> "Mat2":
        if self.domain != other.domain:
            raise DomainMismatchError("cannot multiply matrices over different domains")
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def inverse(self) -> "Mat2":
        det = self.det
        if det.is_zero:
            raise SingularMatrixError("not invertible")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def commutes_with(self, other: "Mat2") -> bool:
        return self @ other == other @ self

    @classmethod
    def identity(cls, domain: Domain) -> "Mat2":
        return cls(domain.one, domain.zero, domain.zero, domain.one)

    @classmethod
    def from_values(cls, domain: Domain, a, b, c, d) -> "Mat2":
        """Build from raw values (residues or int/Fraction for rationals)."""
        return cls(domain.scalar(a), domain.scalar(b), domain.scalar(c), domain.scalar(d))

    def __str__(self) -> str:
        return format_matrix(self)


_ENTRY = r"[+-]?\d+(?:/\d+)?"
_MATRIX_RE = re.compile(
    r"^\[\[(%s),(%s)\],\[(%s),(%s)\]\]@(F\d+|Q)$" % (_ENTRY, _ENTRY, _ENTRY, _ENTRY)
)


def format_matrix(m: Mat2) -> str:
    """Canonical whitespace-free literal, e.g. ``[[1,2],[0,1]]@F5``."""
    a, b, c, d = (format_scalar(s) for s in m.entries)
    return f"[[{a},{b}],[{c},{d}]]@{m.domain.label}"


def format_residues(p: int, r: tuple[int, int, int, int]) -> str:
    """``format_matrix`` of the residue matrix r over F_p, without a ``Mat2``."""
    a, b, c, d = r
    return f"[[{a},{b}],[{c},{d}]]@F{p}"


def parse_matrix_values(text: str) -> tuple[Domain, tuple]:
    """The domain of a matrix literal and its entry values in row-major
    order: residues in [0, p), or Fractions over Q."""
    if not isinstance(text, str):
        raise ValueError(f"invalid matrix literal {text!r}")
    match = _MATRIX_RE.match(text.replace(" ", ""))
    if not match:
        raise ValueError(f"invalid matrix literal {text!r}")
    *entries, label = match.groups()
    domain = domain_from_label(label)
    return domain, tuple(parse_value(e, domain) for e in entries)


def parse_matrix(text: str) -> Mat2:
    domain, values = parse_matrix_values(text)
    return Mat2(*(Scalar(domain, v) for v in values))
