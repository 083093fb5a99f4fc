"""Exact scalars: prime-field residues and big-integer rationals.

Every protocol and analysis path runs on these types and nothing here
ever rounds: prime-field values are canonical residues in [0, p) and
rational values are reduced fractions over arbitrary-precision integers.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import DomainMismatchError
from .records import Frozen, setfield

__all__ = [
    "PrimeField",
    "prime_field",
    "Rationals",
    "RATIONALS",
    "Scalar",
    "Domain",
    "PRIMALITY_BOUND",
    "is_prime",
    "domain_from_label",
    "format_scalar",
    "parse_scalar",
    "parse_value",
    "scalar_to_json",
    "scalar_from_json",
]


# Miller-Rabin with the prime bases 2..41 decides primality exactly for
# every n below this bound, the least strong pseudoprime to all of them
# (OEIS A014233). Bases 2..37 alone are fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; exact below
    ``PRIMALITY_BOUND`` and a ``ValueError`` at or above it."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"primality of {n} is only decided below {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Frozen):
    """The field of integers modulo a prime, with exact residue arithmetic."""

    __slots__ = _fields = ("p",)

    def __init__(self, p: int) -> None:
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError(f"modulus {p!r} is not an integer")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        setfield(self, "p", p)

    def __eq__(self, other):
        if other.__class__ is not PrimeField:
            return NotImplemented
        return self.p == other.p

    def __hash__(self) -> int:
        return hash((self.p,))

    @property
    def label(self) -> str:
        return f"F{self.p}"

    def scalar(self, value: int) -> "Scalar":
        return Scalar(self, value % self.p)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1)

    def elements(self) -> tuple["Scalar", ...]:
        return tuple(Scalar(self, v) for v in range(self.p))

    def nonzero_elements(self) -> tuple["Scalar", ...]:
        return tuple(Scalar(self, v) for v in range(1, self.p))

    def div(self, a: int, b: int) -> int:
        if b % self.p == 0:
            raise ZeroDivisionError(f"division by zero in {self.label}")
        return (a * pow(b, -1, self.p)) % self.p


@lru_cache(maxsize=64, typed=True)
def prime_field(p: int) -> PrimeField:
    """``PrimeField(p)``, shared per modulus: a modulus that arrives with
    every transcript or matrix literal is tested for primality once."""
    return PrimeField(p)


class Rationals(Frozen):
    """The rational numbers, backed by reduced big-integer fractions."""

    __slots__ = ()

    @property
    def label(self) -> str:
        return "Q"

    def scalar(self, numerator: Union[int, Fraction], denominator: int = 1) -> "Scalar":
        return Scalar(self, Fraction(numerator, denominator))

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, Fraction(0))

    @property
    def one(self) -> "Scalar":
        return Scalar(self, Fraction(1))

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        if b == 0:
            raise ZeroDivisionError("division by zero in Q")
        return a / b


RATIONALS = Rationals()

Domain = Union[PrimeField, Rationals]


class Scalar(Frozen):
    """An exact field element tagged with its domain.

    Arithmetic between scalars of different domains raises
    DomainMismatchError rather than coercing. The operators compute on
    the raw values and let the domain's ``scalar`` normalise the result.
    """

    __slots__ = _fields = ("domain", "value")

    def __init__(self, domain: Domain, value: Union[int, Fraction]) -> None:
        setfield(self, "domain", domain)
        setfield(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is not Scalar:
            return NotImplemented
        return (self.domain, self.value) == (other.domain, other.value)

    def __hash__(self) -> int:
        return hash((self.domain, self.value))


    def _same(self, other: "Scalar") -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if self.domain != other.domain:
            raise DomainMismatchError(
                f"cannot combine {self.domain.label} and {other.domain.label} scalars"
            )

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other: "Scalar") -> "Scalar":
        self._same(other)
        return self.domain.scalar(self.value + other.value)

    def __sub__(self, other: "Scalar") -> "Scalar":
        self._same(other)
        return self.domain.scalar(self.value - other.value)

    def __mul__(self, other: "Scalar") -> "Scalar":
        self._same(other)
        return self.domain.scalar(self.value * other.value)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        self._same(other)
        return Scalar(self.domain, self.domain.div(self.value, other.value))

    def __neg__(self) -> "Scalar":
        return self.domain.scalar(-self.value)

    def __str__(self) -> str:
        return format_scalar(self)


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")
_RESIDUE_RE = re.compile(r"^[+-]?\d+$")


def domain_from_label(label: str) -> Domain:
    """Resolve a domain suffix such as ``F5`` or ``Q``."""
    if label == "Q":
        return RATIONALS
    if label.startswith("F"):
        return prime_field(int(label[1:]))
    raise ValueError(f"unknown scalar domain {label!r}")


def format_scalar(s: Scalar) -> str:
    """Canonical text form: a residue, or ``n`` / ``n/d`` for rationals."""
    return str(s.value)


def parse_value(text: str, domain: Domain) -> Union[int, Fraction]:
    """The value of a scalar literal: a residue in [0, p) or a Fraction."""
    text = text.strip()
    if isinstance(domain, PrimeField):
        if not _RESIDUE_RE.match(text):
            raise ValueError(f"invalid {domain.label} scalar literal {text!r}")
        return int(text) % domain.p
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"invalid rational literal {text!r}")
    return Fraction(text)


def parse_scalar(text: str, domain: Domain) -> Scalar:
    return Scalar(domain, parse_value(text, domain))


def scalar_to_json(s: Scalar) -> Union[int, str]:
    """Residues serialize as integers, rationals as canonical strings."""
    if isinstance(s.domain, PrimeField):
        return s.value
    return str(s.value)


def scalar_from_json(domain: Domain, value: Union[int, str]) -> Scalar:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer or a string scalar, got {value!r}")
    if isinstance(domain, PrimeField):
        if not isinstance(value, int):
            raise ValueError(f"expected integer residue, got {value!r}")
        return domain.scalar(value)
    if isinstance(value, int):
        return domain.scalar(value)
    return parse_scalar(value, domain)
