from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from triplepass.errors import DomainMismatchError
from triplepass.fields import (
    PrimeField,
    RATIONALS,
    Scalar,
    domain_from_label,
    format_scalar,
    PRIMALITY_BOUND,
    is_prime,
    parse_scalar,
    scalar_from_json,
    scalar_to_json,
)

F5 = PrimeField(5)
F7 = PrimeField(7)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)
    # Carmichael numbers, prime squares, and the least strong pseudoprime
    # to every prime base up to 37.
    for composite in (561, 41041, 49, 1_000_003**2, 318_665_857_834_031_151_167_461):
        assert not is_prime(composite)
    assert is_prime(1_000_000_000_000_037)
    assert is_prime(2**61 - 1)


def test_primality_is_only_decided_below_the_bound():
    with pytest.raises(ValueError, match="only decided below"):
        is_prime(PRIMALITY_BOUND)
    with pytest.raises(ValueError):
        PrimeField(10**25)
    with pytest.raises(ValueError, match="not an integer"):
        PrimeField("5")


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(4)


def test_residues_are_canonical():
    assert F5.scalar(7).value == 2
    assert F5.scalar(-1).value == 4


def test_prime_field_arithmetic():
    a, b = F5.scalar(3), F5.scalar(4)
    assert (a + b).value == 2
    assert (a - b).value == 4
    assert (a * b).value == 2
    assert (a / b).value == 2  # 3 * 4^-1 = 3 * 4 = 12 = 2 (mod 5)
    assert (-a).value == 2


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F5.scalar(1) / F5.zero
    with pytest.raises(ZeroDivisionError):
        RATIONALS.one / RATIONALS.zero


def test_domain_mismatch_raises():
    with pytest.raises(DomainMismatchError):
        F5.scalar(1) + F7.scalar(1)
    with pytest.raises(DomainMismatchError):
        F5.scalar(1) * RATIONALS.one


def test_rational_reduction():
    s = RATIONALS.scalar(6, 4)
    assert s.value == Fraction(3, 2)
    assert format_scalar(s) == "3/2"
    assert format_scalar(RATIONALS.scalar(-2, 4)) == "-1/2"
    assert format_scalar(RATIONALS.scalar(3)) == "3"


@given(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
)
def test_rational_arithmetic_is_exact_at_any_size(n1, d1, n2, d2):
    a = RATIONALS.scalar(n1, d1)
    b = RATIONALS.scalar(n2, d2)
    total = a + b
    assert total.value == Fraction(n1, d1) + Fraction(n2, d2)
    # Reduced form: gcd of numerator and denominator is 1.
    assert total.value.denominator >= 1
    if not b.is_zero:
        assert ((a / b) * b).value == a.value


@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_field_axioms_f7(x, y, z):
    a, b, c = F7.scalar(x), F7.scalar(y), F7.scalar(z)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if not a.is_zero:
        assert (b / a) * a == b


def test_scalar_literal_round_trip():
    for text in ("0", "3", "4"):
        assert format_scalar(parse_scalar(text, F5)) == text
    for text in ("3", "-2/5", "7/3"):
        assert format_scalar(parse_scalar(text, RATIONALS)) == text


def test_parse_scalar_rejects_junk():
    with pytest.raises(ValueError):
        parse_scalar("1/2", F5)
    with pytest.raises(ValueError):
        parse_scalar("x", RATIONALS)
    with pytest.raises(ValueError):
        parse_scalar("1/0", RATIONALS)


def test_domain_labels():
    assert domain_from_label("F5") == F5
    assert domain_from_label("Q") == RATIONALS
    with pytest.raises(ValueError):
        domain_from_label("Z9")


def test_scalar_json_forms():
    assert scalar_to_json(F5.scalar(3)) == 3
    assert scalar_to_json(RATIONALS.scalar(-1, 3)) == "-1/3"
    assert scalar_from_json(F5, 8) == F5.scalar(3)
    assert scalar_from_json(RATIONALS, "-1/3") == RATIONALS.scalar(-1, 3)
    with pytest.raises(ValueError):
        scalar_from_json(F5, "3")


def test_scalars_hash_by_domain_and_value():
    assert len({F5.scalar(1), F5.scalar(6), F7.scalar(1)}) == 2
    assert Scalar(F5, 2) == F5.scalar(2)
