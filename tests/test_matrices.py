import pytest
from hypothesis import given, strategies as st

import oracles
from triplepass.errors import DomainMismatchError, SingularMatrixError
from triplepass.fields import PrimeField, RATIONALS
from triplepass.matrices import Mat2, format_matrix, parse_matrix

F2 = PrimeField(2)
F5 = PrimeField(5)


def m5(a, b, c, d):
    return Mat2.from_values(F5, a, b, c, d)


def test_identity_is_neutral():
    ident = Mat2.identity(F5)
    m = m5(1, 2, 3, 4)
    assert ident @ m == m
    assert m @ ident == m


def test_f2_shear_squares_to_identity():
    # Oracle: direct modular evaluation of [[1,1],[0,1]]^2 mod 2.
    shear = Mat2.from_values(F2, 1, 1, 0, 1)
    assert oracles.mmul(2, (1, 1, 0, 1), (1, 1, 0, 1)) == (1, 0, 0, 1)
    assert shear @ shear == Mat2.identity(F2)


def test_f5_diagonal_product():
    assert oracles.mmul(5, (2, 0, 0, 1), (3, 0, 0, 4)) == (1, 0, 0, 4)
    assert m5(2, 0, 0, 1) @ m5(3, 0, 0, 4) == m5(1, 0, 0, 4)


def test_domain_mismatch():
    with pytest.raises(DomainMismatchError):
        Mat2.identity(F2) @ Mat2.identity(F5)
    with pytest.raises(DomainMismatchError):
        Mat2(F2.one, F2.zero, F5.zero, F5.one)


def test_identity_inverse():
    assert Mat2.identity(F5).inverse() == Mat2.identity(F5)


def test_f2_shear_is_self_inverse():
    shear = Mat2.from_values(F2, 1, 1, 0, 1)
    inv = shear.inverse()
    assert inv == shear
    assert shear @ inv == Mat2.identity(F2)


def test_f5_diagonal_inverse():
    # 3*2 = 6 = 1 and 4*4 = 16 = 1 (mod 5).
    assert m5(3, 0, 0, 4).inverse() == m5(2, 0, 0, 4)


def test_singular_matrix_rejected():
    with pytest.raises(SingularMatrixError, match="not invertible"):
        m5(1, 2, 2, 4).inverse()


def test_literal_round_trip_and_canonical_form():
    m = m5(1, 2, 0, 1)
    text = format_matrix(m)
    assert text == "[[1,2],[0,1]]@F5"
    assert parse_matrix(text) == m
    assert parse_matrix("[[ 1, 2],[0, 1 ]]@F5") == m

    q = Mat2(
        RATIONALS.scalar(1, 2), RATIONALS.scalar(-3), RATIONALS.zero, RATIONALS.one
    )
    text = format_matrix(q)
    assert text == "[[1/2,-3],[0,1]]@Q"
    assert parse_matrix(text) == q


def test_parse_matrix_rejects_junk():
    for bad in ("[[1,2],[0,1]]", "[[1,2],[0,1]]@Z5", "[1,2,0,1]@F5", "[[1,2],[0]]@F5"):
        with pytest.raises(ValueError):
            parse_matrix(bad)


_entries = st.integers(0, 4)


def _mat(a, b, c, d):
    return m5(a, b, c, d)


@given(*(_entries,) * 12)
def test_associativity_f5(a, b, c, d, e, f, g, h, i, j, k, l):
    x, y, z = _mat(a, b, c, d), _mat(e, f, g, h), _mat(i, j, k, l)
    assert (x @ y) @ z == x @ (y @ z)


@given(*(_entries,) * 8)
def test_inverse_laws_f5(a, b, c, d, e, f, g, h):
    x, y = _mat(a, b, c, d), _mat(e, f, g, h)
    if x.is_invertible:
        assert x @ x.inverse() == Mat2.identity(F5)
    if x.is_invertible and y.is_invertible:
        assert (x @ y).inverse() == y.inverse() @ x.inverse()


@given(
    st.integers(-9, 9), st.integers(1, 9),
    st.integers(-9, 9), st.integers(1, 9),
    st.integers(-9, 9), st.integers(1, 9),
    st.integers(-9, 9), st.integers(1, 9),
)
def test_rational_inverse_is_exact(n1, d1, n2, d2, n3, d3, n4, d4):
    m = Mat2(
        RATIONALS.scalar(n1, d1),
        RATIONALS.scalar(n2, d2),
        RATIONALS.scalar(n3, d3),
        RATIONALS.scalar(n4, d4),
    )
    if m.is_invertible:
        assert m @ m.inverse() == Mat2.identity(RATIONALS)


def test_inverse_exhaustive_small_general_linear():
    from triplepass.groups import enumerate_gl2

    for p in (2, 3):
        ident = Mat2.identity(PrimeField(p))
        for m in enumerate_gl2(p):
            assert m @ m.inverse() == ident
