"""Field arithmetic in Q(sqrt 2): everything exact, everything normalized."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gradedosp.scalars import ONE, SQRT2, ZERO, Scalar

HALF = Fraction(1, 2)


def test_add_examples():
    assert Scalar(HALF) + Scalar(HALF) == Scalar(1)
    assert Scalar(0, 1) + Scalar(0, -1) == ZERO
    assert Scalar(1, 1) + Scalar(2, 3) == Scalar(3, 4)


def test_mul_examples():
    assert SQRT2 * SQRT2 == Scalar(2)
    p = Scalar(Fraction(3, 7), Fraction(-2, 5))
    assert ONE * p == p
    assert Scalar(1, 1) * Scalar(1, -1) == Scalar(-1)


def test_inv_examples():
    assert SQRT2.inv() == Scalar(0, HALF)
    assert Scalar(2).inv() == Scalar(HALF)


def test_inv_of_one_plus_sqrt2():
    x = Scalar(1, 1)
    y = x.inv()
    # multiply-back check first, then the frozen value
    assert x * y == ONE
    assert y == Scalar(-1, 1)


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_int_coercion():
    assert Scalar(3) + 1 == Scalar(4)
    assert 2 * SQRT2 == Scalar(0, 2)
    assert Scalar(5) - 5 == ZERO


def test_hash_agrees_with_equality():
    # Scalars equal to a rational behave as that rational in sets and dicts.
    assert len({Scalar(1), 1}) == 1
    assert len({Scalar(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert {Scalar(1): "x"}.get(1) == "x"
    assert {1: "x"}.get(Scalar(1)) == "x"
    assert {Scalar(Fraction(3, 4)): "y"}.get(Fraction(3, 4)) == "y"
    assert len({Scalar(1, 1), Scalar(1, 1), SQRT2, Scalar(0, 1)}) == 2


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_multiplicative_inverse(x):
    if x:
        assert x * x.inv() == ONE
        assert x.inv().inv() == x


@given(scalars)
def test_normalization_idempotent(x):
    # re-normalizing a stored value changes nothing
    rebuilt = Scalar(
        Fraction(3 * x.rat.numerator, 3 * x.rat.denominator),
        Fraction(2 * x.irr.numerator, 2 * x.irr.denominator),
    )
    assert rebuilt == x
    assert rebuilt.rat == x.rat and rebuilt.irr == x.irr


@given(scalars)
def test_json_round_trip(x):
    p, q, r, s = x.to_json()
    assert q > 0 and s > 0
    assert Fraction(p, q) == x.rat and Fraction(r, s) == x.irr
    assert Scalar.from_json([p, q, r, s]) == x


def test_json_rejects_nonpositive_denominator():
    with pytest.raises(ValueError):
        Scalar.from_json([1, 0, 0, 1])
    with pytest.raises(ValueError):
        Scalar.from_json([1, 1, 1, -2])


def test_str_forms():
    assert str(Scalar(3)) == "3"
    assert str(SQRT2) == "1*sqrt2"
    assert str(Scalar(1, -1)) == "1 - 1*sqrt2"
