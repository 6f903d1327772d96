"""Field arithmetic in Q(sqrt 2): everything exact, everything normalized."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gradedosp.gmatrix import GradedMatrix, elem
from gradedosp.scalars import ONE, SQRT2, ZERO, Scalar
from helpers import FractionPair

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


def test_floats_are_refused():
    # A float would put rounding on a path that decides a check.
    sig = ((0, 0), (1, 1))
    for build in (
        lambda: Scalar(0.1),
        lambda: Scalar(1, 0.5),
        lambda: Scalar("1"),
        lambda: Scalar(Fraction(1, 2), 2.0),
        lambda: Scalar.from_json([0.5, 1, 0, 1]),
        lambda: Scalar.from_json([1, 2, 0, 1.0]),
        lambda: GradedMatrix(sig, {(1, 1): 0.5}),
        lambda: elem(sig, 1, 2).scale(0.5),
        lambda: Scalar(1) + 0.5,
        lambda: 0.5 * SQRT2,
        lambda: Scalar(1) / 2.0,
    ):
        with pytest.raises(TypeError):
            build()
    # A refused subtraction names its own operator, not the addition it runs on.
    for subtract in (lambda: Scalar(1) - 0.5, lambda: 0.5 - SQRT2):
        with pytest.raises(TypeError, match="for -:"):
            subtract()


def test_fraction_operands_at_the_boundary():
    # `scalars` imports `fractions` on first use only; a Fraction is still
    # read as one, on either side of a subtraction.
    third = Fraction(1, 3)
    x = Scalar(third, 2)
    assert x.rat == third and type(x.rat) is Fraction and x.irr == 2
    assert hash(Scalar(third)) == hash(third)
    for difference, expected in ((Scalar(1) - HALF, HALF), (HALF - Scalar(1), -HALF)):
        assert type(difference) is Scalar and difference == expected


def test_integral_paths_build_no_fraction(monkeypatch):
    x, y = Scalar(3, -2), Scalar(-5, 7)
    built = []
    make = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return make(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    results = [x + y, x - y, x * y, -x, x + 1, 2 * x, x == y, x == 3, Scalar(4) == 4]
    monkeypatch.undo()
    assert built == []
    assert results[:6] == [Scalar(-2, 5), Scalar(8, -9), Scalar(-43, 31), Scalar(-3, 2), Scalar(4, -2), Scalar(6, -4)]
    assert results[6:] == [False, False, True]


# -- differential test against the Fraction-pair reference -----------------

WIDE = 2**80
parts = st.one_of(
    st.integers(-5, 5).map(Fraction),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    st.builds(Fraction, st.integers(-WIDE, WIDE), st.integers(1, WIDE)),
)
pairs = st.tuples(parts, parts)


def _canonical(x: Scalar) -> None:
    a, b, d = x._a, x._b, x._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert gcd(a, b, d) == 1
    assert (d == 1) == (x.rat.denominator == 1 and x.irr.denominator == 1)


def _agrees(x: Scalar, ref: FractionPair) -> None:
    _canonical(x)
    assert (x.rat, x.irr) == (ref.rat, ref.irr)


@settings(max_examples=300, deadline=None)
@given(pairs, pairs)
def test_matches_the_fraction_pair_reference(p, q):
    x, y = Scalar(*p), Scalar(*q)
    rx, ry = FractionPair(*p), FractionPair(*q)
    _agrees(x, rx)
    for op in (operator.add, operator.sub, operator.mul):
        _agrees(op(x, y), op(rx, ry))
        # A plain int or a Fraction right operand is read as that rational.
        for other in (q[0].numerator, q[0]):
            _agrees(op(x, other), op(rx, FractionPair(other)))
    _agrees(-x, -rx)
    assert bool(x) == bool(rx)
    assert (x == y) == (rx == ry)
    assert x == Scalar(*p)
    if y:
        _agrees(y.inv(), ry.inv())
        _agrees(x / y, rx / ry)
    # Equal to a rational exactly when the reference is, with its hash.
    if not rx.irr:
        assert x == rx.rat and hash(x) == hash(rx.rat) == hash(rx)
        if rx.rat.denominator == 1:
            assert x == int(rx.rat)
    else:
        assert x != rx.rat
    assert hash(x) == hash(Scalar(*p))


@given(pairs, st.integers(1, WIDE), st.integers(1, WIDE))
def test_json_round_trip_from_unreduced_input(p, k, l):
    rat, irr = p
    data = [rat.numerator * k, rat.denominator * k, irr.numerator * l, irr.denominator * l]
    x = Scalar.from_json(data)
    _canonical(x)
    assert x.to_json() == [rat.numerator, rat.denominator, irr.numerator, irr.denominator]
    assert x == Scalar(rat, irr) and hash(x) == hash(Scalar(rat, irr))
