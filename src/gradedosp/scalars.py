"""Exact scalars: the quadratic field Q(sqrt 2), held as integers.

The sqrt(2) factors in the creation/annihilation generators force the
scalar field up from Q; working in Q(sqrt 2) keeps every identity check
exact instead of rescaling the generators.

A Scalar is three Python ints (a, b, d) meaning (a + b*sqrt2)/d, kept in
the canonical form d > 0, gcd(a, b, d) == 1. Equal elements therefore
have equal triples, and d == 1 exactly when both parts are integers.
The generators and the ospB/ospD kernel bases are integral, so the
checks run almost entirely on d == 1 operands, where +, - and * are a
few integer operations with no gcd. Most of those operands are not
Scalars at all: a matrix entry is `int | Scalar` (see `gmatrix`), and the
integral ones are plain ints, so two of them multiply and add as ints. A
plain int operand of a Scalar's +, - or * is read as it is, with no
Scalar built for it. Denominators arise from inv(), which
echelon elimination calls to normalize pivots (and from user input such
as a basis with rational coefficients); an operation on such operands
reduces its result with one three-argument gcd, and inv() divides by the
field norm a^2 - 2*b^2.

Fraction appears only at the boundary: a part given as a Fraction, the
`rat`/`irr` properties, and the hash of a non-integral rational. The
`fractions` module is imported on the first of these uses, never with
this module: a Fraction operand is recognized without importing it,
since none can exist before `fractions` is imported. The wire form is
unchanged: [p, q, r, s] meaning p/q + (r/s)*sqrt2, each part in lowest
terms. Floats are rejected everywhere, since no float may decide a
check.
"""

from __future__ import annotations

import sys
from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

_new = object.__new__


class Scalar:
    """An element (a + b*sqrt2)/d of Q(sqrt 2): ints, d > 0, gcd(a, b, d) == 1.

    Construct it from its two parts, Scalar(rat, irr) = rat + irr*sqrt2,
    each an int or a Fraction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, rat: Fraction | int = 0, irr: Fraction | int = 0):
        if type(rat) is int and type(irr) is int:
            self._a, self._b, self._d = rat, irr, 1
            return
        p, q = _ratio(rat)
        r, s = _ratio(irr)
        # Both parts are in lowest terms, so over d = lcm(q, s) the triple
        # is already canonical.
        d = q // gcd(q, s) * s
        self._a, self._b, self._d = p * (d // q), r * (d // s), d

    @property
    def rat(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def irr(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._b, self._d)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: Scalar | int | Fraction) -> Scalar:
        if not isinstance(other, Scalar):
            if type(other) is int:
                # gcd(a + c*d, b, d) = gcd(a, b, d) = 1: still canonical.
                out = _new(Scalar)
                out._a, out._b, out._d = self._a + other * self._d, self._b, self._d
                return out
            other = _coerce(other)
            if other is None:
                return NotImplemented
        d, f = self._d, other._d
        if d == 1 and f == 1:
            out = _new(Scalar)
            out._a, out._b, out._d = self._a + other._a, self._b + other._b, 1
            return out
        if d == f:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: Scalar | int | Fraction) -> Scalar:
        if not isinstance(other, (Scalar, int)) and not _is_fraction(other):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar | int | Fraction) -> Scalar:
        if not isinstance(other, int) and not _is_fraction(other):
            return NotImplemented
        return (-self) + other

    def __neg__(self) -> Scalar:
        out = _new(Scalar)
        out._a, out._b, out._d = -self._a, -self._b, self._d
        return out

    def __mul__(self, other: Scalar | int | Fraction) -> Scalar:
        if not isinstance(other, Scalar):
            if type(other) is int:
                if self._d == 1:
                    out = _new(Scalar)
                    out._a, out._b, out._d = self._a * other, self._b * other, 1
                    return out
                return _reduced(self._a * other, self._b * other, self._d)
            other = _coerce(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        # (a + b*sqrt2)(c + e*sqrt2) = (ac + 2be) + (ae + bc)*sqrt2
        if self._d == 1 and other._d == 1:
            out = _new(Scalar)
            out._a, out._b, out._d = a * c + 2 * b * e, a * e + b * c, 1
            return out
        return _reduced(a * c + 2 * b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inv(self) -> Scalar:
        """Multiplicative inverse d*(a - b*sqrt2)/(a^2 - 2*b^2).

        The norm a^2 - 2*b^2 vanishes only at zero, since sqrt(2) is
        irrational.
        """
        a, b, d = self._a, self._b, self._d
        norm = a * a - 2 * b * b
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        if norm < 0:
            return _reduced(-d * a, d * b, -norm)
        return _reduced(d * a, -d * b, norm)

    def __truediv__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    # -- comparisons ----------------------------------------------------

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._d == 1 and self._b == 0 and self._a == other
        if _is_fraction(other):
            # With b == 0 the canonical a/d is in lowest terms.
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to a rational exactly when b == 0, so hash as one then.
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        from fractions import Fraction

        return hash(Fraction(self._a, self._d))

    # -- presentation / serialization ------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self.rat!s}, {self.irr!s})"

    def __str__(self) -> str:
        rat, irr = self.rat, self.irr
        if not irr:
            return str(rat)
        if not rat:
            return f"{irr}*sqrt2"
        sign = "+" if irr > 0 else "-"
        return f"{rat} {sign} {abs(irr)}*sqrt2"

    def to_json(self) -> list[int]:
        """Wire form [p, q, r, s] meaning p/q + (r/s)*sqrt2, in lowest
        terms with q, s > 0."""
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return [a, 1, b, 1]
        g, h = gcd(a, d), gcd(b, d)
        return [a // g, d // g, b // h, d // h]

    @classmethod
    def from_json(cls, data) -> Scalar:
        p, q, r, s = data
        if not all(type(x) is int for x in (p, q, r, s)):
            raise TypeError(f"scalar parts must be integers: {data}")
        if q <= 0 or s <= 0:
            raise ValueError(f"scalar denominators must be positive: {data}")
        return _reduced(p * s, r * q, q * s)


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of an int or Fraction part; anything else,
    a float in particular, is refused."""
    if isinstance(value, int):
        return int(value), 1
    if _is_fraction(value):
        return value.numerator, value.denominator
    raise TypeError(f"a scalar part must be an int or a Fraction, got {type(value).__name__}")


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The canonical Scalar (a + b*sqrt2)/d, for d > 0."""
    g = gcd(a, b, d)
    out = _new(Scalar)
    if g == 1:
        out._a, out._b, out._d = a, b, d
    else:
        out._a, out._b, out._d = a // g, b // g, d // g
    return out


def _coerce(value) -> Scalar | None:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, int) or _is_fraction(value):
        return Scalar(value)
    return None


def _is_fraction(value) -> bool:
    """Whether `value` is a Fraction, without importing `fractions`: no
    Fraction exists before that module is."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def as_int(x: int | Scalar) -> int | Scalar:
    """x as a plain int when it is an integer, else x itself.

    Plain ints mix with Scalars under +, -, * and ==, so a loop fed these
    values runs unchanged, with int arithmetic wherever both operands are
    integers; a GradedMatrix built from them keeps them as ints.
    """
    if type(x) is int:
        return x
    return x._a if x._d == 1 and not x._b else x


def over_sqrt2(x: int | Scalar) -> int | None:
    """x / sqrt2 as a plain int when x is an integral multiple of sqrt2
    (rational part 0, denominator 1), else None."""
    if type(x) is int:
        return None if x else 0
    return x._b if x._d == 1 and not x._a else None


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT2 = Scalar(0, 1)
