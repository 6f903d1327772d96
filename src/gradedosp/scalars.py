"""Exact scalars: rationals and the quadratic extension Q(sqrt 2).

The sqrt(2) factors in the creation/annihilation generators force the
scalar field up from Q; working in Q(sqrt 2) keeps every identity check
exact instead of rescaling the generators.
"""

from __future__ import annotations

from fractions import Fraction


class Scalar:
    """An element rat + irr*sqrt(2) of Q(sqrt 2), both parts exact rationals."""

    __slots__ = ("rat", "irr")

    def __init__(self, rat: Fraction | int = 0, irr: Fraction | int = 0):
        self.rat = rat if isinstance(rat, Fraction) else Fraction(rat)
        self.irr = irr if isinstance(irr, Fraction) else Fraction(irr)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.rat + other.rat, self.irr + other.irr)

    __radd__ = __add__

    def __sub__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.rat - other.rat, self.irr - other.irr)

    def __rsub__(self, other: Scalar | int | Fraction) -> Scalar:
        return (-self) + other

    def __neg__(self) -> Scalar:
        return Scalar(-self.rat, -self.irr)

    def __mul__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # (a + b*sqrt2)(c + d*sqrt2) = (ac + 2bd) + (ad + bc)*sqrt2
        return Scalar(
            self.rat * other.rat + 2 * self.irr * other.irr,
            self.rat * other.irr + self.irr * other.rat,
        )

    __rmul__ = __mul__

    def inv(self) -> Scalar:
        """Multiplicative inverse via the field norm rat^2 - 2*irr^2.

        The norm vanishes only at zero, since sqrt(2) is irrational.
        """
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        norm = self.rat * self.rat - 2 * self.irr * self.irr
        return Scalar(self.rat / norm, -self.irr / norm)

    def __truediv__(self, other: Scalar | int | Fraction) -> Scalar:
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    # -- comparisons ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.rat) or bool(self.irr)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            return self.rat == other.rat and self.irr == other.irr
        if isinstance(other, (int, Fraction)):
            return self.irr == 0 and self.rat == other
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to a rational exactly when irr == 0, so hash as one then.
        return hash(self.rat) if not self.irr else hash((self.rat, self.irr))

    # -- presentation / serialization ------------------------------------

    def __repr__(self) -> str:
        return f"Scalar({self.rat!s}, {self.irr!s})"

    def __str__(self) -> str:
        if not self.irr:
            return str(self.rat)
        if not self.rat:
            return f"{self.irr}*sqrt2"
        sign = "+" if self.irr > 0 else "-"
        return f"{self.rat} {sign} {abs(self.irr)}*sqrt2"

    def to_json(self) -> list[int]:
        """Wire form [p, q, r, s] meaning p/q + (r/s)*sqrt2, q, s > 0."""
        return [
            self.rat.numerator,
            self.rat.denominator,
            self.irr.numerator,
            self.irr.denominator,
        ]

    @classmethod
    def from_json(cls, data) -> Scalar:
        p, q, r, s = (int(x) for x in data)
        if q <= 0 or s <= 0:
            raise ValueError(f"scalar denominators must be positive: {data}")
        return cls(Fraction(p, q), Fraction(r, s))


def _coerce(value) -> Scalar | None:
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar(value)
    return None


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT2 = Scalar(0, 1)
