"""Z2 x Z2 degrees, the bilinear sign form, and index signatures.

A degree is a pair of bits labelling one of the four homogeneous
components. A signature assigns a degree to every row/column index of a
matrix and thereby fixes the degree of each entry position.
"""

from __future__ import annotations

Degree = tuple[int, int]
Signature = tuple[Degree, ...]

# The four degrees in the block order used by the gl matrix layout.
DEGREES: tuple[Degree, ...] = ((0, 0), (1, 1), (1, 0), (0, 1))


def check_degree(d) -> None:
    """Refuse anything but one of the four `DEGREES`: TypeError for a pair
    with a component that is not an int (a bool or a float), ValueError else."""
    if type(d) is tuple and len(d) == 2 and not all(type(x) is int for x in d):
        raise TypeError(f"degree components must be integers, got {d!r}")
    if d not in DEGREES:
        raise ValueError(f"a degree is a pair of bits, got {d!r}")


def deg_add(a: Degree, b: Degree) -> Degree:
    """Componentwise sum mod 2."""
    return ((a[0] + b[0]) & 1, (a[1] + b[1]) & 1)


def dot(a: Degree, b: Degree) -> int:
    """Symmetric form a1*b1 + a2*b2 mod 2 — the exponent in every bracket sign."""
    return (a[0] & b[0]) ^ (a[1] & b[1])


def trace_sign(d: Degree) -> int:
    """+1 on degrees (0,0)/(1,1), -1 on (1,0)/(0,1): the supertrace weights."""
    return 1 if d[0] == d[1] else -1


def _check_params(m1: int, m2: int, n1: int, n2: int) -> None:
    for name, value in (("m1", m1), ("m2", m2), ("n1", n1), ("n2", n2)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def signature_gl(m1: int, m2: int, n1: int, n2: int) -> Signature:
    """Degrees of the gl(m1,m2|n1,n2) index layout.

    Block order (0,0), (1,1), (1,0), (0,1) — the order every block-form
    identity assumes, not lexicographic.
    """
    _check_params(m1, m2, n1, n2)
    if m1 + m2 + n1 + n2 == 0:
        raise ValueError("gl signature needs at least one index")
    return (
        ((0, 0),) * m1 + ((1, 1),) * m2 + ((1, 0),) * n1 + ((0, 1),) * n2
    )


def signature_osp(m1: int, m2: int, n1: int, n2: int) -> Signature:
    """Degrees of the orthosymplectic index layout of size 2m1+2m2+1+2n1+2n2.

    Blocks of sizes m1, m2, m1, m2, 1, n1, n2, n1, n2 carrying degrees
    (0,0), (1,1), (0,0), (1,1), (0,0), (1,0), (0,1), (1,0), (0,1).
    All-zero parameters are legal and give the trivial 1x1 layout.
    """
    _check_params(m1, m2, n1, n2)
    orth = ((0, 0),) * m1 + ((1, 1),) * m2
    symp = ((1, 0),) * n1 + ((0, 1),) * n2
    return orth + orth + ((0, 0),) + symp + symp
