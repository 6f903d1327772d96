"""Graded square matrices over Q(sqrt 2).

Entries are stored sparsely (only nonzeros), semantics are dense. An entry
is a plain int or a Scalar: a matrix built from integers, such as a matrix
unit, J or an integral kernel basis, holds ints, so its products run on
int arithmetic. A matrix carries a signature assigning a degree to each
index; the position (i, j) has degree d(i) + d(j), and a matrix is
homogeneous when all its nonzero entries sit at positions of one degree.

`_product` is the one sparse product loop of the package, `_axpy` its one add loop.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .grading import Degree, Signature, check_degree, deg_add, dot, trace_sign
from .scalars import ZERO, Scalar, as_int

Position = tuple[int, int]
Entries = dict[Position, int | Scalar]


class GradedMatrix:
    """Immutable-by-convention sparse matrix with a degree signature.

    Each entry is an `int | Scalar`. The constructor and `from_json` store
    an integral value as an int; arithmetic keeps whatever type its
    operands give, so an integral Scalar may still sit beside ints. No
    observable result depends on the type that holds an entry: `==` and
    hashing agree between an int and the equal Scalar, and `to_json`
    writes an int v as the Scalar wire form [v, 1, 0, 1].

    `_index` is None until the matrix is first bracketed; `graded_bracket`
    then stores on it what it reads off an operand (see `_index_of`) and
    reuses it from then on. So the entries of a matrix must not change
    once it exists: nothing writes to `_entries` after construction."""

    __slots__ = ("signature", "_entries", "_index")

    def __init__(self, signature: Signature, entries=None):
        self.signature = tuple(signature)
        m = len(self.signature)
        if m == 0:
            raise ValueError("signature must be nonempty")
        for d in self.signature:
            check_degree(d)
        cleaned: Entries = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (i, j), value in items:
                if type(i) is not int or type(j) is not int:
                    raise TypeError(f"entry positions must be integers, got ({i!r}, {j!r})")
                if not (1 <= i <= m and 1 <= j <= m):
                    raise IndexError(f"position ({i}, {j}) outside 1..{m}")
                if type(value) is not int:
                    value = as_int(value if isinstance(value, Scalar) else Scalar(value))
                if value:
                    cleaned[(i, j)] = value
        self._entries = cleaned
        self._index = None

    @classmethod
    def _make(cls, signature: Signature, entries: Entries) -> GradedMatrix:
        # Internal fast path: entries already validated and zero-pruned.
        out = object.__new__(cls)
        out.signature = signature
        out._entries = entries
        out._index = None
        return out

    @classmethod
    def zero(cls, signature: Signature) -> GradedMatrix:
        return cls(signature)

    @classmethod
    def identity(cls, signature: Signature) -> GradedMatrix:
        return cls(signature, {(i, i): 1 for i in range(1, len(signature) + 1)})

    # -- inspection -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.signature)

    def entry(self, i: int, j: int) -> int | Scalar:
        return self._entries.get((i, j), 0)

    def items(self) -> Iterator[tuple[Position, int | Scalar]]:
        return iter(self._entries.items())

    def is_zero(self) -> bool:
        return not self._entries

    def degree_of(self) -> Optional[Degree]:
        """The common degree of all nonzero entries; (0,0) for the zero
        matrix by convention; None when the matrix is not homogeneous."""
        if not self._entries:
            return (0, 0)
        sig = self.signature
        degree = None
        for i, j in self._entries:
            d = deg_add(sig[i - 1], sig[j - 1])
            if degree is None:
                degree = d
            elif d != degree:
                return None
        return degree

    # -- linear structure --------------------------------------------------

    def _check_compatible(self, other: GradedMatrix) -> None:
        if not isinstance(other, GradedMatrix):
            raise TypeError(f"expected GradedMatrix, got {type(other).__name__}")
        if self.signature != other.signature:
            raise ValueError("signature mismatch")

    def __add__(self, other: GradedMatrix) -> GradedMatrix:
        self._check_compatible(other)
        acc = dict(self._entries)
        _axpy(acc, 1, other._entries)
        return GradedMatrix._make(self.signature, acc)

    def __sub__(self, other: GradedMatrix) -> GradedMatrix:
        self._check_compatible(other)
        acc = dict(self._entries)
        _axpy(acc, -1, other._entries)
        return GradedMatrix._make(self.signature, acc)

    def __neg__(self) -> GradedMatrix:
        return GradedMatrix._make(
            self.signature, {pos: -v for pos, v in self._entries.items()}
        )

    def scale(self, factor: Scalar | int) -> GradedMatrix:
        if type(factor) is not int and not isinstance(factor, Scalar):
            factor = Scalar(factor)
        if not factor:
            return GradedMatrix._make(self.signature, {})
        return GradedMatrix._make(
            self.signature, {pos: factor * v for pos, v in self._entries.items()}
        )

    def __rmul__(self, factor) -> GradedMatrix:
        if isinstance(factor, (Scalar, int)):
            return self.scale(factor)
        return NotImplemented

    def __matmul__(self, other: GradedMatrix) -> GradedMatrix:
        self._check_compatible(other)
        acc: Entries = {}
        _product(acc, self._entries, _rows_of(other._entries))
        return GradedMatrix._make(self.signature, acc)

    # -- graded operations ---------------------------------------------------

    def graded_transpose(self) -> GradedMatrix:
        """Degree-aware transpose from the dual-space pairing.

        The entry at (i, j) of position degree g moves to (j, i) with sign
        (-1)^{dot(g, d(i))}. On the gl block layout this reproduces the
        familiar block sign table; defined entrywise it works for any
        index ordering, which the orthosymplectic layout needs.
        """
        sig = self.signature
        out: Entries = {}
        for (i, j), v in self._entries.items():
            g = deg_add(sig[i - 1], sig[j - 1])
            out[(j, i)] = -v if dot(g, sig[i - 1]) else v
        return GradedMatrix._make(sig, out)

    def supertrace(self) -> Scalar:
        """Signed trace: +1 on diagonal degrees (0,0)/(1,1), -1 on the rest.

        Always a Scalar, even on int entries: it is the sl membership
        residual, and closure and membership counterexamples call its
        `to_json()`."""
        total = ZERO
        sig = self.signature
        for (i, j), v in self._entries.items():
            if i == j:
                total = total + v if trace_sign(sig[i - 1]) > 0 else total - v
        return total

    # -- equality / presentation ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedMatrix):
            return NotImplemented
        return self.signature == other.signature and self._entries == other._entries

    __hash__ = None  # mutable container inside

    def __repr__(self) -> str:
        body = ", ".join(
            f"({i},{j}): {v}" for (i, j), v in sorted(self._entries.items())
        )
        return f"GradedMatrix(size={self.size}, {{{body}}})"

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "signature": [list(d) for d in self.signature],
            "entries": [
                [i, j, v, 1, 0, 1] if type(v) is int else [i, j, *v.to_json()]
                for (i, j), v in sorted(self._entries.items())
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> GradedMatrix:
        size, degrees, rows = data["size"], data["signature"], data["entries"]
        ints = [size, *(x for d in degrees for x in d), *(x for row in rows for x in row[:2])]
        if not all(type(x) is int for x in ints):
            raise TypeError(f"size, signature and entry positions must be integers: {data}")
        signature = tuple((a, b) for a, b in degrees)
        if len(signature) != size:
            raise ValueError("signature length does not match size")
        entries = {}
        for i, j, p, q, r, s in rows:
            entries[(i, j)] = Scalar.from_json([p, q, r, s])
        return cls(signature, entries)


def elem(signature: Signature, i: int, j: int) -> GradedMatrix:
    """The matrix with a single 1 at (i, j); homogeneous of degree d(i)+d(j)."""
    m = len(signature)
    if not (1 <= i <= m and 1 <= j <= m):
        raise IndexError(f"position ({i}, {j}) outside 1..{m}")
    return GradedMatrix._make(tuple(signature), {(i, j): 1})


Rows = dict[int, list[tuple[int, int | Scalar]]]


def _rows_of(entries: Entries) -> Rows:
    """The row index {k: [(l, w), ...]} of the matrix with these entries."""
    rows: Rows = {}
    for (k, l), w in entries.items():
        rows.setdefault(k, []).append((l, w))
    return rows


def _product(acc: Entries, entries: Entries, rows: Rows) -> None:
    """Add a @ b into `acc`, given the entries of a and the row index of b.

    The one product loop of the package, as `_axpy` is its one add loop:
    `@` and `_bracket_into`, which serves both `graded_bracket` and the
    relation kernel of `parastat`, run it. Only the products with J of
    `algebras.membership_residual` do not: J has one entry per row and
    column, so that residual adds both in one pass of its own. An entry
    that sums to zero is dropped, so `acc` holds only nonzeros; a minus
    sign rides on `entries` negated once by the caller.
    """
    for (i, j), v in entries.items():
        hits = rows.get(j)
        if not hits:
            continue
        for l, w in hits:
            key = (i, l)
            cur = acc.get(key)
            s = v * w if cur is None else cur + v * w
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)


def _axpy(out: dict, x: int | Scalar, vec: dict) -> None:
    """out += x * vec in place for sparse dicts, dropping entries that
    cancel; x = -1 makes matrix `-`, and any caller subtracts by negating x."""
    for key, v in vec.items():
        cur = out.get(key)
        p = x * v if cur is None else cur + x * v
        if p:
            out[key] = p
        else:
            out.pop(key, None)


class _Operand:
    """A factor of a bracket: its entries, the same entries negated (the
    minus sign of a commutator) and its row index."""

    __slots__ = ("entries", "negated", "rows")

    def __init__(self, entries: dict):
        self.entries = entries
        self.negated = {pos: -v for pos, v in entries.items()}
        self.rows = _rows_of(entries)


def _bracket_into(acc: dict, kind: str, x: _Operand, y: _Operand) -> None:
    """Add x y - y x ("[]") or x y + y x ("{}") into `acc`."""
    _product(acc, x.entries, y.rows)
    _product(acc, y.negated if kind == "[]" else y.entries, x.rows)


def _index_of(mat: GradedMatrix) -> tuple:
    """Build and store the bracket index of `mat`: its homogeneous parts,
    as (degree, `_Operand`) pairs, and its row and column masks, ints with
    bit i set for each row, or column, i that holds an entry."""
    sig = mat.signature
    parts: dict[Degree, Entries] = {}
    row_mask = col_mask = 0
    for (i, j), v in mat._entries.items():
        parts.setdefault(deg_add(sig[i - 1], sig[j - 1]), {})[i, j] = v
        row_mask |= 1 << i
        col_mask |= 1 << j
    mat._index = (tuple((d, _Operand(e)) for d, e in parts.items()), row_mask, col_mask)
    return mat._index


def commutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Plain AB - BA, ignoring the grading."""
    return (a @ b) - (b @ a)


def anticommutator(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """Plain AB + BA, ignoring the grading."""
    return (a @ b) + (b @ a)


def graded_bracket(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """The bracket x*y - (-1)^{dot(dx,dy)} y*x, extended bilinearly.

    Each operand is split into its homogeneous parts, and each pair of
    parts adds x*y -/+ y*x by `_bracket_into`, the sign chosen once per
    pair by `dot` of the two part degrees. A nonzero operand's parts and
    masks are built by `_index_of` the first time it is bracketed and
    read from its `_index` after that. When no column of either operand
    meets a row of the other, a*b and b*a have no term and the bracket is
    zero without a product; `meeting_pairs` lists the pairs of a sequence
    that this test does not decide.
    """
    a._check_compatible(b)
    sig = a.signature
    if not a._entries or not b._entries:
        return GradedMatrix._make(sig, {})
    parts_a, rows_a, cols_a = a._index or _index_of(a)
    parts_b, rows_b, cols_b = b._index or _index_of(b)
    if not (cols_a & rows_b or cols_b & rows_a):
        return GradedMatrix._make(sig, {})
    acc: Entries = {}
    for da, x in parts_a:
        for db, y in parts_b:
            _bracket_into(acc, "{}" if dot(da, db) else "[]", x, y)
    return GradedMatrix._make(sig, acc)


def meeting_pairs(mats: Sequence[GradedMatrix]) -> list[list[int]]:
    """For each a, in increasing order, the b whose supports meet those of
    a: some column of a is a row of b, or some column of b a row of a.
    These are exactly the pairs that the mask test of `graded_bracket`
    does not decide; the bracket of every other pair is zero, as a*b and
    b*a have no term. The matrices are indexed once by the rows and once
    by the columns that hold their entries, so the work grows with the
    number of meeting pairs, not with n^2."""
    supports = []
    by_row: dict[int, list[int]] = {}
    by_col: dict[int, list[int]] = {}
    for k, mat in enumerate(mats):
        rows = {i for i, _ in mat._entries}
        cols = {j for _, j in mat._entries}
        supports.append((rows, cols))
        for i in rows:
            by_row.setdefault(i, []).append(k)
        for j in cols:
            by_col.setdefault(j, []).append(k)
    pairs = []
    for rows, cols in supports:
        meet: set[int] = set()
        for j in cols:
            meet.update(by_row.get(j, ()))
        for i in rows:
            meet.update(by_col.get(i, ()))
        pairs.append(sorted(meet))
    return pairs
