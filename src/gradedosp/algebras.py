"""Constructors and membership tests for the matrix algebras.

Families: gl/sl(m1,m2|n1,n2) on the block signature, and the two
orthosymplectic families ospB = osp(2m1+1,2m2|2n1,2n2) and
ospD = osp(2m1,2m2|2n1,2n2) cut out of the graded matrix algebra by
A^T J + J A = 0 (graded supertranspose, fixed bilinear form J).

The canonical basis is the kernel, the null space of the membership
residual on the matrix units, exact over Q(sqrt 2); the spanning matrices
s_ij serve the membership check.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from functools import cached_property, partial
from itertools import accumulate, permutations, product
from math import lcm
from typing import Callable, Iterator, Optional, Sequence

from .gmatrix import GradedMatrix, _axpy, _rows_of, elem, graded_bracket, meeting_pairs
from .grading import Degree, Signature, deg_add, dot, signature_gl, signature_osp
from .report import CheckReport
from .scalars import Scalar, as_int


class Family(str, Enum):
    GL = "gl"
    SL = "sl"
    OSP_B = "ospB"
    OSP_D = "ospD"


_ORTHOSYMPLECTIC = (Family.OSP_B, Family.OSP_D)


_PARAMS = ("m1", "m2", "n1", "n2")


class AlgebraSpec:
    """Family tag plus the four grading parameters; immutable, compared and
    hashed by value."""

    __slots__ = ("family", *_PARAMS)

    def __init__(self, family: Family, m1: int = 0, m2: int = 0, n1: int = 0, n2: int = 0):
        init = object.__setattr__
        init(self, "family", Family(family))
        for name, value in zip(_PARAMS, (m1, m2, n1, n2)):
            if type(value) is not int or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
            init(self, name, value)
        if self.size < 1:
            raise ValueError(
                f"{self.family.value}({self.m1},{self.m2},{self.n1},{self.n2}) has matrix size 0"
            )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen AlgebraSpec")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen AlgebraSpec")

    def _fields(self) -> tuple:
        return (self.family, self.m1, self.m2, self.n1, self.n2)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return (self.__class__, self._fields())

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(family={self.family!r}, m1={self.m1!r}, "
            f"m2={self.m2!r}, n1={self.n1!r}, n2={self.n2!r})"
        )

    @property
    def size(self) -> int:
        k = self.m1 + self.m2
        n = self.n1 + self.n2
        if self.family in (Family.GL, Family.SL):
            return k + n
        if self.family is Family.OSP_B:
            return 2 * k + 1 + 2 * n
        return 2 * k + 2 * n

    def signature(self) -> Signature:
        if self.family in (Family.GL, Family.SL):
            return signature_gl(self.m1, self.m2, self.n1, self.n2)
        if self.family is Family.OSP_B:
            return signature_osp(self.m1, self.m2, self.n1, self.n2)
        # ospD: the osp layout with the middle index deleted.
        orth = ((0, 0),) * self.m1 + ((1, 1),) * self.m2
        symp = ((1, 0),) * self.n1 + ((0, 1),) * self.n2
        return orth + orth + symp + symp

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "m1": self.m1,
            "m2": self.m2,
            "n1": self.n1,
            "n2": self.n2,
        }

    @classmethod
    def from_json(cls, data: dict) -> AlgebraSpec:
        params = [data[name] for name in _PARAMS]
        if not all(type(x) is int for x in params):
            raise TypeError(f"spec parameters must be integers: {params}")
        return cls(Family(data["family"]), *params)


class Basis:
    """Elements with their labels. Nothing here checks them: independence is
    decided by `rank_of` and the `structure_constants` gate, membership by
    `verify_membership`."""

    __slots__ = ("spec", "elements", "labels")

    def __init__(self, spec: AlgebraSpec, elements: list[GradedMatrix], labels: list[str]):
        self.spec = spec
        self.elements = elements
        self.labels = labels

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "elements": [
                {"label": label, **mat.to_json()}
                for label, mat in zip(self.labels, self.elements)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> Basis:
        """The basis that `to_json` wrote, its spec and elements rebuilt by
        `AlgebraSpec.from_json` and `GradedMatrix.from_json`, so integral
        entries come back as ints. A number that is not an integer, or a
        label that is not a string, raises TypeError; a missing key, a
        signature whose length is not the size, an entry position outside
        1..size, or an element whose signature is not the spec's, raises
        ValueError."""
        try:
            spec = AlgebraSpec.from_json(data["spec"])
            items = data["elements"]
            labels = [item["label"] for item in items]
            elements = [GradedMatrix.from_json(item) for item in items]
        except KeyError as missing:
            raise ValueError(f"basis JSON lacks the key {missing}") from None
        except IndexError as outside:
            raise ValueError(f"basis JSON has an entry {outside}") from None
        if not all(type(label) is str for label in labels):
            raise TypeError(f"basis labels must be strings: {labels}")
        sig = spec.signature()
        for label, mat in zip(labels, elements):
            if mat.signature != sig:
                raise ValueError(f"element {label} does not have the signature of the spec")
        return cls(spec, elements, labels)


def _require_osp(spec: AlgebraSpec, what: str) -> None:
    if spec.family not in _ORTHOSYMPLECTIC:
        raise ValueError(f"{what} requires an orthosymplectic family, got {spec.family.value}")


def j_matrix(spec: AlgebraSpec) -> GradedMatrix:
    """The defining bilinear form: antidiagonal identities on the orthogonal
    indices (plus a middle 1 for ospB) and [[0, I], [-I, 0]] on the
    symplectic indices."""
    _require_osp(spec, "j_matrix")
    k = spec.m1 + spec.m2
    n = spec.n1 + spec.n2
    entries: dict = {}
    for i in range(1, k + 1):
        entries[(i, k + i)] = 1
        entries[(k + i, i)] = 1
    if spec.family is Family.OSP_B:
        mid = 2 * k + 1
        entries[(mid, mid)] = 1
        off = mid
    else:
        off = 2 * k
    for i in range(1, n + 1):
        entries[(off + i, off + n + i)] = 1
        entries[(off + n + i, off + i)] = -1
    return GradedMatrix(spec.signature(), entries)


def u_matrix(spec: AlgebraSpec) -> GradedMatrix:
    """Signs u_ij = (-1)^{d(i).d(j)} over the full index grid."""
    _require_osp(spec, "u_matrix")
    sig = spec.signature()
    m = len(sig)
    entries = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            entries[(i, j)] = -1 if dot(sig[i - 1], sig[j - 1]) else 1
    return GradedMatrix(sig, entries)


# The parity of a two-bit int.
_PARITY = (0, 1, 1, 0)


def membership_residual(spec: AlgebraSpec) -> Callable[[GradedMatrix], object]:
    """The map A -> what must vanish for A to be a member: A^T J + J A for
    the orthosymplectic families, the supertrace for sl, None for gl.

    The signature and two indexes of J, by row and by column, are built
    once here, in O(m), for a caller testing many matrices. J is a signed
    permutation matrix, with one entry in each row and each column, so an
    entry v at (i, c) of A adds one term to A^T J, at (c, l) for J's entry
    (i, l), and one to J A, at (k, c) for J's entry (k, i): the residual
    takes one pass over A's entries. The graded transpose moves v to
    (c, i) with sign (-1)^{dot(d(i) + d(c), d(i))}; with a degree coded as
    the two-bit int 2 d_1 + d_2, that exponent is the parity of
    d(i) & ~d(c).
    """
    sig = spec.signature()
    if spec.family is Family.GL:
        condition = lambda mat: None
    elif spec.family is Family.SL:
        condition = GradedMatrix.supertrace
    else:
        j = j_matrix(spec)._entries
        j_row = {i: (l, w) for (i, l), w in j.items()}
        j_col = {i: (k, w) for (k, i), w in j.items()}
        code = [0, *(2 * d1 + d2 for d1, d2 in sig)]

        def condition(mat: GradedMatrix) -> GradedMatrix:
            acc: dict = {}
            for (i, c), v in mat._entries.items():
                l, w = j_row[i]
                k, x = j_col[i]
                t = -v if _PARITY[code[i] & ~code[c]] else v
                for key, term in (((c, l), t * w), ((k, c), x * v)):
                    cur = acc.get(key)
                    s = term if cur is None else cur + term
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
            return GradedMatrix._make(sig, acc)

    def residual(mat: GradedMatrix):
        if mat.signature != sig:
            raise ValueError("matrix signature does not match the spec")
        return condition(mat)

    return residual


def _vanishes(residual) -> bool:
    """Whether a membership residual vanishes: a matrix for the
    orthosymplectic families, told apart by its type, the supertrace for
    sl, None for gl."""
    if residual is None:
        return True
    return residual.is_zero() if isinstance(residual, GradedMatrix) else not residual


def is_member(spec: AlgebraSpec, mat: GradedMatrix) -> bool:
    """Exact membership test against the spec's defining condition."""
    return _vanishes(membership_residual(spec)(mat))


# -- exact echelon machinery -------------------------------------------------

# A sparse vector over matrix positions (i, j), whose row-major order is the
# coordinate order; positions past the matrix, (m + 1, k), are extra tags,
# and the constraint rows of `kernel_basis` key (p, q) as (-p, -q).
Vector = dict[tuple[int, int], int | Scalar]


class SpanReducer:
    """Incrementally maintained reduced echelon form of sparse vectors.

    Vectors are keyed by matrix position, so a matrix enters as
    `dict(mat.items())`, or by basis index for coordinate vectors; values
    are `int | Scalar`, as matrix entries are. Pivots are least nonzero keys (for positions,
    the leftmost in row-major order), normalized to 1; stored rows are
    mutually reduced, so processing order of the pivots never matters.
    """

    def __init__(self):
        self._rows: list[Vector] = []
        self._pivots: dict[tuple[int, int], int] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[tuple[int, int]]:
        return sorted(self._pivots)

    def residual(self, vec: Vector) -> Vector:
        # Every row vanishes on the other rows' pivots, so subtracting one
        # row leaves the other pivot entries as they were in vec.
        out = dict(vec)
        pivots = self._pivots
        for pivot, c in vec.items():
            rix = pivots.get(pivot)
            if rix is not None and c:
                _axpy(out, -c, self._rows[rix])
        return out

    def insert(self, vec: Vector) -> bool:
        """Reduce vec against the current rows; absorb it if independent."""
        red = self.residual(vec)
        if not red:
            return False
        pivot = min(red)
        lead = red[pivot]
        if isinstance(lead, Scalar):
            inv = lead.inv()
        else:
            inv = lead if lead in (1, -1) else Scalar(lead).inv()
        row = {coord: val * inv for coord, val in red.items()}
        for other in self._rows:
            c = other.get(pivot)
            if c:
                _axpy(other, -c, row)
        self._pivots[pivot] = len(self._rows)
        self._rows.append(row)
        return True

    def rows_by_pivot(self) -> list[Vector]:
        return [dict(self._rows[rix]) for _, rix in sorted(self._pivots.items())]


def _check_common_signature(matrices: Sequence[GradedMatrix]) -> None:
    if len({mat.signature for mat in matrices}) > 1:
        raise ValueError("signature mismatch across matrices")


def rank_of(matrices: Sequence[GradedMatrix]) -> int:
    """Rank of the span, by exact echelon reduction in input order."""
    _check_common_signature(matrices)
    reducer = SpanReducer()
    for mat in matrices:
        reducer.insert(dict(mat.items()))
    return reducer.rank


# -- the two basis constructions ------------------------------------------------

def s_matrices(spec: AlgebraSpec) -> Iterator[tuple[int, int, GradedMatrix]]:
    """Every spanning matrix s_ij = sum_k J_ik e_kj - u_ij sum_k J_jk e_ki
    as (i, j, s_ij), in lexicographic (i, j) order; J and u are built once."""
    _require_osp(spec, "s_matrices")
    sig = spec.signature()
    m = spec.size
    j_rows = _rows_of(j_matrix(spec)._entries)
    u = u_matrix(spec)
    for i in range(1, m + 1):
        row_i = j_rows.get(i, [])
        for j in range(1, m + 1):
            entries = {(k, j): v for k, v in row_i}
            term = {(k, i): v for k, v in j_rows.get(j, [])}
            _axpy(entries, -u.entry(i, j), term)
            yield i, j, GradedMatrix._make(sig, entries)


def _constraint_equations(spec: AlgebraSpec) -> list[Vector]:
    """Rows of the linear system cutting the algebra out of all matrices:
    column (-p, -q) is the membership residual of the matrix unit e_pq, and
    the sl supertrace is the one row (0, 0). The keys are negated positions
    so that a `SpanReducer` pivot, its row's least key, is the row's last
    matrix position."""
    sig = spec.signature()
    m = spec.size
    residual_of = membership_residual(spec)
    equations: dict[tuple[int, int], Vector] = {}
    for p in range(1, m + 1):
        for q in range(1, m + 1):
            residual = residual_of(elem(sig, p, q))
            column = residual if isinstance(residual, GradedMatrix) else {(0, 0): residual}
            for out, v in column.items():
                if v:
                    equations.setdefault(out, {})[(-p, -q)] = v
    return [equations[out] for out in sorted(equations)]


def kernel_basis(spec: AlgebraSpec) -> Basis:
    """Canonical basis of the solution space of the defining condition.

    Reduced echelon over matrix positions in row-major order: pivots
    normalized to 1, basis rows ordered by pivot position and labelled by
    it — deterministic and diff-stable. One elimination solves each
    constraint for its last position in terms of earlier free positions, so
    the solution led by free f is 1 at f, 0 at every other free position
    and nonzero only after f: already in reduced form.
    """
    if spec.family is Family.GL:
        raise ValueError("gl has no defining condition; kernel_basis needs sl/ospB/ospD")
    sig = spec.signature()
    reducer = SpanReducer()
    for eq in _constraint_equations(spec):
        reducer.insert(eq)
    pivots = reducer.pivots
    bound = set(pivots)
    solutions: dict[tuple[int, int], Vector] = {
        free: {free: 1} for free in product(range(1, spec.size + 1), repeat=2)
        if (-free[0], -free[1]) not in bound
    }
    # Rows by increasing pivot position, so each solution's entries come in
    # row-major order; a reduced row holds no zero, so neither does a solution.
    for (p, q), row in zip(reversed(pivots), reversed(reducer.rows_by_pivot())):
        for (fp, fq), coeff in row.items():
            if (fp, fq) != (p, q):
                solutions[(-fp, -fq)][(-p, -q)] = as_int(-coeff)
    return Basis(
        spec,
        [GradedMatrix._make(sig, vec) for vec in solutions.values()],
        ["k[{},{}]".format(*free) for free in solutions],
    )


def expected_dim(spec: AlgebraSpec) -> int:
    """Closed-form dimension oracle: size^2 for gl, size^2 - 1 for sl, and
    for the orthosymplectic families, with m = m1+m2 and n = n1+n2, the
    classical orthosymplectic count. The formula is validated against
    brute force in the tests before anything else relies on it.
    """
    if spec.family is Family.GL:
        return spec.size ** 2
    if spec.family is Family.SL:
        return spec.size ** 2 - 1
    m = spec.m1 + spec.m2
    n = spec.n1 + spec.n2
    if spec.family is Family.OSP_B:
        return m * (2 * m + 1) + n * (2 * n + 1) + 2 * n * (2 * m + 1)
    return m * (2 * m - 1) + n * (2 * n + 1) + 4 * m * n


# -- verification loops ------------------------------------------------------------

def verify_membership(basis: Basis, max_counterexamples: int = 10) -> CheckReport:
    """Test the defining condition of an orthosymplectic basis on every
    spanning matrix s_ij, then on every element; J is built once. A
    counterexample names the matrix and holds its residual."""
    cases = [([f"s[{i},{j}]"], mat) for i, j, mat in s_matrices(basis.spec)]
    cases += [([label], mat) for label, mat in zip(basis.labels, basis.elements)]
    report = CheckReport("membership", basis.spec.to_json(), max_counterexamples)
    residual_of = membership_residual(basis.spec)
    for indices, mat in cases:
        residual = residual_of(mat)
        report.record(
            _vanishes(residual), lambda: {"indices": indices, "residual": residual.to_json()}
        )
    return report


class BracketTable:
    """Every nonzero graded bracket of a basis: `rows[a]` is the dict
    {b: [e_a, e_b]}, in increasing b, and a missing b reads as zero.
    Closure, symmetry and Jacobi all read it.

    Only the pairs this module's `meeting_pairs` lists, those whose
    supports meet, are bracketed, through this module's `graded_bracket`.
    A bracket built from matrix products is zero on disjoint supports, so
    no bracket is lost. A caller that rebinds `graded_bracket` to one with
    terms on disjoint supports must also rebind `meeting_pairs` to every
    pair. Both are read when the table is built, with the elements, so a
    table holds the brackets of the binding it was built under.

    Each row is bracketed the first time a reader reaches it, in order,
    and kept: `structure_constants` walks the rows and stops at its first
    refusal, and `rows` brackets every row not reached yet.
    `graded_bracket` indexes each basis element on its first bracket, so
    its homogeneous parts are built once for all its brackets. The
    table's entries are not bracketed here, so they carry no index unless
    Jacobi's matrix loop brackets them, and `verify_jacobi` drops those.
    """

    def __init__(self, basis: Basis):
        self.basis = basis
        self._elements = list(basis.elements)
        # the meeting pairs of the rows not bracketed yet, each dropped as its row is built
        self._pending = deque(meeting_pairs(self._elements))
        self._bracket = graded_bracket
        self._built: list[dict[int, GradedMatrix]] = []

    def _walk(self) -> Iterator[dict[int, GradedMatrix]]:
        """The rows in order, each bracketed the first time it is reached."""
        built, elements, bracket = self._built, self._elements, self._bracket
        for a, x in enumerate(elements):
            if a == len(built):
                row = {}
                for b in self._pending.popleft():
                    t = bracket(x, elements[b])
                    if not t.is_zero():
                        row[b] = t
                built.append(row)
            yield built[a]

    @cached_property
    def rows(self) -> list[dict[int, GradedMatrix]]:
        """Every row, bracketing those no reader has reached yet."""
        return list(self._walk())

    @cached_property
    def structure_constants(self) -> Optional[list[dict[int, dict[int, int | Scalar]]]]:
        """C[a][b] = {k: c_k} with [e_a, e_b] = sum_k c_k e_k, for each
        nonzero bracket (a zero bracket has no key b in C[a]): the one gate
        of the coordinate path. C is returned when the elements are
        homogeneous and independent, every bracket equals its
        reconstruction, C_ab = -(-1)^{dot(a, b)} C_ba key for key and value
        for value, and every key d of C_ab has degree(e_d) = deg(a) + deg(b);
        None otherwise. Then the bracket is graded antisymmetric and
        homogeneous, and a nonzero coordinate vector is a nonzero matrix.

        Coordinates come from one augmented echelon of the basis: element k
        is tagged with a unit at the position (m + 1, k) past the matrix, so
        a dependent element leaves a pivot on a tag. Reducing a bracket M
        against it leaves M - sum_k c_k e_k on the matrix positions and
        -c_k on tag k. The tags are plain ints, so on a basis of int
        entries, as on the kernel bases, the echelon rows, the brackets and
        each c_k are plain ints as well; elsewhere a c_k may be a Scalar.
        The reading, the gate and Jacobi's derivation certificate run on
        either unchanged. Only the nonzero brackets are read, row by row as
        they are bracketed, and no row past the first refusal is bracketed;
        a dependent basis brackets none. Computed on first use."""
        elements = self.basis.elements
        if not elements:
            return []
        degrees = [mat.degree_of() for mat in elements]
        if None in degrees:
            return None
        past = elements[0].size + 1
        echelon = SpanReducer()
        for k, mat in enumerate(elements):
            echelon.insert({**dict(mat.items()), (past, k): 1})
        if any(i == past for i, _ in echelon.pivots):
            return None
        constants = []
        for row in self._walk():
            coords = {}
            for b, t in row.items():
                red = echelon.residual(t._entries)
                if any(i < past for i, _ in red):
                    return None
                if red:
                    coords[b] = {k: -v for (_, k), v in red.items()}
            constants.append(coords)
        for ia, row in enumerate(constants):
            da = degrees[ia]
            for ib, coeffs in row.items():
                other = constants[ib].get(ia)
                if other is None or other.keys() != coeffs.keys():
                    return None
                db = degrees[ib]
                degree = deg_add(da, db)
                odd = dot(da, db)
                for d, x in coeffs.items():
                    if degrees[d] != degree or other[d] != (x if odd else -x):
                        return None
        return constants

    @cached_property
    def antisymmetry_failures(self) -> frozenset[tuple[int, int]]:
        """The pairs a <= b whose brackets are not graded antisymmetric,
        T[b][a] != -(-1)^{dot(a, b)} T[a][b], or that hold an element that
        is not homogeneous; computed on first use. Empty, with no matrix
        compared, when the `structure_constants` gate holds, as it implies
        graded antisymmetry; otherwise each pair with a nonzero bracket is
        compared once, a pair of zero brackets holding."""
        if self.structure_constants is not None:
            return frozenset()
        degrees = [mat.degree_of() for mat in self.basis.elements]
        mixed = [ia for ia, d in enumerate(degrees) if d is None]
        failures = {(min(ia, ib), max(ia, ib)) for ia in mixed for ib in range(len(degrees))}
        rows = self.rows
        for ia, row in enumerate(rows):
            for ib, t in row.items():
                pair = (ia, ib) if ia <= ib else (ib, ia)
                if pair in failures or ib < ia and ia in rows[ib]:
                    continue  # known, or compared from row ib
                other = rows[ib].get(ia)
                if other is None or other != (t if dot(degrees[ia], degrees[ib]) else -t):
                    failures.add(pair)
        return frozenset(failures)


def _table_for(basis: Basis, table: Optional[BracketTable]) -> BracketTable:
    if table is None:
        return BracketTable(basis)
    if table.basis is not basis:
        raise ValueError("the bracket table was built for another basis")
    return table


def verify_closure(
    basis: Basis, max_counterexamples: int = 10, *, table: Optional[BracketTable] = None
) -> CheckReport:
    """Re-test membership on the bracket of every ordered pair of basis
    elements, read from `table` (built here when not given); a
    counterexample names the pair and holds the bracket's residual.

    When the table's `structure_constants` gate holds, every bracket is a
    combination of the elements and the residual is linear, so when the n
    residuals of the elements all vanish, all n^2 pairs pass at once.
    Otherwise the table's nonzero entries are tested, a zero bracket
    having a zero residual. The residual is linear, so when T[b][a] =
    -+T[a][b], a pair a < b not in the table's `antisymmetry_failures`,
    the two residuals are equal up to sign: such a pair is judged once and
    its outcome recorded for both orders, the (b, a) counterexample built
    from T[b][a] only when the report keeps it. The report ends with a
    coverage check: n^2 ordered pairs."""
    table = _table_for(basis, table)
    labels = basis.labels
    n = len(labels)
    report = CheckReport("closure", basis.spec.to_json(), max_counterexamples)
    residual_of = membership_residual(basis.spec)
    constants = table.structure_constants
    if constants is not None and all(_vanishes(residual_of(mat)) for mat in basis.elements):
        report.record_passes(n * n)
    else:
        asymmetric = table.antisymmetry_failures
        rows = table.rows
        failed_above = set()  # the failing pairs a < b, read back for (b, a)
        for ia, row in enumerate(rows):
            failing = []
            for ib, mat in row.items():
                if ib < ia and (ib, ia) not in asymmetric:
                    ok = (ib, ia) not in failed_above
                else:
                    ok = _vanishes(residual_of(mat))
                    if not ok and ia < ib:
                        failed_above.add((ia, ib))
                if not ok:
                    failing.append(ib)
            report.record_passes(n - len(failing))
            for ib in failing:
                report.record(
                    False,
                    lambda: {
                        "indices": [labels[ia], labels[ib]],
                        "residual": residual_of(rows[ia][ib]).to_json(),
                    },
                )
    report.record_coverage(n * n)
    return report


def _homogeneous_degrees(labelled, what: str = "basis element") -> list[Degree]:
    """The degree of each (label, matrix), refusing one that is not homogeneous."""
    degrees = []
    for label, mat in labelled:
        d = mat.degree_of()
        if d is None:
            raise ValueError(f"{what} {label} is not homogeneous")
        degrees.append(d)
    return degrees


def verify_symmetry(
    basis: Basis, max_counterexamples: int = 10, *, table: Optional[BracketTable] = None
) -> CheckReport:
    """Graded antisymmetry [[x,y]] = -(-1)^{dot} [[y,x]] over all pairs,
    read off `table` (built here when not given); a counterexample names
    the pair and holds lhs - rhs.

    The outcomes are the table's `antisymmetry_failures`, which compares
    each pair a <= b once, and none when the structure-constant gate
    holds: (a, b) and (b, a) fail together, and lhs - rhs is built only
    for a counterexample the report keeps. The report ends with a
    coverage check: n^2 ordered pairs."""
    degrees = _homogeneous_degrees(zip(basis.labels, basis.elements))
    table = _table_for(basis, table)
    report = CheckReport("symmetry", basis.spec.to_json(), max_counterexamples)
    labels = basis.labels
    n = len(labels)
    rows = table.rows
    failing = sorted({p for a, b in table.antisymmetry_failures for p in ((a, b), (b, a))})
    report.record_passes(n * n - len(failing))
    for ia, ib in failing:

        def counterexample():
            zero = GradedMatrix.zero(basis.elements[ia].signature)
            lhs, rhs = rows[ia].get(ib, zero), rows[ib].get(ia, zero)
            residual = lhs - (rhs if dot(degrees[ia], degrees[ib]) else -rhs)
            return {"indices": [labels[ia], labels[ib]], "residual": residual.to_json()}

        report.record(False, counterexample)
    report.record_coverage(n * n)
    return report


# A failing Jacobi triple (a, b, c) and the thunk that computes its residual.
_Failure = tuple[tuple[int, int, int], Callable[[], GradedMatrix]]


def _by_matrices(table: BracketTable, degrees: list[Degree], report: CheckReport) -> list[_Failure]:
    """The matrix loop of `verify_jacobi` on `table`, run when its structure
    constants are None or the derivation certificate refuses: correct for
    any basis, closed under brackets or not. It walks the S3 orbit
    representatives p <= q <= r and judges each distinct ordering
    (a, b, c) that `_orbit` lists on the matrices: no symmetry of the
    Jacobiator is assumed, only that of the table's pairs. Outcomes are
    those of judging every ordered triple; it records the passes of each
    pair p <= q in `report`, and returns the failures as (triple, residual
    thunk).

    Denominators are cleared once: the loop runs on e_a * D_a and on
    [e_a, e_b] * D_a * D_b, D_a being the lcm of the entry denominators of
    e_a (an int entry has none), so its scalars are integral. The
    Jacobiator is trilinear, so a residual comes out D_a * D_b * D_c times
    the true one, and is zero exactly when the true one is.

    The three terms of (a, b, c) are X(a, b, c), [[a, b], c] and
    X(b, a, c), with X(x, y, z) = [e_x, [e_y, e_z]]; each bracket is
    computed at most once per orbit, and no bracket is kept past its
    orbit. A pair y < z not in the table's `antisymmetry_failures` has
    T[z][y] = -(-1)^{dot(y, z)} T[y][z]; the bracket is assumed to take -T
    to minus itself, as any bilinear bracket does, so X(x, z, y) is
    X(x, y, z) with that sign, and J(b, a, c) = -(-1)^{dot(a, b)} J(a, b, c):
    (b, a, c) takes the outcome of (a, b, c) with no [[b, a], c] computed.
    The loop thus makes n^3 + n^2 brackets, n * n(n + 1)/2 of each kind. A
    pair in `antisymmetry_failures` shares nothing and is judged in both
    orders, at 2n brackets more. No residual is held: a thunk computes it from the
    unscaled elements and table, for each ordered triple on its own, which
    the report calls only for a counterexample it keeps.

    A missing entry of a row reads as the zero matrix. Each matrix the
    loop brackets is indexed by `graded_bracket` on its first bracket, so
    its parts are built once: a cleared copy keeps its index for the call,
    an element for as long as it lives, and a table entry until
    `verify_jacobi` returns."""
    asymmetric = table.antisymmetry_failures
    elements = original = table.basis.elements
    rows = unscaled = table.rows
    clear = [lcm(*(v._d for _, v in mat.items() if type(v) is not int)) for mat in elements]
    if any(k != 1 for k in clear):
        elements = [mat.scale(k) for mat, k in zip(elements, clear)]
        rows = [{b: t.scale(ka * clear[b]) for b, t in row.items()} for row, ka in zip(rows, clear)]
    zero = GradedMatrix.zero(elements[0].signature) if elements else None

    def residual(ia: int, ib: int, ic: int, odd: int) -> GradedMatrix:
        rhs = graded_bracket(unscaled[ia].get(ib, zero), original[ic])
        third = graded_bracket(original[ib], unscaled[ia].get(ic, zero))
        rhs = rhs - third if odd else rhs + third
        return graded_bracket(original[ia], unscaled[ib].get(ic, zero)) - rhs

    n = len(elements)
    parity = [[dot(dx, dy) for dy in degrees] for dx in degrees]
    # shared[y][z]: the pair is graded antisymmetric, T[z][y] = -(-1)^{dot(y, z)} T[y][z]
    shared = [[(min(y, z), max(y, z)) not in asymmetric for z in range(n)] for y in range(n)]

    def inner(memo: dict, x: int, y: int, z: int) -> tuple[GradedMatrix, bool]:
        """(M, negated) with X(x, y, z) = [e_x, T[y][z]] equal to -M when
        negated and to M otherwise. M is kept in `memo` for the orbit, and
        for y > z a shared pair it is X(x, z, y)."""
        negated = False
        if y > z and shared[y][z]:
            y, z, negated = z, y, not parity[y][z]
        key = (x, y, z)
        out = memo.get(key)
        if out is None:
            out = memo[key] = graded_bracket(elements[x], rows[y].get(z, zero))
        return out, negated

    failures = []
    for p in range(n):
        for q in range(p, n):
            passes = 0
            for r in range(q, n):
                memo: dict = {}
                failed: dict = {}
                for a, b, c in _orbit(p, q, r):
                    odd = parity[a][b]
                    if a > b and shared[a][b]:
                        bad = failed[b, a, c]  # listed earlier: `_orbit` sorts its orderings
                    else:
                        # [a, [b, c]] against [[a, b], c] + (-1)^odd [b, [a, c]]
                        left, flip = inner(memo, a, b, c)
                        third, turn = inner(memo, b, a, c)
                        rhs = graded_bracket(rows[a].get(b, zero), elements[c])
                        rhs = rhs - third if odd ^ turn else rhs + third
                        bad = left != (-rhs if flip else rhs)
                    failed[a, b, c] = bad
                    if bad:
                        failures.append(((a, b, c), partial(residual, a, b, c, odd)))
                    else:
                        passes += 1
            report.record_passes(passes)
    return failures


# A step of a generation proof: (s, None) stands for e_s, and (s, j) for
# [e_s, v_j], v_j the vector of step j.
_Step = tuple[int, Optional[int]]


def _ad(row_s: dict[int, dict[int, int | Scalar]], vec: dict) -> dict:
    """[e_s, v] = sum_d v_d [e_s, e_d] in coordinates; row_s is C[s]."""
    out: dict = {}
    for d, x in vec.items():
        image = row_s.get(d)
        if image:
            _axpy(out, x, image)
    return out


def _generating_set(
    constants: list[dict[int, dict[int, int | Scalar]]],
) -> tuple[list[int], list[_Step]]:
    """Basis indices S that generate the algebra under brackets, with the
    steps that show it: the steps' vectors are independent, and when there
    are n of them they span the algebra.

    S is greedy in basis order: e_k joins S when it is not yet in the span,
    and the span is then closed under ad_s for every s in S, breadth first,
    in one exact echelon of coordinate vectors. A vector is a step when it
    is independent of the steps before it; the search stops at rank n."""
    n = len(constants)
    span = SpanReducer()
    generators: list[int] = []
    steps: list[_Step] = []
    vectors: list[dict] = []
    queue: deque[_Step] = deque()

    def add_step(step: _Step, vec: dict) -> None:
        queue.extend((s, len(vectors)) for s in generators)
        steps.append(step)
        vectors.append(vec)

    for k in range(n):
        if span.rank == n:
            break
        unit = {k: 1}
        if not span.insert(unit):
            continue
        generators.append(k)
        queue.extend((k, j) for j in range(len(vectors)))
        add_step((k, None), unit)
        while queue and span.rank < n:
            s, j = queue.popleft()
            vec = _ad(constants[s], vectors[j])
            if span.insert(vec):
                add_step((s, j), vec)
    return generators, steps


def _generates(
    constants: list[dict[int, dict[int, int | Scalar]]],
    generators: list[int],
    steps: list[_Step],
) -> bool:
    """Whether `steps` show that `generators` generate the algebra: every
    step brackets with a generator only, and the step vectors, rebuilt
    here from the constants, have rank n. Then every basis element is a
    combination of nested brackets [s_1, [s_2, ..., s_k]] of generators."""
    allowed = set(generators)
    span = SpanReducer()
    vectors: list[dict] = []
    for s, j in steps:
        if s not in allowed:
            return False
        vec = {s: 1} if j is None else _ad(constants[s], vectors[j])
        vectors.append(vec)
        span.insert(vec)
    return span.rank == len(constants)


def _jacobi_sweep(
    constants: list[dict[int, dict[int, int | Scalar]]],
    index: list[list[tuple[int, int, int | Scalar]]],
    degrees: list[Degree],
    s: int,
    earlier: frozenset[int],
) -> dict[tuple[int, int, int], int | Scalar]:
    """The coordinates of J(s, b, c) = [s, [b, c]] - [[s, b], c] - eps(s, b) [b, [s, c]]
    for every b <= c with neither b nor c in `earlier`, keyed (b, c, e) for
    the coordinate on e_e; eps = (-1)^dot, and a key that is absent, or
    present with value 0, is a zero coordinate. `index[d]` lists the
    (b, c, C_bc^d) with c >= b. Each term visits only products that can be
    nonzero:
    - [s, [b, c]] = sum_d C_bc^d C_sd, from `index[d]` for each d in C[s];
    - -[[s, b], c] = -sum_d C_sb^d C_dc and -eps(s, b) [b, [s, c]], which is
      eps(b, c) sum_d C_sc^d C_db as the gate gives C_bd = -eps(b, d) C_db
      and deg(d) = deg(s) + deg(c), both read C_dy for x in C[s], d in C_sx
      and y in C[d]: one walk adds -C_sx^d C_dy to (x, y) when x <= y, and
      eps(x, y) C_sx^d C_dy to (y, x) when y <= x."""
    row_s = constants[s]
    acc: dict[tuple[int, int, int], int | Scalar] = {}
    get = acc.get
    for d, image in row_s.items():
        for b, c, x in index[d]:
            if b in earlier or c in earlier:
                continue
            for e, y in image.items():
                key = (b, c, e)
                acc[key] = get(key, 0) + x * y
    for x, coeffs in row_s.items():
        if x in earlier:
            continue
        dx = degrees[x]
        for d, z in coeffs.items():
            minus_z = -z
            for y, image in constants[d].items():
                if y in earlier:
                    continue
                if y >= x:
                    for e, v in image.items():
                        key = (x, y, e)
                        acc[key] = get(key, 0) + minus_z * v
                if y <= x:
                    w = minus_z if dot(degrees[y], dx) else z
                    for e, v in image.items():
                        key = (y, x, e)
                        acc[key] = get(key, 0) + w * v
    return acc


def _derivation_certificate(
    constants: list[dict[int, dict[int, int | Scalar]]], degrees: list[Degree]
) -> bool:
    """Whether the Jacobiator J vanishes on all n^3 triples, shown without
    the triple loop; False means only that the certificate does not apply.

    J(a, ., .) = 0 says that ad_a is an eps-derivation, eps = (-1)^dot, and
    D = {a : J(a, ., .) = 0} is a subalgebra: it is a subspace, J being
    linear in a, and for homogeneous x, y in D,
    ad_[x, y] = ad_x ad_y - eps(x, y) ad_y ad_x is a graded commutator of
    eps-derivations, again one since eps is a symmetric bicharacter. So
    J = 0 everywhere when a set S of basis elements generates the algebra
    (`_generating_set`, re-checked by `_generates`) and J(s, b, c) = 0 for
    every s in S and all b, c.

    One `_jacobi_sweep` per generator s, in S order, adds up J(s, b, c) for
    all b <= c at once, through an inverse index d -> [(b, c, C_bc^d)] of
    the constants built here for this call. The gate of the constants makes
    the bracket homogeneous and graded antisymmetric, so J is graded
    alternating in its three arguments: J(s, c, b) = -eps(b, c) J(s, b, c),
    so only b <= c is contracted, and a triple whose b or c is an earlier
    generator t is, up to sign, one of J(t, ., .), which vanished in t's
    sweep, so it is skipped. Refuses at the first sweep that leaves a
    nonzero coordinate."""
    generators, steps = _generating_set(constants)
    if not _generates(constants, generators, steps):
        return False
    index: list[list[tuple[int, int, int | Scalar]]] = [[] for _ in constants]
    for b, row in enumerate(constants):
        for c, coeffs in row.items():
            if c >= b:
                for d, x in coeffs.items():
                    index[d].append((b, c, x))
    for i, s in enumerate(generators):
        if any(_jacobi_sweep(constants, index, degrees, s, frozenset(generators[:i])).values()):
            return False
    return True


def _certified_span(basis: Basis) -> bool:
    """Whether the Jacobiator vanishes on all n^3 triples of a homogeneous
    basis because its elements lie in an algebra that satisfies the graded
    Jacobi identity; False means only that this route does not apply.

    K, the spec's kernel basis, must pass the `structure_constants` gate
    and `_derivation_certificate`, and every element must have the spec's
    signature and reduce to zero against an echelon of K, which is exact
    whether or not K spans the whole algebra. Then an element of degree g
    is a combination of the degree-g elements of K, K being homogeneous by
    the gate, and J, trilinear on homogeneous arguments of fixed degrees,
    vanishes on the basis since it vanishes on K^3. The one premise is that
    the bracket is bilinear, as the matrix loop and the certificate assume.

    Tried only where it replaces more work than it makes: the spec has a
    kernel basis (not gl); n < dim, so the basis spans a proper subspace
    (with n = dim a refusal of the basis's own gate would be K's too); and
    K's table of at most dim^2 brackets is no larger than the n^3 + n^2 of
    the matrix loop."""
    spec = basis.spec
    n = len(basis)
    if spec.family is Family.GL:
        return False
    dim = expected_dim(spec)
    if n >= dim or dim * dim > n ** 3 + n ** 2:
        return False
    sig = spec.signature()
    if any(mat.signature != sig for mat in basis):
        return False
    algebra = kernel_basis(spec)
    echelon = SpanReducer()
    for mat in algebra:
        echelon.insert(dict(mat.items()))
    if any(echelon.residual(dict(mat.items())) for mat in basis):
        return False
    constants = BracketTable(algebra).structure_constants
    return constants is not None and _derivation_certificate(
        constants, [mat.degree_of() for mat in algebra]
    )


def _orbit(ia: int, ib: int, ic: int) -> list[tuple[int, int, int]]:
    """The distinct orderings of a triple ia <= ib <= ic, in lexicographic
    order."""
    return sorted(set(permutations((ia, ib, ic))))


def verify_jacobi(
    basis: Basis,
    workers: int = 1,
    max_counterexamples: int = 10,
    *,
    table: Optional[BracketTable] = None,
) -> CheckReport:
    """The graded Jacobi identity
    [a, [b, c]] = [[a, b], c] + (-1)^{dot(a, b)} [b, [a, c]]
    over all ordered triples of homogeneous basis elements.

    Three rungs, each exact; the first two record all n^3 triples as
    passes at once or decline, and never report a failure:
    - When the `structure_constants` gate of `table` (built here when not
      given) holds, `_derivation_certificate` runs: J(s, ., .) = 0 on a
      generating set S of basis elements makes J vanish on all n^3 triples.
    - When the gate refuses (the basis is not closed, dependent or
      defective), `_certified_span` runs: when every element lies in the
      span of the spec's kernel basis K, and K passes the gate and the
      certificate, J vanishes on K^3. The degree-g part of a combination of
      K's homogeneous elements takes only K's degree-g elements, so a
      homogeneous element of degree g is a combination of those, and J,
      trilinear on homogeneous arguments, vanishes on every triple of the
      basis. Both rungs assume only that the bracket is bilinear, as the
      matrix loop does. This rung is tried only for n < dim and
      dim^2 <= n^3 + n^2, where K's table is no larger than the loop.
    - Otherwise, when the gate or a rung refuses, `_by_matrices` walks the
      S3 orbit representatives a <= b <= c and judges each of their
      distinct orderings on the matrices, assuming no symmetry of J. Each
      bracket the orderings of a representative share is computed once:
      when the table entries of a pair are graded antisymmetric (each
      pair not in the table's `antisymmetry_failures`, as closure and
      symmetry read them),
      [e_x, [e_y, e_z]] serves both orders of y, z, and (b, a, c) takes
      the outcome of (a, b, c).

    The gate brackets the table's rows as it reads them and stops at its
    first refusal, and the certified span reads no row, so when that rung
    holds only the rows up to the refusal are bracketed. The matrix loop
    reads every row; the indexes its brackets leave on the table's entries
    are dropped before this returns.

    Outcomes and counterexamples are those of the plain triple loop:
    `failed` counts every failing triple, the kept counterexamples are the
    first in lexicographic triple order, and the report ends with a
    coverage check: the triples its instances stand for must number n^3.

    Runs in one thread: `workers` is accepted and has no effect, since a
    thread pool only adds overhead to pure Python under the interpreter lock."""
    degrees = _homogeneous_degrees(zip(basis.labels, basis.elements))
    table = _table_for(basis, table)
    report = CheckReport("jacobi", basis.spec.to_json(), max_counterexamples)
    constants = table.structure_constants
    labels = basis.labels
    if constants is None:
        certified = _certified_span(basis)
    else:
        certified = _derivation_certificate(constants, degrees)
    if certified:
        failures = []
        report.record_passes(len(labels) ** 3)
    else:
        failures = _by_matrices(table, degrees, report)
    failures.sort(key=lambda failure: failure[0])
    for triple, thunk in failures:
        report.record(
            False, lambda: {"indices": [labels[x] for x in triple], "residual": thunk().to_json()}
        )
    if not certified:
        # the loop and the residuals indexed the entries they bracketed
        for row in table.rows:
            for t in row.values():
                t._index = None
    report.record_coverage(len(labels) ** 3)
    return report


# -- block-form adjudication ---------------------------------------------------------

# The transcribed block conditions of the ospB form, on the 9x9 block grid of
# row/column groups (m1, m2, m1, m2, 1 | n1, n2, n1, n2); a, b, c and d are
# its top-left, top-right, bottom-left and bottom-right quadrants. A row is
# (lhs block, rhs block or None, sign, the degree claimed by a malformed
# source subscript or None) and states lhs = sign * rhs^t. With rhs None the
# block is compared with its own transpose: sign -1 is "skew", +1
# "symmetric" and 0 "zero".
_BLOCK_TABLE = (
    (("a", 3, 3), ("a", 1, 1), -1, None),
    (("a", 3, 4), ("a", 2, 1), -1, None),
    (("a", 4, 3), ("a", 1, 2), -1, None),
    (("a", 4, 4), ("a", 2, 2), -1, None),
    (("a", 2, 3), ("a", 1, 4), -1, (1, 1)),
    (("a", 4, 1), ("a", 3, 2), -1, None),
    (("a", 1, 3), None, -1, None),
    (("a", 2, 4), None, -1, None),
    (("a", 3, 1), None, -1, None),
    (("a", 4, 2), None, -1, None),
    (("a", 5, 1), ("a", 3, 5), -1, None),
    (("a", 5, 2), ("a", 4, 5), -1, None),
    (("a", 5, 3), ("a", 1, 5), -1, None),
    (("a", 5, 4), ("a", 2, 5), -1, None),
    (("a", 5, 5), None, 0, None),
    (("d", 3, 3), ("d", 1, 1), -1, None),
    (("d", 3, 4), ("d", 2, 1), 1, None),
    (("d", 4, 3), ("d", 1, 2), 1, None),
    (("d", 4, 4), ("d", 2, 2), -1, None),
    (("d", 2, 3), ("d", 1, 4), -1, (1, 1)),
    (("d", 4, 1), ("d", 3, 2), -1, None),
    (("d", 1, 3), None, 1, None),
    (("d", 2, 4), None, 1, None),
    (("d", 3, 1), None, 1, None),
    (("d", 4, 2), None, 1, None),
    (("c", 1, 1), ("b", 3, 3), 1, None),
    (("c", 1, 2), ("b", 4, 3), -1, None),
    (("c", 1, 3), ("b", 1, 3), 1, None),
    (("c", 1, 4), ("b", 2, 3), -1, None),
    (("c", 1, 5), ("b", 5, 3), 1, None),
    (("c", 2, 1), ("b", 3, 4), 1, None),
    (("c", 2, 2), ("b", 4, 4), -1, None),
    (("c", 2, 3), ("b", 1, 4), 1, None),
    (("c", 2, 4), ("b", 2, 4), -1, None),
    (("c", 2, 5), ("b", 5, 4), 1, None),
    (("c", 3, 1), ("b", 3, 1), -1, None),
    (("c", 3, 2), ("b", 4, 1), 1, None),
    (("c", 3, 3), ("b", 1, 1), -1, None),
    (("c", 3, 4), ("b", 2, 1), 1, None),
    (("c", 3, 5), ("b", 5, 1), -1, None),
    (("c", 4, 1), ("b", 3, 2), -1, None),
    (("c", 4, 2), ("b", 4, 2), 1, None),
    (("c", 4, 3), ("b", 1, 2), -1, None),
    (("c", 4, 4), ("b", 2, 2), 1, None),
    (("c", 4, 5), ("b", 5, 2), -1, None),
)

def _block_relations() -> list[dict]:
    """The rows of `_BLOCK_TABLE` as relations with their report ids."""
    rels = []
    for lhs, rhs, sign, claimed in _BLOCK_TABLE:
        name = "{}[{},{}]".format(*lhs)
        if rhs is None:
            rel_id = f"{name} " + {-1: "skew", 1: "symmetric", 0: "zero"}[sign]
        else:
            rel_id = f"{name}={'-' if sign < 0 else ''}" + "{}[{},{}]^t".format(*rhs)
        rels.append({"id": rel_id, "lhs": lhs, "rhs": rhs, "sign": sign, "degree_label": claimed})
    return rels


def _block_span(spec: AlgebraSpec, block: tuple[str, int, int]) -> tuple[range, range]:
    """The 1-based row and column indices of a block of the ospB grid."""
    part, bi, bj = block
    sizes = (spec.m1, spec.m2, spec.m1, spec.m2, 1, spec.n1, spec.n2, spec.n1, spec.n2)
    starts = list(accumulate(sizes, initial=1))
    gi = bi + 5 if part in ("c", "d") else bi
    gj = bj + 5 if part in ("b", "d") else bj
    return range(starts[gi - 1], starts[gi]), range(starts[gj - 1], starts[gj])


def verify_block_conditions(basis: Basis, max_counterexamples: int = 10) -> CheckReport:
    """Adjudicate the transcribed block conditions against the normative
    defining condition: every relation is tested on every element of the
    given basis of an ospB algebra (normally its kernel basis), and the
    per-relation outcome is reported (the conditions are linear, so
    holding on a basis settles the whole algebra).

    A relation pairs each lhs position with one rhs position, and a pair
    of zero entries holds. So one index, built once per call, maps each
    position to the (relation, lhs position, rhs position, sign) pairs it
    enters, in either role, and each element's nonzero entries are walked
    once against it. A relation's passes are recorded at once, then its
    failures in element order, and the report ends with a coverage check:
    every relation on every element. An element whose signature is not
    the spec's raises ValueError before any relation runs.

    The two relations whose source tokens carry a malformed degree
    subscript are flagged, and the degree the subscript claims is checked
    against the signature as a separate outcome. A counterexample names
    the relation and the element, with no residual.
    """
    spec = basis.spec
    if spec.family is not Family.OSP_B:
        raise ValueError("block conditions are defined for the ospB layout only")
    sig = spec.signature()
    if any(mat.signature != sig for mat in basis.elements):
        raise ValueError("matrix signature does not match the spec")
    relations = _block_relations()
    spans = []
    pairs_at: dict[tuple[int, int], list] = {}
    for r, rel in enumerate(relations):
        rows, cols = _block_span(spec, rel["lhs"])
        rhs_rows, rhs_cols = _block_span(spec, rel["rhs"] or rel["lhs"])
        spans.append((rows, cols))
        # lhs entry (a, b) of the block against rhs entry (b, a)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                lhs, rhs = (i, j), (rhs_rows[b], rhs_cols[a])
                for pos in {lhs, rhs}:
                    pairs_at.setdefault(pos, []).append((r, lhs, rhs, rel["sign"]))
    failing: list[list[int]] = [[] for _ in relations]  # elements, in order
    for e, mat in enumerate(basis.elements):
        entries = mat._entries
        for pos in entries:
            for r, lhs, rhs, sign in pairs_at.get(pos, ()):
                bad = failing[r]
                if (not bad or bad[-1] != e) and entries.get(lhs, 0) != sign * entries.get(rhs, 0):
                    bad.append(e)
    n = len(basis.elements)
    labels = basis.labels
    report = CheckReport("block-conditions", spec.to_json(), max_counterexamples)
    rel_details = []
    for rel, (rows, cols), bad in zip(relations, spans, failing):
        report.record_passes(n - len(bad))
        for e in bad:
            report.record(False, lambda: {"indices": [rel["id"], labels[e]], "residual": None})
        claimed = rel["degree_label"]
        detail = {
            "id": rel["id"],
            "holds": not bad,
            "checked": n,
            "malformed_source": claimed is not None,
        }
        if claimed is not None:
            detail["degree_label"] = list(claimed)
            detail["degree_label_consistent"] = (
                not (rows and cols) or deg_add(sig[rows[0] - 1], sig[cols[0] - 1]) == claimed
            )
        rel_details.append(detail)
    report.details = {"relations": rel_details, "basis_size": n}
    report.record_coverage(len(relations) * n)
    return report
