"""Constructors and membership tests for the matrix algebras.

Families: gl/sl(m1,m2|n1,n2) on the block signature, and the two
orthosymplectic families ospB = osp(2m1+1,2m2|2n1,2n2) and
ospD = osp(2m1,2m2|2n1,2n2) cut out of the graded matrix algebra by
A^T J + J A = 0 (graded supertranspose, fixed bilinear form J).

Two independent basis constructions are provided: the spanning set s_ij
reduced by exact echelon elimination, and the kernel of the defining
linear condition. Both run over Q(sqrt 2) with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

from .gmatrix import GradedMatrix, graded_bracket
from .grading import Degree, Signature, deg_add, dot, signature_gl, signature_osp, trace_sign
from .report import CheckReport
from .scalars import ONE, ZERO, Scalar


class Family(str, Enum):
    GL = "gl"
    SL = "sl"
    OSP_B = "ospB"
    OSP_D = "ospD"


_ORTHOSYMPLECTIC = (Family.OSP_B, Family.OSP_D)


@dataclass(frozen=True)
class AlgebraSpec:
    """Family tag plus the four grading parameters."""

    family: Family
    m1: int = 0
    m2: int = 0
    n1: int = 0
    n2: int = 0

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        for name in ("m1", "m2", "n1", "n2"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if self.size < 1:
            raise ValueError(f"spec {self} has matrix size 0")

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
        return cls(
            Family(data["family"]),
            int(data["m1"]),
            int(data["m2"]),
            int(data["n1"]),
            int(data["n2"]),
        )


@dataclass
class Basis:
    """Linearly independent, member-checked elements with their labels."""

    spec: AlgebraSpec
    elements: list[GradedMatrix]
    labels: list[str]

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
        entries[(i, k + i)] = ONE
        entries[(k + i, i)] = ONE
    if spec.family is Family.OSP_B:
        mid = 2 * k + 1
        entries[(mid, mid)] = ONE
        off = mid
    else:
        off = 2 * k
    for i in range(1, n + 1):
        entries[(off + i, off + n + i)] = ONE
        entries[(off + n + i, off + i)] = -ONE
    return GradedMatrix(spec.signature(), entries)


def u_matrix(spec: AlgebraSpec) -> GradedMatrix:
    """Signs u_ij = (-1)^{d(i).d(j)} over the full index grid."""
    _require_osp(spec, "u_matrix")
    sig = spec.signature()
    m = len(sig)
    entries = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            entries[(i, j)] = -ONE if dot(sig[i - 1], sig[j - 1]) else ONE
    return GradedMatrix(sig, entries)


def membership_residual(spec: AlgebraSpec, mat: GradedMatrix, j: Optional[GradedMatrix] = None):
    """What must vanish for membership: A^T J + J A for the orthosymplectic
    families, the supertrace for sl, nothing for gl."""
    if mat.signature != spec.signature():
        raise ValueError("matrix signature does not match the spec")
    if spec.family is Family.GL:
        return None
    if spec.family is Family.SL:
        return mat.supertrace()
    if j is None:
        j = j_matrix(spec)
    return (mat.graded_transpose() @ j) + (j @ mat)


def _judge(residual) -> tuple[bool, object]:
    """(vanishes, JSON payload on failure) for a membership residual: a
    Scalar for sl, a matrix for the orthosymplectic families, None for gl."""
    if residual is None:
        return True, None
    ok = not residual if isinstance(residual, Scalar) else residual.is_zero()
    return ok, None if ok else residual.to_json()


def is_member(spec: AlgebraSpec, mat: GradedMatrix) -> bool:
    """Exact membership test against the spec's defining condition."""
    return _judge(membership_residual(spec, mat))[0]


# -- exact echelon machinery -------------------------------------------------

Vector = dict[int, Scalar]


class SpanReducer:
    """Incrementally maintained reduced echelon form of sparse vectors.

    Pivots are leftmost nonzero coordinates, normalized to 1; stored rows
    are mutually reduced, so processing order of the pivots never matters.
    """

    def __init__(self):
        self._rows: list[Vector] = []
        self._pivots: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._pivots)

    def residual(self, vec: Vector) -> Vector:
        out = dict(vec)
        for pivot, rix in self._pivots.items():
            c = out.get(pivot)
            if not c:
                continue
            for coord, val in self._rows[rix].items():
                cur = out.get(coord, ZERO) - c * val
                if cur:
                    out[coord] = cur
                else:
                    out.pop(coord, None)
        return out

    def insert(self, vec: Vector) -> bool:
        """Reduce vec against the current rows; absorb it if independent."""
        red = self.residual(vec)
        if not red:
            return False
        pivot = min(red)
        inv = red[pivot].inv()
        row = {coord: val * inv for coord, val in red.items()}
        for other in self._rows:
            c = other.get(pivot)
            if not c:
                continue
            for coord, val in row.items():
                cur = other.get(coord, ZERO) - c * val
                if cur:
                    other[coord] = cur
                else:
                    other.pop(coord, None)
        self._pivots[pivot] = len(self._rows)
        self._rows.append(row)
        return True

    def rows_by_pivot(self) -> list[Vector]:
        return [dict(self._rows[rix]) for _, rix in sorted(self._pivots.items())]


def _flatten(mat: GradedMatrix) -> Vector:
    m = mat.size
    return {(i - 1) * m + (j - 1): v for (i, j), v in mat.items()}


def _unflatten(signature: Signature, vec: Vector) -> GradedMatrix:
    m = len(signature)
    entries = {(coord // m + 1, coord % m + 1): v for coord, v in vec.items()}
    return GradedMatrix(signature, entries)


def _common_signature(matrices: Sequence[GradedMatrix]) -> Optional[Signature]:
    sig = None
    for mat in matrices:
        if sig is None:
            sig = mat.signature
        elif mat.signature != sig:
            raise ValueError("signature mismatch across matrices")
    return sig


def rank_of(matrices: Sequence[GradedMatrix]) -> int:
    """Rank of the span, by exact echelon reduction in input order."""
    _common_signature(matrices)
    reducer = SpanReducer()
    for mat in matrices:
        reducer.insert(_flatten(mat))
    return reducer.rank


def reduce_span(matrices: Sequence[GradedMatrix]) -> list[GradedMatrix]:
    """The deterministic independent subset: keep each input matrix that
    increases the rank, processing in the given order."""
    _common_signature(matrices)
    reducer = SpanReducer()
    return [mat for mat in matrices if reducer.insert(_flatten(mat))]


# -- the two basis constructions ------------------------------------------------

def s_matrices(spec: AlgebraSpec) -> Iterator[tuple[int, int, GradedMatrix]]:
    """Every spanning matrix s_ij = sum_k J_ik e_kj - u_ij sum_k J_jk e_ki
    as (i, j, s_ij), in lexicographic (i, j) order; J and u are built once."""
    _require_osp(spec, "s_matrices")
    sig = spec.signature()
    m = spec.size
    j_rows: dict[int, list[tuple[int, Scalar]]] = {}
    for (r, c), v in j_matrix(spec).items():
        j_rows.setdefault(r, []).append((c, v))
    u = u_matrix(spec)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            entries: dict = {}
            for k, v in j_rows.get(i, ()):
                key = (k, j)
                cur = entries.get(key, ZERO) + v
                if cur:
                    entries[key] = cur
                else:
                    entries.pop(key, None)
            uij = u.entry(i, j)
            for k, v in j_rows.get(j, ()):
                key = (k, i)
                cur = entries.get(key, ZERO) - uij * v
                if cur:
                    entries[key] = cur
                else:
                    entries.pop(key, None)
            yield i, j, GradedMatrix(sig, entries)


def s_basis(spec: AlgebraSpec) -> Basis:
    """The spanning matrices s_ij reduced to an independent subset in
    lexicographic (i, j) order."""
    reducer = SpanReducer()
    elements: list[GradedMatrix] = []
    labels: list[str] = []
    for i, j, mat in s_matrices(spec):
        if reducer.insert(_flatten(mat)):
            elements.append(mat)
            labels.append(f"s[{i},{j}]")
    return Basis(spec, elements, labels)


def _constraint_equations(spec: AlgebraSpec) -> list[Vector]:
    """Rows of the linear system cutting the algebra out of all matrices,
    over flattened (row-major) coordinates."""
    sig = spec.signature()
    m = spec.size
    if spec.family is Family.SL:
        eq: Vector = {}
        for i in range(1, m + 1):
            eq[(i - 1) * m + (i - 1)] = ONE if trace_sign(sig[i - 1]) > 0 else -ONE
        return [eq]

    jm = j_matrix(spec)
    # J is a signed permutation: one entry per row and per column.
    row_look: dict[int, tuple[int, Scalar]] = {}
    col_look: dict[int, tuple[int, Scalar]] = {}
    for (r, c), v in jm.items():
        row_look[r] = (c, v)
        col_look[c] = (r, v)
    equations: dict[int, Vector] = {}

    def accumulate(out: int, unknown: int, coeff: Scalar) -> None:
        row = equations.setdefault(out, {})
        cur = row.get(unknown, ZERO) + coeff
        if cur:
            row[unknown] = cur
        else:
            row.pop(unknown, None)

    for p in range(1, m + 1):
        g_row = sig[p - 1]
        c, v = row_look[p]
        r, w = col_look[p]
        for q in range(1, m + 1):
            unknown = (p - 1) * m + (q - 1)
            g = deg_add(g_row, sig[q - 1])
            tsign = -ONE if dot(g, g_row) else ONE
            # (e_pq)^T J lands at (q, c) with c from row p of J.
            accumulate((q - 1) * m + (c - 1), unknown, tsign * v)
            # J e_pq lands at (r, q) with r from column p of J.
            accumulate((r - 1) * m + (q - 1), unknown, w)
    return [equations[out] for out in sorted(equations) if equations[out]]


def kernel_basis(spec: AlgebraSpec) -> Basis:
    """Canonical basis of the solution space of the defining condition.

    Reduced echelon over flattened coordinates: pivots normalized to 1,
    basis rows ordered by pivot coordinate — deterministic and diff-stable.
    """
    if spec.family is Family.GL:
        raise ValueError("gl has no defining condition; kernel_basis needs sl/ospB/ospD")
    sig = spec.signature()
    m = spec.size
    reducer = SpanReducer()
    for eq in _constraint_equations(spec):
        reducer.insert(eq)
    pivot_set = set(reducer.pivots)
    rref = reducer.rows_by_pivot()

    canonical = SpanReducer()
    for free in range(m * m):
        if free in pivot_set:
            continue
        vec: Vector = {free: ONE}
        for row in rref:
            coeff = row.get(free)
            if coeff:
                vec[min(row)] = -coeff
        canonical.insert(vec)

    elements: list[GradedMatrix] = []
    labels: list[str] = []
    for row in canonical.rows_by_pivot():
        mat = _unflatten(sig, row)
        pivot = min(row)
        elements.append(mat)
        labels.append(f"k[{pivot // m + 1},{pivot % m + 1}]")
    return Basis(spec, elements, labels)


def expected_dim(spec: AlgebraSpec) -> int:
    """Closed-form dimension oracle, with m = m1+m2 and n = n1+n2.

    The defining linear conditions match the classical orthosymplectic
    count; the formula is validated against brute force in the tests
    before anything else relies on it.
    """
    _require_osp(spec, "expected_dim")
    m = spec.m1 + spec.m2
    n = spec.n1 + spec.n2
    if spec.family is Family.OSP_B:
        return m * (2 * m + 1) + n * (2 * n + 1) + 2 * n * (2 * m + 1)
    return m * (2 * m - 1) + n * (2 * n + 1) + 4 * m * n


# -- verification loops ------------------------------------------------------------

def verify_membership(basis: Basis, max_counterexamples: int = 10) -> CheckReport:
    """Test the defining condition of an orthosymplectic basis on every
    spanning matrix s_ij, then on every element; J is built once."""
    spec = basis.spec
    report = CheckReport("membership", spec.to_json())
    j = j_matrix(spec)
    labelled = [(f"s[{i},{jj}]", mat) for i, jj, mat in s_matrices(spec)]
    for label, mat in labelled + list(zip(basis.labels, basis.elements)):
        ok, payload = _judge(membership_residual(spec, mat, j))
        report.record(
            ok,
            None if ok else {"indices": [label], "residual": payload},
            max_counterexamples,
        )
    return report


def verify_closure(basis: Basis, max_counterexamples: int = 10) -> CheckReport:
    """Bracket every ordered pair of basis elements and re-test membership."""
    spec = basis.spec
    report = CheckReport("closure", spec.to_json())
    j = j_matrix(spec) if spec.family in _ORTHOSYMPLECTIC else None
    for la, a in zip(basis.labels, basis.elements):
        for lb, b in zip(basis.labels, basis.elements):
            ok, payload = _judge(membership_residual(spec, graded_bracket(a, b), j))
            report.record(
                ok,
                None if ok else {"indices": [la, lb], "residual": payload},
                max_counterexamples,
            )
    return report


def _homogeneous_degrees(basis: Basis) -> list[Degree]:
    degrees = []
    for label, mat in zip(basis.labels, basis.elements):
        d = mat.degree_of()
        if d is None:
            raise ValueError(f"basis element {label} is not homogeneous")
        degrees.append(d)
    return degrees


def verify_symmetry(basis: Basis, max_counterexamples: int = 10) -> CheckReport:
    """Graded antisymmetry [[x,y]] = -(-1)^{dot} [[y,x]] over all pairs."""
    degrees = _homogeneous_degrees(basis)
    report = CheckReport("symmetry", basis.spec.to_json())
    n = len(basis.elements)
    for ia in range(n):
        a = basis.elements[ia]
        for ib in range(n):
            b = basis.elements[ib]
            lhs = graded_bracket(a, b)
            rhs = graded_bracket(b, a)
            if not dot(degrees[ia], degrees[ib]):
                rhs = -rhs
            ok = lhs == rhs
            report.record(
                ok,
                None
                if ok
                else {
                    "indices": [basis.labels[ia], basis.labels[ib]],
                    "residual": (lhs - rhs).to_json(),
                },
                max_counterexamples,
            )
    return report


def verify_jacobi(basis: Basis, workers: int = 1, max_counterexamples: int = 10) -> CheckReport:
    """The graded Jacobi identity over all ordered homogeneous triples.

    Runs in one thread: `workers` is accepted and has no effect, since a
    thread pool only adds overhead to pure Python under the interpreter lock."""
    degrees = _homogeneous_degrees(basis)
    elements = basis.elements
    labels = basis.labels
    n = len(elements)
    table = [
        [graded_bracket(elements[i], elements[j]) for j in range(n)] for i in range(n)
    ]
    report = CheckReport("jacobi", basis.spec.to_json())
    for ia in range(n):
        a = elements[ia]
        da = degrees[ia]
        row_ab = table[ia]
        for ib in range(n):
            b = elements[ib]
            ab = row_ab[ib]
            sign = dot(da, degrees[ib])
            row_bc = table[ib]
            for ic in range(n):
                lhs = graded_bracket(a, row_bc[ic])
                rhs = graded_bracket(ab, elements[ic])
                third = graded_bracket(b, row_ab[ic])
                rhs = rhs - third if sign else rhs + third
                ok = lhs == rhs
                report.record(
                    ok,
                    None
                    if ok
                    else {
                        "indices": [labels[ia], labels[ib], labels[ic]],
                        "residual": (lhs - rhs).to_json(),
                    },
                    max_counterexamples,
                )
    return report


# -- block-form adjudication ---------------------------------------------------------

def _block_relations() -> list[dict]:
    """The transcribed block conditions for the ospB form, as checkable
    relations. 'eq' means lhs = sign * rhs^t on the 9x9 block grid built
    from row/column groups (m1, m2, m1, m2, 1 | n1, n2, n1, n2)."""
    rels: list[dict] = []

    def eq(part_l, bi_l, bj_l, part_r, bi_r, bj_r, sign, malformed=False, label=None):
        sign_txt = "-" if sign < 0 else ""
        rels.append(
            {
                "id": f"{part_l}[{bi_l},{bj_l}]={sign_txt}{part_r}[{bi_r},{bj_r}]^t",
                "kind": "transpose_eq",
                "lhs": (part_l, bi_l, bj_l),
                "rhs": (part_r, bi_r, bj_r),
                "sign": sign,
                "malformed_source": malformed,
                "degree_label": label,
            }
        )

    def shaped(part, bi, bj, kind):
        rels.append(
            {
                "id": f"{part}[{bi},{bj}] {kind}",
                "kind": kind,
                "lhs": (part, bi, bj),
                "rhs": None,
                "sign": 0,
                "malformed_source": False,
                "degree_label": None,
            }
        )

    eq("a", 3, 3, "a", 1, 1, -1)
    eq("a", 3, 4, "a", 2, 1, -1)
    eq("a", 4, 3, "a", 1, 2, -1)
    eq("a", 4, 4, "a", 2, 2, -1)
    eq("a", 2, 3, "a", 1, 4, -1, malformed=True, label=(1, 1))
    eq("a", 4, 1, "a", 3, 2, -1)
    for bi, bj in ((1, 3), (2, 4), (3, 1), (4, 2)):
        shaped("a", bi, bj, "skew")
    eq("a", 5, 1, "a", 3, 5, -1)
    eq("a", 5, 2, "a", 4, 5, -1)
    eq("a", 5, 3, "a", 1, 5, -1)
    eq("a", 5, 4, "a", 2, 5, -1)
    shaped("a", 5, 5, "zero")

    eq("d", 3, 3, "d", 1, 1, -1)
    eq("d", 3, 4, "d", 2, 1, 1)
    eq("d", 4, 3, "d", 1, 2, 1)
    eq("d", 4, 4, "d", 2, 2, -1)
    eq("d", 2, 3, "d", 1, 4, -1, malformed=True, label=(1, 1))
    eq("d", 4, 1, "d", 3, 2, -1)
    for bi, bj in ((1, 3), (2, 4), (3, 1), (4, 2)):
        shaped("d", bi, bj, "symmetric")

    cb = [
        (1, 1, 3, 3, 1), (1, 2, 4, 3, -1), (1, 3, 1, 3, 1), (1, 4, 2, 3, -1), (1, 5, 5, 3, 1),
        (2, 1, 3, 4, 1), (2, 2, 4, 4, -1), (2, 3, 1, 4, 1), (2, 4, 2, 4, -1), (2, 5, 5, 4, 1),
        (3, 1, 3, 1, -1), (3, 2, 4, 1, 1), (3, 3, 1, 1, -1), (3, 4, 2, 1, 1), (3, 5, 5, 1, -1),
        (4, 1, 3, 2, -1), (4, 2, 4, 2, 1), (4, 3, 1, 2, -1), (4, 4, 2, 2, 1), (4, 5, 5, 2, -1),
    ]
    for ci, cj, bi, bj, sign in cb:
        eq("c", ci, cj, "b", bi, bj, sign)
    return rels


class _BlockGrid:
    """Dense access to the 9x9 block grid of an ospB-layout matrix."""

    def __init__(self, spec: AlgebraSpec):
        m1, m2, n1, n2 = spec.m1, spec.m2, spec.n1, spec.n2
        sizes = [m1, m2, m1, m2, 1, n1, n2, n1, n2]
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        self.sizes = sizes
        self.offsets = offsets
        self.signature = spec.signature()

    def grid_index(self, part: str, bi: int, bj: int) -> tuple[int, int]:
        row = bi if part in ("a", "b") else bi + 5
        col = bj if part in ("a", "c") else bj + 5
        return row, col

    def block(self, mat: GradedMatrix, part: str, bi: int, bj: int) -> list[list[Scalar]]:
        gi, gj = self.grid_index(part, bi, bj)
        r0, nr = self.offsets[gi - 1], self.sizes[gi - 1]
        c0, nc = self.offsets[gj - 1], self.sizes[gj - 1]
        return [
            [mat.entry(r0 + r + 1, c0 + c + 1) for c in range(nc)] for r in range(nr)
        ]

    def block_degree(self, part: str, bi: int, bj: int) -> Optional[Degree]:
        """The common position degree inside a block, None when empty."""
        gi, gj = self.grid_index(part, bi, bj)
        if self.sizes[gi - 1] == 0 or self.sizes[gj - 1] == 0:
            return None
        r = self.offsets[gi - 1]
        c = self.offsets[gj - 1]
        return deg_add(self.signature[r], self.signature[c])


def _relation_holds(grid: _BlockGrid, mat: GradedMatrix, rel: dict) -> bool:
    lhs = grid.block(mat, *rel["lhs"])
    kind = rel["kind"]
    if kind == "zero":
        return all(not v for row in lhs for v in row)
    if kind == "skew":
        return all(
            lhs[r][c] == -lhs[c][r] for r in range(len(lhs)) for c in range(len(lhs))
        )
    if kind == "symmetric":
        return all(
            lhs[r][c] == lhs[c][r] for r in range(len(lhs)) for c in range(len(lhs))
        )
    rhs = grid.block(mat, *rel["rhs"])
    sign = rel["sign"]
    for r in range(len(lhs)):
        for c in range(len(lhs[r]) if lhs else 0):
            want = rhs[c][r]
            if sign < 0:
                want = -want
            if lhs[r][c] != want:
                return False
    return True


def verify_block_conditions(basis: Basis, max_counterexamples: int = 10) -> CheckReport:
    """Adjudicate the transcribed block conditions against the normative
    defining condition: every relation is tested on every element of the
    given basis of an ospB algebra (normally its kernel basis), and the
    per-relation outcome is reported (the conditions are linear, so
    holding on a basis settles the whole algebra).

    The two relations whose source tokens carry a malformed degree
    subscript are flagged, and the degree the subscript claims is checked
    against the signature as a separate outcome.
    """
    spec = basis.spec
    if spec.family is not Family.OSP_B:
        raise ValueError("block conditions are defined for the ospB layout only")
    grid = _BlockGrid(spec)
    report = CheckReport("block-conditions", spec.to_json())
    rel_details = []
    for rel in _block_relations():
        holds = True
        for label, mat in zip(basis.labels, basis.elements):
            ok = _relation_holds(grid, mat, rel)
            report.record(
                ok,
                None if ok else {"indices": [rel["id"], label], "residual": None},
                max_counterexamples,
            )
            holds = holds and ok
        entry = {
            "id": rel["id"],
            "holds": holds,
            "checked": len(basis.elements),
            "malformed_source": rel["malformed_source"],
        }
        if rel["malformed_source"]:
            claimed = rel["degree_label"]
            actual = grid.block_degree(*rel["lhs"])
            entry["degree_label"] = list(claimed)
            entry["degree_label_consistent"] = actual is None or actual == claimed
        rel_details.append(entry)
    report.details = {"relations": rel_details, "basis_size": len(basis.elements)}
    return report
