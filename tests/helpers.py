"""Test-side oracles, kept independent of the library's echelon engine
and of its integer scalar core."""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

from gradedosp import algebras, parastat
from gradedosp.algebras import AlgebraSpec, Basis, Family, SpanReducer, j_matrix, s_matrices
from gradedosp.gmatrix import GradedMatrix, anticommutator, commutator, elem
from gradedosp.grading import deg_add, dot, trace_sign
from gradedosp.report import CheckReport
from gradedosp.scalars import ONE, ZERO, Scalar


def dense_rows(matrices) -> list[list[Scalar]]:
    """The matrices as dense rows of Scalars, an int entry wrapped in one."""
    rows = []
    for mat in matrices:
        m = mat.size
        row = [ZERO] * (m * m)
        for (i, j), v in as_scalars(mat).items():
            row[(i - 1) * m + (j - 1)] = v
        rows.append(row)
    return rows


def as_scalars(mat: GradedMatrix) -> GradedMatrix:
    """The same matrix with each int entry wrapped as a Scalar, built by
    `_make`, as the constructor would turn it back into an int."""
    return GradedMatrix._make(
        mat.signature, {pos: Scalar(v) if type(v) is int else v for pos, v in mat.items()}
    )


def dense_rank(rows: list[list[Scalar]]) -> int:
    """Textbook forward elimination on dense Scalar rows."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return 0
    cols = len(work[0])
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, len(work)):
            if work[r][col]:
                piv = r
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = work[rank][col].inv()
        for r in range(rank + 1, len(work)):
            factor = work[r][col]
            if not factor:
                continue
            factor = factor * inv
            prow = work[rank]
            row = work[r]
            for c in range(col, cols):
                if prow[c]:
                    row[c] = row[c] - factor * prow[c]
        rank += 1
        if rank == len(work):
            break
    return rank


def s_basis(spec: AlgebraSpec) -> Basis:
    """The spanning matrices s_ij reduced to an independent subset in
    lexicographic (i, j) order: a construction independent of
    `kernel_basis`, to check that one against."""
    reducer = SpanReducer()
    elements: list[GradedMatrix] = []
    labels: list[str] = []
    for i, j, mat in s_matrices(spec):
        if reducer.insert(dict(mat.items())):
            elements.append(mat)
            labels.append(f"s[{i},{j}]")
    return Basis(spec, elements, labels)


def membership_residual_by_transpose(spec: AlgebraSpec, mat: GradedMatrix) -> GradedMatrix:
    """The orthosymplectic residual A^T J + J A as the definition reads,
    by `graded_transpose` and `@`: the reference for
    `algebras.membership_residual`. A matrix of another signature raises
    ValueError at `@`."""
    j = j_matrix(spec)
    return (mat.graded_transpose() @ j) + (j @ mat)


def bruteforce_algebra_dim(spec: AlgebraSpec) -> int:
    """dim of the defining condition's solution space, via the rank of the
    constraint map evaluated entrywise on matrix units (no kernel code)."""
    sig = spec.signature()
    m = spec.size
    if spec.family is Family.GL:
        return m * m  # no condition: every matrix is a member
    if spec.family is Family.SL:
        images = []
        for p in range(1, m + 1):
            for q in range(1, m + 1):
                row = [ZERO]
                if p == q:
                    row = [ONE if trace_sign(sig[p - 1]) > 0 else -ONE]
                images.append(row)
        return m * m - dense_rank(images)
    images = [
        membership_residual_by_transpose(spec, elem(sig, p, q))
        for p in range(1, m + 1)
        for q in range(1, m + 1)
    ]
    return m * m - dense_rank(dense_rows(images))


def homogeneous_parts(mat: GradedMatrix) -> dict:
    """Split a matrix into its four graded components (all four always
    present), the part-by-part reference for the graded bracket."""
    sig = mat.signature
    parts = {(0, 0): {}, (1, 1): {}, (1, 0): {}, (0, 1): {}}
    for (i, j), v in mat.items():
        parts[deg_add(sig[i - 1], sig[j - 1])][(i, j)] = v
    return {d: GradedMatrix(sig, e) for d, e in parts.items()}


def graded_bracket_by_entries(a: GradedMatrix, b: GradedMatrix) -> GradedMatrix:
    """The graded bracket computed the plain way, the reference for
    `graded_bracket`: a dense accumulator and a loop over every pair of an
    entry of a and an entry of b. A pair adds its term of a*b where the
    inner indices meet, and its term of b*a times -(-1)^{dot} of the two
    position degrees where they meet the other way round. No product
    kernel, no `@` and no split into homogeneous parts."""
    sig = a.signature
    m = len(sig)
    dense = [[ZERO] * (m + 1) for _ in range(m + 1)]
    for (i, j), v in a.items():
        alpha = deg_add(sig[i - 1], sig[j - 1])
        for (k, l), w in b.items():
            beta = deg_add(sig[k - 1], sig[l - 1])
            if j == k:
                dense[i][l] = dense[i][l] + v * w
            if l == i:
                term = w * v
                dense[k][j] = dense[k][j] + term if dot(alpha, beta) else dense[k][j] - term
    entries = {(i, j): dense[i][j] for i in range(1, m + 1) for j in range(1, m + 1) if dense[i][j]}
    return GradedMatrix(sig, entries)


def jacobi_by_triples(basis, max_counterexamples: int = 10) -> CheckReport:
    """The graded Jacobi identity checked the plain way, the reference for
    `verify_jacobi`: every ordered triple on its own, three outer brackets
    of inner brackets [x, y] computed once each into a local list, no
    table, no orbits, no coordinates and no rescaling. Brackets go
    through `algebras.graded_bracket`, so a planted one is seen."""
    bracket = algebras.graded_bracket
    report = CheckReport("jacobi", basis.spec.to_json(), max_counterexamples)
    items = list(enumerate(zip(basis.labels, basis.elements)))
    inner = [[bracket(x, y) for y in basis.elements] for x in basis.elements]
    for ia, (la, a) in items:
        for ib, (lb, b) in items:
            odd = dot(a.degree_of(), b.degree_of())
            for ic, (lc, c) in items:
                lhs = bracket(a, inner[ib][ic])
                rhs = bracket(inner[ia][ib], c)
                third = bracket(b, inner[ia][ic])
                rhs = rhs - third if odd else rhs + third
                report.record(
                    lhs == rhs,
                    lambda: {"indices": [la, lb, lc], "residual": (lhs - rhs).to_json()},
                )
    return report


def _add_nested(acc: dict, row_x: dict, row_y: dict, first: int, sign: int = 1) -> None:
    """acc[c] += sign * [e_x, [e_y, e_c]] = sign * sum_d C_yc^d C_xd for each
    c >= first, in coordinates; row_x and row_y are C[x], C[y]. Cancelled
    coordinates stay in acc as zeros."""
    for ic, coeffs in row_y.items():
        if ic < first:
            continue
        out = acc.setdefault(ic, {})
        for d, x in coeffs.items():
            for k, v in row_x.get(d, {}).items():
                out[k] = out.get(k, 0) + sign * x * v


def _jacobiators(constants, ia: int, ib: int, odd: int) -> dict:
    """The coordinates of J(a, b, c) = [a, [b, c]] - [[a, b], c] - (-1)^odd [b, [a, c]]
    for every c >= b, with odd = dot(a, b), keyed by c: one pair (a, b) at
    a time, every product looked up in the rows of the constants."""
    row_a, row_b = constants[ia], constants[ib]
    acc: dict = {}
    _add_nested(acc, row_a, row_b, ib)
    # [[a, b], c] = sum_d C_ab^d [e_d, c]
    for d, x in row_a.get(ib, {}).items():
        for ic, vec in constants[d].items():
            if ic >= ib:
                out = acc.setdefault(ic, {})
                for k, v in vec.items():
                    out[k] = out.get(k, 0) - x * v
    _add_nested(acc, row_b, row_a, ib, 1 if odd else -1)
    return acc


def orbit_loop_passes(constants, degrees: list) -> bool:
    """Whether the Jacobiator vanishes on every orbit representative
    a <= b <= c, contracted in coordinates pair by pair, the reference for
    `algebras._derivation_certificate`: it needs no generating set and
    shares no code with the certificate's sweep. On constants that pass the
    gate J is graded antisymmetric in all three arguments, so that decides
    all n^3 triples."""
    n = len(constants)
    return not any(
        v
        for a in range(n)
        for b in range(a, n)
        for vec in _jacobiators(constants, a, b, dot(degrees[a], degrees[b])).values()
        for v in vec.values()
    )


def closure_by_pairs(basis, max_counterexamples: int = 10) -> CheckReport:
    """Closure checked the plain way, the reference for `verify_closure` on
    an orthosymplectic or sl basis: the membership residual of every
    ordered pair's bracket, freshly computed through
    `algebras.graded_bracket`, no table and no structure constants. A
    matrix residual vanishes when it has no entry, the sl supertrace when
    it equals 0."""
    bracket = algebras.graded_bracket
    residual_of = algebras.membership_residual(basis.spec)
    report = CheckReport("closure", basis.spec.to_json(), max_counterexamples)
    items = list(zip(basis.labels, basis.elements))
    for la, a in items:
        for lb, b in items:
            residual = residual_of(bracket(a, b))
            report.record(
                residual.is_zero() if isinstance(residual, GradedMatrix) else residual == 0,
                lambda: {"indices": [la, lb], "residual": residual.to_json()},
            )
    return report


def symmetry_by_pairs(basis, max_counterexamples: int = 10) -> CheckReport:
    """Graded antisymmetry checked the plain way, the reference for
    `verify_symmetry`: both brackets of every ordered pair freshly computed
    through `algebras.graded_bracket`, no table and no gate."""
    bracket = algebras.graded_bracket
    report = CheckReport("symmetry", basis.spec.to_json(), max_counterexamples)
    items = list(zip(basis.labels, basis.elements))
    for la, a in items:
        for lb, b in items:
            lhs = bracket(a, b)
            rhs = bracket(b, a)
            rhs = rhs if dot(a.degree_of(), b.degree_of()) else -rhs
            report.record(
                lhs == rhs, lambda: {"indices": [la, lb], "residual": (lhs - rhs).to_json()}
            )
    return report


def antisymmetry_failures_by_pairs(basis) -> frozenset[tuple[int, int]]:
    """The pairs a <= b that are not graded antisymmetric, found the plain
    way, the reference for `BracketTable.antisymmetry_failures`: a dense
    table of all n^2 brackets through `algebras.graded_bracket`, and each
    of the n(n+1)/2 pairs compared, a pair that holds an element that is
    not homogeneous failing. No gate and no sparse rows."""
    bracket = algebras.graded_bracket
    elements = basis.elements
    degrees = [mat.degree_of() for mat in elements]
    dense = [[bracket(a, b) for b in elements] for a in elements]
    failures = set()
    for ia, da in enumerate(degrees):
        for ib in range(ia, len(elements)):
            db = degrees[ib]
            t = dense[ia][ib]
            if da is None or db is None or dense[ib][ia] != (t if dot(da, db) else -t):
                failures.add((ia, ib))
    return frozenset(failures)


def block_conditions_by_pairs(basis, max_counterexamples: int = 10) -> CheckReport:
    """The block conditions checked the plain way, the reference for
    `verify_block_conditions`: every relation compares every (lhs, rhs)
    position pair of its blocks on every element, zero entries included."""
    spec = basis.spec
    sig = spec.signature()
    report = CheckReport("block-conditions", spec.to_json(), max_counterexamples)
    details = []
    for rel in algebras._block_relations():
        rows, cols = algebras._block_span(spec, rel["lhs"])
        rhs_rows, rhs_cols = algebras._block_span(spec, rel["rhs"] or rel["lhs"])
        sign = rel["sign"]
        holds = True
        for label, mat in zip(basis.labels, basis.elements):
            ok = True
            for r, i in enumerate(rows):
                for c, j in enumerate(cols):
                    partner = mat.entry(rhs_rows[c], rhs_cols[r])
                    want = partner if sign > 0 else -partner if sign else ZERO
                    ok = ok and mat.entry(i, j) == want
            report.record(ok, lambda: {"indices": [rel["id"], label], "residual": None})
            holds = holds and ok
        claimed = rel["degree_label"]
        detail = {
            "id": rel["id"],
            "holds": holds,
            "checked": len(basis.elements),
            "malformed_source": claimed is not None,
        }
        if claimed is not None:
            detail["degree_label"] = list(claimed)
            detail["degree_label_consistent"] = (
                not (rows and cols) or deg_add(sig[rows[0] - 1], sig[cols[0] - 1]) == claimed
            )
        details.append(detail)
    report.details = {"relations": details, "basis_size": len(basis.elements)}
    return report


def relations_by_instances(family, gens, partner=None, max_counterexamples: int = 10) -> CheckReport:
    """The triple relations checked the plain way, the reference for
    `verify_relations`: every instance of `parastat.RELATION_TABLE` on its
    own, both brackets freshly computed by `commutator` and
    `anticommutator`, the right-hand side summed with `+` and `scale`, and
    the two sides compared with `==`. No shared inner bracket, no
    generator table and no in-place residual."""
    family = parastat.RelationFamily(family)
    blocks = parastat.RELATION_TABLE[family]
    tags = dict.fromkeys(tag for block in blocks for tag in block.operands)
    sets = dict(zip(tags, (gens, partner)))
    bracket = {"[]": commutator, "{}": anticommutator}
    signed = family.sign_arity > 0
    zero = GradedMatrix.zero(gens.spec.signature())
    report = CheckReport(f"relations-{family.value}", gens.spec.to_json(), max_counterexamples)
    for block in blocks:
        slots = [sets[tag] for tag in block.operands]
        ranges = []
        for g, code in zip(slots, block.ranges):
            first = {"1": 1, "2": g.family_split + 1, "*": 1}[code]
            last = g.family_split if code == "1" else g.count
            ranges.append(range(first, last + 1))
        for idx in product(*ranges):
            for signs, rel, terms in block.cases:
                ops = [g.get(i, s) for g, i, s in zip(slots, idx, signs)]
                lhs = bracket[block.inner](ops[0], ops[1])
                if block.outer:
                    lhs = bracket[block.outer](lhs, ops[2])
                rhs = zero
                for c, p, q in terms:
                    if idx[p] == idx[q]:
                        rhs = rhs + ops[3 - p - q].scale(c)

                def counterexample():
                    indices = {"rel": rel} if rel else {}
                    indices.update(zip("jkl" if signed else "ijk", idx))
                    if not signed and len(idx) == 2:
                        indices["sign"] = signs[0]
                    return {
                        "indices": indices,
                        "signs": dict(zip(("xi", "eta", "eps"), signs)) if signed else {},
                        "residual": (lhs + rhs.scale(-1)).to_json(),
                    }

                report.record(lhs == rhs, counterexample)
    declared = parastat.declared_total(family, gens, partner)
    report.details = {"declared_total": declared, "sign_arity": family.sign_arity}
    return report


def consistency_by_pairs(*gen_sets, max_counterexamples: int = 10) -> CheckReport:
    """Bracket consistency checked the plain way, the reference for
    `parastat.graded_bracket_consistency`: every ordered pair of generators
    on its own, the actual bracket through `parastat.graded_bracket` (so a
    planted one is seen) and the expected one by `anticommutator` when the
    degrees' dot is 1 and `commutator` when 0, on the generators as given.
    No cores, no index and no bulk passes."""
    pool = [item for gens in gen_sets for item in gens.labelled()]
    report = CheckReport("bracket-consistency", gen_sets[0].spec.to_json(), max_counterexamples)
    for lx, x in pool:
        for ly, y in pool:
            actual = parastat.graded_bracket(x, y)
            odd = dot(x.degree_of(), y.degree_of())
            expected = anticommutator(x, y) if odd else commutator(x, y)
            report.record(
                actual == expected,
                lambda: {"indices": [lx, ly], "residual": (actual - expected).to_json()},
            )
    return report


def embed_middle_zero(mat: GradedMatrix, spec_d: AlgebraSpec) -> GradedMatrix:
    """Re-embed an ospD-layout matrix into the ospB layout of the same
    parameters by inserting a zero middle row and column."""
    mid = 2 * (spec_d.m1 + spec_d.m2) + 1
    spec_b = AlgebraSpec(Family.OSP_B, spec_d.m1, spec_d.m2, spec_d.n1, spec_d.n2)
    entries = {}
    for (i, j), v in mat.items():
        entries[(i if i < mid else i + 1, j if j < mid else j + 1)] = v
    return GradedMatrix(spec_b.signature(), entries)


def osp_grid(max_m=2, max_n=2):
    """Every ospB parameter tuple with m1+m2 <= max_m and n1+n2 <= max_n."""
    specs = []
    for m1 in range(max_m + 1):
        for m2 in range(max_m + 1 - m1):
            for n1 in range(max_n + 1):
                for n2 in range(max_n + 1 - n1):
                    specs.append(AlgebraSpec(Family.OSP_B, m1, m2, n1, n2))
    return specs


class FractionPair:
    """Reference Q(sqrt 2) arithmetic on a pair of Fractions rat + irr*sqrt2,
    written independently of the library's integer triple."""

    def __init__(self, rat=0, irr=0):
        self.rat = Fraction(rat)
        self.irr = Fraction(irr)

    def __add__(self, other):
        return FractionPair(self.rat + other.rat, self.irr + other.irr)

    def __sub__(self, other):
        return FractionPair(self.rat - other.rat, self.irr - other.irr)

    def __neg__(self):
        return FractionPair(-self.rat, -self.irr)

    def __mul__(self, other):
        return FractionPair(
            self.rat * other.rat + 2 * self.irr * other.irr,
            self.rat * other.irr + self.irr * other.rat,
        )

    def inv(self):
        norm = self.rat * self.rat - 2 * self.irr * self.irr
        return FractionPair(self.rat / norm, -self.irr / norm)

    def __truediv__(self, other):
        return self * other.inv()

    def __eq__(self, other):
        return self.rat == other.rat and self.irr == other.irr

    def __bool__(self):
        return bool(self.rat or self.irr)

    def __hash__(self):
        return hash(self.rat) if not self.irr else hash((self.rat, self.irr))


def assert_same_json(actual, expected) -> None:
    """Fail unless both documents dump to the same JSON string. A mismatch
    names the first differing path, such as
    `counterexamples[3].residual.entries[0]`, where pytest's own diff of two
    multi-megabyte strings would run for minutes."""
    if json.dumps(actual) != json.dumps(expected):
        raise AssertionError(f"JSON documents differ at {_first_difference(actual, expected, '')}")


def _first_difference(actual, expected, path: str) -> str:
    where = path or "<root>"
    if isinstance(actual, dict) and isinstance(expected, dict):
        if list(actual) != list(expected):
            return f"{where}: keys {list(actual)} != {list(expected)}"
        for key in actual:
            if json.dumps(actual[key]) != json.dumps(expected[key]):
                inner = f"{path}.{key}" if path else str(key)
                return _first_difference(actual[key], expected[key], inner)
    if isinstance(actual, (list, tuple)) and isinstance(expected, (list, tuple)):
        for i, (a, e) in enumerate(zip(actual, expected)):
            if json.dumps(a) != json.dumps(e):
                return _first_difference(a, e, f"{path}[{i}]")
        return f"{where}: length {len(actual)} != {len(expected)}"
    return f"{where}: {json.dumps(actual)[:200]} != {json.dumps(expected)[:200]}"
