"""Graded matrices: products, brackets, transpose, supertrace."""

import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedosp import gmatrix
from gradedosp.algebras import kernel_basis
from gradedosp.gmatrix import (
    GradedMatrix,
    _product,
    _rows_of,
    anticommutator,
    commutator,
    elem,
    graded_bracket,
    meeting_pairs,
)
from gradedosp.grading import deg_add, dot, signature_gl
from gradedosp.scalars import ONE, SQRT2, ZERO, Scalar

from helpers import as_scalars, graded_bracket_by_entries, homogeneous_parts, osp_grid

S4 = signature_gl(1, 0, 1, 1)        # degrees (0,0), (1,0), (0,1)
S6 = signature_gl(2, 1, 2, 1)        # 6x6 test signature, all four degrees


def test_elem_degrees():
    s = signature_gl(1, 0, 1, 0)
    assert elem(s, 1, 2).degree_of() == (1, 0)
    assert elem(signature_gl(1, 1, 0, 0), 2, 2).degree_of() == (0, 0)
    assert elem(S4, 2, 3).degree_of() == (1, 1)


def test_elem_out_of_range():
    with pytest.raises(IndexError):
        elem(S4, 0, 1)
    with pytest.raises(IndexError):
        elem(S4, 1, 4)


def test_constructor_refuses_non_int_positions():
    # bool is an int subclass, but would be written out as a JSON boolean
    for position in ((1.5, 1), (True, 2)):
        with pytest.raises(TypeError):
            GradedMatrix(((0, 0), (1, 1)), {position: 1})


def test_constructor_refuses_bad_degrees():
    # a degree outside {0, 1}^2 would be read mod 2 by deg_add and written back as given
    for degree in ((3, 1), (2, 0), (0, -1), (1, 1, 0), [1, 1], 1):
        with pytest.raises(ValueError):
            GradedMatrix(((0, 0), degree), {(1, 2): 1})
    for degree in ((True, 1), (1.0, 0)):
        with pytest.raises(TypeError):
            GradedMatrix(((0, 0), degree), {(1, 2): 1})
    with pytest.raises(ValueError):
        GradedMatrix.from_json(
            {"size": 2, "signature": [[2, 0], [0, -1]], "entries": [[1, 2, 1, 1, 0, 1]]}
        )
    sig = ((0, 0), (1, 1), (1, 0), (0, 1))
    assert GradedMatrix(sig, {(1, 2): 1}).signature == sig


def test_degree_of():
    s = signature_gl(1, 0, 1, 0)
    assert GradedMatrix.zero(s).degree_of() == (0, 0)
    assert elem(s, 2, 1).degree_of() == (1, 0)
    assert (elem(s, 1, 2) + elem(s, 2, 1)).degree_of() == (1, 0)
    assert (elem(s, 1, 1) + elem(s, 1, 2)).degree_of() is None


def test_homogeneous_parts():
    x = elem(S4, 1, 2)
    parts = homogeneous_parts(x)
    assert parts[(1, 0)] == x
    assert all(parts[d].is_zero() for d in parts if d != (1, 0))

    eye = GradedMatrix.identity(signature_gl(1, 1, 1, 1))
    parts = homogeneous_parts(eye)
    assert parts[(0, 0)] == eye

    y = elem(S4, 1, 2) + elem(S4, 1, 3)
    parts = homogeneous_parts(y)
    assert parts[(1, 0)] == elem(S4, 1, 2)
    assert parts[(0, 1)] == elem(S4, 1, 3)
    total = GradedMatrix.zero(S4)
    for part in parts.values():
        total = total + part
    assert total == y


def test_matmul():
    assert elem(S4, 2, 1) @ elem(S4, 1, 3) == elem(S4, 2, 3)
    assert (elem(S4, 1, 2) @ elem(S4, 1, 3)).is_zero()


def test_matmul_degree_additive():
    m = len(S6)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            a = elem(S6, i, j)
            for k in range(1, m + 1):
                b = elem(S6, j, k)
                prod = a @ b
                assert prod.degree_of() == deg_add(a.degree_of(), b.degree_of())


def test_signature_mismatch():
    other = signature_gl(2, 0, 1, 1)
    with pytest.raises(ValueError):
        elem(S4, 1, 1) @ elem(other, 1, 1)
    with pytest.raises(ValueError):
        elem(S4, 1, 1) + elem(other, 1, 1)
    with pytest.raises(ValueError):
        graded_bracket(elem(S4, 1, 1), elem(other, 1, 1))


def test_graded_bracket_examples():
    # degrees (1,0) and (0,1): dot 0, commutator
    assert graded_bracket(elem(S4, 2, 1), elem(S4, 1, 3)) == elem(S4, 2, 3)
    # degrees (1,0) and (1,0): dot 1, anticommutator
    assert graded_bracket(elem(S4, 1, 2), elem(S4, 2, 1)) == elem(S4, 1, 1) + elem(S4, 2, 2)
    # square-zero element brackets to zero with itself
    assert graded_bracket(elem(S4, 1, 2), elem(S4, 1, 2)).is_zero()


def test_graded_bracket_extends_bilinearly():
    # on inhomogeneous input the bracket equals the part-by-part expansion
    rng = random.Random(417)
    for _ in range(12):
        a = _random_matrix(S6, rng)
        b = _random_matrix(S6, rng)
        expanded = GradedMatrix.zero(S6)
        for pa in homogeneous_parts(a).values():
            for pb in homogeneous_parts(b).values():
                expanded = expanded + graded_bracket(pa, pb)
        assert graded_bracket(a, b) == expanded


def test_plain_commutators():
    eye = GradedMatrix.identity(S4)
    a = elem(S4, 1, 2) + elem(S4, 3, 1).scale(SQRT2)
    assert commutator(eye, a).is_zero()
    assert anticommutator(elem(S4, 1, 2), elem(S4, 2, 1)) == elem(S4, 1, 1) + elem(S4, 2, 2)
    b = elem(S4, 2, 3) - elem(S4, 1, 1)
    assert commutator(a, b) + anticommutator(a, b) == (a @ b).scale(2)


def test_graded_transpose_examples():
    s = signature_gl(1, 0, 1, 0)
    assert elem(s, 1, 2).graded_transpose() == elem(s, 2, 1)
    assert elem(s, 2, 1).graded_transpose() == -elem(s, 1, 2)
    for i in (1, 2):
        assert elem(s, i, i).graded_transpose() == elem(s, i, i)


def test_bracket_grading_closure():
    # bracket of homogeneous elements lands in the sum degree
    m = len(S6)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            a = elem(S6, i, j)
            for k in range(1, m + 1):
                for l in range(1, m + 1):
                    b = elem(S6, k, l)
                    br = graded_bracket(a, b)
                    if not br.is_zero():
                        assert br.degree_of() == deg_add(a.degree_of(), b.degree_of())


def test_bracket_symmetry():
    m = len(S6)
    units = [elem(S6, i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    for a in units:
        for b in units:
            lhs = graded_bracket(a, b)
            rhs = graded_bracket(b, a)
            if dot(a.degree_of(), b.degree_of()):
                assert lhs == rhs
            else:
                assert lhs == -rhs


def test_bracket_jacobi_on_matrix_units():
    s = signature_gl(1, 1, 1, 1)
    units = [elem(s, i, j) for i in range(1, 5) for j in range(1, 5)]
    for a in units:
        da = a.degree_of()
        for b in units:
            sign = dot(da, b.degree_of())
            ab = graded_bracket(a, b)
            for c in units:
                lhs = graded_bracket(a, graded_bracket(b, c))
                third = graded_bracket(b, graded_bracket(a, c))
                rhs = graded_bracket(ab, c)
                rhs = rhs - third if sign else rhs + third
                assert lhs == rhs


def test_transpose_antihomomorphism():
    m = len(S6)
    units = [elem(S6, i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    for a in units:
        da = a.degree_of()
        at = a.graded_transpose()
        for b in units:
            lhs = (a @ b).graded_transpose()
            rhs = b.graded_transpose() @ at
            if dot(da, b.degree_of()):
                rhs = -rhs
            assert lhs == rhs


def test_transpose_involution_character():
    m = len(S6)
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            a = elem(S6, i, j)
            g = a.degree_of()
            twice = a.graded_transpose().graded_transpose()
            assert twice == (-a if dot(g, g) else a)


# The 4x4 block sign table of the graded supertranspose on the gl layout:
# entry [p][q] is the sign carried by source block (p, q).
BLOCK_SIGNS = [
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [-1, 1, 1, -1],
    [-1, 1, -1, 1],
]


def test_transpose_block_sign_table():
    s = signature_gl(1, 1, 1, 1)  # one index per block
    for p in range(4):
        for q in range(4):
            a = elem(s, p + 1, q + 1)
            want = elem(s, q + 1, p + 1).scale(BLOCK_SIGNS[p][q])
            assert a.graded_transpose() == want


def test_transpose_z2_reduction():
    # only degrees (0,0) and (1,0): the ordinary supertranspose block signs
    s = signature_gl(2, 0, 2, 0)
    blocks = {(0, 0): 1, (0, 1): 1, (1, 0): -1, (1, 1): 1}  # (row half, col half)
    for i in range(1, 5):
        for j in range(1, 5):
            half = (0 if i <= 2 else 1, 0 if j <= 2 else 1)
            assert elem(s, i, j).graded_transpose() == elem(s, j, i).scale(blocks[half])


def test_supertrace_examples():
    s4 = signature_gl(1, 1, 1, 1)
    assert GradedMatrix.identity(s4).supertrace() == ZERO
    s2 = signature_gl(1, 0, 1, 0)
    assert elem(s2, 2, 2).supertrace() == Scalar(-1)
    assert elem(s2, 1, 2).supertrace() == ZERO


def _random_matrix(sig, rng):
    pool = [Scalar(-1), ZERO, ONE, SQRT2]
    m = len(sig)
    entries = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            v = rng.choice(pool)
            if v:
                entries[(i, j)] = v
    return GradedMatrix(sig, entries)


def test_supertrace_vanishes_on_brackets():
    sig = signature_gl(1, 1, 1, 1)
    rng = random.Random(8143)
    for _ in range(50):
        a = _random_matrix(sig, rng)
        b = _random_matrix(sig, rng)
        assert graded_bracket(a, b).supertrace() == ZERO


def test_scale_and_neg():
    a = elem(S4, 1, 2) + elem(S4, 2, 3).scale(SQRT2)
    assert a.scale(0).is_zero()
    assert a.scale(2) == a + a
    assert -a + a == GradedMatrix.zero(S4)
    assert 3 * elem(S4, 1, 2) == elem(S4, 1, 2).scale(3)


def test_json_round_trip():
    a = elem(S4, 3, 1).scale(SQRT2) - elem(S4, 1, 2).scale(Scalar(1, -2))
    doc = a.to_json()
    assert doc["size"] == 3
    positions = [(e[0], e[1]) for e in doc["entries"]]
    assert positions == sorted(positions)
    assert GradedMatrix.from_json(doc) == a


def test_json_skips_zeros():
    a = elem(S4, 1, 2) - elem(S4, 1, 2)
    assert a.to_json()["entries"] == []


_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=9)
_SCALARS = st.builds(Scalar, _RATIONALS, _RATIONALS)
_POSITIONS = st.tuples(st.integers(1, len(S6)), st.integers(1, len(S6)))
_SPARSE = st.dictionaries(_POSITIONS, _SCALARS, max_size=10).map(lambda e: GradedMatrix(S6, e))


# Nonzero entries of three kinds, each kept as drawn by `_make`: plain ints,
# integral Scalars and general Q(sqrt 2) Scalars.
_MIXED_VALUES = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.integers(-4, 4).filter(bool).map(Scalar),
    _SCALARS.filter(bool),
)
_MIXED = st.dictionaries(_POSITIONS, _MIXED_VALUES, max_size=8).map(
    lambda e: GradedMatrix._make(S6, e)
)


def _same(x: GradedMatrix, y: GradedMatrix) -> None:
    assert x == y and y == x
    assert x.to_json() == y.to_json()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_MIXED, _MIXED, st.one_of(st.integers(-3, 3), _SCALARS))
def test_no_result_depends_on_the_type_that_holds_an_entry(a, b, factor):
    # Every operation gives on int entries what it gives on the same values
    # wrapped as Scalars, compared by ==, by to_json and by hash.
    sa, sb = as_scalars(a), as_scalars(b)
    _same(a, sa)
    assert [hash(v) for _, v in a.items()] == [hash(v) for _, v in sa.items()]
    assert (a == b) == (sa == sb)
    for op in (operator.matmul, operator.add, operator.sub, graded_bracket):
        _same(op(a, b), op(sa, sb))
    _same(a.scale(factor), sa.scale(factor))
    _same(a.graded_transpose(), sa.graded_transpose())
    assert a.supertrace() == sa.supertrace()
    assert a.supertrace().to_json() == sa.supertrace().to_json()
    assert a.degree_of() == sa.degree_of()
    # The constructor stores exactly the integral values as ints.
    rebuilt = GradedMatrix(S6, sa.items())
    _same(rebuilt, sa)
    assert [type(v) is int for _, v in rebuilt.items()] == [
        v._d == 1 and not v._b for _, v in sa.items()
    ]


def _dense_product(a: GradedMatrix, b: GradedMatrix) -> dict:
    m = a.size
    out = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            total = ZERO
            for k in range(1, m + 1):
                total = total + a.entry(i, k) * b.entry(k, j)
            if total:
                out[(i, j)] = total
    return out


def _dense_sum(a: GradedMatrix, b: GradedMatrix, op) -> dict:
    m = a.size
    out = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            total = op(ZERO + a.entry(i, j), b.entry(i, j))
            if total:
                out[(i, j)] = total
    return out


@settings(max_examples=80, deadline=None)
@given(_SPARSE, _SPARSE)
def test_product_kernel_accumulates_products_and_brackets(a, b):
    # Sparse Q(sqrt 2) operands with denominators; the accumulated dict
    # holds no zero entry, so it equals the entries of the matrix it sums.
    def accumulated(*terms):
        acc = {}
        for entries, right in terms:
            _product(acc, entries, _rows_of(dict(right.items())))
        assert all(acc.values())
        return acc

    a_entries, b_entries = dict(a.items()), dict(b.items())
    b_negated = {pos: -v for pos, v in b_entries.items()}
    assert accumulated((a_entries, b)) == _dense_product(a, b) == dict((a @ b).items())
    assert accumulated((a_entries, b), (b_negated, a)) == dict(commutator(a, b).items())
    assert accumulated((a_entries, b), (b_entries, a)) == dict(anticommutator(a, b).items())
    # `+` and `-` against the entrywise sums, and a - a stores no entry.
    assert dict((a + b).items()) == _dense_sum(a, b, operator.add)
    assert dict((a - b).items()) == _dense_sum(a, b, operator.sub)
    assert not dict((a - a).items())


def _homogeneous(degree):
    positions = [
        (i, j)
        for i in range(1, len(S6) + 1)
        for j in range(1, len(S6) + 1)
        if deg_add(S6[i - 1], S6[j - 1]) == degree
    ]
    entries = st.dictionaries(st.sampled_from(positions), _SCALARS, max_size=10)
    return entries.map(lambda e: GradedMatrix(S6, e))


_DEGREES = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])
_OPERANDS = st.one_of(_SPARSE, _DEGREES.flatmap(_homogeneous))


@settings(max_examples=100, deadline=None)
@given(_OPERANDS, _OPERANDS)
def test_graded_bracket_matches_the_entrywise_oracle(a, b):
    # Homogeneous and inhomogeneous Q(sqrt 2) operands with denominators,
    # in both orders and against itself; the second round reads the index
    # each operand stored on the first.
    expected = [graded_bracket_by_entries(x, y) for x, y in ((a, b), (b, a), (a, a))]
    for _ in range(2):
        assert [graded_bracket(x, y) for x, y in ((a, b), (b, a), (a, a))] == expected


def test_entrywise_oracle_examples():
    # degrees (1,0) and (0,1): dot 0, commutator; (1,0) twice: dot 1, anticommutator
    assert graded_bracket_by_entries(elem(S4, 2, 1), elem(S4, 1, 3)) == elem(S4, 2, 3)
    assert graded_bracket_by_entries(elem(S4, 1, 2), elem(S4, 2, 1)) == elem(S4, 1, 1) + elem(S4, 2, 2)
    # an inhomogeneous operand: the (1,0) part anticommutes with e21, the (0,1) part commutes
    x = elem(S4, 1, 2) + elem(S4, 1, 3).scale(SQRT2)
    want = elem(S4, 1, 1) + elem(S4, 2, 2) - elem(S4, 2, 3).scale(SQRT2)
    assert graded_bracket_by_entries(x, elem(S4, 2, 1)) == want == graded_bracket(x, elem(S4, 2, 1))


def _count_products(monkeypatch) -> list:
    """The calls of `gmatrix._product` from here on."""
    calls = []
    product = gmatrix._product
    monkeypatch.setattr(gmatrix, "_product", lambda *args: calls.append(1) or product(*args))
    return calls


def _fresh(mat: GradedMatrix) -> GradedMatrix:
    """A copy of `mat` that has never been bracketed."""
    return GradedMatrix(mat.signature, dict(mat.items()))


def test_disjoint_pair_brackets_to_zero_without_a_product(monkeypatch):
    # No column of either operand meets a row of the other, so neither
    # a*b nor b*a has a term, on the first bracket and after.
    a = GradedMatrix(S6, {(1, 2): SQRT2, (3, 2): ONE})
    b = GradedMatrix(S6, {(4, 5): ONE, (6, 4): Scalar(3)})
    calls = _count_products(monkeypatch)
    assert graded_bracket(a, b).is_zero()
    assert graded_bracket(b, a).is_zero()
    assert calls == []
    assert a._index is not None and b._index is not None


def test_disjoint_masks_still_refuse_a_signature_mismatch():
    a = elem(S6, 1, 2)
    b = elem(signature_gl(2, 1, 2, 2), 4, 5)
    with pytest.raises(ValueError):
        graded_bracket(a, b)


@pytest.mark.parametrize(
    "a_pos, b_pos",
    [
        ((1, 2), (2, 3)),  # a*b = e13, b*a structurally zero
        ((2, 3), (1, 2)),  # a*b structurally zero, b*a = e13
        ((1, 6), (6, 1)),  # indices 1 and m, both directions
        ((6, 1), (1, 1)),  # a*b = e61 through index 1, b*a zero
        ((6, 6), (1, 6)),  # a*b zero, b*a = e16 through index m
    ],
)
def test_one_sided_overlap_runs_both_products(monkeypatch, a_pos, b_pos):
    # One homogeneous part each: the masks meet, so both products of the
    # one pair of parts run, a*b and b*a, though only one of them has a term.
    a = GradedMatrix(S6, {a_pos: Scalar(2) + SQRT2})
    b = GradedMatrix(S6, {b_pos: Scalar(-3)})
    expected = graded_bracket_by_entries(a, b)
    assert not expected.is_zero()
    calls = _count_products(monkeypatch)
    assert graded_bracket(a, b) == expected
    assert calls == [1, 1]


def test_masks_decide_every_pair_of_matrix_units_as_the_full_path():
    # Every pair of units at indices 1, 2, m - 1 and m: the masks never
    # drop a nonzero bracket, whether built on the first bracket of a
    # fresh copy or read from the units' stored indexes.
    m = len(S6)
    ends = (1, 2, m - 1, m)
    units = [elem(S6, i, j) for i in ends for j in ends]
    for a in units:
        for b in units:
            expected = graded_bracket_by_entries(a, b)
            assert graded_bracket(_fresh(a), _fresh(b)) == graded_bracket(a, b) == expected


def _supports_meet(a: GradedMatrix, b: GradedMatrix) -> bool:
    """Some column of one operand is a row of the other, read from the
    entries."""
    return any(j == k for (_, j), _ in a.items() for (k, _), _ in b.items()) or any(
        j == k for (_, j), _ in b.items() for (k, _), _ in a.items()
    )


def _bracketed_pairs(monkeypatch, mats) -> list:
    """The pairs of fresh copies of `mats` on which `graded_bracket`
    runs a product, that is, which its mask test does not decide."""
    ran = []
    bracket_into = gmatrix._bracket_into
    monkeypatch.setattr(gmatrix, "_bracket_into", lambda *a: ran.append(1) or bracket_into(*a))
    copies = [_fresh(mat) for mat in mats]
    pairs = []
    for ia, a in enumerate(copies):
        for ib, b in enumerate(copies):
            ran.clear()
            graded_bracket(a, b)
            if ran:
                pairs.append((ia, ib))
    return pairs


def _meeting_cases(case: str) -> list:
    """Lists of matrices: the matrix units of S6 with the zero matrix and
    two sums of units, or the kernel basis of each spec of the acceptance
    grid."""
    if case == "kernel bases":
        return [kernel_basis(spec).elements for spec in osp_grid()]
    m = len(S6)
    units = [elem(S6, i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    return [[GradedMatrix(S6, {}), units[1] + units[m], units[7].scale(SQRT2) + units[-1], *units]]


@pytest.mark.parametrize("case", ["matrix units", "kernel bases"])
def test_meeting_pairs_are_the_pairs_the_masks_leave(monkeypatch, case):
    # `meeting_pairs` lists, in increasing b, exactly the pairs whose
    # supports meet, and exactly those on which `graded_bracket` runs a
    # product.
    for mats in _meeting_cases(case):
        n = len(mats)
        meeting = meeting_pairs(mats)
        assert len(meeting) == n
        pairs = [(a, b) for a, row in enumerate(meeting) for b in row]
        brute = [(a, b) for a in range(n) for b in range(n) if _supports_meet(mats[a], mats[b])]
        assert pairs == brute
        assert pairs == _bracketed_pairs(monkeypatch, mats)
