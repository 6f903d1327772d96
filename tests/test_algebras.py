"""Algebra constructors, membership, the echelon engine, and the verifiers."""

import gc
import importlib.util
import json
import re
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedosp import algebras, cli, parastat
from gradedosp.algebras import (
    AlgebraSpec,
    Basis,
    BracketTable,
    Family,
    SpanReducer,
    expected_dim,
    is_member,
    j_matrix,
    kernel_basis,
    rank_of,
    s_matrices,
    u_matrix,
    verify_block_conditions,
    verify_closure,
    verify_jacobi,
    verify_membership,
    verify_symmetry,
)
from gradedosp.gmatrix import GradedMatrix, elem, graded_bracket
from gradedosp.grading import deg_add, dot
from gradedosp.report import CheckReport
from gradedosp.scalars import ONE, SQRT2, Scalar

from helpers import (
    antisymmetry_failures_by_pairs,
    as_scalars,
    assert_same_json,
    block_conditions_by_pairs,
    bruteforce_algebra_dim,
    closure_by_pairs,
    dense_rank,
    dense_rows,
    embed_middle_zero,
    jacobi_by_triples,
    membership_residual_by_transpose,
    orbit_loop_passes,
    osp_grid,
    s_basis,
    symmetry_by_pairs,
)


def ospB(*params):
    return AlgebraSpec(Family.OSP_B, *params)


def ospD(*params):
    return AlgebraSpec(Family.OSP_D, *params)


# -- specs ------------------------------------------------------------------

def test_spec_sizes():
    assert AlgebraSpec(Family.GL, 1, 1, 1, 1).size == 4
    assert ospB(1, 1, 1, 1).size == 9
    assert ospD(1, 1, 1, 1).size == 8
    assert ospB(0, 0, 0, 0).size == 1


def test_spec_validation():
    with pytest.raises(ValueError):
        AlgebraSpec(Family.GL, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        ospD(0, 0, 0, 0)
    with pytest.raises(ValueError):
        ospB(-1, 0, 0, 0)


def test_spec_json_round_trip():
    spec = ospB(2, 0, 1, 2)
    assert AlgebraSpec.from_json(spec.to_json()) == spec


def test_spec_is_frozen_and_hashable():
    spec = ospB(2, 0, 1, 2)
    assert hash(spec) == hash(ospB(2, 0, 1, 2))
    assert {spec: 1}[ospB(2, 0, 1, 2)] == 1
    with pytest.raises(AttributeError):
        spec.m1 = 3
    with pytest.raises(AttributeError):
        del spec.m1
    assert spec == ospB(2, 0, 1, 2) and spec.m1 == 2


def test_spec_repr_names_every_field():
    assert repr(AlgebraSpec(Family.OSP_B, 2, 1, 1, 1)) == (
        "AlgebraSpec(family=<Family.OSP_B: 'ospB'>, m1=2, m2=1, n1=1, n2=1)"
    )


def test_from_json_refuses_floats():
    # int() would truncate these to the entry (1, 2) and to ospB(1,0,0,0)
    with pytest.raises(TypeError):
        GradedMatrix.from_json(
            {"size": 2, "signature": [[0, 0], [1, 1]], "entries": [[1.7, 2.2, 1, 1, 0, 1]]}
        )
    with pytest.raises(TypeError):
        AlgebraSpec.from_json({"family": "ospB", "m1": 1.9, "m2": 0, "n1": 0, "n2": 0})
    # bool is an int subclass, but true/false would echo back as JSON booleans
    with pytest.raises(TypeError):
        GradedMatrix.from_json(
            {"size": 2, "signature": [[0, 0], [1, 1]], "entries": [[True, 2, 1, 1, 0, 1]]}
        )
    with pytest.raises(TypeError):
        AlgebraSpec.from_json({"family": "ospB", "m1": True, "m2": 0, "n1": 0, "n2": 0})
    with pytest.raises(ValueError):
        AlgebraSpec(Family.OSP_B, True)
    with pytest.raises(TypeError):
        Scalar.from_json([True, 1, 0, 1])


# -- the defining form J ----------------------------------------------------

def test_j_matrix_trivial():
    j = j_matrix(ospB(0, 0, 0, 0))
    assert j == GradedMatrix(j.signature, {(1, 1): ONE})


def test_j_matrix_so3():
    j = j_matrix(ospB(1, 0, 0, 0))
    want = {(1, 2): ONE, (2, 1): ONE, (3, 3): ONE}
    assert j == GradedMatrix(j.signature, want)


def test_j_matrix_osp12():
    j = j_matrix(ospB(0, 0, 1, 0))
    want = {(1, 1): ONE, (2, 3): ONE, (3, 2): -ONE}
    assert j == GradedMatrix(j.signature, want)


def test_j_matrix_rejects_gl():
    with pytest.raises(ValueError):
        j_matrix(AlgebraSpec(Family.SL, 1, 0, 1, 0))


@pytest.mark.parametrize("spec", [ospB(1, 1, 1, 1), ospD(1, 0, 2, 1), ospB(0, 2, 0, 1)])
def test_j_matrix_structure(spec):
    j = j_matrix(spec)
    m = spec.size
    rows = set()
    cols = set()
    for (r, c), v in j.items():
        rows.add(r)
        cols.add(c)
        assert v == ONE or v == -ONE
    # a signed permutation: invertible by construction
    assert rows == cols == set(range(1, m + 1))
    # symmetric on the orthogonal part, antisymmetric on the symplectic part
    orth = 2 * (spec.m1 + spec.m2) + (1 if spec.family is Family.OSP_B else 0)
    for (r, c), v in j.items():
        if r <= orth and c <= orth:
            assert j.entry(c, r) == v
        if r > orth and c > orth:
            assert j.entry(c, r) == -v


def test_u_matrix_examples():
    u = u_matrix(ospB(0, 0, 0, 0))
    assert u.entry(1, 1) == ONE

    spec = ospB(0, 0, 1, 0)
    u = u_matrix(spec)
    sig = spec.signature()
    for i in range(1, 4):
        for j in range(1, 4):
            want = Scalar(-1) if dot(sig[i - 1], sig[j - 1]) else ONE
            assert u.entry(i, j) == want
    # -1 exactly on the paraboson-paraboson positions
    assert u.entry(2, 2) == u.entry(2, 3) == u.entry(3, 2) == u.entry(3, 3) == Scalar(-1)
    assert u.entry(1, 1) == u.entry(1, 2) == u.entry(3, 1) == ONE


@pytest.mark.parametrize("spec", [ospB(1, 1, 1, 1), ospD(2, 0, 1, 1)])
def test_u_matrix_symmetric(spec):
    u = u_matrix(spec)
    for (i, j), v in u.items():
        assert u.entry(j, i) == v


_FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
_SCALARS = st.builds(Scalar, _FRACTIONS, _FRACTIONS)


# -- membership --------------------------------------------------------------

def test_is_member_paraboson_annihilator():
    spec = ospB(0, 0, 1, 0)
    sig = spec.signature()
    b1_minus = (elem(sig, 1, 2) - elem(sig, 3, 1)).scale(SQRT2)
    assert is_member(spec, b1_minus)


def test_is_member_sl_trace():
    spec = AlgebraSpec(Family.SL, 1, 1, 0, 0)
    sig = spec.signature()
    assert not is_member(spec, elem(sig, 1, 1))
    assert is_member(spec, elem(sig, 1, 2))
    assert is_member(spec, elem(sig, 1, 1) - elem(sig, 2, 2))


def test_is_member_zero_and_gl():
    for spec in (ospB(1, 0, 1, 0), AlgebraSpec(Family.GL, 1, 1, 1, 1)):
        assert is_member(spec, GradedMatrix.zero(spec.signature()))
    spec = AlgebraSpec(Family.GL, 1, 1, 0, 0)
    assert is_member(spec, elem(spec.signature(), 1, 1))


def test_is_member_signature_mismatch():
    spec = ospB(1, 0, 0, 0)
    with pytest.raises(ValueError):
        is_member(spec, GradedMatrix.zero(ospB(0, 0, 1, 0).signature()))


# Entries of drawn matrices: ints, rationals and values with a sqrt2 part.
_ENTRIES = st.one_of(
    st.integers(-3, 3), _FRACTIONS.map(Scalar), _SCALARS, st.sampled_from([SQRT2, -SQRT2])
)


@st.composite
def _osp_specs(draw):
    family = draw(st.sampled_from([Family.OSP_B, Family.OSP_D]))
    params = draw(st.tuples(*[st.integers(0, 2)] * 4))
    if family is Family.OSP_D and not any(params):
        params = (0, 0, 1, 0)  # ospD(0,0,0,0) has matrix size 0
    return AlgebraSpec(family, *params)


@st.composite
def _sparse_matrices(draw, spec: AlgebraSpec):
    """A sparse matrix of the spec's signature, rarely homogeneous, plus
    a drawn combination of spanning matrices s_ij, so that members and
    cancelling terms come up too."""
    m = spec.size
    positions = st.tuples(st.integers(1, m), st.integers(1, m))
    mat = GradedMatrix(spec.signature(), draw(st.dictionaries(positions, _ENTRIES, max_size=6)))
    spanning = [s for _, _, s in s_matrices(spec)]
    for s in draw(st.lists(st.sampled_from(spanning), max_size=3)):
        mat = mat + s.scale(draw(_ENTRIES))
    return mat


@st.composite
def _residual_inputs(draw):
    spec, other = draw(_osp_specs()), draw(_osp_specs())
    return spec, draw(_sparse_matrices(spec)), draw(_sparse_matrices(other))


# The budget comes from the loaded hypothesis profile (see tests/conftest.py).
@settings(deadline=None, derandomize=True)
@given(_residual_inputs())
def test_membership_residual_matches_the_transpose_oracle(case):
    # The one-pass residual against A^T J + J A built by graded_transpose
    # and @, on drawn matrices of ospB and ospD; a matrix of another
    # signature is refused by both.
    spec, mat, stranger = case
    residual_of = algebras.membership_residual(spec)
    got = residual_of(mat)
    want = membership_residual_by_transpose(spec, mat)
    assert got == want
    assert_same_json(got.to_json(), want.to_json())
    if stranger.signature != mat.signature:
        with pytest.raises(ValueError):
            residual_of(stranger)
        with pytest.raises(ValueError):
            membership_residual_by_transpose(spec, stranger)


# -- echelon engine ------------------------------------------------------------

def test_rank_of_examples():
    s = ospB(0, 0, 1, 0).signature()
    assert rank_of([elem(s, 1, 2), elem(s, 1, 2).scale(2), elem(s, 2, 1)]) == 2
    assert rank_of([]) == 0
    mats = [mat for _, _, mat in s_matrices(ospB(1, 0, 0, 0))]
    assert rank_of(mats) == 3
    assert rank_of(mats) == dense_rank(dense_rows(mats))


def test_reduce_span_keeps_first_witnesses():
    s = ospB(0, 0, 1, 0).signature()
    mats = [elem(s, 1, 2), elem(s, 1, 2).scale(2), elem(s, 2, 1)]
    reducer = SpanReducer()
    kept = [mat for mat in mats if reducer.insert(dict(mat.items()))]
    assert kept == [mats[0], mats[2]]


def test_span_reducer_is_deterministic():
    mats = [mat for _, _, mat in s_matrices(ospB(1, 0, 1, 0))]
    r1 = SpanReducer()
    r2 = SpanReducer()
    for m in mats:
        r1.insert(dict(m.items()))
        r2.insert(dict(m.items()))
    assert r1.rows_by_pivot() == r2.rows_by_pivot()


_SIG3 = ospB(0, 0, 1, 0).signature()


@st.composite
def _matrix_lists(draw):
    """A few sparse 3x3 matrices over Q(sqrt 2); some are linear
    combinations of others, inserted at a drawn position."""
    positions = st.tuples(st.integers(1, 3), st.integers(1, 3))
    mats = [
        GradedMatrix(_SIG3, draw(st.dictionaries(positions, _SCALARS, max_size=4)))
        for _ in range(draw(st.integers(0, 4)))
    ]
    for _ in range(draw(st.integers(0, 3)) if mats else 0):
        combo = GradedMatrix.zero(_SIG3)
        for k in draw(st.lists(st.integers(0, len(mats) - 1), min_size=1, max_size=3)):
            combo = combo + mats[k].scale(draw(_SCALARS))
        mats.insert(draw(st.integers(0, len(mats))), combo)
    return mats


@settings(max_examples=60, deadline=None)
@given(_matrix_lists())
def test_echelon_engine_matches_the_dense_oracle(mats):
    assert rank_of(mats) == dense_rank(dense_rows(mats))
    prefix_ranks = [dense_rank(dense_rows(mats[:k])) for k in range(len(mats) + 1)]
    raises = [mat for k, mat in enumerate(mats) if prefix_ranks[k + 1] > prefix_ranks[k]]
    reducer = SpanReducer()
    kept = [mat for mat in mats if reducer.insert(dict(mat.items()))]
    assert len(kept) == len(raises)
    assert all(a is b for a, b in zip(kept, raises))


# -- the two basis constructions ------------------------------------------------

def test_s_basis_sizes():
    assert len(s_basis(ospB(0, 0, 0, 0))) == 0
    assert len(s_basis(ospB(1, 0, 0, 0))) == 3
    assert len(s_basis(ospB(0, 0, 1, 0))) == 5


def test_s_basis_members_and_labels():
    spec = ospB(1, 0, 1, 0)
    basis = s_basis(spec)
    assert all(is_member(spec, x) for x in basis.elements)
    assert all(label.startswith("s[") for label in basis.labels)


def test_s_ji_proportional_to_s_ij():
    # the spanning set is redundant in a structured way: s_ji = -u_ij s_ij
    spec = ospB(1, 1, 1, 1)
    u = u_matrix(spec)
    s = {(i, j): mat for i, j, mat in s_matrices(spec)}
    assert len(s) == spec.size ** 2
    for (i, j), mat in s.items():
        assert s[j, i] == mat.scale(-u.entry(i, j))


def test_s_matrices_match_the_formula():
    # s_ij = sum_k J_ik e_kj - u_ij sum_k J_jk e_ki, built entry by entry
    spec = ospB(1, 0, 1, 1)
    sig = spec.signature()
    jm = j_matrix(spec)
    u = u_matrix(spec)
    for i, j, mat in s_matrices(spec):
        want = GradedMatrix.zero(sig)
        for (r, c), v in jm.items():
            if r == i:
                want = want + elem(sig, c, j).scale(v)
            if r == j:
                want = want - elem(sig, c, i).scale(u.entry(i, j) * v)
        assert mat == want


def test_kernel_basis_sizes():
    assert len(kernel_basis(ospB(1, 0, 1, 0))) == 12
    assert len(kernel_basis(AlgebraSpec(Family.SL, 1, 0, 1, 0))) == 3
    assert len(kernel_basis(ospB(0, 0, 0, 0))) == 0


def test_kernel_basis_rejects_gl():
    with pytest.raises(ValueError):
        kernel_basis(AlgebraSpec(Family.GL, 1, 1, 1, 1))


def test_kernel_basis_canonical():
    spec = ospB(1, 1, 1, 0)
    a = kernel_basis(spec)
    b = kernel_basis(spec)
    assert a.to_json() == b.to_json()
    # elements ordered by leading (pivot) flattened coordinate, pivots 1
    m = spec.size
    pivots = []
    for x in a.elements:
        coord, value = min(
            (((i - 1) * m + (j - 1)), v) for (i, j), v in x.items()
        )
        assert value == ONE
        pivots.append(coord)
    assert pivots == sorted(pivots)


def test_kernel_elements_homogeneous_members():
    spec = ospB(1, 1, 1, 1)
    basis = kernel_basis(spec)
    for x in basis.elements:
        assert x.degree_of() is not None
        assert is_member(spec, x)


@pytest.mark.parametrize(
    "spec,want",
    [
        (ospB(1, 0, 1, 0), 12),
        (ospB(0, 0, 1, 0), 5),
        (ospD(1, 0, 0, 0), 1),
        (ospD(0, 0, 1, 1), 10),
        (AlgebraSpec(Family.GL, 1, 0, 1, 0), 4),
        (AlgebraSpec(Family.GL, 1, 1, 1, 1), 16),
        (AlgebraSpec(Family.SL, 1, 0, 1, 1), 8),
        (AlgebraSpec(Family.SL, 2, 1, 0, 1), 15),
    ],
)
def test_expected_dim_against_bruteforce(spec, want):
    assert expected_dim(spec) == want
    assert bruteforce_algebra_dim(spec) == want
    if spec.family is not Family.GL:  # gl has no defining condition to solve
        assert len(kernel_basis(spec)) == want


@pytest.mark.parametrize("params", [(1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 0, 1)])
def test_span_equality(params):
    spec = ospB(*params)
    sb = s_basis(spec)
    kb = kernel_basis(spec)
    assert len(sb) == len(kb)
    # the two spans coincide: adjoining one basis to the other adds no rank
    assert rank_of(sb.elements + kb.elements) == len(sb)


def _spec_id(spec):
    return f"{spec.family.value}({spec.m1},{spec.m2},{spec.n1},{spec.n2})"


_OSP_GRID = osp_grid() + [
    AlgebraSpec(Family.OSP_D, spec.m1, spec.m2, spec.n1, spec.n2) for spec in osp_grid() if spec.size > 1
]


@pytest.mark.parametrize("spec", _OSP_GRID, ids=_spec_id)
def test_kernel_basis_is_the_reduced_span_of_the_s_matrices(spec):
    # The reduced echelon form of a span is unique, so the kernel basis must
    # equal, entry for entry, the one an elimination of every s_ij reaches.
    reducer = SpanReducer()
    for _, _, mat in s_matrices(spec):
        reducer.insert(dict(mat.items()))
    basis = kernel_basis(spec)
    assert [dict(x.items()) for x in basis.elements] == reducer.rows_by_pivot()
    assert basis.labels == ["k[{},{}]".format(*pivot) for pivot in reducer.pivots]


@pytest.mark.parametrize("params", [(1, 0, 2, 1), (2, 1, 1, 0), (1, 1, 1, 1)])
def test_sl_kernel_basis_is_reduced(params):
    spec = AlgebraSpec(Family.SL, *params)
    basis = kernel_basis(spec)
    leads = [
        tuple(map(int, re.fullmatch(r"k\[(\d+),(\d+)\]", label).groups())) for label in basis.labels
    ]
    assert len(basis) == expected_dim(spec)
    for x, lead in zip(basis.elements, leads):
        assert is_member(spec, x)
        assert min(pos for pos, _ in x.items()) == lead
        assert x.entry(*lead) == ONE
        assert not any(x.entry(*other) for other in leads if other != lead)


def test_basis_json_shape():
    basis = kernel_basis(ospB(0, 0, 1, 0))
    doc = basis.to_json()
    assert doc["spec"] == {"family": "ospB", "m1": 0, "m2": 0, "n1": 1, "n2": 0}
    assert len(doc["elements"]) == 5
    assert all("label" in e and "entries" in e for e in doc["elements"])


@pytest.mark.parametrize(
    "spec", [ospB(2, 1, 1, 1), ospD(2, 2, 2, 2), AlgebraSpec(Family.SL, 1, 0, 4, 4)],
    ids=["ospB2111", "ospD2222", "sl1044"],
)
def test_basis_json_round_trip_on_kernel_bases(spec):
    basis = kernel_basis(spec)
    doc = basis.to_json()
    back = Basis.from_json(json.loads(json.dumps(doc)))
    assert back.to_json() == doc
    assert back.spec == spec and back.labels == basis.labels and back.elements == basis.elements
    assert all(type(v) is int for mat in back for _, v in mat.items())


def test_basis_json_round_trip_on_the_user_basis():
    basis = _user_basis(1)
    doc = basis.to_json()
    back = Basis.from_json(json.loads(json.dumps(doc)))
    assert back.to_json() == doc
    assert back.elements == basis.elements
    assert any(type(v) is Scalar for mat in back for _, v in mat.items())


def _spoiled_basis_json(edit: str) -> dict:
    """The JSON of the kernel basis of ospB(1,0,0,0) with one defect."""
    doc = kernel_basis(ospB(1, 0, 0, 0)).to_json()
    first = doc["elements"][0]
    if edit == "float entry":
        first["entries"][0][2] = 1.0
    elif edit == "float size":
        first["size"] = 3.0
    elif edit == "label not a string":
        first["label"] = 7
    elif edit == "signature length":
        first["signature"].pop()
    elif edit == "another signature":
        first["signature"][0] = [1, 1]
    elif edit == "position outside":
        first["entries"].append([9, 9, 1, 1, 0, 1])
    else:
        del (doc if edit in doc else doc["spec"] if edit in doc["spec"] else first)[edit]
    return doc


@pytest.mark.parametrize(
    "edit, error",
    [
        ("float entry", TypeError),
        ("float size", TypeError),
        ("label not a string", TypeError),
        ("signature length", ValueError),
        ("another signature", ValueError),
        ("position outside", ValueError),
        ("spec", ValueError),
        ("elements", ValueError),
        ("family", ValueError),
        ("n1", ValueError),
        ("label", ValueError),
        ("entries", ValueError),
        ("signature", ValueError),
    ],
)
def test_basis_from_json_refuses_bad_input(edit, error):
    with pytest.raises(error):
        Basis.from_json(_spoiled_basis_json(edit))


# -- verifiers --------------------------------------------------------------------

def test_verify_closure_passes():
    basis = kernel_basis(ospB(1, 0, 1, 0))
    report = verify_closure(basis)
    assert report.total == 144
    assert report.failed == 0


def test_verify_closure_singleton_ospD():
    basis = kernel_basis(ospD(1, 0, 0, 0))
    report = verify_closure(basis)
    assert report.total == 1
    assert report.failed == 0


def test_verify_closure_flags_corrupted_element():
    spec = ospB(1, 0, 0, 0)
    good = kernel_basis(spec)
    bad = Basis(
        spec,
        good.elements + [elem(spec.signature(), 1, 1)],
        good.labels + ["bad"],
    )
    report = verify_closure(bad)
    assert report.failed > 0
    assert report.counterexamples
    assert any("bad" in ce["indices"] for ce in report.counterexamples)


def test_verify_jacobi_and_symmetry_small():
    basis = kernel_basis(ospB(1, 0, 1, 0))
    jac = verify_jacobi(basis)
    assert jac.total == 12 ** 3
    assert jac.failed == 0
    sym = verify_symmetry(basis)
    assert sym.total == 12 ** 2
    assert sym.failed == 0


def test_verify_jacobi_workers_agree():
    basis = kernel_basis(ospB(0, 1, 1, 0))
    serial = verify_jacobi(basis, workers=1)
    threaded = verify_jacobi(basis, workers=3)
    assert serial.to_json() == threaded.to_json()


@pytest.mark.parametrize("make_basis", [kernel_basis, s_basis])
def test_structure_constants_rebuild_every_bracket(make_basis):
    # The Jacobi contraction is quadratic in the constants, so it cannot
    # tell C from -C; the constants are compared with the brackets here.
    # Every pair is rebuilt, a pair missing from the table as zero.
    basis = make_basis(ospB(1, 0, 1, 0))
    table = BracketTable(basis)
    constants = table.structure_constants
    zero = GradedMatrix.zero(basis.spec.signature())
    for a, row in enumerate(table.rows):
        assert row.keys() == constants[a].keys()
        for b in range(len(basis)):
            total = zero
            for k, c in constants[a].get(b, {}).items():
                total = total + basis.elements[k].scale(c)
            assert total == row.get(b, zero)


_SCALING = (1 + SQRT2) / 3


def _scaled(basis: Basis) -> Basis:
    """The basis with every element multiplied by (1 + sqrt2)/3: still
    closed, with every structure constant (1 + sqrt2)/3 times the old one."""
    return Basis(basis.spec, [mat.scale(_SCALING) for mat in basis], basis.labels)


def _all_constants(table: BracketTable) -> list:
    rows = table.structure_constants
    return [c for row in rows for coeffs in row.values() for c in coeffs.values()]


@pytest.mark.parametrize(
    "spec", [ospB(1, 0, 1, 0), ospD(1, 1, 1, 1), AlgebraSpec(Family.SL, 1, 0, 2, 1)]
)
def test_kernel_basis_constants_are_plain_ints(spec):
    constants = _all_constants(BracketTable(kernel_basis(spec)))
    assert constants and all(type(c) is int for c in constants)


def test_non_integral_constants_take_the_same_path():
    basis = _scaled(kernel_basis(ospB(1, 0, 1, 0)))
    n = len(basis)
    table = BracketTable(basis)
    constants = _all_constants(table)
    assert constants and all(type(c) is Scalar and c._d != 1 for c in constants)
    for check, reference, cap in (
        (verify_jacobi, jacobi_by_triples, n ** 3),
        (verify_closure, closure_by_pairs, n * n),
        (verify_symmetry, symmetry_by_pairs, n * n),
    ):
        report = check(basis, max_counterexamples=cap, table=table)
        assert report.passed
        assert_same_json(report.to_json(), reference(basis, cap).to_json())


@pytest.mark.parametrize("scaled", [False, True])
def test_doubled_bracket_fails_jacobi_on_int_and_scalar_constants(monkeypatch, scaled):
    # Doubling [even, odd] in both orders keeps the bracket closed and
    # graded antisymmetric, so the gate holds and the certificate refuses,
    # on plain int constants for the kernel basis and on Scalars for the
    # scaled one.
    basis = kernel_basis(ospB(1, 0, 1, 0))
    basis = _scaled(basis) if scaled else basis
    n = len(basis)
    true_bracket = algebras.graded_bracket

    def doubled(a, b):
        bracket = true_bracket(a, b)
        return bracket.scale(2) if {a.degree_of(), b.degree_of()} == {(0, 0), (1, 0)} else bracket

    monkeypatch.setattr(algebras, "graded_bracket", doubled)
    table = BracketTable(basis)
    constants = _all_constants(table)
    assert all(type(c) is (Scalar if scaled else int) for c in constants)
    report = verify_jacobi(basis, max_counterexamples=n ** 3, table=table)
    assert report.failed > 10
    assert_same_json(report.to_json(), jacobi_by_triples(basis, n ** 3).to_json())


@pytest.mark.parametrize("spec", [ospB(1, 0, 1, 0), ospB(1, 1, 1, 1), AlgebraSpec(Family.SL, 1, 0, 2, 1)])
def test_the_gate_path_indexes_only_the_basis_elements(monkeypatch, spec):
    # Closure, symmetry and Jacobi share one table of a kernel basis, as in
    # `report`: its gate holds and Jacobi never reaches the matrix loop.
    # Each element is indexed on its first bracket, and no table entry is
    # ever bracketed, so none holds an index.
    def refuse(*args):
        raise AssertionError("the matrix loop ran")

    monkeypatch.setattr(algebras, "_by_matrices", refuse)
    basis = kernel_basis(spec)
    table = BracketTable(basis)
    for check in (verify_closure, verify_symmetry, verify_jacobi):
        assert check(basis, table=table).failed == 0
    assert all(mat._index is not None for mat in basis.elements)
    assert any(table.rows)
    assert all(t._index is None for row in table.rows for t in row.values())


def test_the_matrix_loop_leaves_no_index_on_the_table(monkeypatch):
    # 16 alternate elements of the kernel basis of ospB(1,1,1,1), integral
    # and not closed, forced through the matrix loop: with no denominator
    # to clear, the loop brackets the table's own entries, and none keeps
    # the index it built once Jacobi returns. The elements keep theirs.
    canonical = kernel_basis(ospB(1, 1, 1, 1))
    basis = Basis(canonical.spec, canonical.elements[:32:2], canonical.labels[:32:2])
    monkeypatch.setattr(algebras, "_certified_span", lambda basis: False)
    table = BracketTable(basis)
    assert table.structure_constants is None
    calls = _count_brackets(monkeypatch)
    assert verify_jacobi(basis, table=table).passed
    assert len(calls) == _matrix_loop_brackets(len(basis), 0)
    assert all(mat._index is not None for mat in basis.elements)
    assert all(t._index is None for row in table.rows for t in row.values())


def test_planted_bracket_sign_fails_jacobi_and_symmetry(monkeypatch):
    basis = kernel_basis(ospB(0, 1, 1, 0))
    n = len(basis)
    true_bracket = algebras.graded_bracket

    def wrong_sign(a, b):
        # two (1,0) elements must anticommute; this bracket commutes them
        if a.degree_of() == b.degree_of() == (1, 0):
            return a @ b - b @ a
        return true_bracket(a, b)

    monkeypatch.setattr(algebras, "graded_bracket", wrong_sign)
    jac = verify_jacobi(basis)
    sym = verify_symmetry(basis)
    assert (jac.total, sym.total) == (n ** 3, n ** 2)
    for report, arity in ((jac, 3), (sym, 2)):
        assert report.failed > 0
        assert report.counterexamples
        for ce in report.counterexamples:
            assert len(ce["indices"]) == arity
            assert ce["residual"]["entries"]


def test_planted_sign_bracket_leaves_the_span(monkeypatch):
    # The bracket of the test above is not closed on the basis, so Jacobi
    # takes the matrix path there.
    basis = kernel_basis(ospB(0, 1, 1, 0))
    true_bracket = algebras.graded_bracket

    def wrong_sign(a, b):
        if a.degree_of() == b.degree_of() == (1, 0):
            return a @ b - b @ a
        return true_bracket(a, b)

    monkeypatch.setattr(algebras, "graded_bracket", wrong_sign)
    assert BracketTable(basis).structure_constants is None


def test_sl_closure_counterexamples_hold_the_supertrace(monkeypatch):
    # The sl membership residual is the supertrace, a Scalar even on int
    # entries, and a closure counterexample holds its wire form. Adding e_11
    # to every nonzero bracket of degree (0,0) leaves sl with supertrace 1.
    basis = kernel_basis(AlgebraSpec(Family.SL, 1, 0, 1, 1))
    n = len(basis)
    true_bracket = algebras.graded_bracket
    unit = elem(basis.spec.signature(), 1, 1)

    def planted(a, b):
        bracket = true_bracket(a, b)
        return bracket + unit if not bracket.is_zero() and bracket.degree_of() == (0, 0) else bracket

    monkeypatch.setattr(algebras, "graded_bracket", planted)
    report = verify_closure(basis, n * n)
    assert report.failed > 0
    assert {json.dumps(ce["residual"]) for ce in report.counterexamples} == {json.dumps(ONE.to_json())}
    assert_same_json(report.to_json(), closure_by_pairs(basis, n * n).to_json())


@pytest.mark.parametrize("params, failures", [((0, 1, 1, 0), 120), ((1, 1, 1, 1), 2304)])
def test_jacobi_paths_agree_on_a_planted_defect(monkeypatch, params, failures):
    # The two-sided defect stays in the algebra and passes the gate, so
    # the matrix loop runs when the certificate refuses; with the constants
    # hidden it runs when the gate refuses, reading the table's
    # `antisymmetry_failures`. `failures` is what `jacobi_by_triples` counts.
    basis = kernel_basis(ospB(*params))
    n = len(basis)
    _plant_jacobi_defect(monkeypatch, basis, "two-sided")
    assert verify_closure(basis).passed
    assert BracketTable(basis).structure_constants is not None
    gated = verify_jacobi(basis, max_counterexamples=n ** 3)
    assert (gated.total, gated.failed) == (n ** 3, failures)
    assert len(gated.counterexamples) == failures

    monkeypatch.setattr(BracketTable, "structure_constants", None)
    ungated = verify_jacobi(basis, max_counterexamples=n ** 3)
    assert_same_json(gated.to_json(), ungated.to_json())


_ODD_PAIR = ((1, 0), (0, 1))


def _plant_jacobi_defect(monkeypatch, basis: Basis, defect: str) -> None:
    """Rebind the bracket on (1,0) x (0,1) operands. "one-sided" doubles it
    in that order only, so graded antisymmetry fails; "two-sided" doubles
    it in both orders. "inhomogeneous" adds x_p y_q e_k in that order and
    -x_p y_q e_k in the other: bilinear and graded antisymmetric, but e_k
    is a (0,0) basis element, p the first entry of a (1,0) element and q
    that of a (0,1) one. All three stay in the span."""
    true_bracket = algebras.graded_bracket
    first = {mat.degree_of(): mat for mat in reversed(basis.elements)}
    extra = first[(0, 0)]
    p, q = (min(pos for pos, _ in first[d].items()) for d in _ODD_PAIR)

    def planted(a, b):
        bracket = true_bracket(a, b)
        if defect == "inhomogeneous":
            return bracket + extra.scale(a.entry(*p) * b.entry(*q) - b.entry(*p) * a.entry(*q))
        pair = (a.degree_of(), b.degree_of())
        if pair == _ODD_PAIR or defect == "two-sided" and pair == _ODD_PAIR[::-1]:
            return bracket.scale(2)
        return bracket

    monkeypatch.setattr(algebras, "graded_bracket", planted)
    if defect == "inhomogeneous":
        _bracket_every_pair(monkeypatch)


def _bracket_every_pair(monkeypatch) -> None:
    """Make `BracketTable` bracket every pair, not only those whose supports
    meet: for a planted bracket that adds terms on disjoint supports, which
    no bracket built from matrix products does."""
    every = lambda mats: [list(range(len(mats)))] * len(mats)
    monkeypatch.setattr(algebras, "meeting_pairs", every)


def _count_pairs(monkeypatch) -> list:
    """The pass counts recorded by `CheckReport.record_passes` from here on.
    Jacobi's matrix loop records one per pair a <= b of the orbit
    representatives a <= b <= c it walks."""
    pairs = []
    record_passes = CheckReport.record_passes

    def counted(report, count):
        pairs.append(count)
        record_passes(report, count)

    monkeypatch.setattr(CheckReport, "record_passes", counted)
    return pairs


@pytest.mark.parametrize("defect", ["two-sided", "one-sided", "inhomogeneous"])
@pytest.mark.parametrize("params", [(0, 1, 1, 0), (1, 1, 1, 1)])
def test_jacobi_orbits_match_the_triple_loop(monkeypatch, params, defect):
    # The gate admits the two-sided defect only, and the certificate
    # refuses it; the matrix loop gives the triple loop's report at every
    # cap, whether the gate holds or not. On ospB(1,1,1,1) a held gate runs
    # at caps 0 and n^3 and a refused gate at cap n^3 only: the caps 1 and
    # 10 of both are covered on ospB(0,1,1,0) and by
    # `test_jacobi_builds_only_kept_counterexamples`.
    basis = kernel_basis(ospB(*params))
    n = len(basis)
    _plant_jacobi_defect(monkeypatch, basis, defect)
    table = BracketTable(basis)
    assert verify_symmetry(basis, table=table).passed == (defect != "one-sided")
    gated = defect == "two-sided"
    assert (table.structure_constants is not None) == gated
    reference = jacobi_by_triples(basis, max_counterexamples=n ** 3).to_json()
    assert reference["failed"] > 10
    pairs = _count_pairs(monkeypatch)
    if params == (0, 1, 1, 0):
        caps = (0, 1, 10, n ** 3)
    else:
        caps = (0, n ** 3) if gated else (n ** 3,)
    for cap in caps:
        report = verify_jacobi(basis, max_counterexamples=cap, table=table)
        expected = {**reference, "counterexamples": reference["counterexamples"][:cap]}
        assert_same_json(report.to_json(), expected)
    assert len(pairs) == len(caps) * n * (n + 1) // 2


def _refuse_certificate(monkeypatch) -> None:
    """Make the derivation certificate refuse, so a clean basis whose
    constants pass the gate runs the matrix loop."""
    monkeypatch.setattr(algebras, "_derivation_certificate", lambda constants, degrees: False)


def test_jacobi_contracts_one_pair_per_orbit_representative(monkeypatch):
    # ospB(1,1,1,1), n = 40: a clean basis passes the derivation certificate,
    # which records its n^3 passes in one call. The matrix loop records one
    # count per pair a <= b, whether the certificate or the gate refuses.
    basis = kernel_basis(ospB(1, 1, 1, 1))
    pairs = _count_pairs(monkeypatch)
    assert verify_jacobi(basis).passed
    assert pairs == [40 ** 3]
    pairs.clear()
    with monkeypatch.context() as refused:
        _refuse_certificate(refused)
        assert verify_jacobi(basis).passed
    assert len(pairs) == 820
    pairs.clear()
    _plant_jacobi_defect(monkeypatch, basis, "one-sided")
    assert verify_jacobi(basis).failed == 2240
    assert len(pairs) == 820


@pytest.mark.parametrize("miscount", ["passes", "failures", "orderings"])
def test_jacobi_coverage_catches_a_miscounted_orbit(monkeypatch, miscount):
    # Drop the orderings of the representatives (a, b, b) from `_orbit` in
    # the matrix loop: on a clean kernel basis with the certificate refused
    # (passes), on a kernel basis under the two-sided defect, whose gate
    # holds (failures), and on the rational subset, whose gate refuses
    # (orderings). Either way fewer than n^3 triples are enumerated and the
    # coverage check fails the report.
    basis = _rational_subset() if miscount == "orderings" else kernel_basis(ospB(0, 1, 1, 0))
    n = len(basis)
    if miscount == "passes":
        _refuse_certificate(monkeypatch)
    if miscount == "failures":
        _plant_jacobi_defect(monkeypatch, basis, "two-sided")
    assert (BracketTable(basis).structure_constants is None) == (miscount == "orderings")
    orbit = algebras._orbit
    monkeypatch.setattr(algebras, "_orbit", lambda a, b, c: [] if b == c else orbit(a, b, c))
    report = verify_jacobi(basis, max_counterexamples=n ** 3)
    assert report.total < n ** 3
    assert report.failed == len(report.counterexamples)
    assert report.counterexamples[-1] == {
        "indices": {"enumerated": report.total, "declared_total": n ** 3}
    }


def test_jacobi_coverage_catches_a_miscounted_certificate(monkeypatch):
    # The certificate records its n^3 passes in one call; one pass short,
    # the coverage check fails the report. On the matrix loop every pair's
    # count would drop by one, so the total also shows which path ran.
    basis = kernel_basis(ospB(0, 1, 1, 0))
    n = len(basis)
    record_passes = CheckReport.record_passes
    monkeypatch.setattr(
        CheckReport, "record_passes", lambda report, count: record_passes(report, count - 1)
    )
    report = verify_jacobi(basis)
    assert (report.total, report.failed) == (n ** 3 - 1, 1)
    assert report.counterexamples == [
        {"indices": {"enumerated": n ** 3 - 1, "declared_total": n ** 3}}
    ]


_SL_GRID = [AlgebraSpec(Family.SL, 1, 0, n1, n2) for n1 in range(3) for n2 in range(3)]


@pytest.mark.parametrize("spec", _OSP_GRID + _SL_GRID, ids=_spec_id)
def test_certificate_agrees_with_the_orbit_loop(spec):
    basis = kernel_basis(spec)
    constants = BracketTable(basis).structure_constants
    assert constants is not None
    degrees = [mat.degree_of() for mat in basis]
    generators, steps = algebras._generating_set(constants)
    assert generators == sorted(set(generators))
    assert len(steps) == len(basis)
    certified = algebras._derivation_certificate(constants, degrees)
    assert certified == orbit_loop_passes(constants, degrees)


def test_certificate_contracts_each_needed_pair_once(monkeypatch):
    # On ospB(2,1,1,1) the greedy generating set holds 13 of the 59
    # elements. The certificate runs one sweep per generator, in S order,
    # and each sweep contracts every pair b <= c except those that hold an
    # earlier generator t, whose J(s, b, c) is +-J(t, ., .): the pairs a
    # sweep that skips nothing reaches, less exactly those.
    basis = kernel_basis(ospB(2, 1, 1, 1))
    n = len(basis)
    constants = BracketTable(basis).structure_constants
    degrees = [mat.degree_of() for mat in basis]
    generators, _ = algebras._generating_set(constants)
    assert (len(generators), n) == (13, 59)
    sweeps = []
    sweep = algebras._jacobi_sweep

    def recorded(*args):
        sweeps.append((args, sweep(*args)))
        return sweeps[-1][1]

    monkeypatch.setattr(algebras, "_jacobi_sweep", recorded)
    assert algebras._derivation_certificate(constants, degrees)
    assert [args[3:] for args, _ in sweeps] == [
        (s, frozenset(generators[:i])) for i, s in enumerate(generators)
    ]
    skipped = 0
    for (_, index, _, s, earlier), acc in sweeps:
        full = sweep(constants, index, degrees, s, frozenset())
        assert not any(acc.values()) and not any(full.values())
        reached = {(b, c) for b, c, _ in full}
        kept = {(b, c) for b, c, _ in acc}
        assert all(b <= c for b, c in reached)
        assert kept == {(b, c) for b, c in reached if b not in earlier and c not in earlier}
        skipped += len(reached - kept)
    assert skipped > 0


def _plant_in_the_constants(monkeypatch, basis: Basis, defect: str) -> None:
    """Change the bracket of the first pair x < y of kernel basis elements
    with a nonzero bracket, in both orders: "doubled" doubles it, "flipped"
    negates it, and "dropped" drops its first coefficient c_k e_k (and the
    matching term of [y, x]). The change is extended bilinearly, through the
    coordinates on e_x and e_y, which a member of the algebra holds at their
    pivots; it keeps the bracket closed, homogeneous and graded
    antisymmetric, so the gate still holds and only the constants of that
    pair change."""
    constants = BracketTable(basis).structure_constants
    ia, ib = next((a, b) for a, row in enumerate(constants) for b in row if a < b)
    k = min(constants[ia][ib])
    true_bracket = algebras.graded_bracket
    changes = []
    for u, v in ((ia, ib), (ib, ia)):
        bracket = true_bracket(basis.elements[u], basis.elements[v])
        change = {
            "doubled": bracket,
            "flipped": bracket.scale(-2),
            "dropped": basis.elements[k].scale(-constants[u][v][k]),
        }[defect]
        pivots = [min(pos for pos, _ in basis.elements[w].items()) for w in (u, v)]
        changes.append((*pivots, change))

    def planted(a, b):
        bracket = true_bracket(a, b)
        for pa, pb, change in changes:
            weight = a.entry(*pa) * b.entry(*pb)
            if weight:
                bracket = bracket + change.scale(weight)
        return bracket

    monkeypatch.setattr(algebras, "graded_bracket", planted)


@pytest.mark.parametrize("defect", ["doubled", "flipped", "dropped"])
def test_certificate_falls_back_on_a_planted_defect(monkeypatch, defect):
    # The defect fails Jacobi, so the certificate must not hold: the matrix
    # loop runs and the report, counterexamples included, is the triple
    # loop's.
    basis = kernel_basis(ospB(1, 0, 1, 0))
    n = len(basis)
    _plant_in_the_constants(monkeypatch, basis, defect)
    table = BracketTable(basis)
    constants = table.structure_constants
    assert constants is not None
    degrees = [mat.degree_of() for mat in basis]
    assert not algebras._derivation_certificate(constants, degrees)
    report = verify_jacobi(basis, max_counterexamples=n ** 3, table=table)
    assert report.failed > 0
    assert_same_json(report.to_json(), jacobi_by_triples(basis, n ** 3).to_json())


# Every ospB, ospD and sl(1,0|n1,n2) spec with parameters 0..3 and
# 3 <= dim <= 40: the pool the differential tests below draw from. The
# algebras of dimension 1, ospD(1,0,0,0) and ospD(0,1,0,0), are abelian and
# have no coefficient to change.
_SMALL_SPECS = [
    spec
    for spec in [
        AlgebraSpec(family, *params)
        for family in (Family.OSP_B, Family.OSP_D)
        for params in product(range(4), repeat=4)
        if family is Family.OSP_B or any(params)
    ]
    + [AlgebraSpec(Family.SL, 1, 0, n1, n2) for n1 in range(4) for n2 in range(4)]
    if 3 <= expected_dim(spec) <= 40
]


@cache
def _gated_constants(spec: AlgebraSpec) -> tuple[Basis, list, list]:
    basis = kernel_basis(spec)
    return basis, BracketTable(basis).structure_constants, [mat.degree_of() for mat in basis]


@st.composite
def _planted_changes(draw, max_dim: int):
    """A spec from `_SMALL_SPECS` of dimension at most max_dim, and one
    change of its constants, (a, b, k, delta): C_ab^k += delta. "doubled",
    "flipped" and "dropped" act on a coefficient C_ab^k of a nonzero
    bracket; "added" adds 1, -1, 2 or sqrt2 on any e_k of degree
    deg(a) + deg(b); "kept" adds 0, so J vanishes and the certificate must
    hold. The pair is a < b, or a = b with dot(a, a) odd, since then the
    graded sign lets [e_a, e_a] change."""
    spec = draw(st.sampled_from([spec for spec in _SMALL_SPECS if expected_dim(spec) <= max_dim]))
    _, constants, degrees = _gated_constants(spec)
    n = len(degrees)
    pairs = [(a, b) for a in range(n) for b in range(a, n) if a < b or dot(degrees[a], degrees[a])]
    kind = draw(st.sampled_from(["doubled", "flipped", "dropped", "added", "kept"]))
    if kind == "added":
        by_degree: dict = {}
        for k, degree in enumerate(degrees):
            by_degree.setdefault(degree, []).append(k)
        a, b = draw(st.sampled_from(
            [(a, b) for a, b in pairs if deg_add(degrees[a], degrees[b]) in by_degree]
        ))
        k = draw(st.sampled_from(by_degree[deg_add(degrees[a], degrees[b])]))
        return spec, (a, b, k, draw(st.sampled_from([1, -1, 2, SQRT2])))
    a, b = draw(st.sampled_from([(a, b) for a, b in pairs if b in constants[a]]))
    k = draw(st.sampled_from(sorted(constants[a][b])))
    x = constants[a][b][k]
    return spec, (a, b, k, {"doubled": x, "flipped": -2 * x, "dropped": -x, "kept": 0}[kind])


def _orders(change, degrees) -> list[tuple[int, int, int, object]]:
    """The change in both orders with the graded sign, C_ba = -(-1)^dot C_ab,
    which keeps the gate; once when a = b."""
    a, b, k, delta = change
    if a == b:
        return [change]
    return [change, (b, a, k, delta if dot(degrees[a], degrees[b]) else -delta)]


def _with_change(constants: list, degrees: list, change) -> list:
    planted = [dict(row) for row in constants]
    for a, b, k, delta in _orders(change, degrees):
        coeffs = dict(planted[a].get(b, {}))
        coeffs[k] = coeffs.get(k, 0) + delta
        if not coeffs[k]:
            del coeffs[k]
        if coeffs:
            planted[a][b] = coeffs
        else:
            del planted[a][b]
    return planted


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_planted_changes(max_dim=40))
def test_certificate_matches_the_orbit_loop_on_a_planted_change(drawn):
    # The sweep and the pair-by-pair orbit loop share no code; on every
    # drawn change they must agree on whether J vanishes.
    spec, change = drawn
    _, constants, degrees = _gated_constants(spec)
    planted = _with_change(constants, degrees, change)
    assert algebras._derivation_certificate(planted, degrees) == orbit_loop_passes(planted, degrees)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(_planted_changes(max_dim=15))
def test_refused_certificate_reports_as_the_triple_loop_on_a_planted_change(drawn):
    # The change is planted in the bracket, extended bilinearly through the
    # entries at the kernel elements' leading positions (1 on its own
    # element, 0 on the others); the table then reads exactly the planted
    # constants, and a refused certificate leaves the report to the matrix
    # loop, which must match the plain triple loop.
    spec, change = drawn
    basis, constants, degrees = _gated_constants(spec)
    planted_constants = _with_change(constants, degrees, change)
    if algebras._derivation_certificate(planted_constants, degrees):
        return
    assert not orbit_loop_passes(planted_constants, degrees)
    leads = [min(pos for pos, _ in mat.items()) for mat in basis.elements]
    terms = [
        (leads[a], leads[b], basis.elements[k].scale(delta))
        for a, b, k, delta in _orders(change, degrees)
    ]
    true_bracket = algebras.graded_bracket

    def planted(x, y):
        bracket = true_bracket(x, y)
        for pa, pb, term in terms:
            weight = x.entry(*pa) * y.entry(*pb)
            if weight:
                bracket = bracket + term.scale(weight)
        return bracket

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(algebras, "graded_bracket", planted)
        _bracket_every_pair(patch)
        table = BracketTable(basis)
        assert table.structure_constants == planted_constants
        report = verify_jacobi(basis, table=table)
        assert report.failed > 0
        assert_same_json(report.to_json(), jacobi_by_triples(basis).to_json())


@pytest.mark.parametrize("mutant", ["drop a generator", "stop the closure early"])
def test_certificate_rechecks_generation(monkeypatch, mutant):
    # A generating set one element short, or a closure one vector short, no
    # longer shows that the algebra is generated: the certificate refuses
    # and the matrix loop runs, rather than passing on the derivations alone.
    basis = kernel_basis(ospB(1, 0, 1, 0))
    n = len(basis)
    generating_set = algebras._generating_set

    def mutated(constants):
        generators, steps = generating_set(constants)
        if mutant == "drop a generator":
            return generators[:-1], steps
        return generators, steps[:-1]

    monkeypatch.setattr(algebras, "_generating_set", mutated)
    loop_runs = _count_loop_runs(monkeypatch)
    report = verify_jacobi(basis)
    assert loop_runs == [1]
    assert (report.total, report.failed) == (n ** 3, 0)


@pytest.mark.parametrize("check", [verify_symmetry, verify_jacobi])
def test_pair_and_triple_checks_refuse_an_inhomogeneous_element(check):
    # k[1,1] has degree (0,0) and k[1,3] degree (1,1)
    basis = kernel_basis(ospB(0, 1, 1, 0))
    assert basis.labels[:2] == ["k[1,1]", "k[1,3]"]
    elements = [basis.elements[0] + basis.elements[1], *basis.elements[1:]]
    mixed = Basis(basis.spec, elements, basis.labels)
    with pytest.raises(ValueError, match=re.escape("basis element k[1,1] is not homogeneous")):
        check(mixed)


def _rational_subset() -> Basis:
    """Four homogeneous elements of ospB(1,1,1,1), one per degree, each a
    combination of two kernel elements with non-integral Q(sqrt 2)
    coefficients: not closed under brackets, and too few for Jacobi's
    certified span (dim^2 = 1,600 > n^3 + n^2 = 80), so Jacobi runs the
    matrix loop."""
    canonical = kernel_basis(ospB(1, 1, 1, 1))
    coefficients = {
        (0, 0): (Scalar(Fraction(3, 7), Fraction(-2, 9)), Scalar(Fraction(-5, 4), Fraction(1, 3))),
        (1, 1): (Scalar(Fraction(1, 2)), Scalar(0, Fraction(7, 5))),
        (1, 0): (Scalar(Fraction(-8, 3), Fraction(4, 9)), Scalar(1, Fraction(-1, 6))),
        (0, 1): (Scalar(2, 1), Scalar(Fraction(5, 11), Fraction(-3, 2))),
    }
    elements, labels = [], []
    for degree, (x, y) in coefficients.items():
        group = [m for m in canonical if m.degree_of() == degree]
        first, second = group[0], group[-1]
        elements.append(first.scale(x) + second.scale(y))
        labels.append("u{}{}".format(*degree))
    return Basis(canonical.spec, elements, labels)


def _rational_sixteen() -> Basis:
    """Sixteen homogeneous elements of ospB(1,1,1,1), four per degree: the
    k-th of a degree is x e_k + y e_{k+4}, on the kernel elements of that
    degree, with non-integral Q(sqrt 2) coefficients x, y and x != 0, so
    the elements are independent. Not closed under brackets."""
    canonical = kernel_basis(ospB(1, 1, 1, 1))
    elements, labels = [], []
    for degree in ((0, 0), (1, 1), (1, 0), (0, 1)):
        group = [m for m in canonical if m.degree_of() == degree]
        for k in range(4):
            x = Scalar(Fraction(2 * k + 1, k + 2), Fraction(k - 2, 3))
            y = Scalar(Fraction(k - 1, 5), Fraction(3, 2 * k + 1))
            elements.append(group[k].scale(x) + group[k + 4].scale(y))
            labels.append("v{}{}.{}".format(*degree, k))
    return Basis(canonical.spec, elements, labels)


def test_matrix_loop_matches_the_triple_loop_on_a_planted_defect(monkeypatch):
    # The two-sided and inhomogeneous defects keep every pair graded
    # antisymmetric and fail Jacobi, so [e_x, [e_z, e_y]] is read off
    # [e_x, [e_y, e_z]] and failing triples (b, a, c) take the outcome of
    # (a, b, c); the one-sided defect breaks the pairs of a (1,0) and a
    # (0,1) element with a nonzero bracket, which share nothing: 1 of the
    # rational subset, 12 of the sixteen, where some orbits hold two. The
    # sixteen have orbits p < q < r, p = q < r, p < q = r and p = q = r.
    # The sixteen lie in the algebra, but each defect makes the kernel
    # basis refuse the gate or the certificate, so the loop runs on them
    # too. At every cap the report is the triple loop's.
    for basis, asymmetric in ((_rational_subset(), 1), (_rational_sixteen(), 12)):
        n = len(basis)
        for defect in ("one-sided", "two-sided", "inhomogeneous"):
            with monkeypatch.context() as planted:
                _plant_jacobi_defect(planted, basis, defect)
                table = BracketTable(basis)
                assert table.structure_constants is None
                broken = len(table.antisymmetry_failures)
                assert broken == (asymmetric if defect == "one-sided" else 0)
                reference = jacobi_by_triples(basis, max_counterexamples=n ** 3).to_json()
                assert 10 < reference["failed"] < n ** 3
                for cap in (0, 1, 10, n ** 3):
                    report = verify_jacobi(basis, max_counterexamples=cap, table=table)
                    expected = {**reference, "counterexamples": reference["counterexamples"][:cap]}
                    assert_same_json(report.to_json(), expected)


def _matrix_loop_brackets(n: int, asymmetric: int) -> int:
    """The brackets of the matrix loop past the table: X(x, y, z) =
    [e_x, [e_y, e_z]] for each x and each pair y <= z, and [[a, b], c] for
    each pair a <= b and each c, n * n(n + 1)/2 of each; each of the
    `asymmetric` pairs y < z that are not graded antisymmetric adds
    X(., z, y) and [[z, y], .], 2n more."""
    return n ** 3 + n ** 2 + 2 * n * asymmetric


def _count_brackets(monkeypatch) -> list:
    """The calls of `algebras.graded_bracket` from here on."""
    calls = []
    bracket = algebras.graded_bracket
    monkeypatch.setattr(algebras, "graded_bracket", lambda a, b: calls.append(1) or bracket(a, b))
    return calls


def _count_comparisons(monkeypatch) -> list:
    """The matrix comparisons, `==` and `!=` of two `GradedMatrix`, from
    here on."""
    calls = []
    equal = GradedMatrix.__eq__
    monkeypatch.setattr(GradedMatrix, "__eq__", lambda a, b: calls.append(1) or equal(a, b))
    return calls


def test_table_sends_the_meeting_pairs_through_the_module_bracket(monkeypatch):
    # Most of the n^2 pairs of a kernel basis have disjoint supports: the
    # table brackets only the pairs `meeting_pairs` lists, in increasing b,
    # through `algebras.graded_bracket`, 608 of the 1,600 on ospB(1,1,1,1).
    # The rows hold exactly the nonzero brackets of the meeting pairs, 576
    # of the 608, in increasing b, and no zero bracket.
    basis = kernel_basis(ospB(1, 1, 1, 1))
    position = {id(mat): k for k, mat in enumerate(basis.elements)}
    pairs = []
    bracket = algebras.graded_bracket
    monkeypatch.setattr(
        algebras,
        "graded_bracket",
        lambda a, b: pairs.append((position[id(a)], position[id(b)])) or bracket(a, b),
    )
    table = BracketTable(basis)
    table.rows
    meeting = algebras.meeting_pairs(basis.elements)
    assert pairs == [(a, b) for a, row in enumerate(meeting) for b in row]
    assert len(pairs) == 608 < len(basis) ** 2 == 1600
    elements = basis.elements
    for a, (row, hit) in enumerate(zip(table.rows, meeting)):
        brackets = {b: graded_bracket(elements[a], elements[b]) for b in hit}
        assert list(row.items()) == [(b, t) for b, t in brackets.items() if not t.is_zero()]
    assert sum(map(len, table.rows)) == 576


def test_table_holds_the_brackets_of_the_binding_it_was_built_under(monkeypatch):
    # The bracket is bound when the table is built, not when a row is
    # first read: a table built under a doubled bracket and read after the
    # true one is restored holds the doubled brackets.
    basis = kernel_basis(ospB(1, 0, 1, 0))
    true_bracket = algebras.graded_bracket
    with monkeypatch.context() as planted:
        planted.setattr(algebras, "graded_bracket", lambda a, b: true_bracket(a, b).scale(2))
        doubled = BracketTable(basis)
    plain = BracketTable(basis)
    assert any(plain.rows)
    assert doubled.rows == [{b: t.scale(2) for b, t in row.items()} for row in plain.rows]


def test_a_refused_gate_brackets_only_the_rows_it_reads(monkeypatch):
    # The seed-1 user basis is not closed under brackets, and the gate
    # refuses in its first row: the table brackets that row's meeting
    # pairs and no other, and keeps that row, so a later `rows` makes only
    # the other rows, 240 of the 256 pairs, every pair meeting. Jacobi then
    # certifies the basis through the kernel basis of ospB(1,1,1,1), whose
    # table adds its 608 meeting pairs.
    basis = _user_basis(1)
    first_row = len(algebras.meeting_pairs(basis.elements)[0])
    calls = _count_brackets(monkeypatch)
    table = BracketTable(basis)
    assert table.structure_constants is None
    assert len(calls) == first_row < len(basis) ** 2
    calls.clear()
    table.rows
    assert len(calls) == len(basis) ** 2 - first_row == 240
    calls.clear()
    assert verify_jacobi(basis).passed
    assert len(calls) == first_row + 608


def _matrices_held(table: BracketTable) -> list:
    """The matrices other than the basis elements that the table reaches
    through its attributes and their lists, tuples, dicts and sets."""
    elements = {id(mat) for mat in table.basis.elements}
    seen, stack, found = set(), list(vars(table).values()), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, GradedMatrix):
            if id(obj) not in elements:
                found.append(obj)
        elif isinstance(obj, (list, tuple, dict, set, frozenset)):
            stack.extend(gc.get_referents(obj))
    return found


def test_a_held_gate_drops_every_row_and_rows_remakes_them(monkeypatch):
    # Under a doubled bracket the kernel basis of ospB(1,1,1,1) passes the
    # gate, which drops each row once read: the table then holds no
    # bracket matrix, and closure, symmetry and Jacobi pass on it with no
    # bracket made again. A later `rows` makes the 608 meeting pairs again
    # through the doubled bracket the table was built under, though
    # `algebras.graded_bracket` is rebound to a counting one by then, and
    # equals the rows of a fresh table built under the doubled bracket.
    basis = kernel_basis(ospB(1, 1, 1, 1))
    true_bracket = algebras.graded_bracket
    made = []
    with monkeypatch.context() as planted:
        planted.setattr(algebras, "graded_bracket", lambda a, b: made.append(1) or true_bracket(a, b).scale(2))
        table, fresh = BracketTable(basis), BracketTable(basis)
    assert table.structure_constants is not None
    assert len(made) == 608
    assert _matrices_held(table) == []
    made.clear()
    calls = _count_brackets(monkeypatch)
    for check in (verify_closure, verify_symmetry, verify_jacobi):
        assert check(basis, table=table).passed
    assert calls == [] and made == []
    rows = table.rows
    assert calls == [] and len(made) == 608
    assert len(_matrices_held(table)) == 576
    assert rows == fresh.rows
    assert rows == [{b: t.scale(2) for b, t in row.items()} for row in BracketTable(basis).rows]


def test_an_antisymmetry_refusal_makes_every_row_again(monkeypatch):
    # The one-sided defect doubles the (1,0) x (0,1) brackets in that
    # order only. Every bracket stays in the span, so the gate reads and
    # drops every row and refuses only in its antisymmetry pass. Symmetry
    # then reads the table's `antisymmetry_failures`, which makes all 608
    # meeting pairs of the kernel basis of ospB(1,1,1,1) again: 1,216
    # brackets in all. Closure, read next, makes none. Both reports are
    # the pair loops'.
    basis = kernel_basis(ospB(1, 1, 1, 1))
    _plant_jacobi_defect(monkeypatch, basis, "one-sided")
    calls = _count_brackets(monkeypatch)
    table = BracketTable(basis)
    assert table.structure_constants is None
    assert _matrices_held(table) == []
    assert len(calls) == 608
    symmetry = verify_symmetry(basis, table=table)
    assert len(calls) == 2 * 608
    closure = verify_closure(basis, table=table)
    assert len(calls) == 2 * 608
    assert symmetry.failed > 0
    assert_same_json(symmetry.to_json(), symmetry_by_pairs(basis).to_json())
    assert_same_json(closure.to_json(), closure_by_pairs(basis).to_json())


@pytest.mark.parametrize("check", [verify_closure, verify_symmetry, verify_jacobi])
def test_pair_and_triple_checks_refuse_an_element_of_another_signature(monkeypatch, check):
    # Two matrix units of ospB(1,1,0,0) in a basis of ospB(1,0,0,0): the
    # same refusal as membership's, before any bracket is made.
    sig = ospB(1, 1, 0, 0).signature()
    basis = Basis(ospB(1, 0, 0, 0), [elem(sig, 5, 5), elem(sig, 1, 2)], ["e55", "e12"])
    calls = _count_brackets(monkeypatch)
    with pytest.raises(ValueError, match="matrix signature does not match the spec"):
        check(basis)
    assert calls == []


@st.composite
def _rescaled_bases(draw):
    """The kernel basis of ospB(1,1,1,1), or a subset of it of 1 to 14
    elements, each element scaled by 1, -2, the integral Scalar 2 or
    1/3 + sqrt2. The whole basis passes the gate; a subset takes the
    certified span (12 elements or more) or the matrix loop."""
    canonical = _gated_constants(ospB(1, 1, 1, 1))[0]
    n = len(canonical)
    if draw(st.booleans()):
        indices = range(n)
    else:
        indices = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=14)))
    factors = st.sampled_from([1, -2, Scalar(2), Scalar(Fraction(1, 3), 1)])
    return Basis(
        canonical.spec,
        [canonical.elements[i].scale(draw(factors)) for i in indices],
        [canonical.labels[i] for i in indices],
    )


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_rescaled_bases())
def test_no_report_depends_on_the_type_that_holds_an_entry(basis):
    # The basis as drawn, its int entries kept, against the same values
    # wrapped as Scalars: equal constants and byte-identical reports.
    wrapped = Basis(basis.spec, [as_scalars(mat) for mat in basis], list(basis.labels))
    tables = BracketTable(basis), BracketTable(wrapped)
    assert tables[0].structure_constants == tables[1].structure_constants
    cap = len(basis) ** 3
    for check in (verify_closure, verify_symmetry, verify_jacobi):
        assert_same_json(
            check(basis, max_counterexamples=cap, table=tables[0]).to_json(),
            check(wrapped, max_counterexamples=cap, table=tables[1]).to_json(),
        )


def _user_basis(seed: int) -> Basis:
    """The seeded user basis of the benchmark's `user-basis-rational`
    workload, from `bench/userbasis.py`."""
    path = Path(__file__).resolve().parents[1] / "bench" / "userbasis.py"
    module_spec = importlib.util.spec_from_file_location("userbasis", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.generate(seed)


# Two matrix units of ospB(0,1,1,0) and of ospB(1,1,1,1) whose sum y is
# not homogeneous, for `_mixed_basis`.
_MIXED_UNITS = {(0, 1, 1, 0): ((1, 4), (5, 3)), (1, 1, 1, 1): ((1, 8), (6, 4))}


def _mixed_basis(params: tuple) -> Basis:
    """The kernel basis of ospB(params) and two elements that are not
    homogeneous: x, the sum of its first (0,0) and (1,1) elements, which
    lies in the algebra, and y, the sum of the two `_MIXED_UNITS`, which
    does not. Both [x, y] and [y, x] are nonzero, and their parts of one
    degree are sums of two terms whose signs differ between the orders, so
    the membership residual of [x, y] does not vanish and that of [y, x]
    does."""
    canonical = kernel_basis(ospB(*params))
    first = {mat.degree_of(): mat for mat in reversed(canonical.elements)}
    sig = canonical.spec.signature()
    p, q = _MIXED_UNITS[params]
    x = first[(0, 0)] + first[(1, 1)]
    y = elem(sig, *p) + elem(sig, *q)
    return Basis(canonical.spec, [*canonical, x, y], [*canonical.labels, "x", "y"])


_TABLE_CASES = ["kernel bases", "rational subset", "matrix units", "not homogeneous", "user basis"]


def _table_cases(case: str) -> list[Basis]:
    """The bases of one case. The kernel bases are those of the acceptance
    grid, in the ospB, ospD and sl families; the grid's first parameters,
    (0,0,0,0), give matrix size 0 outside ospB."""
    if case == "kernel bases":
        grid = osp_grid()
        others = [
            AlgebraSpec(family, spec.m1, spec.m2, spec.n1, spec.n2)
            for family in (Family.OSP_D, Family.SL)
            for spec in grid[1:]
        ]
        return [kernel_basis(spec) for spec in grid + others]
    if case == "rational subset":
        return [_rational_subset()]
    if case == "matrix units":
        return [_matrix_units(ospB(*p), diagonal=False) for p in ((0, 1, 1, 0), (1, 1, 1, 1))]
    if case == "not homogeneous":
        return [_mixed_basis(params) for params in _MIXED_UNITS]
    return [_user_basis(1)]


@pytest.mark.parametrize("case", _TABLE_CASES)
def test_table_equals_the_brackets_of_every_pair(case):
    # Bracketing only the pairs whose supports meet loses no bracket: the
    # table's rows are the nonzero brackets, in increasing b, of all n^2
    # pairs of fresh copies.
    for basis in _table_cases(case):
        copies = [GradedMatrix(mat.signature, dict(mat.items())) for mat in basis]
        every_pair = [[graded_bracket(a, b) for b in copies] for a in copies]
        nonzero = [[(b, t) for b, t in enumerate(row) if not t.is_zero()] for row in every_pair]
        table = BracketTable(basis)
        table.structure_constants
        assert [list(row.items()) for row in table.rows] == nonzero


@pytest.mark.parametrize("defect", [None, "hidden constants", "one-sided", "one order zero"])
@pytest.mark.parametrize("case", _TABLE_CASES)
def test_antisymmetry_failures_match_the_dense_pair_loop(monkeypatch, case, defect):
    # The table compares only the pairs with a nonzero bracket, and none
    # when the gate holds; the dense loop compares all n(n+1)/2 pairs.
    # With the constants hidden the gated bases are scanned too. The
    # one-sided defect doubles the (1,0) x (0,1) brackets, and the other
    # makes the (0,1) x (1,0) ones zero, so that only one row holds the
    # bracket of such a pair. Both need a (1,0) and a (0,1) element and
    # fail some pair of each case; an element that is not homogeneous
    # fails every pair it is in.
    broken = 0
    for basis in _table_cases(case):
        degrees = {mat.degree_of() for mat in basis}
        if defect in ("one-sided", "one order zero") and not set(_ODD_PAIR) <= degrees:
            continue
        with monkeypatch.context() as planted:
            if defect == "hidden constants":
                planted.setattr(BracketTable, "structure_constants", None)
            elif defect == "one-sided":
                _plant_jacobi_defect(planted, basis, defect)
            elif defect:
                true_bracket = algebras.graded_bracket

                def one_order_zero(a, b):
                    bracket = true_bracket(a, b)
                    reversed_pair = (a.degree_of(), b.degree_of()) == _ODD_PAIR[::-1]
                    return bracket.scale(0) if reversed_pair else bracket

                planted.setattr(algebras, "graded_bracket", one_order_zero)
            failures = BracketTable(basis).antisymmetry_failures
            assert failures == antisymmetry_failures_by_pairs(basis)
        broken += len(failures)
    assert (broken > 0) == (defect not in (None, "hidden constants") or case == "not homogeneous")


@pytest.mark.parametrize("params", list(_MIXED_UNITS))
def test_closure_judges_elements_that_are_not_homogeneous_in_both_orders(params):
    # The gate refuses a basis with an element that is not homogeneous, so
    # closure reads the table; every pair holding x or y is among its
    # antisymmetry failures and is judged in both orders: (x, y) fails
    # and (y, x), a nonzero bracket, passes. The report is the pair loop's
    # at every cap.
    basis = _mixed_basis(params)
    n = len(basis)
    table = BracketTable(basis)
    assert table.structure_constants is None
    assert n - 2 in table.rows[n - 1]
    expected = closure_by_pairs(basis, n * n).to_json()
    failing = [ce["indices"] for ce in expected["counterexamples"]]
    assert ["x", "y"] in failing and ["y", "x"] not in failing
    for cap in (0, 1, n * n):
        report = verify_closure(basis, cap, table=table)
        want = {**expected, "counterexamples": expected["counterexamples"][:cap]}
        assert_same_json(report.to_json(), want)


@pytest.mark.parametrize("check", [verify_closure, verify_symmetry, verify_jacobi])
def test_empty_basis_passes_with_no_instance(check):
    # No element to take a zero matrix or a signature from.
    report = check(Basis(ospB(1, 1, 1, 1), [], []))
    assert (report.total, report.failed) == (0, 0)


def test_matrix_loop_bracket_count(monkeypatch):
    # The table's brackets, one per pair whose supports meet (15 of the
    # n^2 = 16), then one walk over the S3 orbits: [e_x, [e_y, e_z]]
    # once per graded-antisymmetric pair {y, z}, the other order taking it
    # with a sign, and [[a, b], c] once per pair a <= b, since (b, a, c)
    # takes the outcome of (a, b, c). 95 brackets for n = 4, where the pair
    # loop took 120 and judging both orders 144.
    basis = _rational_subset()
    n = len(basis)
    table = BracketTable(basis)
    assert table.structure_constants is None
    meeting = sum(map(len, algebras.meeting_pairs(basis.elements)))
    calls = _count_brackets(monkeypatch)
    assert verify_jacobi(basis).passed
    assert len(calls) == meeting + _matrix_loop_brackets(n, 0) == 95
    assert meeting == 15
    calls.clear()
    assert verify_jacobi(basis, table=table).passed
    assert len(calls) == _matrix_loop_brackets(n, 0)


@pytest.mark.parametrize("params, asymmetric", [(None, 1), ((0, 1, 1, 0), 4)])
def test_matrix_loop_judges_an_asymmetric_pair_in_both_orders(monkeypatch, params, asymmetric):
    # The one-sided defect breaks graded antisymmetry on each pair of a
    # (1,0) and a (0,1) element with a nonzero bracket: one pair of the
    # rational subset, 4 of the 16 on the kernel basis of ospB(0,1,1,0).
    # Each costs 2n brackets more: 88 and 1,968 in all.
    basis = _rational_subset() if params is None else kernel_basis(ospB(*params))
    n = len(basis)
    _plant_jacobi_defect(monkeypatch, basis, "one-sided")
    table = BracketTable(basis)
    assert table.structure_constants is None
    assert len(table.antisymmetry_failures) == asymmetric
    calls = _count_brackets(monkeypatch)
    assert verify_jacobi(basis, max_counterexamples=0, table=table).failed > 0
    assert len(calls) == _matrix_loop_brackets(n, asymmetric) == {1: 88, 4: 1968}[asymmetric]


def test_refused_certificate_runs_the_matrix_loop_on_the_gated_pairs(monkeypatch):
    # The two-sided defect passes the gate and fails the certificate. The
    # gate makes every pair graded antisymmetric, so the matrix loop shares
    # every pair, at n^3 + n^2 = 1,872 brackets for n = 12, and compares
    # matrices once per ordering (a, b, c) with a <= b it judges, 936: the
    # table's `antisymmetry_failures` are empty with no pair compared.
    basis = kernel_basis(ospB(0, 1, 1, 0))
    n = len(basis)
    _plant_jacobi_defect(monkeypatch, basis, "two-sided")
    table = BracketTable(basis)
    assert table.structure_constants is not None
    calls = _count_brackets(monkeypatch)
    compared = _count_comparisons(monkeypatch)
    assert verify_jacobi(basis, max_counterexamples=0, table=table).failed == 120
    assert len(calls) == _matrix_loop_brackets(n, 0) == 1872
    assert len(compared) == n * n * (n + 1) // 2 == 936
    assert table.antisymmetry_failures == frozenset()


@pytest.mark.parametrize(
    "triple, orderings",
    [
        ((2, 2, 2), [(2, 2, 2)]),
        ((1, 1, 2), [(1, 1, 2), (1, 2, 1), (2, 1, 1)]),
        ((1, 2, 2), [(1, 2, 2), (2, 1, 2), (2, 2, 1)]),
        ((1, 2, 3), [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]),
    ],
    ids=["p=q=r", "p=q<r", "p<q=r", "p<q<r"],
)
def test_orbit_lists_each_distinct_ordering_once_in_order(triple, orderings):
    # The matrix loop reads the outcome of (b, a, c), a > b, off (a, b, c),
    # which must be listed before it: the orderings come in lexicographic
    # order, each once.
    assert algebras._orbit(*triple) == orderings


def test_mirroring_every_pair_or_none_is_caught(monkeypatch):
    # Mirroring a pair that is not graded antisymmetric gives (b, a, c) the
    # wrong outcome, which the comparison with the triple loop sees; and
    # mirroring none gives the right report at 2n^3 brackets, every
    # [e_a, [e_b, e_c]] and [[a, b], c] computed on its own, which the
    # bracket count sees.
    basis = _rational_subset()
    n = len(basis)
    _plant_jacobi_defect(monkeypatch, basis, "one-sided")
    reference = json.dumps(jacobi_by_triples(basis, max_counterexamples=n ** 3).to_json())
    mirror_every = property(lambda table: frozenset())
    mirror_none = property(lambda table: frozenset((a, b) for a in range(n) for b in range(a, n)))
    monkeypatch.setattr(BracketTable, "antisymmetry_failures", mirror_every)
    assert json.dumps(verify_jacobi(basis, max_counterexamples=n ** 3).to_json()) != reference
    assert verify_symmetry(basis).passed
    monkeypatch.setattr(BracketTable, "antisymmetry_failures", mirror_none)
    table = BracketTable(basis)
    calls = _count_brackets(monkeypatch)
    report = verify_jacobi(basis, max_counterexamples=0, table=table)
    assert report.to_json() == {**json.loads(reference), "counterexamples": []}
    assert len(calls) == 2 * n ** 3 != _matrix_loop_brackets(n, 1)


@pytest.mark.parametrize("hide_constants", [False, True])
@pytest.mark.parametrize("defect", [None, "one-sided", "two-sided", "one-sided off the algebra"])
@pytest.mark.parametrize("basis_of", ["rational subset", "matrix units"])
def test_pair_checks_match_the_pair_loops(monkeypatch, basis_of, defect, hide_constants):
    # Closure and symmetry read the table's `antisymmetry_failures` when the
    # constants are None, and closure mirrors every pair when they exist.
    # The matrix units of ospB(0,1,1,0) leave the algebra, so closure fails
    # pairs in both orders; the one-sided defect makes their (b, a)
    # residual twice that of (a, b). Adding the non-member e_12 to the
    # (1,0) x (0,1) brackets in that order only fails closure on (a, b)
    # and not on (b, a). Every report is the plain loop's.
    if basis_of == "rational subset":
        basis = _rational_subset()
    else:
        basis = _matrix_units(ospB(0, 1, 1, 0), diagonal=False)
    n = len(basis)
    if defect == "one-sided off the algebra":
        true_bracket = algebras.graded_bracket
        off = elem(basis.spec.signature(), 1, 2)
        assert not is_member(basis.spec, off)

        def planted(a, b):
            bracket = true_bracket(a, b)
            return bracket + off if (a.degree_of(), b.degree_of()) == _ODD_PAIR else bracket

        monkeypatch.setattr(algebras, "graded_bracket", planted)
        _bracket_every_pair(monkeypatch)
    elif defect:
        _plant_jacobi_defect(monkeypatch, basis, defect)
    if hide_constants:
        monkeypatch.setattr(BracketTable, "structure_constants", None)
    table = BracketTable(basis)
    checks = ((verify_closure, closure_by_pairs), (verify_symmetry, symmetry_by_pairs))
    for check, reference in checks:
        expected = reference(basis, n * n).to_json()
        for cap in (0, 1, 10, n * n):
            report = check(basis, cap, table=table)
            want = {**expected, "counterexamples": expected["counterexamples"][:cap]}
            assert_same_json(report.to_json(), want)
    closure = closure_by_pairs(basis).failed
    if basis_of == "matrix units":
        assert closure > 10
    else:
        assert closure == (1 if defect == "one-sided off the algebra" else 0)
    assert (symmetry_by_pairs(basis).failed > 0) == str(defect).startswith("one-sided")
    # The table compares matrices to find its antisymmetry failures exactly
    # when the gate refuses.
    fresh = BracketTable(basis)
    gated = fresh.structure_constants is not None
    compared = _count_comparisons(monkeypatch)
    failures = fresh.antisymmetry_failures
    assert (compared == []) == gated
    assert failures == antisymmetry_failures_by_pairs(basis)


@pytest.mark.parametrize("check", [verify_closure, verify_symmetry])
def test_pair_checks_catch_a_dropped_mirrored_pass(monkeypatch, check):
    # Both checks record the outcomes of mirrored pairs in bulk and end
    # with a coverage check: one pass dropped from their counts fails the
    # report with the coverage counterexample.
    basis = _rational_subset()
    n = len(basis)
    assert check(basis).to_json()["counterexamples"] == []
    record_passes = CheckReport.record_passes
    dropped = []

    def drop_one(report, count):
        if count and not dropped:
            dropped.append(1)
            count -= 1
        record_passes(report, count)

    monkeypatch.setattr(CheckReport, "record_passes", drop_one)
    report = check(basis)
    assert (report.total, report.failed) == (n * n - 1, 1)
    assert report.counterexamples == [
        {"indices": {"enumerated": n * n - 1, "declared_total": n * n}}
    ]


@pytest.mark.parametrize("cap", [0, 1, 10, 10**9])
@pytest.mark.parametrize("path", ["matrices", "constants", "orbits"])
def test_jacobi_builds_only_kept_counterexamples(monkeypatch, path, cap):
    # Under a doubled-bracket defect every basis fails more than ten
    # triples; each kept counterexample is serialized once, no other
    # residual is, and the report is the triple loop's at every cap.
    # "constants" is a closed, integral basis whose bracket fails graded
    # antisymmetry, so the gate refuses its constants: the matrix loop runs
    # on it without rescaling. "orbits" is one whose gate holds and whose
    # certificate refuses, so the matrix loop runs on it too.
    basis = _rational_subset() if path == "matrices" else kernel_basis(ospB(0, 1, 1, 0))
    _plant_jacobi_defect(monkeypatch, basis, "two-sided" if path == "orbits" else "one-sided")
    assert (BracketTable(basis).structure_constants is None) == (path != "orbits")
    reference = jacobi_by_triples(basis, max_counterexamples=cap)
    built = []
    to_json = GradedMatrix.to_json
    monkeypatch.setattr(GradedMatrix, "to_json", lambda mat: built.append(1) or to_json(mat))
    report = verify_jacobi(basis, max_counterexamples=cap)
    assert report.failed > 10
    assert len(built) == len(report.counterexamples) == min(cap, report.failed)
    assert_same_json(report.to_json(), reference.to_json())


_LOOP_FACTORS = [1, -1, 2, SQRT2, -SQRT2, Scalar(Fraction(1, 2)), _SCALING, Scalar(Fraction(1, 3)) + SQRT2]


@st.composite
def _defective_jacobi_inputs(draw, in_span: bool = False):
    """(basis, planted bracket, whether `_certified_span` is cut off): up to
    8 elements of the kernel basis of ospB(1,0,1,0), each rescaled by an
    element of Q(sqrt2), some with a denominator, and one (0,0) element
    optionally moved off the algebra by + e_11; and one bilinear defect,
    the true bracket plus c a[p] b[q] E_rs, p and q on the basis's support,
    in one order or in both with the graded sign. With `in_span`, E_rs may
    be replaced by an element of the basis, so that a defect in one order
    keeps every bracket of a closed basis in its span and the gate
    refuses only in its antisymmetry pass."""
    canonical = kernel_basis(ospB(1, 0, 1, 0))
    sig = canonical.spec.signature()
    picks = draw(st.lists(st.integers(0, len(canonical) - 1), min_size=1, max_size=8, unique=True))
    elements = [canonical.elements[ix].scale(draw(st.sampled_from(_LOOP_FACTORS))) for ix in picks]
    even = [k for k, mat in enumerate(elements) if mat.degree_of() == (0, 0)]
    if even and draw(st.booleans()):
        k = draw(st.sampled_from(even))
        elements[k] = elements[k] + elem(sig, 1, 1)
    basis = Basis(canonical.spec, elements, [canonical.labels[ix] for ix in picks])
    support = sorted({pos for mat in elements for pos, _ in mat.items()})
    p, q = draw(st.sampled_from(support)), draw(st.sampled_from(support))
    unit = elem(sig, *draw(st.tuples(*[st.integers(1, len(sig))] * 2)))
    c = draw(st.sampled_from(_LOOP_FACTORS))
    degree = lambda pos: deg_add(sig[pos[0] - 1], sig[pos[1] - 1])
    # (-1)^{dot(dp, dq)}, or 0 for a defect in one order only
    sign = draw(st.sampled_from([0, -1 if dot(degree(p), degree(q)) else 1]))
    if in_span and draw(st.booleans()):
        unit = draw(st.sampled_from(elements))

    def planted(a, b):
        x = a.entry(*p) * b.entry(*q) - sign * b.entry(*p) * a.entry(*q)
        return graded_bracket(a, b) + unit.scale(c * x)

    return basis, planted, draw(st.booleans())


# The budget comes from the loaded hypothesis profile (see tests/conftest.py).
@settings(deadline=None, derandomize=True)
@given(_defective_jacobi_inputs())
def test_matrix_loop_matches_the_triple_loop_on_drawn_defects(call):
    # Byte-identical Jacobi reports at caps 0, 1 and the failure count: the
    # triple loop runs once at the full count and its counterexamples are
    # truncated. The defect has terms on disjoint supports, so the table
    # brackets every pair; with `_certified_span` cut off, every basis the
    # gate or the certificate refuses reaches the matrix loop.
    basis, planted, no_span = call
    patches = {"graded_bracket": planted, "meeting_pairs": lambda mats: [list(range(len(mats)))] * len(mats)}
    if no_span:
        patches["_certified_span"] = lambda basis: False
    with mock.patch.multiple(algebras, **patches):
        reference = jacobi_by_triples(basis, max_counterexamples=len(basis) ** 3).to_json()
        table = BracketTable(basis)
        for cap in (0, 1, reference["failed"]):
            report = verify_jacobi(basis, max_counterexamples=cap, table=table)
            want = {**reference, "counterexamples": reference["counterexamples"][:cap]}
            assert_same_json(report.to_json(), want)


# The budget comes from the loaded hypothesis profile (see tests/conftest.py).
@settings(deadline=None, derandomize=True)
@given(_defective_jacobi_inputs(in_span=True))
def test_pair_checks_match_the_pair_loops_on_drawn_defects(call):
    # Byte-identical closure and symmetry reports at caps 0, 1 and the
    # failure count, and the table's antisymmetry failures equal to the
    # dense loop's. The defect has terms on disjoint supports, so the
    # table brackets every pair. The gate refuses in the row it cannot
    # reduce, or after it has read and dropped every row, so the checks
    # read rows the table kept or made again.
    basis, planted, _ = call
    every = lambda mats: [list(range(len(mats)))] * len(mats)
    with mock.patch.multiple(algebras, graded_bracket=planted, meeting_pairs=every):
        table = BracketTable(basis)
        for check, by_pairs in ((verify_closure, closure_by_pairs), (verify_symmetry, symmetry_by_pairs)):
            reference = by_pairs(basis, max_counterexamples=len(basis) ** 2).to_json()
            for cap in (0, 1, reference["failed"]):
                report = check(basis, max_counterexamples=cap, table=table)
                want = {**reference, "counterexamples": reference["counterexamples"][:cap]}
                assert_same_json(report.to_json(), want)
        assert table.antisymmetry_failures == antisymmetry_failures_by_pairs(basis)


def test_dependent_basis_takes_the_matrix_path(monkeypatch):
    # A kernel basis with one element repeated is closed under brackets,
    # and under the two-sided defect graded antisymmetric and homogeneous,
    # but dependent: a nonzero coordinate vector can be the zero matrix, so
    # the gate refuses its constants and every check reads the matrices.
    canonical = kernel_basis(ospB(0, 1, 1, 0))
    repeated = next(m for m in canonical if m.degree_of() == _ODD_PAIR[0])
    basis = Basis(canonical.spec, [*canonical, repeated], [*canonical.labels, "again"])
    n = len(basis)
    _plant_jacobi_defect(monkeypatch, basis, "two-sided")
    assert BracketTable(canonical).structure_constants is not None
    table = BracketTable(basis)
    assert table.structure_constants is None
    closure = verify_closure(basis, n * n, table=table)
    assert_same_json(closure.to_json(), closure_by_pairs(basis, n * n).to_json())
    symmetry = verify_symmetry(basis, n * n, table=table)
    assert_same_json(symmetry.to_json(), symmetry_by_pairs(basis, n * n).to_json())
    jacobi = verify_jacobi(basis, max_counterexamples=n ** 3, table=table)
    assert jacobi.failed > 10
    assert_same_json(jacobi.to_json(), jacobi_by_triples(basis, n ** 3).to_json())


def _count_loop_runs(monkeypatch) -> list:
    """The calls of `algebras._by_matrices` from here on."""
    runs = []
    by_matrices = algebras._by_matrices
    monkeypatch.setattr(algebras, "_by_matrices", lambda *args: runs.append(1) or by_matrices(*args))
    return runs


@pytest.mark.parametrize("seed", [1, 7919])
def test_user_basis_is_certified_by_its_algebra(monkeypatch, seed):
    # The seeded 16 elements of ospB(1,1,1,1) are not closed, so their
    # gate refuses; they lie in the algebra, whose kernel basis passes the
    # gate and the certificate. Jacobi then brackets only that basis's
    # table, its 608 meeting pairs, runs no matrix loop, and reports what
    # the loop reports.
    basis = _user_basis(seed)
    table = BracketTable(basis)
    assert table.structure_constants is None
    runs = _count_loop_runs(monkeypatch)
    with monkeypatch.context() as counted:
        calls = _count_brackets(counted)
        certified = verify_jacobi(basis, table=table)
    assert (runs, len(calls)) == ([], 608)
    monkeypatch.setattr(algebras, "_certified_span", lambda basis: False)
    looped = verify_jacobi(basis, table=table)
    assert runs == [1]
    assert certified.passed
    assert_same_json(certified.to_json(), looped.to_json())


def _first_eight() -> Basis:
    """The first eight kernel elements of ospB(0,1,1,0), of all four
    degrees: not closed under brackets, and with dim^2 = 144 at most
    n^3 + n^2 = 576, inside the size rule of the certified span."""
    canonical = kernel_basis(ospB(0, 1, 1, 0))
    return Basis(canonical.spec, canonical.elements[:8], canonical.labels[:8])


def _plant_off_the_algebra(monkeypatch, basis: Basis) -> None:
    """Push the first element off the algebra by adding e_11, and plant a
    bilinear defect that vanishes on the algebra: the bracket plus
    r(a) r(b) e_11, r the entry of the membership residual at the first
    position where that of the pushed element is nonzero. Every bracket of
    the kernel basis is the true one."""
    spec = basis.spec
    unit = elem(spec.signature(), 1, 1)
    basis.elements[0] = basis.elements[0] + unit
    residual_of = algebras.membership_residual(spec)
    pos = min(pos for pos, _ in residual_of(basis.elements[0]).items())
    true_bracket = algebras.graded_bracket

    def planted(a, b):
        weight = residual_of(a).entry(*pos) * residual_of(b).entry(*pos)
        bracket = true_bracket(a, b)
        return bracket + unit.scale(weight) if weight else bracket

    monkeypatch.setattr(algebras, "graded_bracket", planted)
    _bracket_every_pair(monkeypatch)


@pytest.mark.parametrize("refusal", ["span", "gate", "certificate"])
def test_certified_span_needs_each_of_its_conditions(monkeypatch, refusal):
    # Each planted bilinear defect fails Jacobi on the first eight and
    # leaves exactly one condition of the certified span unmet: an element
    # off the algebra under a defect that vanishes on it, where the kernel
    # basis passes both of its checks; the one-sided defect, which fails
    # the kernel basis's gate; and the two-sided one, which passes the gate
    # and fails the certificate. The span refuses, the matrix loop runs,
    # and the report is the triple loop's.
    basis = _first_eight()
    n = len(basis)
    if refusal == "span":
        _plant_off_the_algebra(monkeypatch, basis)
    else:
        _plant_jacobi_defect(monkeypatch, basis, "one-sided" if refusal == "gate" else "two-sided")
    canonical = kernel_basis(basis.spec)
    constants = BracketTable(canonical).structure_constants
    assert (constants is not None) == (refusal != "gate")
    if constants is not None:
        degrees = [mat.degree_of() for mat in canonical]
        assert algebras._derivation_certificate(constants, degrees) == (refusal == "span")
    assert all(is_member(basis.spec, mat) for mat in basis) == (refusal != "span")
    table = BracketTable(basis)
    assert table.structure_constants is None
    reference = jacobi_by_triples(basis, max_counterexamples=n ** 3)
    assert reference.failed > 10
    runs = _count_loop_runs(monkeypatch)
    assert not algebras._certified_span(basis)
    report = verify_jacobi(basis, max_counterexamples=n ** 3, table=table)
    assert runs == [1]
    assert_same_json(report.to_json(), reference.to_json())


def _resigned(basis: Basis) -> Basis:
    """The basis with its entries kept and its signature changed to that of
    gl(0,1|2,2), of the same matrix size as sl(1,0|2,2)."""
    sig = AlgebraSpec(Family.GL, 0, 1, 2, 2).signature()
    assert sig != basis.spec.signature()
    elements = [GradedMatrix(sig, dict(mat.items())) for mat in basis]
    return Basis(basis.spec, elements, basis.labels)


@pytest.mark.parametrize(
    "n, resign, certified",
    [(7, False, False), (8, False, True), (8, True, False), (23, False, True), (24, False, False)],
)
def test_certified_span_keeps_to_its_size_rule(monkeypatch, n, resign, certified):
    # sl(1,0|2,2) has dim 24, and dim^2 = 576 = n^3 + n^2 at n = 8: the
    # route is tried from 8 elements up to 23, and builds the kernel basis
    # only then. Every subset of the kernel basis lies in the algebra; one
    # whose elements carry another signature is refused by `verify_jacobi`
    # before the route is tried, since `_certified_span` leaves the
    # signature to its caller.
    canonical = kernel_basis(AlgebraSpec(Family.SL, 1, 0, 2, 2))
    assert expected_dim(canonical.spec) == 24
    basis = Basis(canonical.spec, canonical.elements[:n], canonical.labels[:n])
    basis = _resigned(basis) if resign else basis
    built = []
    build = algebras.kernel_basis
    monkeypatch.setattr(algebras, "kernel_basis", lambda spec: built.append(1) or build(spec))
    if resign:
        with pytest.raises(ValueError, match="signature does not match the spec"):
            verify_jacobi(basis)
    else:
        assert algebras._certified_span(basis) == certified
    assert len(built) == (8 <= n < 24 and not resign)


def test_certified_span_declines_on_gl(monkeypatch):
    # gl has no kernel basis: five matrix units of gl(1,0|1,1), dim 9, are
    # inside the size rule, and Jacobi runs the matrix loop on them.
    spec = AlgebraSpec(Family.GL, 1, 0, 1, 1)
    units = _matrix_units(spec, diagonal=False)
    basis = Basis(spec, units.elements[:5], units.labels[:5])
    assert BracketTable(basis).structure_constants is None
    runs = _count_loop_runs(monkeypatch)
    assert verify_jacobi(basis).passed
    assert runs == [1]


def _planted_check(monkeypatch, check: str):
    """The check as a function of the cap, under a defect that fails more
    than ten of its instances on ospB(1,1,1,1): an entry added to every
    basis element, a doubled (1,0) x (0,1) bracket, or a consistency
    bracket tripled on (1,0) operands."""
    spec = ospB(1, 1, 1, 1)
    basis = kernel_basis(spec)
    shifted = Basis(spec, [mat + elem(spec.signature(), 1, 2) for mat in basis], basis.labels)
    if check == "symmetry":
        true_bracket = algebras.graded_bracket

        def doubled(a, b):
            bracket = true_bracket(a, b)
            odd_pair = (a.degree_of(), b.degree_of()) == ((1, 0), (0, 1))
            return bracket.scale(2) if odd_pair else bracket

        monkeypatch.setattr(algebras, "graded_bracket", doubled)
        return lambda cap: verify_symmetry(basis, cap)
    if check == "bracket-consistency":
        true_bracket = parastat.graded_bracket

        def tripled(x, y):
            bracket = true_bracket(x, y)
            return bracket.scale(3) if x.degree_of() == (1, 0) else bracket

        monkeypatch.setattr(parastat, "graded_bracket", tripled)
        sets = (parastat.parafermion_ops(spec), parastat.paraboson_ops(spec))
        return lambda cap: parastat.graded_bracket_consistency(*sets, max_counterexamples=cap)
    run = {
        "membership": verify_membership,
        "closure": verify_closure,
        "block-conditions": verify_block_conditions,
    }[check]
    return lambda cap: run(shifted, cap)


@pytest.mark.parametrize("cap", [0, 1, 10])
@pytest.mark.parametrize(
    "check", ["membership", "closure", "symmetry", "block-conditions", "bracket-consistency"]
)
def test_checks_build_only_kept_counterexamples(monkeypatch, check, cap):
    # Every failure is counted and the first `cap` counterexamples are kept
    # in enumeration order; no other counterexample is built, and no other
    # residual serialized.
    run = _planted_check(monkeypatch, check)
    reference = run(10**9).to_json()
    built, serialized = [], []
    record = CheckReport.record

    def counting(report, ok, counterexample=None):
        def build():
            built.append(1)
            return counterexample()

        record(report, ok, counterexample and build)

    to_json = GradedMatrix.to_json
    monkeypatch.setattr(CheckReport, "record", counting)
    monkeypatch.setattr(GradedMatrix, "to_json", lambda mat: serialized.append(1) or to_json(mat))
    report = run(cap)
    assert report.failed > 10
    assert report.to_json() == {**reference, "counterexamples": reference["counterexamples"][:cap]}
    assert len(built) == len(report.counterexamples) == min(cap, report.failed)
    assert len(serialized) == (0 if check == "block-conditions" else len(built))


def test_checks_read_a_given_table(monkeypatch):
    basis = kernel_basis(ospB(1, 0, 1, 0))
    table = BracketTable(basis)
    calls = []
    monkeypatch.setattr(algebras, "graded_bracket", lambda a, b: calls.append(1))
    for check in (verify_closure, verify_symmetry, verify_jacobi):
        assert check(basis, table=table).passed
    assert calls == []
    with pytest.raises(ValueError, match="another basis"):
        verify_closure(kernel_basis(ospB(1, 0, 1, 0)), table=table)


def _matrix_units(spec: AlgebraSpec, diagonal: bool) -> Basis:
    """The gl matrix units, or the diagonal ones, on the spec's signature:
    spans closed under brackets that leave the algebra, so closure runs on
    structure constants with nonzero membership residuals."""
    m = spec.size
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i == j or not diagonal]
    elements = [elem(spec.signature(), i, j) for i, j in pairs]
    return Basis(spec, elements, ["e[{},{}]".format(*pair) for pair in pairs])


@pytest.mark.parametrize("anticommute", [False, True])
@pytest.mark.parametrize("diagonal", [False, True])
@pytest.mark.parametrize(
    "spec", [ospB(0, 1, 1, 0), ospB(1, 0, 0, 0), AlgebraSpec(Family.SL, 1, 0, 1, 1)]
)
def test_closure_from_constants_matches_the_table_loop(monkeypatch, spec, diagonal, anticommute):
    # The residual of [e_a, e_b] is summed from those of the elements; the
    # report is the one of the loop over table entries at every cap. The
    # units span a space closed under the graded bracket and under the
    # plain anticommutator a b + b a, planted as the bracket; that one is
    # not graded antisymmetric, so the gate refuses its constants and both
    # runs take the table loop.
    basis = _matrix_units(spec, diagonal)
    n = len(basis)
    if anticommute:
        monkeypatch.setattr(algebras, "graded_bracket", lambda a, b: a @ b + b @ a)
    assert (BracketTable(basis).structure_constants is None) == anticommute
    assert not all(is_member(spec, mat) for mat in basis)
    caps = (0, 1, 10, n * n)
    by_constants = [verify_closure(basis, cap).to_json() for cap in caps]
    monkeypatch.setattr(BracketTable, "structure_constants", None)
    by_table = [verify_closure(basis, cap).to_json() for cap in caps]
    assert_same_json(by_constants, by_table)
    # Graded brackets of diagonal units vanish, and every graded bracket
    # has supertrace 0, so of those only the full units on ospB fail.
    failing = anticommute or not diagonal and spec.family is Family.OSP_B
    assert (by_table[-1]["failed"] > 0) == failing


def test_closure_computes_one_residual_per_element(monkeypatch):
    basis = kernel_basis(ospB(1, 1, 1, 1))
    table = BracketTable(basis)
    assert table.structure_constants is not None
    calls = []
    build = algebras.membership_residual

    def counted(spec):
        residual = build(spec)
        return lambda mat: calls.append(1) or residual(mat)

    monkeypatch.setattr(algebras, "membership_residual", counted)
    assert verify_closure(basis, table=table).total == 40 ** 2
    assert len(calls) == 40


def test_symmetry_gate_refuses_a_one_sided_defect(monkeypatch):
    basis = kernel_basis(ospB(1, 1, 1, 1))
    n = len(basis)
    _plant_jacobi_defect(monkeypatch, basis, "one-sided")
    table = BracketTable(basis)
    assert table.structure_constants is None
    for cap in (0, 1, 10, n * n):
        report = verify_symmetry(basis, cap, table=table)
        assert report.failed > 10
        reference = symmetry_by_pairs(basis, cap)
        assert_same_json(report.to_json(), reference.to_json())


def test_symmetry_gate_admits_a_two_sided_defect(monkeypatch):
    basis = kernel_basis(ospB(1, 1, 1, 1))
    _plant_jacobi_defect(monkeypatch, basis, "two-sided")
    reference = symmetry_by_pairs(basis)
    assert reference.passed
    compared = []
    eq = GradedMatrix.__eq__
    monkeypatch.setattr(GradedMatrix, "__eq__", lambda a, b: compared.append(1) or eq(a, b))
    report = verify_symmetry(basis)
    assert compared == []
    assert report.to_json() == reference.to_json()


def test_block_conditions_flag_a_planted_sign(monkeypatch):
    rows = algebras._block_relations()
    assert rows[0]["id"] == "a[3,3]=-a[1,1]^t"
    rows[0]["sign"] = -rows[0]["sign"]
    monkeypatch.setattr(algebras, "_block_relations", lambda: rows)
    report = verify_block_conditions(kernel_basis(ospB(1, 0, 0, 0)))
    failing = [rel["id"] for rel in report.details["relations"] if not rel["holds"]]
    assert failing == ["a[3,3]=-a[1,1]^t"]
    assert report.failed > 0
    assert all(ce["indices"][0] == "a[3,3]=-a[1,1]^t" for ce in report.counterexamples)


def test_block_conditions_match_the_pair_loop_on_the_grid():
    # The nonzero walk gives the report of the loop over every position
    # pair, on every kernel basis of the acceptance grid.
    for spec in osp_grid():
        basis = kernel_basis(spec)
        expected = block_conditions_by_pairs(basis).to_json()
        assert_same_json(verify_block_conditions(basis).to_json(), expected)


# Planted entries on ospB(2,1,2,1) as (block, row, column) within the block.
# a[1,1] is the rhs of a[3,3]=-a[1,1]^t and the lhs of no relation, and the
# c blocks are the lhs of relations and the rhs of none.
_BLOCK_DEFECTS = {
    "rhs-only": [(("a", 1, 1), 0, 1)],
    "lhs-only": [(("c", 1, 2), 1, 0)],
    "skew-diagonal": [(("a", 1, 3), 1, 1)],
    "zero-block": [(("a", 5, 5), 0, 0)],
    "same-sign-pair": [(("a", 3, 3), 0, 1), (("a", 1, 1), 1, 0)],
}


@pytest.mark.parametrize("defect", sorted(_BLOCK_DEFECTS))
def test_block_conditions_match_the_pair_loop_on_a_planted_entry(defect):
    # A walk that read an entry in one role only would miss a relation the
    # pair loop fails: "rhs-only" catches one that reads lhs positions only.
    spec = ospB(2, 1, 2, 1)
    canonical = kernel_basis(spec)
    entries = {}
    for block, r, c in _BLOCK_DEFECTS[defect]:
        rows, cols = algebras._block_span(spec, block)
        entries[(rows[r], cols[c])] = Scalar(3)
    planted = GradedMatrix(spec.signature(), entries)
    basis = Basis(spec, [planted, *canonical.elements], ["planted", *canonical.labels])
    report = verify_block_conditions(basis).to_json()
    assert report["failed"] > 0
    assert {ce["indices"][1] for ce in report["counterexamples"]} == {"planted"}
    assert_same_json(report, block_conditions_by_pairs(basis).to_json())


@cache
def _kernel(spec: AlgebraSpec) -> Basis:
    return kernel_basis(spec)


_PLANTED_VALUES = [0, 1, -1, 2, SQRT2, -SQRT2, Scalar(Fraction(1, 2)), Scalar(Fraction(1, 3), 1)]


@st.composite
def _planted_block_bases(draw):
    """The kernel basis of an ospB spec with parameters 0..2, with Q(sqrt2)
    values, 0 among them, planted at drawn grid positions of drawn
    elements."""
    spec = ospB(*draw(st.tuples(*[st.integers(0, 2)] * 4)))
    canonical = _kernel(spec)
    elements = list(canonical.elements)
    m = spec.size
    for _ in range(draw(st.integers(1, 4)) if elements else 0):
        k = draw(st.integers(0, len(elements) - 1))
        pos = draw(st.tuples(st.integers(1, m), st.integers(1, m)))
        entries = dict(elements[k].items())
        entries[pos] = draw(st.sampled_from(_PLANTED_VALUES))
        elements[k] = GradedMatrix(spec.signature(), entries)
    return Basis(spec, elements, list(canonical.labels))


# The budget comes from the loaded hypothesis profile (see tests/conftest.py).
@settings(deadline=None, derandomize=True)
@given(_planted_block_bases())
def test_block_conditions_match_the_pair_loop_on_drawn_entries(basis):
    # Byte-identical reports at caps 0, 1 and the failure count: the pair
    # loop runs once at the full count and its counterexamples are truncated.
    every = len(algebras._block_relations()) * len(basis)
    reference = block_conditions_by_pairs(basis, max_counterexamples=every).to_json()
    for cap in (0, 1, reference["failed"]):
        report = verify_block_conditions(basis, max_counterexamples=cap)
        want = {**reference, "counterexamples": reference["counterexamples"][:cap]}
        assert_same_json(report.to_json(), want)


def test_block_conditions_refuse_an_element_of_another_signature(monkeypatch):
    # The same refusal as membership's, before any relation runs.
    stranger = elem(ospB(1, 1, 0, 0).signature(), 5, 5)
    basis = Basis(ospB(1, 0, 0, 0), [stranger], ["stranger"])
    with pytest.raises(ValueError, match="matrix signature does not match the spec"):
        verify_membership(basis)
    relations = []
    monkeypatch.setattr(algebras, "_block_relations", lambda: relations.append(1) or [])
    with pytest.raises(ValueError, match="matrix signature does not match the spec"):
        verify_block_conditions(basis)
    assert relations == []


def test_block_conditions_coverage_fails_when_a_pass_goes_unrecorded(monkeypatch):
    dropped = []

    class DroppingReport(CheckReport):
        def record_passes(self, count):
            if count and not dropped:
                dropped.append(1)
                count -= 1
            super().record_passes(count)

    monkeypatch.setattr(algebras, "CheckReport", DroppingReport)
    basis = kernel_basis(ospB(1, 0, 0, 0))
    declared = len(algebras._block_relations()) * len(basis)
    report = verify_block_conditions(basis)
    assert dropped and report.failed == 1
    assert report.counterexamples == [
        {"indices": {"enumerated": declared - 1, "declared_total": declared}}
    ]
    assert all(rel["holds"] for rel in report.details["relations"])


def test_block_conditions_so3():
    report = verify_block_conditions(kernel_basis(ospB(1, 0, 0, 0)))
    assert report.failed == 0
    byid = {rel["id"]: rel for rel in report.details["relations"]}
    assert byid["a[3,3]=-a[1,1]^t"]["holds"]
    assert byid["a[1,3] skew"]["holds"]
    assert byid["a[3,1] skew"]["holds"]
    assert byid["a[5,5] zero"]["holds"]


def test_block_conditions_vacuous_on_zero_algebra():
    report = verify_block_conditions(kernel_basis(ospB(0, 0, 0, 0)))
    assert report.total == 0
    assert report.failed == 0
    assert all(rel["holds"] for rel in report.details["relations"])


def test_block_conditions_flags_malformed_tokens():
    report = verify_block_conditions(kernel_basis(ospB(1, 1, 1, 1)))
    flagged = [r for r in report.details["relations"] if r["malformed_source"]]
    assert {r["id"] for r in flagged} == {"a[2,3]=-a[1,4]^t", "d[2,3]=-d[1,4]^t"}
    for rel in flagged:
        assert "degree_label_consistent" in rel


def test_block_conditions_rejects_ospD():
    with pytest.raises(ValueError):
        verify_block_conditions(kernel_basis(ospD(1, 0, 0, 0)))


def test_wrong_j_fails_the_report(monkeypatch, tmp_path):
    # The kernel and membership read J through the same code, so a defect
    # in J must still show: as a dimension mismatch, as residuals of the
    # spanning matrices s_ij, and as broken block conditions.
    real_j = algebras.j_matrix

    def flipped_j(spec):
        j = real_j(spec)
        (pos, value), *rest = j.items()
        return GradedMatrix(j.signature, {pos: -value, **dict(rest)})

    monkeypatch.setattr(algebras, "j_matrix", flipped_j)
    out = tmp_path / "report.json"
    argv = ["report", "--algebra", "ospB", "--m1", "1", "--m2", "1", "--n1", "1", "--n2", "1"]
    assert cli.main([*argv, "--output", str(out)]) == 1
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    failing = {c["check"]: (c["failed"], c["total"]) for c in checks if c["failed"]}
    assert failing == {"dims": (1, 1), "membership": (30, 109), "block-conditions": (2, 1260)}


# -- special cases -------------------------------------------------------------------

@pytest.mark.parametrize("params", [(1, 0, 0, 0), (0, 0, 1, 1), (1, 1, 1, 0), (0, 1, 0, 1)])
def test_ospD_embeds_into_ospB(params):
    spec_d = ospD(*params)
    spec_b = ospB(*params)
    for mat in kernel_basis(spec_d).elements:
        assert is_member(spec_b, embed_middle_zero(mat, spec_d))


def test_commutator_only_when_no_symplectic_part():
    # n1 = n2 = 0: all degrees in {(0,0),(1,1)}, every bracket a commutator
    basis = kernel_basis(ospB(1, 1, 0, 0))
    degrees = {x.degree_of() for x in basis.elements}
    assert degrees <= {(0, 0), (1, 1)}
    for a in basis.elements:
        for b in basis.elements:
            assert dot(a.degree_of(), b.degree_of()) == 0


def test_superalgebra_reduction_when_second_families_empty():
    # m2 = n2 = 0: dot collapses to the ordinary superalgebra parity form
    basis = kernel_basis(ospB(1, 0, 2, 0))
    degrees = {x.degree_of() for x in basis.elements}
    assert degrees <= {(0, 0), (1, 0)}
    for a in degrees:
        for b in degrees:
            assert dot(a, b) == (a[0] & b[0])
