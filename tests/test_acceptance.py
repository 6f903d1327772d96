"""Acceptance suite: one test per criterion, all exact (tolerance zero).

Each test prints a PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s`
to see them as the suite goes.
"""

import json
import random
from pathlib import Path

import pytest

from gradedosp.algebras import (
    AlgebraSpec,
    Family,
    expected_dim,
    is_member,
    kernel_basis,
    rank_of,
    s_matrices,
    verify_block_conditions,
    verify_jacobi,
    verify_symmetry,
)
from gradedosp.cli import main
from gradedosp.gmatrix import GradedMatrix, commutator, elem, graded_bracket
from gradedosp.grading import dot, signature_gl
from gradedosp.parastat import (
    RelationFamily,
    palev_ops,
    paraboson_ops,
    parafermion_ops,
    verify_relations,
)
from gradedosp.scalars import ONE, SQRT2, ZERO, Scalar

from helpers import bruteforce_algebra_dim, osp_grid, s_basis

GOLDEN = Path(__file__).parent / "golden"
GRID = osp_grid()


def report_line(name, ok, extra=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}{' — ' + extra if extra else ''}")
    assert ok, name


@pytest.fixture(scope="module")
def basis_1111():
    return kernel_basis(AlgebraSpec(Family.OSP_B, 1, 1, 1, 1))


def test_criterion_1_dimension_oracles():
    named = {(1, 0, 1, 0): 12, (0, 0, 1, 0): 5, (1, 1, 1, 1): 40}
    ok = True
    for spec in GRID:
        r_s = len(s_basis(spec))
        r_k = len(kernel_basis(spec))
        want = expected_dim(spec)
        brute = bruteforce_algebra_dim(spec)
        ok = ok and (r_s == r_k == want == brute)
        key = (spec.m1, spec.m2, spec.n1, spec.n2)
        if key in named:
            ok = ok and want == named[key]
    report_line("criterion 1: dimension oracle agreement", ok, f"{len(GRID)} specs")


def test_criterion_2_defining_condition_membership():
    ok = True
    for spec in GRID:
        for _, _, mat in s_matrices(spec):
            ok = ok and is_member(spec, mat)
        for mat in kernel_basis(spec).elements:
            ok = ok and is_member(spec, mat)
    report_line("criterion 2: every s_ij and kernel element satisfies the condition", ok)


def test_criterion_3_jacobi_suite(basis_1111):
    jac = verify_jacobi(basis_1111)
    sym = verify_symmetry(basis_1111)
    ok = (
        jac.total == 64000
        and jac.failed == 0
        and sym.total == 1600
        and sym.failed == 0
    )
    report_line(
        "criterion 3: Jacobi and symmetry on ospB(1,1,1,1)",
        ok,
        f"{jac.total} triples, {sym.total} pairs",
    )


# Block sign table of the graded supertranspose on the gl layout: entry
# [p][q] is the sign the transpose puts on source block (p, q).
BLOCK_SIGNS = [
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [-1, 1, 1, -1],
    [-1, 1, -1, 1],
]


def test_criterion_4_transpose_antihomomorphism():
    sig = signature_gl(2, 2, 2, 2)
    m = len(sig)
    units = [elem(sig, i, j) for i in range(1, m + 1) for j in range(1, m + 1)]
    ok = True
    checked = 0
    for a in units:
        da = a.degree_of()
        at = a.graded_transpose()
        for b in units:
            lhs = (a @ b).graded_transpose()
            rhs = b.graded_transpose() @ at
            if dot(da, b.degree_of()):
                rhs = -rhs
            ok = ok and lhs == rhs
            checked += 1
    # blockwise: one representative unit per block, sign per the table
    starts = [1, 3, 5, 7]  # first index of each block of size 2
    for p in range(4):
        for q in range(4):
            i, j = starts[p], starts[q]
            want = elem(sig, j, i).scale(BLOCK_SIGNS[p][q])
            ok = ok and elem(sig, i, j).graded_transpose() == want
    report_line(
        "criterion 4: transpose antihomomorphism + block sign table",
        ok,
        f"{checked} pairs, 16 blocks",
    )


def test_criterion_5_supertrace_vanishes():
    sig = signature_gl(1, 1, 1, 1)
    pool = [Scalar(-1), ZERO, ONE, SQRT2]
    rng = random.Random(20250811)

    def draw():
        entries = {}
        for i in range(1, 5):
            for j in range(1, 5):
                v = rng.choice(pool)
                if v:
                    entries[(i, j)] = v
        return GradedMatrix(sig, entries)

    ok = True
    for _ in range(100):
        a, b = draw(), draw()
        ok = ok and graded_bracket(a, b).supertrace() == ZERO
    report_line("criterion 5: Str of brackets vanishes", ok, "100 pseudo-random pairs")


def test_criterion_6_triple_relation_suites():
    ok = True
    totals = []

    spec = AlgebraSpec(Family.OSP_B, 1, 1, 1, 1)
    fermions = parafermion_ops(spec)
    bosons = paraboson_ops(spec)
    runs = [
        (RelationFamily.FF, fermions, None),
        (RelationFamily.BB_SAME, bosons, None),
        (RelationFamily.BB_MIXED, bosons, None),
        (RelationFamily.PF_FAMILY1, fermions, bosons),
        (RelationFamily.PF_FAMILY2, fermions, bosons),
    ]
    bosons22 = paraboson_ops(AlgebraSpec(Family.OSP_B, 0, 0, 2, 2))
    runs += [
        (RelationFamily.BB_SAME, bosons22, None),
        (RelationFamily.BB_MIXED, bosons22, None),
    ]
    palev = palev_ops(2, 2)
    runs += [(RelationFamily.A_SAME, palev, None), (RelationFamily.A_MIXED, palev, None)]

    for family, gens, partner in runs:
        report = verify_relations(family, gens, partner=partner)
        ok = ok and report.failed == 0
        ok = ok and report.total == report.details["declared_total"]
        totals.append(report.total)
    report_line(
        "criterion 6: all triple-relation suites, sign-complete",
        ok,
        f"instances {totals}",
    )


def test_criterion_7_reduction_properties():
    ok = True
    for spec in GRID:
        basis = kernel_basis(spec)
        degrees = [x.degree_of() for x in basis.elements]
        if spec.m2 == 0 and spec.n2 == 0:
            # ordinary superalgebra: the sign form collapses to parity
            for a in degrees:
                for b in degrees:
                    ok = ok and dot(a, b) == (a[0] & b[0])
        if spec.n1 == 0 and spec.n2 == 0:
            # no symplectic part: every bracket is a plain commutator
            for x in basis.elements:
                for y in basis.elements:
                    ok = ok and graded_bracket(x, y) == commutator(x, y)
        if spec.m1 == 0 and spec.m2 == 0 and (spec.n1 == 0) != (spec.n2 == 0):
            # a single paraboson family: the sign form is the parity product
            for a in degrees:
                for b in degrees:
                    ok = ok and dot(a, b) == ((a[0] | a[1]) & (b[0] | b[1]))
    report_line("criterion 7: special-case reductions on the grid", ok)


def test_criterion_8_parabosons_generate():
    spec = AlgebraSpec(Family.OSP_B, 0, 0, 1, 0)
    b = paraboson_ops(spec)
    gens = b.creators + b.annihilators
    pairs = [graded_bracket(x, y) for x in gens for y in gens]
    triples = [graded_bracket(x, p) for x in gens for p in pairs]
    rank = rank_of(gens + pairs + triples)
    ok = rank == expected_dim(spec) == 5
    report_line("criterion 8: paraboson triple-bracket span", ok, f"rank {rank}")


def test_criterion_9_cli_golden_report(tmp_path):
    golden = (GOLDEN / "report_ospB_1111.json").read_bytes()
    argv = ["report", "--algebra", "ospB", "--m1", "1", "--m2", "1", "--n1", "1", "--n2", "1"]
    ok = True
    for workers in ("1", "2"):
        out = tmp_path / f"report_p{workers}.json"
        code = main([*argv, "--parallelism", workers, "--output", str(out)])
        ok = ok and code == 0 and out.read_bytes() == golden
    report_line("criterion 9: byte-identical golden report across parallelism", ok)


def test_criterion_10_block_condition_adjudication():
    golden = (GOLDEN / "block_conditions_ospB_1111.json").read_text(encoding="utf-8")
    report = verify_block_conditions(kernel_basis(AlgebraSpec(Family.OSP_B, 1, 1, 1, 1)))
    rendered = json.dumps(report.to_json(), indent=2) + "\n"
    ok = rendered == golden and report.total == 1800
    report_line(
        "criterion 10: block-condition adjudication matches the checked-in file",
        ok,
        f"{report.failed} inconsistencies",
    )
