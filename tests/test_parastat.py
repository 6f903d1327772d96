"""Generator constructions and the triple-relation verifiers."""

import hashlib
import json
import math
import re
from fractions import Fraction
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedosp import gmatrix, parastat
from gradedosp.algebras import AlgebraSpec, Family, expected_dim, is_member, rank_of
from gradedosp.cli import REPORT_SCHEMA, main
from gradedosp.gmatrix import anticommutator, commutator, elem, graded_bracket
from gradedosp.parastat import (
    GeneratorSet,
    RelationFamily,
    generator_sets,
    graded_bracket_consistency,
    palev_ops,
    paraboson_ops,
    parafermion_ops,
    relation_reports,
    verify_relations,
)
from gradedosp.scalars import SQRT2, Scalar

from helpers import (
    as_scalars,
    assert_same_json,
    consistency_by_pairs,
    dense_rank,
    dense_rows,
    relations_by_instances,
)


def ospB(*params):
    return AlgebraSpec(Family.OSP_B, *params)


# -- constructions ------------------------------------------------------------

def test_parafermions_so3():
    f = parafermion_ops(ospB(1, 0, 0, 0))
    sig = f.spec.signature()
    assert f.creators[0] == (elem(sig, 3, 1) - elem(sig, 2, 3)).scale(SQRT2)
    assert f.annihilators[0] == (elem(sig, 1, 3) - elem(sig, 3, 2)).scale(SQRT2)
    assert f.creators[0].degree_of() == (0, 0)
    assert f.family_split == 1


def test_parafermion_second_family_degree():
    f = parafermion_ops(ospB(1, 1, 0, 0))
    assert f.creators[1].degree_of() == (1, 1)
    assert f.annihilators[1].degree_of() == (1, 1)
    assert f.family_split == 1


def test_parabosons_osp12():
    b = paraboson_ops(ospB(0, 0, 1, 0))
    sig = b.spec.signature()
    assert b.annihilators[0] == (elem(sig, 1, 2) - elem(sig, 3, 1)).scale(SQRT2)
    assert b.creators[0] == (elem(sig, 1, 3) + elem(sig, 2, 1)).scale(SQRT2)
    assert b.creators[0].degree_of() == (1, 0)


def test_paraboson_second_family_degree():
    b = paraboson_ops(ospB(0, 0, 1, 1))
    assert b.creators[1].degree_of() == (0, 1)
    assert b.annihilators[1].degree_of() == (0, 1)


def test_paraboson_construction_matches_pure_boson_form():
    # with no parafermion indices the general construction collapses to
    # b_i^- = sqrt2 (e_{1,i+1} - e_{n+i+1,1}), b_i^+ = sqrt2 (e_{1,n+i+1} + e_{i+1,1})
    spec = ospB(0, 0, 2, 2)
    b = paraboson_ops(spec)
    sig = spec.signature()
    n = 4
    for i in range(1, n + 1):
        minus = (elem(sig, 1, i + 1) - elem(sig, n + i + 1, 1)).scale(SQRT2)
        plus = (elem(sig, 1, n + i + 1) + elem(sig, i + 1, 1)).scale(SQRT2)
        assert b.annihilators[i - 1] == minus
        assert b.creators[i - 1] == plus


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 0, 0, 2), (0, 1, 2, 0)])
def test_generators_are_members(params):
    spec = ospB(*params)
    gens = []
    if params[0] + params[1]:
        f = parafermion_ops(spec)
        gens += f.creators + f.annihilators
    if params[2] + params[3]:
        b = paraboson_ops(spec)
        gens += b.creators + b.annihilators
    assert gens
    assert all(is_member(spec, g) for g in gens)


def test_palev_generators():
    a = palev_ops(1, 1)
    sig = a.spec.signature()
    assert a.spec == AlgebraSpec(Family.SL, 1, 0, 1, 1)
    assert a.creators[0] == elem(sig, 2, 1)
    assert a.creators[1] == elem(sig, 3, 1)
    assert a.annihilators[0] == elem(sig, 1, 2)
    assert a.creators[0].degree_of() == (1, 0)
    assert a.creators[1].degree_of() == (0, 1)
    for g in a.creators + a.annihilators:
        assert is_member(a.spec, g)  # supertrace zero: inside sl


def test_palev_single_family():
    a = palev_ops(2, 0)
    assert a.count == 2
    assert {g.degree_of() for g in a.creators} == {(1, 0)}


def test_empty_constructions_raise():
    with pytest.raises(ValueError):
        parafermion_ops(ospB(0, 0, 1, 1))
    with pytest.raises(ValueError):
        paraboson_ops(ospB(1, 1, 0, 0))
    with pytest.raises(ValueError):
        palev_ops(0, 0)
    with pytest.raises(ValueError):
        parafermion_ops(AlgebraSpec(Family.OSP_D, 1, 0, 0, 0))


# -- relation verifiers ----------------------------------------------------------

def test_bb_same_spot_instance():
    # [{b1-, b1+}, b1-] = -2 b1-
    b = paraboson_ops(ospB(0, 0, 1, 0))
    bm, bp = b.annihilators[0], b.creators[0]
    lhs = commutator(anticommutator(bm, bp), bm)
    assert lhs == bm.scale(-2)


def test_a_same_spot_instance():
    # [{a1+, a1-}, a1+] cancels identically
    a = palev_ops(1, 0)
    lhs = commutator(anticommutator(a.creators[0], a.annihilators[0]), a.creators[0])
    assert lhs.is_zero()


def test_bb_families_exhaustive():
    b = paraboson_ops(ospB(0, 0, 1, 1))
    same = verify_relations(RelationFamily.BB_SAME, b)
    assert same.failed == 0
    assert same.total == same.details["declared_total"] == (1 + 1) * 8
    mixed = verify_relations(RelationFamily.BB_MIXED, b)
    assert mixed.failed == 0
    assert mixed.total == mixed.details["declared_total"] == 2 * 1 * 1 * 2 * 8


def test_ff_mixed_family_triples_hold_literally():
    # indices run over both parafermion families with no restriction
    f = parafermion_ops(ospB(1, 1, 0, 0))
    report = verify_relations(RelationFamily.FF, f)
    assert report.total == report.details["declared_total"] == 2 ** 3 * 8
    assert report.failed == 0


def test_pf_families_exhaustive():
    spec = ospB(1, 1, 1, 1)
    f = parafermion_ops(spec)
    b = paraboson_ops(spec)
    for fam in (RelationFamily.PF_FAMILY1, RelationFamily.PF_FAMILY2):
        report = verify_relations(fam, f, partner=b)
        assert report.failed == 0
        # nf*nf*nb + nb*nb*nf + nf*nb*nf + nf*nb*nb with nf = 1, nb = 2
        assert report.total == report.details["declared_total"] == (2 + 4 + 2 + 4) * 8


def test_a_families_exhaustive():
    a = palev_ops(1, 1)
    same = verify_relations(RelationFamily.A_SAME, a)
    assert same.failed == 0
    assert same.total == same.details["declared_total"] == 2 * (2 * 1 + 2 * 1)
    mixed = verify_relations(RelationFamily.A_MIXED, a)
    assert mixed.failed == 0
    assert mixed.total == mixed.details["declared_total"] == 4 + 8


def test_relations_empty_range_reports_zero():
    b = paraboson_ops(ospB(0, 0, 2, 0))
    report = verify_relations(RelationFamily.BB_MIXED, b)
    assert report.total == 0
    assert report.failed == 0
    assert report.details["declared_total"] == 0


def test_coverage_mismatch_fails_the_check(monkeypatch, tmp_path):
    # Drop index 2 from the l range of the FF row: "*" becomes family "1".
    row, = parastat.RELATION_TABLE[RelationFamily.FF]
    monkeypatch.setitem(parastat.RELATION_TABLE, RelationFamily.FF, (row._replace(ranges="**1"),))
    report = verify_relations(RelationFamily.FF, parafermion_ops(ospB(1, 1, 0, 0)))
    assert report.total == 2 * 2 * 1 * 8
    assert report.details["declared_total"] == 2 ** 3 * 8
    assert report.failed == 1
    assert report.counterexamples == [{"indices": {"enumerated": 32, "declared_total": 64}}]
    out = tmp_path / "report.json"
    argv = ["check-relations", "--algebra", "ospB", "--m1", "1", "--m2", "1", "--output", str(out)]
    assert main(argv) == 1
    doc = json.loads(out.read_text(encoding="utf-8"))
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["summary"]["failed"] == 1


def test_relations_kind_mismatch():
    b = paraboson_ops(ospB(0, 0, 1, 0))
    with pytest.raises(ValueError):
        verify_relations(RelationFamily.FF, b)
    with pytest.raises(ValueError):
        verify_relations(RelationFamily.PF_FAMILY1, b)
    with pytest.raises(ValueError):  # the paraboson partner is missing
        verify_relations(RelationFamily.PF_FAMILY1, parafermion_ops(ospB(1, 0, 1, 0)))
    a = palev_ops(1, 1)
    with pytest.raises(ValueError):
        verify_relations(RelationFamily.BB_SAME, a)


def test_relations_refuse_a_stray_partner():
    spec = ospB(1, 1, 1, 1)
    f = parafermion_ops(spec)
    b = paraboson_ops(spec)
    with pytest.raises(ValueError, match="FF relations need parafermion generators only"):
        verify_relations(RelationFamily.FF, f, b)
    with pytest.raises(ValueError, match="BB_same relations need paraboson generators only"):
        verify_relations(RelationFamily.BB_SAME, b, partner=f)
    a = palev_ops(1, 1)
    with pytest.raises(ValueError, match="A_mixed relations need palev generators only"):
        verify_relations(RelationFamily.A_MIXED, a, partner=a)


def test_pf_requires_matching_specs():
    f = parafermion_ops(ospB(1, 0, 1, 0))
    b = paraboson_ops(ospB(1, 0, 1, 1))
    with pytest.raises(ValueError):
        verify_relations(RelationFamily.PF_FAMILY1, f, partner=b)


# -- bracket consistency ------------------------------------------------------------

def test_bracket_placement_by_degree():
    spec = ospB(1, 1, 1, 1)
    f = parafermion_ops(spec)
    b = paraboson_ops(spec)
    b1, b2 = b.creators[0], b.creators[1]          # degrees (1,0), (0,1)
    f2 = f.creators[1]                              # degree (1,1)
    # same-family parabosons: dot = 1, the bracket is the anticommutator
    assert graded_bracket(b1, b.annihilators[0]) == anticommutator(b1, b.annihilators[0])
    # cross-family parabosons: dot = 0, the bracket is the commutator
    assert graded_bracket(b1, b2) == commutator(b1, b2)
    # second-family parafermion against first-family paraboson: dot = 1
    assert graded_bracket(f2, b1) == anticommutator(f2, b1)


def test_bracket_consistency_reports():
    spec = ospB(1, 1, 1, 1)
    f = parafermion_ops(spec)
    b = paraboson_ops(spec)
    report = graded_bracket_consistency(f, b)
    assert report.total == (2 * f.count + 2 * b.count) ** 2
    assert report.failed == 0
    a = palev_ops(2, 1)
    report = graded_bracket_consistency(a)
    assert report.total == 36
    assert report.failed == 0


def _wrong_sign(bracket):
    """Two (1,0) generators must anticommute; this bracket commutes them."""

    def planted(x, y):
        if x.degree_of() == y.degree_of() == (1, 0):
            return x @ y - y @ x
        return bracket(x, y)

    return planted


def _tripled(bracket):
    """Three times the bracket of two generators of one degree."""

    def planted(x, y):
        out = bracket(x, y)
        return out.scale(3) if x.degree_of() == y.degree_of() else out

    return planted


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 1, 1, 2)])
def test_planted_bracket_fails_consistency(monkeypatch, tmp_path, params):
    monkeypatch.setattr(parastat, "graded_bracket", _wrong_sign(parastat.graded_bracket))
    spec = ospB(*params)
    b = paraboson_ops(spec)
    report = graded_bracket_consistency(parafermion_ops(spec), b)
    first_family = {b.label(i, s) for i in range(1, b.family_split + 1) for s in (1, -1)}
    assert report.failed > 0
    assert report.counterexamples
    for ce in report.counterexamples:
        assert set(ce["indices"]) <= first_family
        assert ce["residual"]["entries"]
    out = tmp_path / "report.json"
    flags = [f"--{name}={value}" for name, value in zip(("m1", "m2", "n1", "n2"), params)]
    assert main(["check-relations", "--algebra", "ospB", *flags, "--output", str(out)]) == 1
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert [c["check"] for c in doc["checks"] if c["failed"]] == ["bracket-consistency"]


# -- generation ---------------------------------------------------------------------

def test_parabosons_generate_osp12():
    spec = ospB(0, 0, 1, 0)
    b = paraboson_ops(spec)
    gens = b.creators + b.annihilators
    words = list(gens)
    pairs = [graded_bracket(x, y) for x in gens for y in gens]
    words += pairs
    words += [graded_bracket(x, p) for x in gens for p in pairs]
    assert rank_of(words) == expected_dim(spec) == 5
    assert dense_rank(dense_rows(words)) == 5


# -- pinned instance stream ------------------------------------------------------------

def _planted(gens: GeneratorSet) -> GeneratorSet:
    """A copy with the first creator doubled and the last annihilator tripled."""
    return GeneratorSet(
        gens.spec,
        gens.kind,
        [gens.creators[0].scale(2), *gens.creators[1:]],
        [*gens.annihilators[:-1], gens.annihilators[-1].scale(3)],
        gens.family_split,
    )


def _with_ops(gens: GeneratorSet, creators=None, annihilators=None) -> GeneratorSet:
    """A copy of `gens` with `creators` or `annihilators` in place of its own."""
    return GeneratorSet(
        gens.spec,
        gens.kind,
        gens.creators if creators is None else creators,
        gens.annihilators if annihilators is None else annihilators,
        gens.family_split,
    )


def _planted_cases():
    for params in ((1, 1, 1, 1), (2, 1, 1, 2), (0, 2, 2, 0)):
        spec = ospB(*params)
        tag = "ospB" + "".join(map(str, params))
        f = _planted(parafermion_ops(spec))
        b = _planted(paraboson_ops(spec))
        yield f"{tag}-FF", RelationFamily.FF, f, None
        yield f"{tag}-BB_same", RelationFamily.BB_SAME, b, None
        yield f"{tag}-BB_mixed", RelationFamily.BB_MIXED, b, None
        yield f"{tag}-PF_family1", RelationFamily.PF_FAMILY1, f, b
        yield f"{tag}-PF_family2", RelationFamily.PF_FAMILY2, f, b
    for n1, n2 in ((2, 1), (2, 2)):
        a = _planted(palev_ops(n1, n2))
        yield f"palev{n1}{n2}-A_same", RelationFamily.A_SAME, a, None
        yield f"palev{n1}{n2}-A_mixed", RelationFamily.A_MIXED, a, None


def _stream_digest(family, gens, partner) -> tuple[int, int, str]:
    """(total, failed, sha256 of the report JSON) with every counterexample kept,
    so the digest covers each failing instance's indices, signs, residual and order."""
    report = verify_relations(family, gens, partner, max_counterexamples=10**9)
    text = json.dumps(report.to_json())
    return report.total, report.failed, hashlib.sha256(text.encode()).hexdigest()


# Recorded from the hand-written per-family loops that the relation table replaced.
PINNED_STREAMS = {
    "ospB1111-FF": (64, 24, "9b457e370224279ae025c21ad99c7c23092f5dbd6c638d6d53734b13b6f0842b"),
    "ospB1111-BB_same": (16, 12, "f2346b916d59890bd83f92fe453d7c04e740c43419896ad4a67b697047dcad67"),
    "ospB1111-BB_mixed": (32, 16, "0081d2508dcd3f0b637b5aede24441b9eaa8ea46ca5c4b5eb8930b6e99d95180"),
    "ospB1111-PF_family1": (96, 16, "31131dac3d549581813e0a8a19d9fcd03af62caeef5a74790fd6db9f9fe8e62c"),
    "ospB1111-PF_family2": (96, 16, "fe90987e5ebd3e9b7bb628945560db6b0b2d77cb7a8af89dfff22c8d82c9a8df"),
    "ospB2112-FF": (216, 40, "26f8066c47f74db5dd17ec518db61ff8b82d2cd1cace07c8dcb69c57f231f469"),
    "ospB2112-BB_same": (72, 20, "cc5a10734ec491b35a6ef49df99fd1b819f27eb1015af5f2d62905dda8348cd7"),
    "ospB2112-BB_mixed": (96, 24, "8ed78079088aa4359f98a48eb7c9ab470976527074dc9e38c9e438342389718d"),
    "ospB2112-PF_family1": (480, 28, "fb7bd8cbd8b37e221ce40a405ee4929fad81b2532d09bf3f1374e68c14dda375"),
    "ospB2112-PF_family2": (192, 20, "2e7fdb649a8514cdc650009b32e96a07641e6c62f6f92fc9e38752759dcac936"),
    "ospB0220-FF": (64, 24, "08b61f2649339c60c629f05413650cfbcc91fff9d998ae0a67d46245cd6fb309"),
    "ospB0220-BB_same": (64, 28, "67b7fc68ce84d44754f386387608e410f0955ca3180bc53380586c4c6401f329"),
    "ospB0220-BB_mixed": (0, 0, "51ae700f9e05beb67cfe629dd93e463b335d57769a426cff131968846c769355"),
    "ospB0220-PF_family1": (0, 0, "c5986ae1d4a7750df951f7b55c434730f58a7571925b95cc958bbd56103fda53"),
    "ospB0220-PF_family2": (256, 32, "a6c997f014926f5e66c3f4dd53aef1c24d59333a80c14bd4018fdab90a8fe5de"),
    "palev21-A_same": (28, 4, "c4c314d9f7e8528f704406885ea1a2072e1c4f5fe8ea51ca9fb307f6a955227f"),
    "palev21-A_mixed": (32, 6, "91434136117ef508bcb67d021a0d74a3df22ca7c043b8517bbe7ca21cb01b861"),
    "palev22-A_same": (48, 8, "5ca45fc2645cf8b01a7beffe88471f32baa26598ba2649f54aeec8a6410f6202"),
    "palev22-A_mixed": (80, 8, "1106e839af1f028007f71971186e876581d9b5cb528a41518ad0984ce5565592"),
}


@pytest.mark.parametrize("case", list(_planted_cases()), ids=lambda case: case[0])
def test_planted_defect_stream_is_pinned(case):
    name, family, gens, partner = case
    assert _stream_digest(family, gens, partner) == PINNED_STREAMS[name]


# -- the relation kernel against the plain instance loop ------------------------------

def _stray(gens: GeneratorSet, value=1) -> GeneratorSet:
    """A copy whose first creator gains `value` (a unit by default) at the
    first free position of its own degree, so it stays homogeneous but stops
    satisfying the table."""
    first = gens.creators[0]
    sig = first.signature
    size = len(sig)
    pos = next(
        (i, j) for i in range(1, size + 1) for j in range(1, size + 1)
        if not first.entry(i, j) and elem(sig, i, j).degree_of() == first.degree_of()
    )
    return _with_ops(gens, creators=[first + elem(sig, *pos).scale(value), *gens.creators[1:]])


def _with_stray_terms(family: RelationFamily) -> tuple:
    """The family's rows, each gaining two terms on every sign case that no
    left-hand side produces: (1, 0, 1), the generator in slot 2 at every l
    when j = k, and (1, 1, 2), the generator in slot 0 when k = l."""
    return tuple(
        block._replace(cases=tuple((s, rel, (*terms, (1, 0, 1), (1, 1, 2))) for s, rel, terms in block.cases))
        for block in parastat.RELATION_TABLE[family]
    )


# Reference cases that run under a patched RELATION_TABLE: case name ->
# {family: rows}. The test function takes only the case, so the autouse
# fixture below patches the rows in for any test parametrized by it.
_TABLE_PATCHES = {
    "ospB2112-PF_family1-stray-term": {
        RelationFamily.PF_FAMILY1: _with_stray_terms(RelationFamily.PF_FAMILY1),
    },
}


@pytest.fixture(autouse=True)
def _table_for_case(request, monkeypatch):
    callspec = getattr(request.node, "callspec", None)
    case = callspec.params.get("case") if callspec else None
    for family, rows in _TABLE_PATCHES.get(case[0] if case else None, {}).items():
        monkeypatch.setitem(parastat.RELATION_TABLE, family, rows)


def _judging_defect_cases():
    """Defects that change which instances can be nonzero, unlike the
    planted scalings."""
    spec = ospB(2, 1, 1, 2)
    yield "ospB2112-FF-stray-unit", RelationFamily.FF, _stray(parafermion_ops(spec)), None
    f, b = parafermion_ops(spec), paraboson_ops(spec)
    yield "ospB2112-PF_family1-stray-term", RelationFamily.PF_FAMILY1, f, b


def _scaled(gens: GeneratorSet, factor) -> GeneratorSet:
    """A copy with every generator scaled by `factor`."""
    return _with_ops(
        gens,
        creators=[mat.scale(factor) for mat in gens.creators],
        annihilators=[mat.scale(factor) for mat in gens.annihilators],
    )


def _content_cases():
    """Generators whose entries are not all integral multiples of sqrt2,
    or are so only in some sets of a call, or only after scaling."""
    spec = ospB(2, 1, 1, 2)
    f, b = parafermion_ops(spec), paraboson_ops(spec)
    # The content is one per call: a stray unit in one set sets s = 1 for both.
    for family in (RelationFamily.PF_FAMILY1, RelationFamily.PF_FAMILY2):
        yield f"ospB2112-{family.value}-stray-unit-b", family, f, _stray(b)
        yield f"ospB2112-{family.value}-stray-unit-f", family, _stray(f), b
    # One paraboson creator doubled: cores +/-2 at s = sqrt2.
    doubled = _with_ops(b, creators=[b.creators[0].scale(2), *b.creators[1:]])
    yield "ospB2112-BB_same-doubled", RelationFamily.BB_SAME, doubled, None
    yield "ospB2112-BB_mixed-doubled", RelationFamily.BB_MIXED, doubled, None
    yield "ospB2112-PF_family1-doubled", RelationFamily.PF_FAMILY1, f, doubled
    # A-type generators times sqrt2: the two-slot rows run at s = sqrt2, and
    # with a stray sqrt2 entry some of them fail.
    a = palev_ops(2, 1)
    for tag, gens in (("sqrt2", _scaled(a, SQRT2)), ("sqrt2-stray", _scaled(_stray(a), SQRT2))):
        for family in (RelationFamily.A_SAME, RelationFamily.A_MIXED):
            yield f"palev21-{family.value}-{tag}", family, gens, None
    # One rational entry: s = 1, and the cores x / s are Scalars.
    rational = _stray(f, Fraction(1, 2))
    yield "ospB2112-FF-rational", RelationFamily.FF, rational, None
    yield "ospB2112-PF_family1-rational", RelationFamily.PF_FAMILY1, rational, b


def _zeroed(gens: GeneratorSet) -> GeneratorSet:
    """A copy whose first annihilator is the zero matrix."""
    first = gens.annihilators[0]
    return _with_ops(gens, annihilators=[first - first, *gens.annihilators[1:]])


def _reference_cases():
    yield from _judging_defect_cases()
    yield from _content_cases()
    # A zero generator: a Kronecker term that names it adds nothing.
    yield "ospB1111-FF-zero", RelationFamily.FF, _zeroed(parafermion_ops(ospB(1, 1, 1, 1))), None
    yield "palev02-A_same-zero", RelationFamily.A_SAME, _zeroed(palev_ops(0, 2)), None
    for name, family, planted, partner in _planted_cases():
        yield f"{name}-planted", family, planted, partner
    for params in ((1, 1, 1, 1), (2, 1, 1, 2), (0, 2, 2, 0)):
        spec = ospB(*params)
        tag = "ospB" + "".join(map(str, params))
        f, b = parafermion_ops(spec), paraboson_ops(spec)
        for family in RelationFamily:
            if family.value.startswith("A_"):
                continue
            gens = b if family.value.startswith("BB") else f
            partner = b if family.value.startswith("PF") else None
            yield f"{tag}-{family.value}", family, gens, partner
    a = palev_ops(2, 1)
    for family in (RelationFamily.A_SAME, RelationFamily.A_MIXED):
        yield f"palev21-{family.value}", family, a, None


@pytest.mark.parametrize("case", list(_reference_cases()), ids=lambda case: case[0])
def test_kernel_matches_the_instance_loop(case):
    # Byte-identical reports at every counterexample cap: the same outcomes,
    # the same residuals and the same kept prefix of the failures.
    _, family, gens, partner = case
    for cap in (0, 1, 10, 10**9):
        kernel = verify_relations(family, gens, partner, max_counterexamples=cap)
        reference = relations_by_instances(family, gens, partner, max_counterexamples=cap)
        assert_same_json(kernel.to_json(), reference.to_json())


def test_relations_use_no_matrix_products(monkeypatch):
    # Every family, on passing and on failing instances.
    cases = list(_reference_cases())

    def refused(*args):
        raise AssertionError("relation instances must run on the product kernel")

    monkeypatch.setattr(gmatrix.GradedMatrix, "__matmul__", refused)
    monkeypatch.setattr(gmatrix, "commutator", refused)
    monkeypatch.setattr(gmatrix, "anticommutator", refused)
    outcomes = {verify_relations(family, gens, partner).passed for _, family, gens, partner in cases}
    assert outcomes == {True, False}


@pytest.mark.parametrize("case", list(_judging_defect_cases()), ids=lambda case: case[0])
def test_defect_cases_fail_off_the_kronecker_indices(case):
    # The stray unit makes an outer bracket nonzero at some l outside {j, k};
    # the stray term fails instances whose left-hand side is zero.
    _, family, gens, partner = case
    report = relations_by_instances(family, gens, partner, max_counterexamples=10**9)
    indices = [ce["indices"] for ce in report.counterexamples]
    assert any(ix["l"] not in (ix["j"], ix["k"]) for ix in indices)


def test_relations_bracket_per_inner_pair_not_per_instance(monkeypatch):
    # Two products per (j, k, sign pair) inner bracket, none per instance.
    calls = []
    product = gmatrix._product
    monkeypatch.setattr(gmatrix, "_product", lambda *args: calls.append(1) or product(*args))
    for _, family, gens, partner in _reference_cases():
        sets = dict(zip(parastat._operand_tags(family), (gens, partner)))
        inner = instances = 0
        for block in parastat.RELATION_TABLE[family]:
            codes = zip(block.operands, block.ranges)
            sizes = [len(parastat._index_range(sets[tag], code)) for tag, code in codes]
            inner += sizes[0] * sizes[1] * len({signs[:2] for signs, _, _ in block.cases})
            instances += math.prod(sizes) * len(block.cases)
        calls.clear()
        report = verify_relations(family, gens, partner)
        assert report.total == instances
        assert len(calls) <= 2 * inner
        assert calls or not instances


@pytest.mark.parametrize("cap", [0, 1, 10])
def test_relations_build_only_kept_counterexamples(monkeypatch, cap):
    _, family, gens, partner = next(case for case in _planted_cases() if case[0] == "ospB2112-FF")
    built = []
    to_json = gmatrix.GradedMatrix.to_json
    monkeypatch.setattr(gmatrix.GradedMatrix, "to_json", lambda mat: built.append(1) or to_json(mat))
    report = verify_relations(family, gens, partner, max_counterexamples=cap)
    assert report.failed == PINNED_STREAMS["ospB2112-FF"][1] > cap
    assert len(report.counterexamples) == len(built) == cap


def test_paper_sets_run_the_relation_kernel_on_plain_ints(monkeypatch):
    # The sqrt2 content is divided out once per call and folded back into
    # the slot-3 weights, so no instance multiplies two Scalars.
    calls = []
    mul = Scalar.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    assert SQRT2 * 2 == 2 * SQRT2 and len(calls) == 2
    f, b = parafermion_ops(ospB(2, 1, 1, 2)), paraboson_ops(ospB(2, 1, 1, 2))
    a = palev_ops(2, 1)
    calls.clear()
    reports = [
        verify_relations(RelationFamily.FF, f),
        verify_relations(RelationFamily.BB_SAME, b),
        verify_relations(RelationFamily.BB_MIXED, b),
        verify_relations(RelationFamily.PF_FAMILY1, f, b),
        verify_relations(RelationFamily.PF_FAMILY2, f, b),
        verify_relations(RelationFamily.A_SAME, a),
        verify_relations(RelationFamily.A_MIXED, a),
    ]
    assert calls == []
    assert all(report.passed for report in reports)


def test_every_row_holds_one_case_per_sign_tuple():
    # The kernel sums the right-hand sides by sign tuple, so two cases of one
    # row under one tuple would be judged as one.
    for rows in parastat.RELATION_TABLE.values():
        for row in rows:
            signs = [case[0] for case in row.cases]
            assert len(set(signs)) == len(signs)


def test_a_row_repeating_a_sign_tuple_is_refused(monkeypatch):
    # Two cases (s, t) and (s, -t) would sum to a zero right-hand side and
    # pass wherever the left-hand side vanishes. Refused even where the row's
    # index ranges are empty.
    row = parastat.RELATION_TABLE[RelationFamily.BB_MIXED][0]
    signs, rel, terms = row.cases[0]
    opposite = tuple((-c, p, q) for c, p, q in terms)
    repeated = row._replace(cases=(*row.cases, (signs, rel, opposite)))
    monkeypatch.setitem(parastat.RELATION_TABLE, RelationFamily.BB_MIXED, (repeated,))
    for params in ((0, 0, 1, 1), (0, 0, 2, 0)):
        with pytest.raises(ValueError, match="two cases with one sign tuple"):
            verify_relations(RelationFamily.BB_MIXED, paraboson_ops(ospB(*params)))


_FACTORS = [-1, 2, SQRT2, -SQRT2, Scalar(Fraction(1, 2)), Scalar(1, 1), Scalar(0, Fraction(1, 2))]


@st.composite
def _defective_calls(draw):
    """(family, gens, partner, rows) for a small generator set with one
    defect: c E_pq added to one generator, one generator rescaled by an
    element of Q(sqrt2), or one stray term in one case of one three-slot
    row of the table (`rows` is then the family's patched rows, else None)."""
    family = draw(st.sampled_from(RelationFamily))
    tags = parastat._operand_tags(family)
    if tags == ["a"]:
        sets = [palev_ops(*draw(st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any)))]
    else:
        # Parafermions need m1 + m2 > 0, parabosons n1 + n2 > 0.
        params = draw(
            st.tuples(*[st.integers(0, 2)] * 4).filter(
                lambda m: ("f" not in tags or m[0] + m[1]) and ("b" not in tags or m[2] + m[3])
            )
        )
        by_kind = {parastat._TAGS[gens.kind]: gens for gens in generator_sets(ospB(*params))}
        sets = [by_kind[tag] for tag in tags]
    defect = draw(st.sampled_from(["unit", "rescale", "term"]))
    rows = None
    if defect == "term":
        rows = list(parastat.RELATION_TABLE[family])
        at = draw(st.sampled_from([i for i, row in enumerate(rows) if row.outer]))
        cases = list(rows[at].cases)
        ic = draw(st.integers(0, len(cases) - 1))
        signs, rel, terms = cases[ic]
        term = (draw(st.sampled_from([1, -1, 2])), *draw(st.sampled_from([(0, 1), (0, 2), (1, 2)])))
        cases[ic] = (signs, rel, (*terms, term))
        rows[at] = rows[at]._replace(cases=tuple(cases))
        rows = tuple(rows)
    else:
        iset = draw(st.integers(0, len(sets) - 1))
        gens = sets[iset]
        side = draw(st.sampled_from(["creators", "annihilators"]))
        mats = list(getattr(gens, side))
        ix = draw(st.integers(0, len(mats) - 1))
        if defect == "unit":
            size = gens.spec.size
            pos = draw(st.tuples(st.integers(1, size), st.integers(1, size)))
            mats[ix] = mats[ix] + elem(mats[ix].signature, *pos).scale(draw(st.sampled_from(_FACTORS)))
        else:
            mats[ix] = mats[ix].scale(draw(st.sampled_from(_FACTORS)))
        sets[iset] = _with_ops(gens, **{side: mats})
    return family, sets[0], sets[1] if len(sets) > 1 else None, rows


# The budget comes from the loaded hypothesis profile (see tests/conftest.py).
@settings(deadline=None, derandomize=True)
@given(_defective_calls())
def test_relation_kernel_matches_the_instance_loop_on_drawn_defects(call):
    # Byte-identical reports at caps 0, 1 and the full count: the reference
    # keeps a prefix of its failures, so one run at the full count gives all three.
    family, gens, partner, rows = call
    with mock.patch.dict(parastat.RELATION_TABLE, {family: rows} if rows else {}):
        reference = relations_by_instances(family, gens, partner, max_counterexamples=10**9).to_json()
        for cap in (0, 1, reference["failed"]):
            report = verify_relations(family, gens, partner, max_counterexamples=cap)
            want = {**reference, "counterexamples": reference["counterexamples"][:cap]}
            assert_same_json(report.to_json(), want)


@pytest.mark.parametrize(
    "sets",
    [[parafermion_ops(ospB(2, 1, 1, 2)), paraboson_ops(ospB(2, 1, 1, 2))], [palev_ops(2, 1)]],
    ids=["ospB2112", "palev21"],
)
def test_consistency_brackets_each_pair_once_on_serializable_operands(monkeypatch, sets):
    # One graded_bracket per ordered pair, on the true generators. The
    # tracer serializes every operand; an int entry must serialize as the
    # equal Scalar does.
    operands = []
    bracket = parastat.graded_bracket

    def watched(x, y):
        operands.extend((x, y))
        return bracket(x, y)

    monkeypatch.setattr(parastat, "graded_bracket", watched)
    report = graded_bracket_consistency(*sets)
    n = sum(2 * gens.count for gens in sets)
    assert report.total == len(operands) // 2 == n * n
    assert report.passed
    assert all(mat.to_json() == as_scalars(mat).to_json() for mat in operands)


def _consistency_cases():
    spec = ospB(2, 1, 1, 2)
    f, b = parafermion_ops(spec), paraboson_ops(spec)
    small = ospB(1, 1, 1, 1)
    sets = {
        "ospB1111": [parafermion_ops(small), paraboson_ops(small)],
        "ospB2112": [f, b],
        "palev21": [palev_ops(2, 1)],
    }
    for name, gen_sets in sets.items():
        for planted in (None, _wrong_sign, _tripled):
            yield f"{name}-{planted.__name__.strip('_') if planted else 'true'}", gen_sets, planted
    # s = 1 for the whole call, with int and with Scalar cores.
    yield "ospB2112-stray-unit-b", [f, _stray(b)], None
    yield "ospB2112-rational-f", [_stray(f, Fraction(1, 2)), b], None


@pytest.mark.parametrize("case", list(_consistency_cases()), ids=lambda case: case[0])
def test_consistency_matches_the_pair_loop(monkeypatch, case):
    _, sets, planted = case
    if planted:
        monkeypatch.setattr(parastat, "graded_bracket", planted(parastat.graded_bracket))
    for cap in (0, 1, 10, 10**9):
        kernel = graded_bracket_consistency(*sets, max_counterexamples=cap)
        reference = consistency_by_pairs(*sets, max_counterexamples=cap)
        assert_same_json(kernel.to_json(), reference.to_json())


def test_bracket_consistency_refuses_an_inhomogeneous_generator():
    # f1+ has degree (1,1) on ospB(0,1,1,0); adding a (0,0) unit mixes degrees
    gens = parafermion_ops(ospB(0, 1, 1, 0))
    mixed = elem(gens.spec.signature(), 1, 1) + gens.creators[0]
    assert mixed.degree_of() is None
    gens = _with_ops(gens, creators=[mixed, *gens.creators[1:]])
    with pytest.raises(ValueError, match=re.escape("generator f1+ is not homogeneous")):
        graded_bracket_consistency(gens)


# -- suites chosen per generator shape ----------------------------------------

@pytest.mark.parametrize(
    "spec, kinds, families",
    [
        (ospB(3, 0, 0, 0), ["parafermion"], ["FF"]),
        (ospB(0, 0, 2, 1), ["paraboson"], ["BB_same", "BB_mixed"]),
        (
            ospB(1, 1, 1, 1),
            ["parafermion", "paraboson"],
            ["FF", "BB_same", "BB_mixed", "PF_family1", "PF_family2"],
        ),
        (AlgebraSpec(Family.SL, 1, 0, 3, 0), ["palev"], ["A_same", "A_mixed"]),
        (AlgebraSpec(Family.SL, 1, 0, 1, 2), ["palev"], ["A_same", "A_mixed"]),
    ],
)
def test_relation_suites_follow_the_generator_shape(spec, kinds, families):
    sets = generator_sets(spec)
    assert [gens.kind for gens in sets] == kinds
    reports = relation_reports(sets, max_counterexamples=0)
    checks = [f"relations-{family}" for family in families] + ["bracket-consistency"]
    assert [report.check for report in reports] == checks
    assert all(report.passed for report in reports)


@pytest.mark.parametrize(
    "spec",
    [
        AlgebraSpec(Family.OSP_D, 1, 1, 1, 1),
        AlgebraSpec(Family.GL, 1, 0, 1, 0),
        AlgebraSpec(Family.SL, 2, 0, 1, 1),
        ospB(0, 0, 0, 0),
    ],
)
def test_no_generator_sets_outside_ospB_and_sl_1_0(spec):
    assert generator_sets(spec) == []

