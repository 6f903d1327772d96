"""Creation/annihilation generators inside the matrix algebras, and
exhaustive verification of the triple relations they satisfy.

Two families of parafermions and two families of parabosons live inside
the ospB algebras; the A-type generators live inside sl(1,0|n1,n2). Each
relation is an outer bracket of an inner bracket equal to Kronecker-delta
multiples of single generators, so `RELATION_TABLE` gives every family as
`Block` rows and `verify_relations` runs them all through one loop, over
complete index ranges and all sign tuples. The kernel runs on integral
cores: one content s per call, s = sqrt2 when every entry of every
generator used is an integral multiple of sqrt2 (the parafermions and
parabosons) and s = 1 otherwise (the A-type set), and each generator x
enters as x / s, plain ints where integral. Inner brackets run on the
sparse product kernel of `gmatrix`; the outer brackets of one inner
bracket with every third generator come from one pass over its entries,
with kappa = s^2 folded into the third generators' weights, so that a
three-slot instance compares kappa [[x, y], z] with its right-hand side,
all on cores, at no extra cost. The Kronecker terms of one index pair
(j, k) are summed into dicts of the same shape, keyed by sign pair and
(eps, l), and one exact comparison of the two sides decides every
instance of that pair; only where they differ are instances walked, in
order, each a failure whose residual lhs - rhs is s times the
difference, rebuilt as a matrix. Passes are counted in bulk.
An instance count other than the closed form `declared_total` fails the
check; `relation_reports` runs each family whose operand kinds are all
among a spec's `generator_sets`.

The relations hold for every index with Kronecker-delta right-hand sides,
so permuting the indices within a family (of one set) changes no outcome
once the generators are permuted with them. When a set of the call has a
family of more than three indices, `_relabels` checks that exactly: every
Kronecker term pairs two slots of one set, and for the transposition of
each family's first two indices and its cyclic shift, a relabelling of
matrix indices read off the generators' supports carries each x_j to
x_sigma(j) and fixes every other generator, entry for entry. Conjugation
by a permutation matrix keeps every product, so then each instance has
the outcome of one in the kept ranges, the first three indices of each
family, and the loop runs there first as a trial. A trial with no failure
records every instance as passed; one that fails, or a refused check,
runs the full loop, so reports are those of the full loop either way.
"""

from __future__ import annotations

from enum import Enum
from functools import partial
from itertools import product
from math import prod
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .algebras import AlgebraSpec, Family, _homogeneous_degrees
from .gmatrix import GradedMatrix, _axpy, _bracket_into, _Operand, elem, graded_bracket
from .grading import dot, signature_gl
from .report import CheckReport
from .scalars import SQRT2, Scalar, as_int, over_sqrt2

SIGNS = (1, -1)
_TAGS = {"parafermion": "f", "paraboson": "b", "palev": "a"}
_KINDS = {tag: kind for kind, tag in _TAGS.items()}


class GeneratorSet:
    """Paired creation (+) and annihilation (-) operators, two families.

    Generators 1..family_split belong to the first family, the rest to
    the second; the two families carry different degrees.
    """

    __slots__ = ("spec", "kind", "creators", "annihilators", "family_split")

    def __init__(
        self,
        spec: AlgebraSpec,
        kind: str,  # "parafermion" | "paraboson" | "palev"
        creators: list[GradedMatrix],
        annihilators: list[GradedMatrix],
        family_split: int,
    ):
        self.spec = spec
        self.kind = kind
        self.creators = creators
        self.annihilators = annihilators
        self.family_split = family_split

    @property
    def count(self) -> int:
        return len(self.creators)

    def get(self, index: int, sign: int) -> GradedMatrix:
        """Generator number `index` (1-based); sign +1 creator, -1 annihilator."""
        if not 1 <= index <= self.count:
            raise IndexError(f"generator index {index} outside 1..{self.count}")
        return self.creators[index - 1] if sign > 0 else self.annihilators[index - 1]

    def label(self, index: int, sign: int) -> str:
        return f"{_TAGS[self.kind]}{index}{'+' if sign > 0 else '-'}"

    def labelled(self) -> list[tuple[str, GradedMatrix]]:
        idx = range(1, self.count + 1)
        return [(self.label(i, sign), self.get(i, sign)) for i in idx for sign in SIGNS]


class RelationFamily(Enum):
    FF = "FF"
    BB_SAME = "BB_same"
    BB_MIXED = "BB_mixed"
    PF_FAMILY1 = "PF_family1"
    PF_FAMILY2 = "PF_family2"
    A_SAME = "A_same"
    A_MIXED = "A_mixed"

    @property
    def sign_arity(self) -> int:
        return 0 if self in (RelationFamily.A_SAME, RelationFamily.A_MIXED) else 3


def parafermion_ops(spec: AlgebraSpec) -> GeneratorSet:
    """The 2(m1+m2) parafermion operators of an ospB algebra.

    f_i^+ = sqrt2 (e_{2k+1, i} - e_{k+i, 2k+1}) and
    f_i^- = sqrt2 (e_{i, 2k+1} - e_{2k+1, k+i}) with k = m1+m2;
    degrees (0,0) for i <= m1 and (1,1) above.
    """
    if spec.family is not Family.OSP_B:
        raise ValueError("parafermion operators live in the ospB family")
    k = spec.m1 + spec.m2
    if k == 0:
        raise ValueError("no parafermions: m1 + m2 = 0")
    sig = spec.signature()
    mid = 2 * k + 1
    idx = range(1, k + 1)
    creators = [(elem(sig, mid, i) - elem(sig, k + i, mid)).scale(SQRT2) for i in idx]
    annihilators = [(elem(sig, i, mid) - elem(sig, mid, k + i)).scale(SQRT2) for i in idx]
    return GeneratorSet(spec, "parafermion", creators, annihilators, spec.m1)


def paraboson_ops(spec: AlgebraSpec) -> GeneratorSet:
    """The 2(n1+n2) paraboson operators of an ospB algebra.

    b_i^+ = sqrt2 (e_{2k+1, 2k+1+n+i} + e_{2k+1+i, 2k+1}) and
    b_i^- = sqrt2 (e_{2k+1, 2k+1+i} - e_{2k+1+n+i, 2k+1}) with n = n1+n2;
    degrees (1,0) for i <= n1 and (0,1) above.
    """
    if spec.family is not Family.OSP_B:
        raise ValueError("paraboson operators live in the ospB family")
    n = spec.n1 + spec.n2
    if n == 0:
        raise ValueError("no parabosons: n1 + n2 = 0")
    sig = spec.signature()
    mid = 2 * (spec.m1 + spec.m2) + 1
    rows = range(mid + 1, mid + n + 1)  # 2k+1+i for i = 1..n
    creators = [(elem(sig, mid, r + n) + elem(sig, r, mid)).scale(SQRT2) for r in rows]
    annihilators = [(elem(sig, mid, r) - elem(sig, r + n, mid)).scale(SQRT2) for r in rows]
    return GeneratorSet(spec, "paraboson", creators, annihilators, spec.n1)


def palev_ops(n1: int, n2: int) -> GeneratorSet:
    """The A-type generators a_i^+ = e_{i+1,1}, a_i^- = e_{1,i+1}
    inside sl(1,0|n1,n2); degrees (1,0) for i <= n1 and (0,1) above."""
    if n1 < 0 or n2 < 0:
        raise ValueError("n1 and n2 must be non-negative")
    if n1 + n2 == 0:
        raise ValueError("no generators: n1 + n2 = 0")
    spec = AlgebraSpec(Family.SL, 1, 0, n1, n2)
    sig = signature_gl(1, 0, n1, n2)
    creators = [elem(sig, i + 1, 1) for i in range(1, n1 + n2 + 1)]
    annihilators = [elem(sig, 1, i + 1) for i in range(1, n1 + n2 + 1)]
    return GeneratorSet(spec, "palev", creators, annihilators, n1)


class Block(NamedTuple):
    """One table row: [[x_j^xi, y_k^eta]_inner, z_l^eps]_outer = rhs.

    `operands` names the generator set of slots x, y, z by label tag, and
    `ranges` their indices: "*" all, "1"/"2" the first/second family. A
    two-slot row has no `outer`. `cases` (signs, rel, terms) run innermost;
    a term (c, p, q) adds c times the generator in slot 3 - p - q when the
    indices in slots p and q agree.
    """

    operands: str
    ranges: str
    inner: str  # "[]" commutator or "{}" anticommutator
    outer: str
    cases: tuple


ABS, DIFF = "abs", "diff"


def _every_sign(rel: Optional[str], *terms: tuple) -> tuple:
    """Cases for all eight sign tuples s = (xi, eta, eps); a term
    (c, p, q, mode) has the coefficient c * |s_q - s_p| (ABS) or
    c * (s_q - s_p) (DIFF), and is dropped where that is zero."""
    cases = []
    for s in product(SIGNS, repeat=3):
        coeffs = [(c * (s[q] - s[p] if mode == DIFF else abs(s[q] - s[p])), p, q)
                  for c, p, q, mode in terms]
        cases.append((s, rel, tuple(term for term in coeffs if term[0])))
    return tuple(cases)


def _pf(fam: str, inner: str, other: str, sign: int) -> tuple[Block, ...]:
    return (
        Block("ffb", fam + fam + "*", "[]", "[]", _every_sign("ffb")),
        Block("bbf", "**" + fam, "{}", "[]", _every_sign("bbf")),
        Block("fbf", fam + "*" + fam, inner, inner, _every_sign("fbf", (sign, 0, 2, ABS))),
        Block("fbb", fam + "**", inner, other, _every_sign("fbb", (1, 1, 2, DIFF))),
    )


def _a(ranges: str, inner: str, outer: str, aap: tuple, aam: tuple) -> tuple[Block, ...]:
    pair = [Block("aa", ranges[:2], inner, "", (((s, s), "aa", ()),)) for s in SIGNS]
    cases = (((1, -1, 1), "aap", aap), ((1, -1, -1), "aam", aam))
    return (*pair, Block("aaa", ranges, inner, outer, cases))


# Brackets: [] commutator, {} anticommutator; d_jl is the Kronecker delta.
RELATION_TABLE: dict[RelationFamily, tuple[Block, ...]] = {
    # [[f_j^xi, f_k^eta], f_l^eps] = |eps-eta| d_kl f_j^xi - |eps-xi| d_jl f_k^eta
    # over all indices, both families mixed freely: taken literally as stated.
    RelationFamily.FF: (
        Block("fff", "***", "[]", "[]", _every_sign(None, (1, 1, 2, ABS), (-1, 0, 2, ABS))),
    ),
    # [{b_j^xi, b_k^eta}, b_l^eps] = (eps-xi) d_jl b_k^eta + (eps-eta) d_kl b_j^xi,
    # j, k, l in one family.
    RelationFamily.BB_SAME: tuple(
        Block("bbb", fam * 3, "{}", "[]", _every_sign(None, (1, 0, 2, DIFF), (1, 1, 2, DIFF)))
        for fam in "12"
    ),
    # {[b_j^xi, b_k^eta], b_l^eps} = -(eps-xi) d_jl b_k^eta + (eps-eta) d_kl b_j^xi,
    # j and k in different families, both configurations enumerated explicitly.
    RelationFamily.BB_MIXED: tuple(
        Block("bbb", fams + "*", "[]", "{}", _every_sign(None, (-1, 0, 2, DIFF), (1, 1, 2, DIFF)))
        for fams in ("12", "21")
    ),
    # f of one family against all b: [[f, f], b] = [{b, b}, f] = 0, and
    # family 1: [[f_j, b_k], f_l] = -|eps-xi| d_jl b_k, {[f_j, b_k], b_l} = (eps-eta) d_kl f_j;
    # family 2: {{f_j, b_k}, f_l} = |eps-xi| d_jl b_k, [{f_j, b_k}, b_l] = (eps-eta) d_kl f_j.
    RelationFamily.PF_FAMILY1: _pf("1", "[]", "{}", -1),
    RelationFamily.PF_FAMILY2: _pf("2", "{}", "[]", 1),
    # Per family: {a_i^s, a_j^s} = 0 for each sign s, then
    # [{a_i^+, a_j^-}, a_k^+] = d_jk a_i^+ - d_ij a_k^+ (aap) and
    # [{a_i^+, a_j^-}, a_k^-] = -d_ik a_j^- + d_ij a_k^- (aam).
    RelationFamily.A_SAME: tuple(
        row for fam in "12"
        for row in _a(fam * 3, "{}", "[]", ((1, 1, 2), (-1, 0, 1)), ((-1, 0, 2), (1, 0, 1)))
    ),
    # i and j in different families, k anywhere: [a_i^s, a_j^s] = 0, then
    # {[a_i^+, a_j^-], a_k^+} = d_jk a_i^+ (aap), {[a_i^+, a_j^-], a_k^-} = d_ik a_j^- (aam).
    RelationFamily.A_MIXED: tuple(
        row for fams in ("12", "21")
        for row in _a(fams + "*", "[]", "{}", ((1, 1, 2),), ((1, 0, 2),))
    ),
}


def _families(gens: GeneratorSet) -> tuple[range, range]:
    return range(1, gens.family_split + 1), range(gens.family_split + 1, gens.count + 1)


def _index_range(gens: GeneratorSet, code: str, keep: Optional[int] = None) -> Sequence[int]:
    """The indices of one slot: "1"/"2" the first/second family, "*" both;
    with `keep`, only the first `keep` of each family."""
    families = _families(gens)
    if code != "*":
        families = families[int(code) - 1:int(code)]
    if keep is None:
        return range(families[0].start, families[-1].stop)
    return [i for fam in families for i in fam[:keep]]


def _content(matrices: list[GradedMatrix]) -> tuple[Scalar | int, int, Callable]:
    """(s, kappa, core) for one call's generators: the content s = sqrt2 when
    every entry of every matrix is an integral multiple of sqrt2, else s = 1;
    kappa = s^2; core(v) = v / s, a plain int where integral, else a Scalar."""
    if all(over_sqrt2(v) is not None for mat in matrices for _, v in mat.items()):
        return SQRT2, 2, over_sqrt2
    return 1, 1, as_int


def _generator_table(gens: GeneratorSet, signature, core: Callable) -> dict[tuple[int, int], _Operand]:
    """Every generator of the set as the `_Operand` of its core (see
    `_content`), keyed by (sign, index)."""
    table = {}
    for index in range(1, gens.count + 1):
        for sign in SIGNS:
            mat = gens.get(index, sign)
            if mat.signature != signature:
                raise ValueError(f"generator {gens.label(index, sign)} has another signature")
            table[sign, index] = _Operand({pos: core(v) for pos, v in mat.items()})
    return table


def _scaled_tables(family: RelationFamily, tables: dict) -> dict:
    """For each (tag, c) of a term of the family's rows, every generator of
    set `tag` as the entries of c times its core, keyed by (sign, index):
    the value of that term wherever it fires alone, built once per call."""
    scaled = {}
    for block in RELATION_TABLE[family]:
        for _, _, terms in block.cases:
            for c, p, q in terms:
                tag = block.operands[3 - p - q]
                if (tag, c) not in scaled:
                    scaled[tag, c] = {
                        key: {pos: c * v for pos, v in op.entries.items()}
                        for key, op in tables[tag].items()
                    }
    return scaled


def _slot3_index(kinds: dict, table, kappa: int) -> tuple[dict, dict]:
    """The slot-3 operands z = table[key], for each key of `kinds`, indexed
    for the outer bracket X z -/+ z X of kind kinds[key]: by row
    {r: [(c, kappa w, key), ...]} for X z, and by column
    {c: [(r, +/-kappa w, key), ...]} for z X, the sign of the kind folded
    in. With kappa = s^2 folded into the weights, an outer bracket of cores
    comes out times s^2, at no cost per instance."""
    rows: dict = {}
    cols: dict = {}
    for key, kind in kinds.items():
        for (r, c), w in table[key].entries.items():
            w = kappa * w
            rows.setdefault(r, []).append((c, w, key))
            cols.setdefault(c, []).append((r, -w if kind == "[]" else w, key))
    return rows, cols


def _outer_brackets(x: dict, rows: dict, cols: dict) -> dict:
    """The outer brackets of X = `x` with every indexed z in one pass over
    X's entries: {(eps, l): entries}, each nonzero, the rest left out."""
    out: dict = {}
    for (i, r), v in x.items():
        for c, w, key in rows.get(r, ()):
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            pos = (i, c)
            cur = acc.get(pos)
            s = v * w if cur is None else cur + v * w
            if s:
                acc[pos] = s
            else:
                del acc[pos]
        for a, w, key in cols.get(i, ()):
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            pos = (a, r)
            cur = acc.get(pos)
            s = w * v if cur is None else cur + w * v
            if s:
                acc[pos] = s
            else:
                del acc[pos]
    return {key: acc for key, acc in out.items() if acc}


def _counterexample(
    signed: bool, rel: Optional[str], idx: tuple, signs: tuple, sig, s,
    left: Optional[dict], right: Optional[dict],
) -> dict:
    """The instance with residual s x (`left` - `right`), either side None
    when it has no entry. Signed families name j, k, l
    and xi, eta, eps; the A families name i, j, k and fold a two-slot row's
    shared sign into the indices."""
    indices = {"rel": rel} if rel else {}
    indices.update(zip("jkl" if signed else "ijk", idx))
    if not signed and len(idx) == 2:
        indices["sign"] = signs[0]
    named = dict(zip(("xi", "eta", "eps"), signs)) if signed else {}
    acc = dict(left or ())
    _axpy(acc, -1, right or {})
    residual = GradedMatrix(sig, {pos: s * v for pos, v in acc.items()})
    return {"indices": indices, "signs": named, "residual": residual.to_json()}


def declared_total(family: RelationFamily, gens: GeneratorSet, partner: Optional[GeneratorSet] = None) -> int:
    """Sign-complete instance count, computed combinatorially (not from
    the relation table), so silently skipped cases cannot hide."""
    s = 2 ** family.sign_arity
    n = gens.count
    n1 = gens.family_split
    n2 = n - n1
    if family is RelationFamily.FF:
        return n ** 3 * s
    if family is RelationFamily.BB_SAME:
        return (n1 ** 3 + n2 ** 3) * s
    if family is RelationFamily.BB_MIXED:
        return 2 * n1 * n2 * n * s
    if family is RelationFamily.A_SAME:
        return sum(2 * f * f + 2 * f ** 3 for f in (n1, n2))
    if family is RelationFamily.A_MIXED:
        return 2 * (2 * n1 * n2) + 2 * (2 * n1 * n2 * n)
    nf = n1 if family is RelationFamily.PF_FAMILY1 else n2
    nb = partner.count
    return (nf * nf * nb + nb * nb * nf + nf * nb * nf + nf * nb * nb) * s


def _operand_tags(family: RelationFamily) -> list[str]:
    """The family's operand kinds, as generator tags in order of first use."""
    return list(dict.fromkeys(tag for block in RELATION_TABLE[family] for tag in block.operands))


# An instance names at most three indices, so once the indices within a
# family may be relabelled, the first three of each family stand for all.
_KEPT = 3


def _relabels(rows: tuple, sets: dict, tables: dict) -> bool:
    """Whether every permutation of the indices within one family of a set
    in `sets` carries each instance of `rows` to one with the same outcome.

    Every term of the rows must pair two slots that hold one set, so that
    the Kronecker deltas are kept. For each family of two or more indices,
    the transposition of its first two indices and its cyclic shift, which
    generate every permutation of the family, are tried in turn: a matrix
    index i goes to the index whose incidences (the generators it is a row
    or a column of) are those of i relabelled, and that map pi must carry
    the core of each x_j^+/- of the family to that of x_sigma(j)^+/- and
    the core of every other generator in `tables` to itself, entry for
    entry. That makes pi a permutation: an index it missed would be in the
    support of some image but in no relabelled support. Conjugation by the
    permutation matrix of pi keeps every matrix product, so it carries
    both sides of an instance to those of the relabelled instance."""
    if any(block.operands[p] != block.operands[q]
           for block in rows for _, _, terms in block.cases for _, p, q in terms):
        return False
    cores = {(tag, key): op.entries for tag, table in tables.items() for key, op in table.items()}
    incidences: dict = {}
    for name, entries in cores.items():
        for r, c in entries:
            incidences.setdefault(r, set()).add((name, 0))
            incidences.setdefault(c, set()).add((name, 1))
    where = {frozenset(marks): i for i, marks in incidences.items()}
    for tag, gens in sets.items():
        for fam in _families(gens):
            if len(fam) < 2:
                continue
            for sigma in ({fam[0]: fam[1], fam[1]: fam[0]}, dict(zip(fam, (*fam[1:], fam[0])))):
                moved = {(t, (sign, j)): (t, (sign, sigma[j])) for t, (sign, j) in cores if t == tag and j in sigma}
                # An index that no moved generator touches keeps its incidences, so pi fixes it.
                pi = {}
                for i in {i for name in moved for pos in cores[name] for i in pos}:
                    pi[i] = where.get(frozenset((moved.get(name, name), axis) for name, axis in incidences[i]))
                    if pi[i] is None:
                        return False
                if any({(pi.get(r, r), pi.get(c, c)): v for (r, c), v in entries.items()}
                       != cores[moved.get(name, name)] for name, entries in cores.items()):
                    return False
    return True


def _failures(rows: tuple, sets: dict, tables: dict, scaled: dict, s, kappa: int,
              keep: Optional[int]) -> Iterator[tuple]:
    """Each failing instance of `rows` as (rel, indices, signs, lhs, rhs),
    both sides on cores and None where empty, in (row, j, k, l, case)
    order, over every index of each slot's range, or over the first `keep`
    of each family only (see `verify_relations`)."""
    for block in rows:
        slots = [tables[tag] for tag in block.operands]
        ranges = [_index_range(sets[tag], code, keep) for tag, code in zip(block.operands, block.ranges)]
        if not all(ranges):
            continue
        pairs = dict.fromkeys(signs[:2] for signs, _, _ in block.cases)
        ls = ranges[2] if block.outer else range(0)
        if block.outer:
            epsilons = dict.fromkeys(signs[2] for signs, _, _ in block.cases)
            keys = [(e, l) for e in epsilons for l in ls]
            index = _slot3_index(dict.fromkeys(keys, block.outer), slots[2], kappa)
        # Each term of each case, by the index it fires at: l = j, l = k, or every l when j = k.
        at_j, at_k, at_all = [], [], []
        for signs, _, terms in block.cases:
            for c, a, b in terms:
                rule = (signs[:2], signs[2], scaled[block.operands[3 - a - b], c])
                (at_all if a + b == 1 else at_j if a + b == 2 else at_k).append(rule)
        for j, k in product(ranges[0], ranges[1]):
            lhs = {}
            for p in pairs:
                acc: dict = {}
                _bracket_into(acc, block.inner, slots[0][p[0], j], slots[1][p[1], k])
                if block.outer:
                    lhs[p] = _outer_brackets(acc, *index)
                elif acc:
                    lhs[p] = {(): acc if kappa == 1 else {pos: s * v for pos, v in acc.items()}}
                else:
                    lhs[p] = {}
            fires = []
            if j in ls:
                fires += [(p, (e, j), tab[p[1], k]) for p, e, tab in at_j]
            if k in ls:
                fires += [(p, (e, k), tab[p[0], j]) for p, e, tab in at_k]
            if j == k:
                fires += [(p, (e, l), tab[e, l]) for p, e, tab in at_all for l in ls]
            rhs = {p: {} for p in pairs}
            for p, key, value in fires:
                side = rhs[p]
                cur = side.get(key)
                if cur is None:
                    if value:  # a zero generator fires nothing
                        side[key] = value
                    continue
                cur = dict(cur)
                _axpy(cur, 1, value)
                if cur:
                    side[key] = cur
                else:
                    del side[key]
            if lhs == rhs:
                continue
            rests = {key[1:] for p in pairs for key in lhs[p].keys() | rhs[p].keys()
                     if lhs[p].get(key) != rhs[p].get(key)}
            for rest in sorted(rests):
                for signs, rel, _ in block.cases:
                    p, key = signs[:2], signs[2:] + rest
                    left, right = lhs[p].get(key), rhs[p].get(key)
                    if left != right:
                        yield rel, (j, k, *rest), signs, left, right


def verify_relations(
    family: RelationFamily,
    gens: GeneratorSet,
    partner: Optional[GeneratorSet] = None,
    max_counterexamples: int = 10,
) -> CheckReport:
    """Evaluate one relation family exhaustively: every row of its table,
    every admissible index tuple, every sign case. An instance count other
    than `declared_total` fails the check with one coverage counterexample.

    One content s is fixed per call, over every generator of every set the
    family uses: s = sqrt2 when every entry is an integral multiple of
    sqrt2, else s = 1 (see `_content`). Each generator x enters the kernel
    as its core x / s, built once per call with its negated entries and row
    index: plain ints where integral, Scalars otherwise, and never put into
    a GradedMatrix. Each inner bracket X of cores is built once per index
    pair and sign pair on the product kernel. Per row, the slot-3 cores z
    are indexed once by row and by column, the outer sign and kappa = s^2
    folded into the weights, and one pass over X's entries gives
    kappa (X z -/+ z X) for every z, keyed by (eps, l), zero ones left out.
    Since lhs = s^3 [[x, y], z] on cores and rhs = s sum c x_w on cores, a
    three-slot instance holds exactly when kappa [[x, y], z] = sum c x_w on
    cores; a two-slot row (the A families) compares s [x, y], keyed by ()
    when nonzero, with an empty right-hand side. Per (j, k), `lhs` maps
    each sign pair to those outer brackets, and `rhs` maps it to the sums
    of the Kronecker terms in the same keys: a term pairing slots 0 and 2
    fires at l = j, slots 1 and 2 at l = k, slots 0 and 1 at every l when
    j = k. A term firing alone is the shared dict c x_w on cores, built
    once per call (`_scaled_tables`); terms firing together are summed
    with `_axpy`, a key whose sum cancels left out. Both sides hold only
    nonzero entries, so `lhs == rhs` decides every instance of (j, k) at
    once, every entry compared exactly. Otherwise the instances whose case
    key differs fail, walked in (l, case) order, so failures and kept
    counterexamples come in (j, k, l, case) order; a counterexample's
    residual lhs - rhs = s x (lhs - rhs on cores) is rebuilt through
    `GradedMatrix`, only when the report keeps it. A row counts
    |index product| x |cases| instances, and those not failed are
    recorded as passes at once, so the coverage check still sees every
    instance. A row holding two cases with one sign tuple, whose terms
    `rhs` would sum, raises ValueError.

    When a set of the call has a family of more than three indices, a
    relabelling step comes first. The relations hold for every j, k, l
    with Kronecker-delta right-hand sides, so permuting the indices within
    a family changes no outcome, provided the generators are permuted
    with them by a relabelling of matrix indices; `_relabels` checks that
    exactly. If it holds, every instance has the outcome of one whose
    indices are among the first three of each family (an instance names
    at most three), and the loop runs as a trial on those kept ranges
    only. A trial with no failure records every instance as passed; at
    its first failure it stops, and the loop runs again on the full
    ranges, as it does when the check refuses. So the report, its counts,
    counterexamples and order are those of the full loop."""
    family = RelationFamily(family)
    tags = _operand_tags(family)
    kinds = [_KINDS[tag] for tag in tags]
    if len(tags) == 1 and partner is not None:
        raise ValueError(
            f"{family.value} relations need {kinds[0]} generators only, not a {partner.kind} partner"
        )
    sets = dict(zip(tags, (gens, partner)))
    if any(g is None or g.kind != kind for g, kind in zip(sets.values(), kinds)):
        raise ValueError(f"{family.value} relations need {' plus '.join(kinds)} generators")
    if len(sets) > 1 and gens.spec != partner.spec:
        raise ValueError(f"{' and '.join(kinds)} sets must share one spec")
    rows = RELATION_TABLE[family]
    if any(len({signs for signs, _, _ in block.cases}) < len(block.cases) for block in rows):
        raise ValueError(f"a {family.value} row holds two cases with one sign tuple")
    sig = gens.spec.signature()
    s, kappa, core = _content([mat for g in sets.values() for mat in (*g.creators, *g.annihilators)])
    tables = {tag: _generator_table(g, sig, core) for tag, g in sets.items()}
    walk = partial(_failures, rows, sets, tables, _scaled_tables(family, tables), s, kappa)
    trimmed = (any(len(fam) > _KEPT for g in sets.values() for fam in _families(g))
               and _relabels(rows, sets, tables))
    # The trial on the kept ranges: a failure there runs the full loop.
    failing = () if trimmed and next(walk(_KEPT), None) is None else walk(None)
    signed = family.sign_arity > 0

    report = CheckReport(f"relations-{family.value}", gens.spec.to_json(), max_counterexamples)
    failures = 0
    for rel, idx, signs, left, right in failing:
        failures += 1
        report.record(False, lambda: _counterexample(signed, rel, idx, signs, sig, s, left, right))
    instances = sum(
        len(block.cases) * prod(len(_index_range(sets[tag], code)) for tag, code in zip(block.operands, block.ranges))
        for block in rows
    )
    report.record_passes(instances - failures)
    declared = declared_total(family, gens, partner)
    report.record_coverage(declared)
    report.details = {"declared_total": declared, "sign_arity": family.sign_arity}
    return report


def graded_bracket_consistency(
    *gen_sets: GeneratorSet, max_counterexamples: int = 10
) -> CheckReport:
    """For every ordered pair of generators, the graded bracket must be the
    anticommutator when the degrees' dot is 1 and the commutator when 0 —
    certifying the bracket placements used in the relation tables.

    `graded_bracket` runs once per ordered pair, on the true generators.
    The expected side runs on the relation kernel, with no `@`, on the
    cores y / s of every generator, one content s over all the sets (see
    `verify_relations`). The cores are indexed once per degree of x, the
    sign of [x, y] and kappa = s^2 folded into the column weights, so one
    pass over x's core entries gives kappa (x y -/+ y x) on cores, which is
    x y -/+ y x itself, for every y. Passes are recorded in bulk; a failure,
    in (x, y) order, names the pair and holds actual - expected."""
    if not gen_sets:
        raise ValueError("need at least one generator set")
    pool = [item for gs in gen_sets for item in gs.labelled()]
    degrees = _homogeneous_degrees(pool, "generator")
    _, kappa, core = _content([mat for _, mat in pool])
    cores = [_Operand({pos: core(v) for pos, v in mat.items()}) for _, mat in pool]
    indexes = {
        dx: _slot3_index({iy: "{}" if dot(dx, dy) else "[]" for iy, dy in enumerate(degrees)}, cores, kappa)
        for dx in dict.fromkeys(degrees)
    }
    report = CheckReport("bracket-consistency", gen_sets[0].spec.to_json(), max_counterexamples)
    failures = 0
    for (lx, x), dx, ox in zip(pool, degrees, cores):
        expected = _outer_brackets(ox.entries, *indexes[dx])
        for iy, (ly, y) in enumerate(pool):
            actual = graded_bracket(x, y)
            want = expected.get(iy, {})
            if actual._entries == want:
                continue
            failures += 1
            report.record(False, lambda: {
                "indices": [lx, ly], "residual": (actual - GradedMatrix(x.signature, want)).to_json(),
            })
    report.record_passes(len(pool) ** 2 - failures)
    return report


def generator_sets(spec: AlgebraSpec, build_parabosons: Optional[Callable] = None) -> list[GeneratorSet]:
    """The generator sets of `spec`: parafermions then parabosons on ospB
    (each when nonempty), the A-type set on sl(1,0|n1,n2), else none.
    `build_parabosons`, when given, stands in for `paraboson_ops`."""
    if spec.family is Family.OSP_B:
        bosons = build_parabosons or paraboson_ops
        fermions = [parafermion_ops(spec)] if spec.m1 + spec.m2 else []
        return fermions + ([bosons(spec)] if spec.n1 + spec.n2 else [])
    if spec.family is Family.SL and (spec.m1, spec.m2) == (1, 0) and spec.n1 + spec.n2:
        return [palev_ops(spec.n1, spec.n2)]
    return []


def relation_reports(sets: list[GeneratorSet], max_counterexamples: int = 10) -> list[CheckReport]:
    """Every relation family, in enum order, whose operand kinds are all
    among `sets`, then the bracket consistency of `sets`."""
    by_tag = {_TAGS[gens.kind]: gens for gens in sets}
    reports = [
        verify_relations(family, *map(by_tag.get, tags), max_counterexamples=max_counterexamples)
        for family, tags in zip(RelationFamily, map(_operand_tags, RelationFamily))
        if all(tag in by_tag for tag in tags)
    ]
    return reports + [graded_bracket_consistency(*sets, max_counterexamples=max_counterexamples)]
