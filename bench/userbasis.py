"""Seeded inputs for the user-basis-rational workload.

The generator draws 16 homogeneous elements of ospB(1,1,1,1), four per
degree. Each is a combination of four canonical kernel-basis elements of
that degree with coefficients p/q + (r/s)*sqrt2, numerators in [-9, 9] and
denominators in [1, 9]. The program under test receives only the resulting
Basis, so its scalars are general elements of Q(sqrt 2), not the 0/±1
entries of the canonical basis.

Linear independence holds by construction: the k-th element of a degree
group carries a nonzero coefficient on its own "lead" kernel element, and
its other three terms come from the kernel elements that lead no element.

Run this file to print the input digest of each recorded seed:

    python3 bench/userbasis.py 1 2 3
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction

from gradedosp import AlgebraSpec, Basis, Family, Scalar, kernel_basis
from gradedosp.grading import DEGREES

SPEC = AlgebraSpec(Family.OSP_B, 1, 1, 1, 1)
PER_DEGREE = 4
TERMS = 4
SIZE = len(DEGREES) * PER_DEGREE
HELD_OUT_SEED = 7919
"""A gain claimed on this workload must also hold on this seed, which is
not to be used while the change is written."""


def _coefficient(rng: random.Random, nonzero: bool) -> Scalar:
    while True:
        value = Scalar(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        if value or not nonzero:
            return value


def generate(seed: int) -> Basis:
    """The 16-element user basis for one seed; same seed, same basis."""
    rng = random.Random(seed)
    canonical = kernel_basis(SPEC)
    by_degree: dict = {d: [] for d in DEGREES}
    for mat in canonical:
        by_degree[mat.degree_of()].append(mat)
    elements = []
    labels = []
    for degree in DEGREES:
        group = list(by_degree[degree])
        rng.shuffle(group)
        leads, rest = group[:PER_DEGREE], group[PER_DEGREE:]
        for k, lead in enumerate(leads):
            acc = lead.scale(_coefficient(rng, nonzero=True))
            for other in rng.sample(rest, TERMS - 1):
                acc = acc + other.scale(_coefficient(rng, nonzero=False))
            elements.append(acc)
            labels.append(f"u{degree[0]}{degree[1]}.{k}")
    return Basis(SPEC, elements, labels)


def digest(basis: Basis) -> str:
    """SHA-256 of the canonical JSON of a basis."""
    text = json.dumps(basis.to_json(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


if __name__ == "__main__":
    for arg in sys.argv[1:]:
        print(arg, digest(generate(int(arg))))
