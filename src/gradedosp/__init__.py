"""Exact matrix realizations of Z2xZ2-graded Lie superalgebras.

All arithmetic is over the field Q(sqrt 2), so every algebraic identity
is checked by exact equality, never by floating-point tolerance.
"""

__version__ = "0.1.0"

from .scalars import Scalar
from .grading import deg_add, dot, signature_gl, signature_osp
from .gmatrix import GradedMatrix, anticommutator, commutator, elem, graded_bracket
from .algebras import (
    AlgebraSpec,
    Basis,
    BracketTable,
    Family,
    expected_dim,
    is_member,
    j_matrix,
    kernel_basis,
    rank_of,
    u_matrix,
    verify_block_conditions,
    verify_closure,
    verify_jacobi,
    verify_membership,
    verify_symmetry,
)
from .report import CheckReport
from .parastat import (
    GeneratorSet,
    RelationFamily,
    graded_bracket_consistency,
    palev_ops,
    paraboson_ops,
    parafermion_ops,
    verify_relations,
)

__all__ = [
    "AlgebraSpec",
    "Basis",
    "BracketTable",
    "CheckReport",
    "Family",
    "GeneratorSet",
    "GradedMatrix",
    "RelationFamily",
    "Scalar",
    "anticommutator",
    "commutator",
    "deg_add",
    "dot",
    "elem",
    "expected_dim",
    "graded_bracket",
    "graded_bracket_consistency",
    "is_member",
    "j_matrix",
    "kernel_basis",
    "palev_ops",
    "paraboson_ops",
    "parafermion_ops",
    "rank_of",
    "signature_gl",
    "signature_osp",
    "u_matrix",
    "verify_block_conditions",
    "verify_closure",
    "verify_jacobi",
    "verify_membership",
    "verify_relations",
    "verify_symmetry",
]
