"""Degrees, the sign form, and the index signatures."""

import pytest

from gradedosp.grading import (
    DEGREES,
    deg_add,
    dot,
    signature_gl,
    signature_osp,
)


def test_deg_add_examples():
    assert deg_add((1, 0), (0, 1)) == (1, 1)
    assert deg_add((1, 1), (1, 1)) == (0, 0)
    assert deg_add((0, 0), (1, 0)) == (1, 0)


def test_klein_four_group():
    for a in DEGREES:
        assert deg_add(a, a) == (0, 0)          # every element self-inverse
        assert deg_add(a, (0, 0)) == a          # identity
        for b in DEGREES:
            assert deg_add(a, b) in DEGREES      # closure
            assert deg_add(a, b) == deg_add(b, a)


def test_dot_examples():
    assert dot((1, 0), (0, 1)) == 0
    assert dot((1, 0), (1, 0)) == 1
    assert dot((1, 1), (1, 1)) == 0


def test_dot_symmetric():
    for a in DEGREES:
        for b in DEGREES:
            assert dot(a, b) == dot(b, a)


def test_signature_gl_examples():
    assert signature_gl(1, 1, 1, 1) == ((0, 0), (1, 1), (1, 0), (0, 1))
    assert signature_gl(2, 0, 0, 0) == ((0, 0), (0, 0))
    assert signature_gl(0, 0, 1, 1) == ((1, 0), (0, 1))


def test_signature_gl_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        signature_gl(0, 0, 0, 0)
    with pytest.raises(ValueError):
        signature_gl(-1, 1, 0, 0)


def test_signature_osp_examples():
    assert signature_osp(1, 0, 1, 0) == ((0, 0), (0, 0), (0, 0), (1, 0), (1, 0))
    assert signature_osp(0, 0, 0, 0) == ((0, 0),)
    assert signature_osp(0, 1, 0, 1) == ((1, 1), (1, 1), (0, 0), (0, 1), (0, 1))


def test_signature_osp_block_structure():
    sig = signature_osp(2, 1, 1, 2)
    sizes = [2, 1, 2, 1, 1, 1, 2, 1, 2]
    degrees = [(0, 0), (1, 1), (0, 0), (1, 1), (0, 0), (1, 0), (0, 1), (1, 0), (0, 1)]
    offset = 0
    for size, degree in zip(sizes, degrees):
        assert sig[offset : offset + size] == (degree,) * size
        offset += size
    assert offset == len(sig)


@pytest.mark.parametrize("m1,n1", [(0, 1), (1, 0), (2, 2), (1, 2)])
def test_signature_osp_z2_reduction(m1, n1):
    # m2 = n2 = 0 leaves only the two degrees of an ordinary superalgebra
    assert set(signature_osp(m1, 0, n1, 0)) <= {(0, 0), (1, 0)}


@pytest.mark.parametrize("params", [(1, 1, 1, 1), (2, 0, 0, 2), (0, 2, 1, 0)])
def test_signature_osp_parity_counts(params):
    m1, m2, n1, n2 = params
    sig = signature_osp(m1, m2, n1, n2)
    even = sum(1 for d in sig if d in ((0, 0), (1, 1)))
    odd = sum(1 for d in sig if d in ((1, 0), (0, 1)))
    assert even == 2 * (m1 + m2) + 1
    assert odd == 2 * (n1 + n2)
