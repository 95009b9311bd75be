"""Property tests for the int-coded F_p kernel: random structure tensors and
random rank-deficient matrices against the Scalar reference paths."""

import pytest

from reference_division import (reference_division_exhaustive,
                                reference_pairs_count, witness_text,
                                zero_divisor_pairs_count)
from twistkit.algebra import Algebra
from twistkit.fields import PrimeField
from twistkit.linalg import (Matrix, det_mod_p, first_kernel_vector_mod_p,
                             rref_mod_p, vector_at)
from twistkit.twist import division_exhaustive

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def finite_tensors(draw):
    """(p, structure tensor) over F_p, dim 1-4; whole left or right slices
    may be zeroed so that L_x = 0 and kernels of dimension >= 2 occur."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    entries = draw(st.lists(st.integers(0, p - 1), min_size=n**3, max_size=n**3))
    dead_left = draw(st.sets(st.integers(0, n - 1)))
    dead_right = draw(st.sets(st.integers(0, n - 1)))
    table = [[[0 if i in dead_left or j in dead_right else entries[(i * n + j) * n + k]
               for k in range(n)] for j in range(n)] for i in range(n)]
    return p, table


def algebra_of(p, table):
    field = PrimeField(p)
    return Algebra(field, [[[field.element(v) for v in cell] for cell in row]
                           for row in table])


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.example((3, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]))
@hypothesis.example((2, [[[1]]]))
@hypothesis.given(finite_tensors())
def test_kernel_agrees_with_reference(case):
    p, table = case
    alg = algebra_of(p, table)
    assert (witness_text(division_exhaustive(alg))
            == witness_text(reference_division_exhaustive(alg)))
    if p**alg.dim <= 49:
        assert zero_divisor_pairs_count(alg) == reference_pairs_count(alg)


@st.composite
def int_matrices(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 4))
    rank = draw(st.integers(0, n))
    left = draw(st.lists(st.integers(0, p - 1), min_size=n * rank, max_size=n * rank))
    right = draw(st.lists(st.integers(0, p - 1), min_size=n * rank, max_size=n * rank))
    # a product of n x rank and rank x n factors: rank at most `rank`
    rows = [[sum(left[i * rank + r] * right[r * n + j] for r in range(rank)) % p
             for j in range(n)] for i in range(n)]
    return p, rows


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(int_matrices())
def test_mod_p_helpers_against_scalar_matrices(case):
    p, rows = case
    n = len(rows)
    field = PrimeField(p)
    m = Matrix(field, [[field.element(v) for v in row] for row in rows])
    assert det_mod_p(rows, p) == m.det().payload
    assert len(rref_mod_p(rows, p)[1]) == m.rank()
    first = first_kernel_vector_mod_p(rows, p)
    if m.det():
        assert first is None
    else:
        kernel = (vector_at(field, n, yi) for yi in range(1, p**n))
        y = next(y for y in kernel if not any(m.apply(y)))
        assert first == [a.payload for a in y]
