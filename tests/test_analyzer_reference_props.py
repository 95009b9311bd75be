"""Property test for the analyzer: derivations, brackets and every nucleus of
random sparse tensors against the paths they replaced
(tests/reference_analyzer.py)."""

import pytest

import reference_analyzer as ref
from reference_analyzer import SIDES, entries
from twistkit.algebra import Algebra, nucleus
from twistkit.analyzer import derivations
from twistkit.fields import PrimeField, RationalField

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def sparse_algebras(draw):
    """A tensor over F_2..F_7, or over Q with ints in -2..2, of dim 1-3 with
    at most 2 n^2 nonzero structure constants."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    field = RationalField() if p == 0 else PrimeField(p)
    values = st.integers(-2, 2) if p == 0 else st.integers(1, p - 1)
    n = draw(st.integers(1, 3))
    table = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
    index = st.integers(0, n - 1)
    for i, j, k, v in draw(st.lists(st.tuples(index, index, index, values), max_size=2 * n * n)):
        table[i][j][k] = field.element(v)
    return Algebra(field, table)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(sparse_algebras())
def test_random_tensors_match_reference(alg):
    space = derivations(alg)
    basis, bracket = ref.derivations(alg)
    assert entries(space.basis) == entries(basis)
    assert entries(space.bracket) == entries(bracket)
    for side in SIDES:
        assert entries(nucleus(alg, side)) == entries(ref.nucleus(alg, side)), side
