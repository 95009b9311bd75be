"""Property tests for the norm checks: random regrep norms of structure
tensors and random Gram forms over small prime fields, with random invertible
maps, against the enumeration of F^n in tests/reference_forms.py."""

import pytest

from reference_forms import reference_multiplicative, reference_similarity
from twistkit.algebra import Algebra
from twistkit.fields import PrimeField
from twistkit.forms import NormForm, verify_multiplicative, verify_similarity
from twistkit.linalg import Matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def invertible_maps(draw, field, n):
    vals = draw(st.lists(st.integers(0, field.order() - 1), min_size=n * n, max_size=n * n))
    m = Matrix(field, [[field.element(x) for x in vals[i * n:(i + 1) * n]] for i in range(n)])
    hypothesis.assume(m.is_invertible())
    return m


@st.composite
def tensor_norms(draw, max_dim):
    """(algebra, regrep norm) of a random structure tensor over F_5 or F_7."""
    field = PrimeField(draw(st.sampled_from([5, 7])))
    n = draw(st.integers(1, max_dim))
    vals = draw(st.lists(st.integers(0, field.p - 1), min_size=n**3, max_size=n**3))
    alg = Algebra(field, [[[field.element(vals[(i * n + j) * n + k]) for k in range(n)]
                           for j in range(n)] for i in range(n)])
    return alg, NormForm.regrep_form(alg)


@st.composite
def gram_forms(draw):
    """A random symmetric Gram form over F_2..F_7, dim 1-3."""
    field = PrimeField(draw(st.sampled_from([2, 3, 5, 7])))
    n = draw(st.integers(1, 3))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(0, field.p - 1))
    return NormForm.gram_form(field, g)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.data())
def test_similarity_matches_reference(data):
    norm = data.draw(st.one_of(tensor_norms(3).map(lambda an: an[1]), gram_forms()))
    m = data.draw(invertible_maps(norm.field, norm.dim))
    assert verify_similarity(norm, m) == reference_similarity(norm, m)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(tensor_norms(2))
def test_multiplicativity_matches_reference(alg_norm):
    alg, norm = alg_norm
    assert verify_multiplicative(alg, norm) == reference_multiplicative(alg, norm)
