"""Property tests for the one raw-payload product path: random tensors over
Q, F_9, F_25 and F_p, with zero cells, against the `Scalar` paths they
replace (tests/reference_fp.py, tests/reference_twist.py)."""

from fractions import Fraction

import pytest

from reference_fp import (basis_mul_matrix, on_scalar_paths, scalar_associator,
                          scalar_multiply)
from reference_twist import entries, reference_twist
from twistkit.algebra import Algebra, associator
from twistkit.fields import ExtensionField, PrimeField, RationalField
from twistkit.linalg import Matrix
from twistkit.twist import TwistSpec, twist

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = [RationalField(), ExtensionField(3, 2), ExtensionField(5, 2), PrimeField(5)]


def payloads(vec):
    return [(type(s.payload), s.payload, repr(s)) for s in vec]


def scalars(field):
    if field.order() is None:
        return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)).map(field.element)
    return st.integers(0, field.order() - 1).map(field.element_at)


@st.composite
def algebras(draw, max_dim=4):
    """A tensor whose cells are each zero with probability about one half."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, max_dim))
    cells = st.one_of(st.just([field.zero()] * n),
                      st.lists(scalars(field), min_size=n, max_size=n))
    return Algebra(field, [[draw(cells) for _ in range(n)] for _ in range(n)])


def vectors(field, n):
    """Scalars of the field, zeros and small ints, mixed."""
    entry = st.one_of(scalars(field), st.just(field.zero()), st.integers(-7, 7))
    return st.lists(entry, min_size=n, max_size=n)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_multiply_and_associator_match_scalar_path(data):
    alg = data.draw(algebras())
    x, y, z = (data.draw(vectors(alg.field, alg.dim)) for _ in range(3))
    assert payloads(alg.multiply(x, y)) == payloads(scalar_multiply(alg, x, y))
    assert payloads(associator(alg, x, y, z)) == payloads(scalar_associator(alg, x, y, z))


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_mul_matrices_match_cached_basis_build(data):
    alg = data.draw(algebras())
    a = data.draw(vectors(alg.field, alg.dim))
    for side, got in (("left", alg.left_mul_matrix(a)), ("right", alg.right_mul_matrix(a))):
        expected = basis_mul_matrix(alg, a, side)
        assert got.field == expected.field
        assert [payloads(r) for r in got.rows] == [payloads(r) for r in expected.rows]


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.data())
def test_twist_matches_reference_on_scalar_products(data):
    alg = data.draw(algebras(max_dim=3))
    field, n = alg.field, alg.dim
    square = st.lists(st.lists(scalars(field), min_size=n, max_size=n), min_size=n, max_size=n)
    f, g, h = (Matrix(field, data.draw(square)) for _ in range(3))
    hypothesis.assume(all(m.is_invertible() for m in (f, g, h)))
    spec = TwistSpec(data.draw(st.integers(1, 12)), data.draw(vectors(field, n)), f, g,
                     h=data.draw(st.sampled_from([None, h])))
    got = entries(twist(alg, spec))
    with pytest.MonkeyPatch.context() as m:
        on_scalar_paths(m)
        expected = entries(reference_twist(alg, spec))
    assert got == expected
