"""Property test for twist() on raw payloads: random structure tensors and
maps against the Scalar build it replaced (tests/reference_twist.py)."""

import pytest

from reference_twist import entries, reference_twist
from twistkit.algebra import Algebra
from twistkit.fields import PrimeField, RationalField
from twistkit.linalg import Matrix
from twistkit.twist import TwistSpec, twist

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def random_twists(draw):
    """(algebra, spec): a random tensor over F_2..F_7 or over Q with small
    ints, dim 1-4, with random invertible f, g and h (each a permuted
    L U with unit L and nonzero diagonal in U)."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    field = RationalField() if p == 0 else PrimeField(p)
    ints = st.integers(-3, 3) if p == 0 else st.integers(0, p - 1)
    nonzero = ints.filter(lambda v: v % p != 0 if p else v != 0)
    n = draw(st.integers(1, 4))

    def element(strategy):
        return field.element(draw(strategy))

    def invertible():
        lower = Matrix(field, [[element(ints) if j < i else field.element(int(i == j))
                                for j in range(n)] for i in range(n)])
        upper = Matrix(field, [[element(nonzero) if i == j else element(ints) if j > i
                                else field.zero() for j in range(n)] for i in range(n)])
        perm = draw(st.permutations(range(n)))
        swap = Matrix(field, [[field.element(int(j == perm[i])) for j in range(n)]
                              for i in range(n)])
        return swap @ lower @ upper

    table = [[[element(ints) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    f, g = invertible(), invertible()
    h = invertible() if draw(st.booleans()) else None
    c = [element(ints) for _ in range(n)]
    return Algebra(field, table), TwistSpec(draw(st.integers(1, 12)), c, f, g, h=h)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(random_twists())
def test_random_tensors_match_reference(case):
    alg, spec = case
    assert entries(twist(alg, spec)) == entries(reference_twist(alg, spec))
