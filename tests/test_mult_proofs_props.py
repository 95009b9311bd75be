"""Property tests for the structural multiplicativity proofs: random
associative algebras in a random basis, random structure tensors and random
Gram forms over small prime fields, against the enumeration of F^n in
tests/reference_forms.py.  A route fires only where it must, and a verdict
never differs from the reference."""

import pytest

from reference_forms import reference_multiplicative
from twistkit.algebra import Algebra, associator, isotope
from twistkit.builders import cayley_dickson, ground_algebra
from twistkit.fields import PrimeField
from twistkit.forms import NormForm, _multiplicativity_proof, verify_multiplicative
from twistkit.linalg import Matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRIMES = [2, 3, 5, 7]


def tensor(field, n, cell):
    return [[[field.element(cell(i, j, k)) for k in range(n)] for j in range(n)]
            for i in range(n)]


# associative algebras by their structure constants: (dim, cell(p, i, j, k))
ASSOCIATIVE = {
    "split": (2, lambda p, i, j, k: int(i == j == k)),           # F_p x F_p
    "dual": (2, lambda p, i, j, k: int(i + j == k)),             # F_p[t]/(t^2)
    "quadratic": (2, lambda p, i, j, k: int(i + j == k) if i + j < 2
                  else [p - 1, 1][k]),                           # t^2 = t - 1
    # upper triangular 2x2 matrices on e11, e12, e22
    "triangular": (3, lambda p, i, j, k: int((i, j, k) in {(0, 0, 0), (0, 1, 1),
                                                          (1, 2, 1), (2, 2, 2)})),
}


@st.composite
def invertible_maps(draw, field, n):
    vals = draw(st.lists(st.integers(0, field.p - 1), min_size=n * n, max_size=n * n))
    m = Matrix(field, [[field.element(x) for x in vals[i * n:(i + 1) * n]] for i in range(n)])
    hypothesis.assume(m.is_invertible())
    return m


@st.composite
def associative_algebras(draw):
    """An associative algebra moved to a random basis by P: the product
    P^-1 (P x P y) is isomorphic to the original."""
    field = PrimeField(draw(st.sampled_from(PRIMES)))
    n, cell = ASSOCIATIVE[draw(st.sampled_from(sorted(ASSOCIATIVE)))]
    base = Algebra(field, tensor(field, n, lambda i, j, k: cell(field.p, i, j, k)))
    m = draw(invertible_maps(field, n))
    return isotope(base, m, m, m.inverse())


@st.composite
def tensor_algebras(draw, max_dim):
    field = PrimeField(draw(st.sampled_from(PRIMES)))
    n = draw(st.integers(1, max_dim))
    vals = draw(st.lists(st.integers(0, field.p - 1), min_size=n**3, max_size=n**3))
    return Algebra(field, tensor(field, n, lambda i, j, k: vals[(i * n + j) * n + k]))


def is_associative(alg):
    basis = [alg.basis(i) for i in range(alg.dim)]
    return not any(any(associator(alg, x, y, z)) for x in basis for y in basis for z in basis)


def small(alg):
    return alg.field.order() ** alg.dim <= 400


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.one_of(associative_algebras(), tensor_algebras(3)))
def test_associative_route_fires_exactly_on_associative_algebras(alg):
    norm = NormForm.regrep_form(alg)
    route = _multiplicativity_proof(alg, norm)
    assert route == ("associative-regrep" if is_associative(alg) else None)
    verdict = verify_multiplicative(alg, norm)
    assert verdict is True or route is None
    if small(alg):
        assert verdict == reference_multiplicative(alg, norm)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.data())
def test_gram_route_only_proves(data):
    """A random Gram form on a random structure tensor of dimension 1 or 2,
    or the norm of a doubling D_c over F_p, p odd (a composition algebra,
    where the route must fire)."""
    field = PrimeField(data.draw(st.sampled_from(PRIMES)))
    if field.p != 2 and data.draw(st.booleans()):
        alg = cayley_dickson(ground_algebra(field), data.draw(st.integers(1, field.p - 1)))
        norm = alg.norm
    else:
        n = data.draw(st.integers(1, 2))
        vals = data.draw(st.lists(st.integers(0, field.p - 1), min_size=n**3, max_size=n**3))
        alg = Algebra(field, tensor(field, n, lambda i, j, k: vals[(i * n + j) * n + k]))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = data.draw(st.integers(0, field.p - 1))
        norm = NormForm.gram_form(field, g)
    route = _multiplicativity_proof(alg, norm)
    expected = reference_multiplicative(alg, norm)
    assert verify_multiplicative(alg, norm) is expected
    if route is not None:
        assert route == "gram-composition" and expected
    if norm is alg.norm:
        assert route == "gram-composition"
