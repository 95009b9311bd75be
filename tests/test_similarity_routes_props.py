"""Property twin of tests/test_similarity_routes.py over small prime fields:
similarity factors of random maps (L_a times a Frobenius power, or any
invertible map) on extension fields in a random basis and on random unital
tensors; `gram-composition` on doublings in a random basis with the Gram
matrix kept or disturbed; and `is_isomorphism` between a random tensor and
its image under a random map, kept or disturbed in one entry.  Each is
compared with the parent's version."""

import pytest

from reference_analyzer import is_isomorphism as reference_is_isomorphism
from reference_forms import reference_multiplicativity_proof, reference_verify_similarity
from twistkit.algebra import Algebra
from twistkit.analyzer import is_isomorphism
from twistkit.builders import cayley_dickson, extension_as_algebra, ground_algebra, make_map
from twistkit.fields import ExtensionField, PrimeField
from twistkit.forms import NormForm, _multiplicativity_proof, verify_similarity
from twistkit.linalg import Matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EXTENSIONS = [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]


@st.composite
def invertible_maps(draw, field, n):
    vals = draw(st.lists(st.integers(0, field.p - 1), min_size=n * n, max_size=n * n))
    m = Matrix(field, [[field.element(x) for x in vals[i * n:(i + 1) * n]] for i in range(n)])
    hypothesis.assume(m.is_invertible())
    return m


def rebased(alg, pmat):
    """alg moved to the basis P e_i: product P^-1 (P x P y), unit P^-1 1."""
    pinv = pmat.inverse()
    cols = pmat.columns()
    n = alg.dim
    table = [[pinv.apply(alg.multiply(cols[i], cols[j])) for j in range(n)] for i in range(n)]
    return Algebra(alg.field, table, unit=pinv.apply(alg.unit))


@st.composite
def similarity_cases(draw):
    p, n = draw(st.sampled_from(EXTENSIONS))
    ext = extension_as_algebra(ExtensionField(p, n))
    alg = rebased(ext, draw(invertible_maps(ext.field, n)))
    alg.norm = NormForm.regrep_form(alg)
    if draw(st.booleans()):
        a = [alg.field.element(draw(st.integers(0, p - 1))) for _ in range(n)]
        hypothesis.assume(any(a))
        f = alg.left_mul_matrix(a) @ make_map(alg, f"frob:{draw(st.integers(0, n - 1))}")
    else:
        f = draw(invertible_maps(alg.field, n))
    return alg, f


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(similarity_cases())
def test_similarity_matches_the_walk(case):
    alg, f = case
    routes = []
    assert verify_similarity(alg.norm, f, routes) == reference_verify_similarity(alg.norm, f)
    assert routes[0] in ("automorphism", "points", "gram")


@st.composite
def unital_tensors(draw):
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, 3))
    field = PrimeField(p)
    one, zero = field.one(), field.zero()
    table = [[[field.element(draw(st.integers(0, p - 1))) for _ in range(n)]
              for _ in range(n)] for _ in range(n)]
    for i in range(n):
        table[0][i] = table[i][0] = [one if k == i else zero for k in range(n)]
    alg = Algebra(field, table, unit=table[0][0])
    alg.norm = NormForm.regrep_form(alg)
    return alg, draw(invertible_maps(field, n))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(unital_tensors())
def test_similarity_on_random_unital_tensors(case):
    alg, f = case
    assert verify_similarity(alg.norm, f) == reference_verify_similarity(alg.norm, f)


@st.composite
def gram_cases(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    field = PrimeField(p)
    alg = ground_algebra(field)
    for _ in range(draw(st.integers(1, 2))):
        alg = cayley_dickson(alg, field.element(draw(st.integers(1, p - 1))))
    n = alg.dim
    pmat = draw(invertible_maps(field, n))
    moved = rebased(alg, pmat)
    gram = (pmat.transpose() @ alg.norm.gram() @ pmat).rows
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        delta = field.element(draw(st.integers(1, p - 1)))
        gram[i][j] = gram[i][j] + delta
        if i != j:
            gram[j][i] = gram[j][i] + delta
    return moved, NormForm.gram_form(field, gram)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(gram_cases())
def test_gram_blocks_match_the_point_check(case):
    alg, norm = case
    assert _multiplicativity_proof(alg, norm) == reference_multiplicativity_proof(alg, norm)


@st.composite
def isomorphism_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 3))
    field = PrimeField(p)
    src = Algebra(field, [[[field.element(draw(st.integers(0, p - 1))) for _ in range(n)]
                           for _ in range(n)] for _ in range(n)])
    m = draw(invertible_maps(field, n))
    # dst(x, y) = m(src(m^-1 x, m^-1 y)), so m is an isomorphism src -> dst
    mcols = m.inverse().columns()
    table = [[m.apply(src.multiply(mcols[i], mcols[j])) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        table[i][j][k] = table[i][j][k] + field.one()
    if draw(st.booleans()):
        m = draw(invertible_maps(field, n))
    return src, Algebra(field, table), m


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(isomorphism_cases())
def test_is_isomorphism_matches_reference(case):
    src, dst, m = case
    assert is_isomorphism(src, dst, m) == reference_is_isomorphism(src, dst, m)
