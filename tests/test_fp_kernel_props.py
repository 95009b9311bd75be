"""Property tests for the prime-field int paths: random tensors, vectors and
matrices over F_2..F_13, with zero cells and singular maps, against the
`Scalar` paths they replaced (tests/reference_fp.py)."""

from fractions import Fraction

import pytest

from reference_forms import reference_multiplicative
from reference_fp import (ScalarRegrep, on_scalar_paths, scalar_det, scalar_matmul,
                          scalar_multiply, scalar_prime_left_mul_mats)
from reference_twist import entries, reference_twist
from twistkit.algebra import Algebra, _prime_left_mul_mats
from twistkit.fields import PrimeField
from twistkit.forms import NormForm, verify_multiplicative
from twistkit.linalg import Matrix
from twistkit.twist import TwistSpec, twist

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PRIMES = [2, 3, 5, 7, 11, 13]


def payloads(vec):
    return [(type(s.payload), s.payload, repr(s)) for s in vec]


@st.composite
def algebras(draw, max_dim=4, primes=PRIMES):
    """A tensor over F_p whose cells are each zero with probability about
    one half, so that zero slices and singular L_x come up."""
    field = PrimeField(draw(st.sampled_from(primes)))
    n = draw(st.integers(1, max_dim))
    residues = st.integers(0, field.p - 1)
    cells = st.one_of(st.just([0] * n), st.lists(residues, min_size=n, max_size=n))
    table = [[[field.element(v) for v in draw(cells)] for _ in range(n)] for _ in range(n)]
    return Algebra(field, table)


def vectors(field, n):
    """Scalars of the field or ints of either sign, mixed."""
    entry = st.one_of(st.integers(0, field.p - 1).map(field.element),
                      st.integers(-3 * field.p, 3 * field.p))
    return st.lists(entry, min_size=n, max_size=n)


def matrices(field, nrows, ncols):
    return st.lists(st.lists(st.integers(0, field.p - 1).map(field.element),
                             min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(lambda rows: Matrix(field, rows))


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_multiply_matches_scalar_path(data):
    alg = data.draw(algebras())
    x, y = (data.draw(vectors(alg.field, alg.dim)) for _ in range(2))
    assert payloads(alg.multiply(x, y)) == payloads(scalar_multiply(alg, x, y))


def outcome(fn, *args):
    try:
        return "ok", payloads(fn(*args))
    except Exception as exc:  # compared with the Scalar path below
        return "raises", type(exc)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.data())
def test_foreign_entries_raise_like_the_scalar_path(data):
    alg = data.draw(algebras())
    other = PrimeField(data.draw(st.sampled_from([q for q in PRIMES if q != alg.field.p])))
    bad = data.draw(st.one_of(st.integers(1, other.p - 1).map(other.element),
                              st.fractions().filter(bool).map(Fraction)))
    x = data.draw(vectors(alg.field, alg.dim))
    y = [alg.field.one()] * alg.dim
    x[data.draw(st.integers(0, alg.dim - 1))] = bad
    expected = outcome(scalar_multiply, alg, x, y)
    assert expected[0] == "raises"
    assert outcome(alg.multiply, x, y) == expected
    assert outcome(alg.multiply, y, x) == outcome(scalar_multiply, alg, y, x)


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(st.data())
def test_det_and_matmul_match_gauss(data):
    field = PrimeField(data.draw(st.sampled_from(PRIMES)))
    n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    m = data.draw(matrices(field, n, n))
    if n > 1 and data.draw(st.booleans()):
        rows = [list(r) for r in m.rows]
        rows[-1] = [a + b for a, b in zip(rows[0], rows[-2])]
        m = Matrix(field, rows)
    assert payloads([m.det()]) == payloads([scalar_det(m)])
    b = data.draw(matrices(field, n, k))
    assert [payloads(r) for r in (m @ b).rows] == [payloads(r) for r in scalar_matmul(m, b).rows]


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(algebras())
def test_prime_left_mul_mats_match_scalar_build(alg):
    assert _prime_left_mul_mats(alg) == scalar_prime_left_mul_mats(alg)


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.given(st.data())
def test_twist_matches_reference_on_scalar_products(data):
    alg = data.draw(algebras(max_dim=3))
    field, n = alg.field, alg.dim
    invertible = matrices(field, n, n).filter(lambda m: bool(scalar_det(m)))
    f, g = data.draw(invertible), data.draw(invertible)
    h = data.draw(st.one_of(st.none(), invertible))
    pre = data.draw(st.one_of(st.none(), st.tuples(invertible, invertible, invertible)))
    c = data.draw(vectors(field, n))
    spec = TwistSpec(data.draw(st.integers(1, 12)), c, f, g, h=h, pre_isotope=pre)
    got = entries(twist(alg, spec))
    with pytest.MonkeyPatch.context() as m:
        on_scalar_paths(m)
        assert got == entries(reference_twist(alg, spec))


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(algebras(max_dim=2, primes=[2, 3, 5, 7]))
def test_multiplicativity_matches_reference(alg):
    with pytest.MonkeyPatch.context() as m:
        on_scalar_paths(m)
        expected = reference_multiplicative(alg, ScalarRegrep(alg))
    assert verify_multiplicative(alg, NormForm.regrep_form(alg)) is expected
