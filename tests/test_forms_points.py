"""The norm checks on determining_points against the enumeration of F^n that
they replace (tests/reference_forms.py): the same verdicts and factors."""

import random

import pytest

from reference_forms import reference_multiplicative, reference_similarity
from twistkit.algebra import Algebra
from twistkit.builders import (cayley_dickson, extension_as_algebra,
                               ground_algebra, make_map, number_field_algebra)
from twistkit.errors import DimensionError
from twistkit.fields import ExtensionField, PrimeField, RationalField
from twistkit.forms import (NormForm, determining_points, verify_multiplicative,
                            verify_similarity)
from twistkit.linalg import Matrix
from twistkit.twist import TwistSpec, run_twist


def shear(field, n):
    """x -> x + x_1 e_0: invertible, rarely a similarity."""
    rows = [[field.element(int(i == j or (i, j) == (0, 1))) for j in range(n)]
            for i in range(n)]
    return Matrix(field, rows)


def scaled(field, n, lam):
    return Matrix.identity(field, n).scale(field.element(lam))


def random_invertible(field, n, rng):
    while True:
        m = Matrix(field, [[field.element_at(rng.randrange(field.order())) for _ in range(n)]
                           for _ in range(n)])
        if m.is_invertible():
            return m


def random_tensor_algebra(p, n, rng):
    """A random structure tensor over F_p (almost surely non-associative)
    with the regrep norm det L_x attached."""
    field = PrimeField(p)
    alg = Algebra(field, [[[field.element(rng.randrange(p)) for _ in range(n)]
                           for _ in range(n)] for _ in range(n)])
    alg.norm = NormForm.regrep_form(alg)
    return alg


def assert_matches_reference(alg, norm, maps, multiplicative=True):
    if multiplicative:
        assert verify_multiplicative(alg, norm) == reference_multiplicative(alg, norm)
    for m in maps:
        assert verify_similarity(norm, m) == reference_similarity(norm, m)


@pytest.mark.parametrize("p, n", [(2, 2), (3, 2), (5, 2), (7, 2), (5, 3)],
                         ids=["F4", "F9", "F25", "F49", "F125"])
def test_extension_fields_match_reference(p, n):
    alg = extension_as_algebra(ExtensionField(p, n))
    frobs = [make_map(alg, f"frob:{k}") for k in range(n)]
    assert verify_multiplicative(alg, alg.norm)
    assert [verify_similarity(alg.norm, m) for m in frobs] == [alg.field.one()] * n
    # the reference takes q^(2n) pairs: 15,625 on F125, which costs seconds
    assert_matches_reference(alg, alg.norm, frobs + [shear(alg.field, n)],
                             multiplicative=p**n < 100)


def test_d5_conjugation_and_scaling_match_reference():
    f5 = PrimeField(5)
    d5 = cayley_dickson(ground_algebra(f5), f5.element(2))
    assert verify_similarity(d5.norm, scaled(f5, 2, 2)) == f5.element(4)
    assert_matches_reference(d5, d5.norm, [make_map(d5, "conj"), scaled(f5, 2, 2)])


@pytest.mark.parametrize("p", [2, 3])
def test_ground_algebras_match_reference(p):
    field = PrimeField(p)
    alg = ground_algebra(field)
    assert verify_multiplicative(alg, alg.norm)
    assert_matches_reference(alg, alg.norm, [scaled(field, 1, lam) for lam in range(1, p)])


def test_squared_trace_gram_form_matches_reference():
    """N(x) = tr(x)^2 on F25: a rank-one form, zero on a line, not
    multiplicative, invariant under the Frobenius."""
    alg = extension_as_algebra(ExtensionField(5, 2))
    lmats = [alg.left_mul_matrix(alg.basis(i)) for i in range(2)]
    tr = [m.rows[0][0] + m.rows[1][1] for m in lmats]
    norm = NormForm.gram_form(alg.field, [[a * b for b in tr] for a in tr])
    frob = make_map(alg, "frob:1")
    assert not verify_multiplicative(alg, norm)
    assert verify_similarity(norm, frob) == alg.field.one()
    assert_matches_reference(alg, norm, [frob, shear(alg.field, 2), scaled(alg.field, 2, 3)])


@pytest.mark.parametrize("p", [5, 7])
def test_random_tensor_regrep_norms_match_reference(p):
    rng = random.Random(p)
    for n in (2, 3):
        alg = random_tensor_algebra(p, n, rng)
        maps = [scaled(alg.field, n, 2), shear(alg.field, n),
                random_invertible(alg.field, n, rng)]
        assert_matches_reference(alg, alg.norm, maps, multiplicative=n == 2)


@pytest.mark.parametrize("field", [ExtensionField(2, 2), PrimeField(5), RationalField()],
                         ids=["F4", "F5", "Q"])
def test_split_cubic_shear_is_no_similarity(field):
    """K^3 with componentwise product, N = x1 x2 x3, f = (x1, x2, x3 + x1 - x2):
    N(f(x)) - N(x) = x1 x2 (x1 - x2) vanishes on {0,1}^3, and over F_4 on
    F_2^3 (where points with entries 1..3 would lie, so char 2 <= degree 3
    walks all 64 vectors), but not at (2, 1, 1) or (1, t, 1)."""
    zero, one = field.zero(), field.one()
    alg = Algebra(field, [[[one if i == j == k else zero for k in range(3)]
                           for j in range(3)] for i in range(3)])
    alg.norm = NormForm.regrep_form(alg)
    f = Matrix(field, [[one, zero, zero], [zero, one, zero], [one, -one, one]])
    assert (determining_points(field, 3, 3) is None) == (field.characteristic == 2)
    assert verify_similarity(alg.norm, f) is None
    if field.order() is not None:
        assert_matches_reference(alg, alg.norm, [f, random_invertible(field, 3, random.Random(4))],
                                 multiplicative=False)


def test_cubic_number_field_over_q():
    """Q[t]/(t^3 - 2) with its field norm: multiplicative, lambda I has
    factor lambda^3, a shear is no similarity."""
    alg = number_field_algebra([-2, 0, 0, 1])
    alg.norm = NormForm.regrep_form(alg)
    q = alg.field
    assert verify_multiplicative(alg, alg.norm)
    assert verify_similarity(alg.norm, scaled(q, 3, 2)) == q.element(8)
    assert verify_similarity(alg.norm, scaled(q, 3, -3)) == q.element(-27)
    assert verify_similarity(alg.norm, shear(q, 3)) is None


def test_multiplicativity_evaluates_n_once_per_point(monkeypatch, cyclicQ):
    """The walk on cyclicQ (degree 2 on Q^4: 4 + 6 = 10 points) evaluates N
    once per point and once per pair, 10 + 10**2 in all.  Q[t]/(t^3 - 2)
    is associative, so its regrep norm is proved with no evaluation."""
    alg = number_field_algebra([-2, 0, 0, 1])
    alg.norm = NormForm.regrep_form(alg)
    calls = []
    evaluate = NormForm.evaluate
    monkeypatch.setattr(NormForm, "evaluate", lambda self, x: calls.append(1) or evaluate(self, x))
    assert verify_multiplicative(cyclicQ, cyclicQ.norm)
    assert len(calls) == 10 + 10**2
    calls.clear()
    assert verify_multiplicative(alg, alg.norm)
    assert calls == []


def test_point_rule_by_characteristic():
    assert determining_points(PrimeField(3), 3, 3) is None
    assert len(determining_points(PrimeField(13), 3, 3)) == 3 * 3 + 3 * 9 + 27
    assert len(determining_points(PrimeField(2), 4, 2)) == 4 + 6
    for p, n in ((3, 7), (5, 5)):
        alg = extension_as_algebra(ExtensionField(p, n))
        with pytest.raises(DimensionError, match="multiplicativity exhaustion cap exceeded"):
            verify_multiplicative(alg, alg.norm)


def test_run_twist_on_f13_cubed():
    """Over the old enumeration cap: N(c) != 1 is guaranteed and certified,
    N(c) = 1 is not guaranteed and has a zero divisor."""
    alg = extension_as_algebra(ExtensionField(13, 3))
    f, g = make_map(alg, "frob:1"), make_map(alg, "frob:2")
    t = alg.basis(1)
    assert alg.norm.evaluate(t) != alg.field.one()
    res = run_twist(alg, TwistSpec(1, t, f, g))
    assert (res.criterion.verdict, res.division_status) == ("guaranteed", "certified-exhaustive")
    res = run_twist(alg, TwistSpec(1, alg.unit, f, g))
    assert (res.criterion.verdict, res.division_status) == ("not-guaranteed", "zero-divisor")
