"""Norm forms: evaluation, polarization, similarity, multiplicativity."""

import random
from itertools import permutations

import pytest

from twistkit.builders import make_map
from twistkit.errors import HypothesisError
from twistkit.fields import ExtensionField, PrimeField, RationalField, field_norm
from twistkit.forms import (NormForm, is_positive_definite,
                            verify_multiplicative, verify_similarity)
from twistkit.linalg import Matrix, vec_add, vec_scale


def test_norm_eval_spec_values(H, F9):
    two_e = vec_scale(H.field.element(2), H.unit)
    assert H.norm.evaluate(two_e) == H.field.element(4)
    # extension norm form agrees with the Galois-product field norm
    ext = F9
    K = ExtensionField(3, 2)
    for i in range(9):
        x = K.element_at(i)
        vec = [PrimeField(3).element(c) for c in x.payload]
        assert ext.norm.evaluate(vec).payload == field_norm(x).payload


def test_homogeneity(H, F9, cyclicQ):
    rng = random.Random(9)
    for alg in (H, F9, cyclicQ):
        d = alg.norm.degree
        for _ in range(10):
            v = [alg.field.element(rng.randint(0, 4)) for _ in range(alg.dim)]
            a = alg.field.element(rng.randint(1, 5))
            assert alg.norm.evaluate(vec_scale(a, v)) == a**d * alg.norm.evaluate(v)


def test_polarize_quaternions(H):
    assert H.norm.polarize(H.unit, H.basis(1)) == H.field.zero()
    rng = random.Random(10)
    for _ in range(10):
        x = [H.field.element(rng.randint(-4, 4)) for _ in range(4)]
        y = [H.field.element(rng.randint(-4, 4)) for _ in range(4)]
        direct = (H.norm.evaluate(vec_add(x, y)) - H.norm.evaluate(x)
                  - H.norm.evaluate(y))
        assert H.norm.polarize(x, y) == direct
        assert H.norm.polarize(x, y) == H.norm.polarize(y, x)


def test_polarize_degree3_permutation_invariant(F125):
    # degree-3 regrep norm over F_5 (char 5 > 3, polarization admissible)
    rng = random.Random(11)
    pol = F125.norm.polarize
    assert F125.norm.degree == 3
    for _ in range(5):
        vs = [[F125.field.element(rng.randint(0, 4)) for _ in range(3)]
              for _ in range(3)]
        vals = {repr(pol(*[vs[p] for p in perm])) for perm in permutations(range(3))}
        assert len(vals) == 1


def test_polarize_multilinear_slot1(F125):
    rng = random.Random(12)
    f = F125.field
    for _ in range(5):
        x, xp, y, z = ([f.element(rng.randint(0, 4)) for _ in range(3)]
                       for _ in range(4))
        lhs = F125.norm.polarize(vec_add(x, xp), y, z)
        assert lhs == F125.norm.polarize(x, y, z) + F125.norm.polarize(xp, y, z)


def test_polarize_char_guard(F4):
    with pytest.raises(HypothesisError):
        F4.norm.polarize(F4.basis(0), F4.basis(1))


def test_gram_derivation_from_evaluator(cyclicQ):
    g = cyclicQ.norm.gram()
    diag = [g.rows[i][i].payload for i in range(4)]
    assert diag == [1, -2, -3, 6]
    for i in range(4):
        for j in range(4):
            if i != j:
                assert not g.rows[i][j]


def test_verify_similarity_spec_values(H, F9):
    conj = make_map(H, "conj")
    assert verify_similarity(H.norm, conj) == H.field.element(1)
    dbl = Matrix.identity(H.field, 4).scale(H.field.element(2))
    assert verify_similarity(H.norm, dbl) == H.field.element(4)
    frob = make_map(F9, "frob:1")
    assert verify_similarity(F9.norm, frob) == F9.field.element(1)


def test_verify_similarity_rejects_non_similarity(H):
    q = H.field
    rows = [[q.element(v) for v in row]
            for row in [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
    shear = Matrix(q, rows)
    assert verify_similarity(H.norm, shear) is None


def test_verify_multiplicative(H, O, F9):
    assert verify_multiplicative(H, H.norm)
    assert verify_multiplicative(O, O.norm)
    assert verify_multiplicative(F9, F9.norm)
    # the squared-trace form is homogeneous degree 2 but not multiplicative
    q = H.field
    tform = NormForm.gram_form(q, [[4, 0, 0, 0], [0, 0, 0, 0],
                                   [0, 0, 0, 0], [0, 0, 0, 0]])
    assert not verify_multiplicative(H, tform)


def test_verify_multiplicative_cyclic(cyclicQ):
    assert verify_multiplicative(cyclicQ, cyclicQ.norm)


def test_positive_definite():
    q = RationalField()
    ident = Matrix.identity(q, 3)
    assert is_positive_definite(ident)
    neg = Matrix(q, [[q.element(1), q.element(0)], [q.element(0), q.element(-2)]])
    assert not is_positive_definite(neg)


def test_certificates(H, O, F9, cyclicQ):
    assert H.norm.certificate == "positive-definite"
    assert O.norm.certificate == "positive-definite"
    assert F9.norm.certificate == "field-norm"
    assert cyclicQ.norm.certificate == "division-certified"
