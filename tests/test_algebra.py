"""Structure-constant algebras: products, units, nuclei, isotopes."""

import random

import pytest

from reference_division import zero_divisor_pairs_count
from twistkit.algebra import (Algebra, associator, commutator,
                              first_tensor_mismatch, isotope, nucleus,
                              opposite, tensor_eq)
from twistkit.builders import extension_as_algebra, make_map
from twistkit.errors import SingularMapError
from twistkit.fields import ExtensionField, RationalField
from twistkit.linalg import Matrix, in_span, vec_eq, vec_scale


def rand_vec(rng, alg):
    return [alg.field.element(rng.randint(-5, 5)) for _ in range(alg.dim)]


def test_multiply_spec_values(H, F9):
    i, j, k = H.basis(1), H.basis(2), H.basis(3)
    assert vec_eq(H.multiply(i, j), k)
    assert vec_eq(H.multiply(H.unit, i), i)
    t = F9.basis(1)
    assert vec_eq(F9.multiply(t, t), vec_scale(F9.field.element(2), F9.basis(0)))


def test_multiply_bilinear_random(H):
    rng = random.Random(7)
    q = H.field
    for _ in range(30):
        a, b = q.element(rng.randint(-5, 5)), q.element(rng.randint(-5, 5))
        x, xp, y = rand_vec(rng, H), rand_vec(rng, H), rand_vec(rng, H)
        lhs = H.multiply([a * u + b * v for u, v in zip(x, xp)], y)
        rhs = [a * u + b * v for u, v in zip(H.multiply(x, y), H.multiply(xp, y))]
        assert vec_eq(lhs, rhs)


def test_left_mul_matrix_spec_values(H):
    li = H.left_mul_matrix(H.basis(1))
    # columns: 1 -> i, i -> -1, j -> k, k -> -j
    q = H.field
    assert li.column(0) == [q.element(0), q.element(1), q.element(0), q.element(0)]
    assert li.column(1) == [q.element(-1), q.element(0), q.element(0), q.element(0)]
    assert li.column(2) == [q.element(0), q.element(0), q.element(0), q.element(1)]
    assert li.column(3) == [q.element(0), q.element(0), q.element(-1), q.element(0)]
    assert H.left_mul_matrix(H.unit) == Matrix.identity(q, 4)
    assert H.left_mul_matrix(H.zero()) == Matrix.zero(q, 4)
    for _ in range(5):
        rng = random.Random(11)
        a, x = rand_vec(rng, H), rand_vec(rng, H)
        assert vec_eq(H.left_mul_matrix(a).apply(x), H.multiply(a, x))
        assert vec_eq(H.right_mul_matrix(a).apply(x), H.multiply(x, a))


def test_find_unit(H):
    assert vec_eq(H.find_unit(), H.unit)
    # the unit, when found, gives identity multiplication matrices
    e = H.find_unit()
    assert H.left_mul_matrix(e) == Matrix.identity(H.field, 4)
    assert H.right_mul_matrix(e) == Matrix.identity(H.field, 4)


def test_find_unit_absent_zero_algebra():
    q = RationalField()
    zero_table = [[[q.zero()]]]
    assert Algebra(q, zero_table).find_unit() is None


def test_commutator_associator(H, O):
    i, j = H.basis(1), H.basis(2)
    assert vec_eq(commutator(H, i, j), vec_scale(H.field.element(2), H.basis(3)))
    for a in range(4):
        for b in range(4):
            for c in range(4):
                assert not any(associator(H, H.basis(a), H.basis(b), H.basis(c)))
    assert any(associator(O, O.basis(1), O.basis(2), O.basis(4)))


def test_nucleus_dimensions(H, O, F9):
    for side in ("left", "middle", "right", "all"):
        assert len(nucleus(H, side)) == 4
    basis = nucleus(O, "all")
    assert len(basis) == 1
    assert in_span([O.unit], basis[0], O.field) is not None
    assert len(nucleus(F9, "all")) == 2
    assert len(nucleus(O, "center")) == 1


def test_nucleus_closed_under_multiplication(O, H):
    for alg in (O, H):
        basis = nucleus(alg, "all")
        for u in basis:
            for v in basis:
                assert in_span(basis, alg.multiply(u, v), alg.field) is not None


def test_isotope_identity_and_errors(H):
    ident = Matrix.identity(H.field, 4)
    assert tensor_eq(isotope(H, ident, ident, ident), H)
    singular = Matrix.zero(H.field, 4)
    with pytest.raises(SingularMapError):
        isotope(H, singular, ident, ident)


def test_isotope_conjugation_and_opposite(H):
    conj = make_map(H, "conj")
    # with h = conj as well, the isotope is exactly the opposite algebra
    iso3 = isotope(H, conj, conj, conj)
    assert tensor_eq(iso3, opposite(H))
    # with h = id, each product equals conj applied to the reversed product
    iso2 = isotope(H, conj, conj)
    for i in range(4):
        for j in range(4):
            assert vec_eq(iso2.table[i][j], conj.apply(H.table[j][i]))


def test_isotope_opposite_compatibility(H):
    # passing to the opposite swaps the two maps: (A^(f,g))^op = (A^op)^(g,f)
    f = make_map(H, "inner:[1,1,0,0]")
    g = make_map(H, "inner:[1,0,1,0]")
    lhs = opposite(isotope(H, f, g))
    rhs = isotope(opposite(H), g, f)
    assert tensor_eq(lhs, rhs)
    # and with f = g the unswapped form (A^(f,f))^op = (A^op)^(f,f) holds
    lhs2 = opposite(isotope(H, f, f))
    rhs2 = isotope(opposite(H), f, f)
    assert tensor_eq(lhs2, rhs2)


def test_isotope_preserves_zero_divisor_count():
    F9 = extension_as_algebra(ExtensionField(3, 2))
    frob = make_map(F9, "frob:1")
    base_count = zero_divisor_pairs_count(F9)
    assert base_count == 0
    # twist to something with zero divisors, then isotope it
    from twistkit.twist import TwistSpec, twist
    circ = twist(F9, TwistSpec(variant=1, c=F9.basis(1), f=frob, g=frob))
    n1 = zero_divisor_pairs_count(circ)
    assert n1 > 0
    iso = isotope(circ, frob, frob, frob)
    assert zero_divisor_pairs_count(iso) == n1


def test_opposite(H, F9):
    assert tensor_eq(opposite(F9), F9)
    op = opposite(H)
    assert vec_eq(op.table[1][2], vec_scale(H.field.element(-1), H.basis(3)))
    assert tensor_eq(opposite(op), H)


def test_tensor_mismatch_reporting(H):
    op = opposite(H)
    assert first_tensor_mismatch(H, H) is None
    assert first_tensor_mismatch(H, op) == (1, 2)


def test_element_from_string(H):
    v = H.element_from_string("[1,0,-13/9,0]")
    assert repr(v[2]) == "-13/9"
    ext = extension_as_algebra(ExtensionField(3, 2))
    w = ext.element_from_string("[2,1]")
    assert w[0].payload == 2 and w[1].payload == 1
