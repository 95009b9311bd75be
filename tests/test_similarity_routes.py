"""The `automorphism` similarity route, the route record on CriterionReport,
`gram-composition` read off the basis blocks, and `is_isomorphism` on the
raw tensor, each against the parent's version kept in tests/reference_forms.py
and tests/reference_analyzer.py."""

import random

import pytest

import twistkit.forms as forms
from reference_analyzer import is_isomorphism as reference_is_isomorphism
from reference_forms import reference_multiplicativity_proof, reference_verify_similarity
from twistkit.algebra import Algebra, opposite
from twistkit.analyzer import is_isomorphism
from twistkit.builders import (cayley_dickson, extension_as_algebra, ground_algebra,
                               make_map, standard_involution)
from twistkit.errors import DimensionError
from twistkit.fields import ExtensionField, PrimeField
from twistkit.forms import (CERT_FIELD_NORM, NormForm, _is_associative,
                            _multiplicativity_proof, verify_similarity)
from twistkit.linalg import Matrix, vector_at
from twistkit.twist import INAPPLICABLE, TwistSpec, norm_criterion

EXTENSIONS = {"F4": (2, 2), "F8": (2, 3), "F27": (3, 3), "F125": (5, 3)}


def extension(label):
    return extension_as_algebra(ExtensionField(*EXTENSIONS[label]), label=label)


def matrix_algebra(p):
    """M_2(F_p) on E11, E12, E21, E22 (index 2i + j) with det L_x attached:
    associative, unital and not commutative, so it has inner maps."""
    field = PrimeField(p)
    table = [[[field.element(int(j == k and 2 * i + l == m)) for m in range(4)]
              for k in range(2) for l in range(2)] for i in range(2) for j in range(2)]
    alg = Algebra(field, table, unit=[field.element(v) for v in (1, 0, 0, 1)], label="M2")
    alg.norm = NormForm.regrep_form(alg, certificate=CERT_FIELD_NORM)
    return alg


def random_unital(p, n, rng):
    """A random tensor over F_p whose e_0 is a two-sided unit, with det L_x."""
    field = PrimeField(p)
    one, zero = field.one(), field.zero()
    table = [[[field.element(rng.randrange(p)) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    for i in range(n):
        table[0][i] = table[i][0] = [one if k == i else zero for k in range(n)]
    alg = Algebra(field, table, unit=table[0][0])
    alg.norm = NormForm.regrep_form(alg)
    return alg


def left_unit_only():
    """span{E11, E12} over F_2: associative, e_0 a left unit, no two-sided
    unit; det L_x = x_0^2, walked on all of F_2^2."""
    field = PrimeField(2)
    one, zero = field.one(), field.zero()
    table = [[[one, zero], [zero, one]], [[zero, zero], [zero, zero]]]
    alg = Algebra(field, table)
    alg.norm = NormForm.regrep_form(alg)
    return alg


def shear(field, n):
    return Matrix(field, [[field.element(int(i == j or (i, j) == (0, 1))) for j in range(n)]
                          for i in range(n)])


def routed(norm, f):
    routes = []
    alpha = verify_similarity(norm, f, routes)
    assert alpha == reference_verify_similarity(norm, f)
    assert len(routes) == 1
    return alpha, routes[0]


# -- the automorphism route ---------------------------------------------------

@pytest.mark.parametrize("label", sorted(EXTENSIONS))
def test_frobenius_powers_take_the_automorphism_route(label):
    alg = extension(label)
    for k in range(alg.dim):
        assert routed(alg.norm, make_map(alg, f"frob:{k}")) == (alg.field.one(), "automorphism")


@pytest.mark.parametrize("label", ["F8", "F27"])
def test_scaled_frobenius_maps_give_the_norm_of_a(label):
    """f = L_a sigma: alpha = N(a), the walk's factor."""
    alg = extension(label)
    rng = random.Random(label)
    frob = make_map(alg, "frob:1")
    for _ in range(4):
        a = vector_at(alg.field, alg.dim, rng.randrange(1, alg.field.order() ** alg.dim))
        f = alg.left_mul_matrix(a) @ frob
        assert routed(alg.norm, f) == (alg.norm.evaluate(a), "automorphism")


def test_inner_and_scaled_inner_maps_of_a_matrix_algebra():
    alg = matrix_algebra(3)
    one = alg.field.one()
    for q, a in (([1, 1, 0, 1], [2, 0, 0, 1]), ([0, 1, 1, 0], [1, 1, 1, 2]),
                 ([1, 2, 1, 0], [1, 0, 2, 1])):
        inner = make_map(alg, f"inner:{q}")
        assert routed(alg.norm, inner) == (one, "automorphism")
        a = [alg.field.element(v) for v in a]
        scaled = alg.left_mul_matrix(a) @ inner
        assert routed(alg.norm, scaled) == (alg.norm.evaluate(a), "automorphism")


def test_non_associative_algebra_is_walked():
    rng = random.Random(3)
    alg = random_unital(3, 3, rng)
    assert not _is_associative(alg)
    ident = Matrix.identity(alg.field, 3)
    assert routed(alg.norm, ident) == (alg.field.one(), "points")
    a = [alg.field.element(v) for v in (1, 1, 2)]
    la = alg.left_mul_matrix(a)
    assert la.is_invertible()
    assert routed(alg.norm, la)[1] == "points"


def test_algebra_without_unit_is_walked():
    alg = left_unit_only()
    assert alg.unit is None and _is_associative(alg)
    ident = Matrix.identity(alg.field, 2)
    assert routed(alg.norm, ident) == (alg.field.one(), "points")
    assert routed(alg.norm, shear(alg.field, 2))[1] == "points"


def test_shear_is_walked():
    """No automorphism route for a shear; on F8 the walk still finds it a
    similarity, on F27 it refutes it."""
    f8, f27 = extension("F8"), extension("F27")
    assert routed(f8.norm, shear(f8.field, 3)) == (f8.field.one(), "points")
    assert routed(f27.norm, shear(f27.field, 3)) == (None, "points")


def test_route_runs_after_the_cap(monkeypatch):
    alg = extension("F27")
    calls = []
    monkeypatch.setattr(forms, "EXHAUSTIVE_CAP", 20)
    monkeypatch.setattr(forms, "_automorphism_factor", lambda *args: calls.append(args))
    with pytest.raises(DimensionError, match="similarity exhaustion cap exceeded"):
        verify_similarity(alg.norm, make_map(alg, "frob:1"))
    assert calls == []


def test_gram_forms_keep_the_gram_route(H, F9):
    assert routed(H.norm, standard_involution(H)) == (H.field.one(), "gram")
    assert routed(F9.norm, make_map(F9, "frob:1")) == (F9.field.one(), "gram")


# -- the route record -----------------------------------------------------------

def test_criterion_records_every_route(F27, F9, H, cyclicQ):
    frob1, frob2 = make_map(F27, "frob:1"), make_map(F27, "frob:2")
    rep = norm_criterion(F27, TwistSpec(1, F27.unit, frob1, frob2, h=frob1))
    assert rep.routes == {"multiplicative": "associative-regrep", "alpha": "automorphism",
                          "beta": "automorphism", "d": "automorphism"}
    assert rep.at(F27.norm, F27.basis(1)).routes == rep.routes
    f9 = make_map(F9, "frob:1")
    assert norm_criterion(F9, TwistSpec(1, F9.unit, f9, f9)).routes == {
        "multiplicative": "associative-regrep", "alpha": "gram", "beta": "gram"}
    conj = standard_involution(H)
    assert norm_criterion(H, TwistSpec(1, H.unit, conj, conj)).routes == {
        "multiplicative": "gram-composition", "alpha": "gram", "beta": "gram"}
    ident = Matrix.identity(cyclicQ.field, 4)
    assert norm_criterion(cyclicQ, TwistSpec(1, cyclicQ.unit, ident, ident)).routes[
        "multiplicative"] == "points"


def test_inapplicable_report_names_the_refuting_route(F27):
    rep = norm_criterion(F27, TwistSpec(1, F27.unit, shear(F27.field, 3),
                                        make_map(F27, "frob:1")))
    assert rep.verdict == INAPPLICABLE
    assert rep.routes == {"multiplicative": "associative-regrep", "alpha": "points"}


def test_routes_do_not_change_report_equality(F27):
    frob = make_map(F27, "frob:1")
    rep = norm_criterion(F27, TwistSpec(1, F27.unit, frob, frob))
    assert rep == type(rep)(rep.verdict, rep.threshold, rep.norm_of_c, rep.factors)


# -- gram-composition from the basis blocks -----------------------------------

def d5():
    f5 = PrimeField(5)
    return cayley_dickson(ground_algebra(f5), f5.element(2))


def gram_cases(H, O):
    f9 = ExtensionField(3, 2)
    f7 = PrimeField(7)
    quat7 = cayley_dickson(cayley_dickson(ground_algebra(f7), f7.element(3)), f7.element(5))
    trace = NormForm.gram_form(H.field, [[4, 0, 0, 0], [0, 0, 0, 0],
                                         [0, 0, 0, 0], [0, 0, 0, 0]])
    skewed = NormForm.gram_form(H.field, [[1, 0, 0, 0], [0, 1, 1, 0],
                                          [0, 1, 1, 0], [0, 0, 0, 1]])
    return {
        "H": (H, H.norm), "O": (O, O.norm), "D5": (d5(), d5().norm),
        "CD-F9": (lambda a: (a, a.norm))(cayley_dickson(ground_algebra(f9), f9.element_at(5))),
        "quat-F7": (quat7, quat7.norm),
        "H-trace": (H, trace), "H-skewed": (H, skewed),
        "F4-sum-of-squares": (extension("F4"), NormForm.gram_form(PrimeField(2),
                                                                  [[1, 0], [0, 1]])),
        # e_i e_j = e_{i xor j}: each L_{e_i} is a permutation, so the identity
        # holds at every e_i and fails only at the e_i + e_j
        "Klein-sum-of-squares": (klein_group_algebra(), NormForm.gram_form(
            PrimeField(5), [[int(i == j) for j in range(4)] for i in range(4)])),
    }


def klein_group_algebra():
    field = PrimeField(5)
    return Algebra(field, [[[field.element(int(k == i ^ j)) for k in range(4)]
                            for j in range(4)] for i in range(4)])


@pytest.mark.parametrize("name", ["H", "O", "D5", "CD-F9", "quat-F7", "H-trace",
                                  "H-skewed", "F4-sum-of-squares", "Klein-sum-of-squares"])
def test_gram_blocks_match_the_point_check(name, H, O):
    alg, norm = gram_cases(H, O)[name]
    route = _multiplicativity_proof(alg, norm)
    assert route == reference_multiplicativity_proof(alg, norm)
    assert route == ("gram-composition" if name in ("H", "O", "D5", "CD-F9", "quat-F7")
                     else None)


# -- is_isomorphism on the raw tensor -------------------------------------------

def same_isomorphism(src, dst, m):
    got = is_isomorphism(src, dst, m)
    assert got == reference_is_isomorphism(src, dst, m)
    return got


def test_conjugation_is_an_anti_automorphism(H, O):
    for alg in (H, O):
        conj = standard_involution(alg)
        assert same_isomorphism(alg, opposite(alg), conj) == (True, None)
        assert same_isomorphism(alg, alg, conj)[0] is False


@pytest.mark.parametrize("label", sorted(EXTENSIONS))
def test_frobenius_maps_are_automorphisms(label):
    alg = extension(label)
    frob = make_map(alg, "frob:1")
    assert same_isomorphism(alg, alg, frob) == (True, None)
    assert same_isomorphism(alg, alg, alg.left_mul_matrix(alg.basis(1)))[0] is False


def test_random_maps_report_the_first_failing_pair(H):
    rng = random.Random(11)
    cases = [(H, H), (extension("F27"), extension("F27")), (matrix_algebra(3), matrix_algebra(3))]
    f9 = ExtensionField(3, 2)
    double = cayley_dickson(ground_algebra(f9), f9.element_at(5))
    cases.append((double, opposite(double)))
    for src, dst in cases:
        n, field = src.dim, src.field
        for _ in range(6):
            if field.order() is None:
                m = Matrix(field, [[field.element(rng.randint(-2, 2)) for _ in range(n)]
                                   for _ in range(n)])
            else:
                m = Matrix(field, [[field.element_at(rng.randrange(field.order()))
                                    for _ in range(n)] for _ in range(n)])
            same_isomorphism(src, dst, m)
    assert same_isomorphism(H, H, Matrix.zero(H.field, 4)) == (False, "singular")
