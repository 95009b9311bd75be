"""The int-coded F_p division kernel against the Scalar pair scan it
replaced: verdicts and witnesses byte for byte, the line count, and the
zero-divisor pair count."""

import importlib
import random

import pytest

from reference_division import (reference_division_exhaustive,
                                reference_pairs_count, witness_text,
                                zero_divisor_pairs_count)
from twistkit.algebra import isotope, left_mul_lines
from twistkit.builders import (cayley_dickson, extension_as_algebra,
                               ground_algebra, make_map, standard_involution)
from twistkit.fields import ExtensionField, PrimeField
from twistkit.linalg import (Matrix, det_mod_p, first_kernel_vector_mod_p,
                             rref_mod_p, vector_at)
from twistkit.twist import TwistSpec, division_exhaustive, twist

twist_mod = importlib.import_module("twistkit.twist")


def assert_same(alg):
    assert (witness_text(division_exhaustive(alg))
            == witness_text(reference_division_exhaustive(alg)))


def frob_twist(alg, variant, c, s, t):
    spec = TwistSpec(variant, c, make_map(alg, f"frob:{s}"), make_map(alg, f"frob:{t}"))
    return twist(alg, spec)


@pytest.mark.parametrize("name", ["F4", "F9", "F27", "F125"])
def test_fixture_algebras_and_twists(name, request):
    alg = request.getfixturevalue(name)
    assert_same(alg)
    rng = random.Random(name)
    total = alg.field.order()**alg.dim
    for _ in range(6):
        c = vector_at(alg.field, alg.dim, rng.randrange(total))
        assert_same(frob_twist(alg, rng.randint(1, 12), c,
                               rng.randrange(alg.dim), rng.randrange(alg.dim)))


@pytest.mark.parametrize("name,s,t", [("F9", 1, 1), ("F27", 1, 2)])
def test_every_variant_and_c(name, s, t, request):
    alg = request.getfixturevalue(name)
    seen = set()
    for variant in range(1, 13):
        for ci in range(alg.field.order()**alg.dim):
            circ = frob_twist(alg, variant, vector_at(alg.field, alg.dim, ci), s, t)
            assert_same(circ)
            seen.add(division_exhaustive(circ)[0])
    assert seen == {"certified", "zero-divisor"}


def test_doubling_over_f5():
    f5 = PrimeField(5)
    for c in range(1, 5):
        assert_same(cayley_dickson(ground_algebra(f5), f5.element(c)))


@pytest.mark.parametrize("p,n", [(2, 8), (3, 5), (5, 4), (7, 3)])
def test_seeded_twists_on_extension_algebras(p, n):
    alg = extension_as_algebra(ExtensionField(p, n))
    rng = random.Random(p * 100 + n)
    for _ in range(2):
        c = vector_at(alg.field, n, rng.randrange(1, p**n))
        assert_same(frob_twist(alg, rng.randint(1, 12), c,
                               rng.randrange(n), rng.randrange(1, n)))


def test_algebras_over_f9_scalars():
    f9 = ExtensionField(3, 2)
    ground = ground_algebra(f9)
    assert_same(ground)
    statuses = set()
    for ci in range(1, 9):
        double = cayley_dickson(ground, f9.element_at(ci))
        assert_same(double)
        statuses.add(division_exhaustive(double)[0])
    assert statuses == {"certified", "zero-divisor"}
    double = cayley_dickson(ground, f9.element_at(5))
    conj = standard_involution(double)
    ident = Matrix.identity(f9, 2)
    for ci in range(0, 81, 3):
        c = vector_at(f9, 2, ci)
        assert_same(twist(double, TwistSpec(1 + ci % 12, c, conj, ident)))


def test_one_determinant_per_line(monkeypatch):
    alg = extension_as_algebra(ExtensionField(5, 4))
    circ = frob_twist(alg, 1, alg.basis(1), 1, 2)
    calls = []
    det = twist_mod.det_mod_p
    monkeypatch.setattr(twist_mod, "det_mod_p",
                        lambda rows, p: calls.append(p) or det(rows, p))
    assert division_exhaustive(circ) == ("certified", None)
    assert len(calls) == (5**4 - 1) // (5 - 1) == 156


def test_line_representatives_in_index_order():
    alg = extension_as_algebra(ExtensionField(3, 2))
    assert [idx for idx, _ in left_mul_lines(alg)] == [1, 3, 4, 5]
    for idx, lx in left_mul_lines(alg):
        x = vector_at(alg.field, 2, idx)
        assert lx == [[a.payload for a in row] for row in alg.left_mul_matrix(x).rows]


def test_pairs_count_matches_reference(F9):
    f5 = PrimeField(5)
    split = cayley_dickson(ground_algebra(f5), f5.element(4))
    frob = make_map(F9, "frob:1")
    circ = twist(F9, TwistSpec(1, F9.basis(1), frob, frob))
    for alg in (split, circ, isotope(circ, frob, frob, frob)):
        assert zero_divisor_pairs_count(alg) == reference_pairs_count(alg) > 0


def test_mod_p_helpers_on_fixed_matrices():
    assert det_mod_p([[1, 2], [3, 4]], 5) == (1 * 4 - 2 * 3) % 5
    assert det_mod_p([[0, 1], [1, 0]], 7) == 6
    assert first_kernel_vector_mod_p([[1, 2], [3, 4]], 5) is None
    # column 1 is 2 * column 0: y = (-2, 1)
    assert first_kernel_vector_mod_p([[1, 2, 0], [2, 4, 1], [0, 0, 1]], 5) == [3, 1, 0]
    assert first_kernel_vector_mod_p([[0, 0], [0, 0]], 3) == [1, 0]
    assert rref_mod_p([[2, 4], [1, 2]], 5) == ([[1, 2], [0, 0]], [0])
