"""The prime-field regrep kernel: `NormForm.evaluate` of a regrep form over
F_p is det_mod_p of the int L_x, and must equal the `Scalar` determinant of
`left_mul_matrix(x)`; forms over extension scalar fields and over Q keep the
`Scalar` determinant, and the point caps of the norm checks do not move."""

import random

import pytest

from twistkit.algebra import Algebra
from twistkit.builders import extension_as_algebra, ground_algebra, number_field_algebra
from twistkit.errors import DimensionError, MixedFieldError
from twistkit.fields import ExtensionField, PrimeField
from twistkit.forms import NormForm, verify_multiplicative
from twistkit.linalg import Matrix


def scalar_det(alg, x):
    return alg.left_mul_matrix(x).det()


def random_tensor_algebra(p, n, rng):
    field = PrimeField(p)
    return Algebra(field, [[[field.element(rng.randrange(p)) for _ in range(n)]
                            for _ in range(n)] for _ in range(n)])


def count_dets(monkeypatch):
    calls = []
    det = Matrix.det
    monkeypatch.setattr(Matrix, "det", lambda self: calls.append(1) or det(self))
    return calls


@pytest.mark.parametrize("p, n", [(2, 3), (3, 3), (5, 2), (7, 3), (13, 3)])
def test_field_norm_matches_scalar_det(p, n):
    alg = extension_as_algebra(ExtensionField(p, n))
    assert alg.norm.data["int_coeffs"] is not None
    rng = random.Random(p * 100 + n)
    for _ in range(40):
        x = [alg.field.element(rng.randrange(p)) for _ in range(n)]
        assert repr(alg.norm.evaluate(x)) == repr(scalar_det(alg, x))


def test_zero_vector_and_singular_lx():
    rng = random.Random(5)
    alg = random_tensor_algebra(5, 3, rng)
    norm = NormForm.regrep_form(alg)
    assert norm.evaluate(alg.zero()) == alg.field.zero()
    # e_0 e_j = 0 for every j: L_{e_0} is the zero matrix, and L_{e_0 + e_1} = L_{e_1}
    zero, one = alg.field.zero(), alg.field.one()
    table = [[[zero] * 3 for _ in range(3)]] + alg.table[1:]
    alg = Algebra(alg.field, table)
    norm = NormForm.regrep_form(alg)
    assert norm.evaluate([one, zero, zero]) == zero
    x = [one, one, zero]
    assert norm.evaluate(x) == scalar_det(alg, x)
    singular = [[one, one], [one, one]]
    alg2 = Algebra(alg.field, [[[v, v] for v in row] for row in singular])
    norm2 = NormForm.regrep_form(alg2)
    for x in ([one, zero], [zero, one], [one, one]):
        assert norm2.evaluate(x) == zero == scalar_det(alg2, x)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_random_tensors_match_scalar_det(p):
    rng = random.Random(p)
    for n in (1, 2, 3, 4):
        alg = random_tensor_algebra(p, n, rng)
        norm = NormForm.regrep_form(alg)
        for _ in range(10):
            x = [alg.field.element(rng.randrange(p)) for _ in range(n)]
            assert norm.evaluate(x) == scalar_det(alg, x)


def test_prime_field_kernel_takes_no_scalar_det(monkeypatch):
    alg = extension_as_algebra(ExtensionField(3, 3))
    expected = scalar_det(alg, alg.basis(1))
    calls = count_dets(monkeypatch)
    assert alg.norm.evaluate(alg.basis(1)) == expected
    assert calls == []


def test_int_entries_and_foreign_scalars():
    """Int coordinates are read as field elements, as the Scalar path does;
    an element of another field is refused."""
    alg = extension_as_algebra(ExtensionField(5, 2))
    assert alg.norm.evaluate([2, 7]) == alg.norm.evaluate([alg.field.element(2),
                                                            alg.field.element(7)])
    with pytest.raises(MixedFieldError):
        alg.norm.evaluate([PrimeField(7).element(1), alg.field.zero()])


@pytest.mark.parametrize("make", [
    lambda: NormForm.regrep_form(ground_algebra(ExtensionField(3, 2))),
    lambda: NormForm.regrep_form(number_field_algebra([-2, 0, 0, 1]))],
    ids=["ground-F9", "Q-cubic"])
def test_extension_and_rational_forms_keep_the_scalar_det(monkeypatch, make):
    norm = make()
    assert norm.data["int_coeffs"] is None
    alg = norm.data["algebra"]
    x = [alg.field.element(v) for v in range(1, alg.dim + 1)]
    expected = scalar_det(alg, x)
    calls = count_dets(monkeypatch)
    assert norm.evaluate(x) == expected
    assert calls == [1]


@pytest.mark.parametrize("p, n", [(3, 7), (5, 5)])
def test_multiplicativity_cap_unchanged(p, n):
    alg = extension_as_algebra(ExtensionField(p, n))
    assert alg.norm.data["int_coeffs"] is not None
    with pytest.raises(DimensionError, match="multiplicativity exhaustion cap exceeded"):
        verify_multiplicative(alg, alg.norm)
