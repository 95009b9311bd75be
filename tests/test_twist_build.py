"""twist() on raw payloads against the Scalar build it replaced
(tests/reference_twist.py): every entry with the same payload type, value
and repr, the same label, and the same errors."""

import random

import pytest

from reference_twist import entries, reference_twist
from twistkit import fixtures
from twistkit.algebra import Algebra
from twistkit.builders import (cayley_dickson, extension_as_algebra,
                               ground_algebra, make_map)
from twistkit.errors import (DimensionError, MixedFieldError,
                             SingularMapError)
from twistkit.fields import ExtensionField, PrimeField
from twistkit.linalg import Matrix, vector_at
from twistkit.twist import TwistSpec, twist


def assert_same_build(alg, spec):
    assert entries(twist(alg, spec)) == entries(reference_twist(alg, spec))


def scalar(field, rng):
    if field.order() is None:
        return field.element(rng.randint(-3, 3))
    return field.element_at(rng.randrange(field.order()))


def random_invertible(field, n, rng):
    """About three nonzero entries per row."""
    while True:
        m = Matrix(field, [[scalar(field, rng) if rng.random() < 3 / n else field.zero()
                            for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def monomial(field, n, rng):
    """A permutation matrix with random nonzero entries: the pre-isotopes of
    the octonions stay cheap with two of these."""
    perm = rng.sample(range(n), n)
    nonzero = [v for v in (scalar(field, rng) for _ in range(4 * n)) if v] + [field.one()] * n
    return Matrix(field, [[nonzero[i] if j == perm[i] else field.zero() for j in range(n)]
                          for i in range(n)])


def d5():
    f5 = PrimeField(5)
    return cayley_dickson(ground_algebra(f5), f5.element(2), label="D5")


def f9_ground_doubling():
    f9 = ExtensionField(3, 2)
    return cayley_dickson(ground_algebra(f9), f9.element_at(5), label="CD(F9)")


ALGEBRAS = {
    "F4": fixtures.f4_algebra, "F9": fixtures.f9_algebra, "F27": fixtures.f27_algebra,
    "F125": fixtures.f125_algebra, "H": fixtures.quaternions, "O": fixtures.octonions,
    "cyclicQ": fixtures.cyclic_q_fixture, "D5": d5,
    "ground-F9": lambda: ground_algebra(ExtensionField(3, 2)),
    "CD(F9)": f9_ground_doubling,
    "F7^3": lambda: extension_as_algebra(ExtensionField(7, 3)),
    "F3^7": lambda: extension_as_algebra(ExtensionField(3, 7)),
}


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_every_variant_plain_with_h_and_pre_isotope(name):
    alg = ALGEBRAS[name]()
    field, n = alg.field, alg.dim
    rng = random.Random(name)
    f, g, h = (random_invertible(field, n, rng) for _ in range(3))
    pre = (monomial(field, n, rng), random_invertible(field, n, rng), monomial(field, n, rng))
    c = [scalar(field, rng) for _ in range(n)]
    for variant in range(1, 13):
        assert_same_build(alg, TwistSpec(variant, c, f, g))
        assert_same_build(alg, TwistSpec(variant, c, f, g, h=h))
        assert_same_build(alg, TwistSpec(variant, c, f, g, h=h, pre_isotope=pre))


@pytest.mark.parametrize("p, n", [(7, 3), (3, 7)])
def test_seeded_division_twists(p, n):
    """Frobenius twists as the division benchmark draws them."""
    alg = extension_as_algebra(ExtensionField(p, n))
    rng = random.Random(p * 100 + n)
    for _ in range(4):
        c = vector_at(alg.field, n, rng.randrange(1, p**n))
        f, g = (make_map(alg, f"frob:{rng.randrange(n)}") for _ in range(2))
        assert_same_build(alg, TwistSpec(rng.randint(1, 12), c, f, g))


def test_labels(F9):
    spec = TwistSpec(7, F9.unit, Matrix.identity(F9.field, 2), Matrix.identity(F9.field, 2))
    assert twist(F9, spec).label == "(F9,o7)"
    unlabelled = Algebra(F9.field, F9.table)
    assert twist(unlabelled, spec).label == ""


def outcome(build, alg, spec):
    try:
        build(alg, spec)
    except Exception as exc:  # compared with the reference below
        return type(exc), str(exc)
    return None


def test_errors_match_reference(F27):
    field, n = F27.field, F27.dim
    ident = Matrix.identity(field, n)
    singular = Matrix.zero(field, n)
    c = F27.unit
    cases = [TwistSpec(1, c, singular, ident), TwistSpec(1, c, ident, singular),
             TwistSpec(1, c, ident, ident, h=singular), TwistSpec(1, c[:2], ident, ident),
             TwistSpec(1, c + [field.zero()], singular, ident),
             TwistSpec(1, c, ident, ident, pre_isotope=(ident, singular, ident))]
    for spec in cases:
        expected = outcome(reference_twist, F27, spec)
        assert expected is not None
        assert outcome(twist, F27, spec) == expected
    assert outcome(twist, F27, cases[0])[0] is SingularMapError
    assert outcome(twist, F27, cases[3])[0] is DimensionError


def test_map_size_and_field_errors_match_reference(F27, H):
    """Maps of the wrong size or over another field: the same error type as
    the reference, which raised from inside its products."""
    ident = Matrix.identity(F27.field, 3)
    for alg, spec, err in [
            (F27, TwistSpec(1, F27.unit, Matrix.identity(F27.field, 2), ident), DimensionError),
            (F27, TwistSpec(4, F27.unit, ident, ident, h=Matrix.identity(F27.field, 4)),
             DimensionError),
            (H, TwistSpec(1, H.unit, Matrix.identity(PrimeField(3), 4),
                          Matrix.identity(H.field, 4)), MixedFieldError)]:
        assert outcome(reference_twist, alg, spec)[0] is err
        assert outcome(twist, alg, spec)[0] is err


def test_twist_makes_no_algebra_multiply_call(monkeypatch, F27):
    f = make_map(F27, "frob:1")
    calls = []
    multiply = Algebra.multiply
    monkeypatch.setattr(Algebra, "multiply",
                        lambda self, x, y: calls.append(1) or multiply(self, x, y))
    twist(F27, TwistSpec(3, F27.unit, f, f, h=f))
    assert calls == []
