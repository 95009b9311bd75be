"""The prime-field int paths against the `Scalar` paths they replaced
(tests/reference_fp.py): `Algebra.multiply`, `Matrix.det` and `@`,
`_prime_left_mul_mats`, the `twist()` tensor and `verify_multiplicative`,
on random tensors over F_2..F_13 with zero cells and singular maps."""

import random
from fractions import Fraction

import pytest

from reference_forms import reference_multiplicative
from reference_fp import (ScalarRegrep, on_scalar_paths, scalar_det, scalar_matmul,
                          scalar_multiply, scalar_prime_left_mul_mats)
from reference_twist import entries, reference_twist
from twistkit import fixtures
from twistkit.algebra import Algebra, _prime_left_mul_mats
from twistkit.builders import cayley_dickson, extension_as_algebra, ground_algebra
from twistkit.errors import DimensionError
from twistkit.fields import ExtensionField, PrimeField
from twistkit.forms import NormForm, verify_multiplicative
from twistkit.linalg import Matrix
from twistkit.twist import TwistSpec, twist

PRIMES = [2, 3, 5, 7, 11, 13]


def payloads(vec):
    return [(type(s.payload), s.payload, repr(s)) for s in vec]


def random_algebra(p, n, rng):
    """A random tensor with about half its cells zero and, for n > 1, e_0
    a left zero divisor of everything (L_{e_0} = 0)."""
    field = PrimeField(p)

    def cell(i):
        if (i == 0 and n > 1) or rng.random() < 0.3:
            return [field.zero()] * n
        return [field.element(rng.randrange(p)) if rng.random() < 0.6 else field.zero()
                for _ in range(n)]
    return Algebra(field, [[cell(i) for _ in range(n)] for i in range(n)])


def random_matrix(field, nrows, ncols, rng, rank_deficient=False):
    rows = [[field.element(rng.randrange(field.p)) for _ in range(ncols)]
            for _ in range(nrows)]
    if rank_deficient and nrows > 1:
        a, b = rng.sample(range(nrows), 2)
        k = rng.randrange(field.p)
        rows[b] = [field.element(k) * v for v in rows[a]]
    return Matrix(field, rows)


def random_invertible(field, n, rng):
    while True:
        m = random_matrix(field, n, n, rng)
        if scalar_det(m):
            return m


def vector(field, n, rng, ints=False):
    if ints:
        return [rng.randrange(-2 * field.p, 2 * field.p) for _ in range(n)]
    return [field.element(rng.randrange(field.p)) for _ in range(n)]


@pytest.mark.parametrize("p", PRIMES)
def test_multiply_matches_scalar_path(p):
    rng = random.Random(p)
    for n in (1, 2, 3, 4):
        alg = random_algebra(p, n, rng)
        for trial in range(12):
            x = vector(alg.field, n, rng, ints=trial % 3 == 1)
            y = vector(alg.field, n, rng, ints=trial % 3 == 2)
            assert payloads(alg.multiply(x, y)) == payloads(scalar_multiply(alg, x, y))
        zero = alg.zero()
        assert payloads(alg.multiply(zero, zero)) == payloads(scalar_multiply(alg, zero, zero))


def outcome(fn, *args):
    try:
        return "ok", payloads(fn(*args))
    except Exception as exc:  # compared with the Scalar path below
        return "raises", type(exc)


@pytest.mark.parametrize("bad", [PrimeField(7).element(3), ExtensionField(5, 2).gen(),
                                 Fraction(1, 2), Fraction(3), 0.5],
                         ids=["F7", "F25", "half", "Fraction(3)", "float"])
def test_multiply_refuses_what_the_scalar_path_refuses(bad):
    """A nonzero entry of another field or type, against a nonzero partner,
    raises the type the Scalar product raises."""
    alg = extension_as_algebra(ExtensionField(5, 3))
    field = alg.field
    good = [field.element(v) for v in (1, 2, 3)]
    for x, y in [([bad, field.zero(), field.one()], good), (good, [field.one(), bad, 4]),
                 ([bad, 1, 0], [2, 0, 1])]:
        expected = outcome(scalar_multiply, alg, x, y)
        assert expected[0] == "raises"
        assert outcome(alg.multiply, x, y) == expected
    for x, y in [(good, good[:2]), (good + [field.one()], good)]:
        assert outcome(alg.multiply, x, y) == outcome(scalar_multiply, alg, x, y) \
            == ("raises", DimensionError)
    # zero entries of any kind are skipped by both paths
    x = [Fraction(0), PrimeField(7).zero(), field.one()]
    assert outcome(alg.multiply, x, good) == outcome(scalar_multiply, alg, x, good)


@pytest.mark.parametrize("p", PRIMES)
def test_det_and_matmul_match_gauss(p):
    rng = random.Random(100 + p)
    field = PrimeField(p)
    for n in range(1, 6):
        for trial in range(8):
            m = random_matrix(field, n, n, rng, rank_deficient=trial % 2 == 1)
            assert payloads([m.det()]) == payloads([scalar_det(m)])
            if trial % 2 and n > 1:
                assert not m.det()
            k = rng.randint(1, 4)
            b = random_matrix(field, n, k, rng, rank_deficient=trial % 4 == 3)
            assert [payloads(r) for r in (m @ b).rows] == \
                [payloads(r) for r in scalar_matmul(m, b).rows]
    zero = Matrix.zero(field, 3)
    assert payloads([zero.det()]) == payloads([scalar_det(zero)])
    with pytest.raises(DimensionError):
        Matrix.identity(field, 2) @ Matrix.identity(PrimeField(2 if p != 2 else 3), 2)


@pytest.mark.parametrize("p", PRIMES)
def test_prime_left_mul_mats_match_scalar_build(p):
    rng = random.Random(200 + p)
    for n in (1, 2, 3, 4):
        alg = random_algebra(p, n, rng)
        assert _prime_left_mul_mats(alg) == scalar_prime_left_mul_mats(alg)
    if p <= 7:
        alg = extension_as_algebra(ExtensionField(p, 3))
        assert _prime_left_mul_mats(alg) == scalar_prime_left_mul_mats(alg)


def d5():
    f5 = PrimeField(5)
    return cayley_dickson(ground_algebra(f5), f5.element(2), label="D5")


TWIST_ALGEBRAS = {
    "F4": fixtures.f4_algebra, "F27": fixtures.f27_algebra, "F125": fixtures.f125_algebra,
    "D5": d5, "F13^3": lambda: extension_as_algebra(ExtensionField(13, 3)),
    "random-F11": lambda: random_algebra(11, 3, random.Random(11)),
    "random-F2": lambda: random_algebra(2, 4, random.Random(2)),
}


@pytest.mark.parametrize("name", list(TWIST_ALGEBRAS))
def test_twist_matches_reference_on_scalar_products(name, monkeypatch):
    """All 12 variants, plain, with h, and with h and a pre-isotope, against
    tests/reference_twist.py with every product and determinant it takes
    on the Scalar paths."""
    alg = TWIST_ALGEBRAS[name]()
    field, n = alg.field, alg.dim
    rng = random.Random(name)
    f, g, h = (random_invertible(field, n, rng) for _ in range(3))
    pre = tuple(random_invertible(field, n, rng) for _ in range(3))
    c = vector(field, n, rng)
    specs = [TwistSpec(v, c, f, g, h=hh, pre_isotope=pp) for v in range(1, 13)
             for hh, pp in ((None, None), (h, None), (h, pre))]
    got = [entries(twist(alg, spec)) for spec in specs]
    with monkeypatch.context() as m:
        on_scalar_paths(m)
        expected = [entries(reference_twist(alg, spec)) for spec in specs]
    assert got == expected


def test_twist_singular_maps_match_reference(monkeypatch):
    alg = random_algebra(7, 3, random.Random(7))
    field = alg.field
    ident = Matrix.identity(field, 3)
    singular = random_matrix(field, 3, 3, random.Random(1), rank_deficient=True)
    specs = [TwistSpec(1, alg.zero(), singular, ident), TwistSpec(2, alg.zero(), ident, singular),
             TwistSpec(3, alg.zero(), ident, ident, h=singular)]

    def err(spec):
        try:
            twist(alg, spec)
        except Exception as exc:  # compared with the reference below
            return type(exc), str(exc)
    got = [err(spec) for spec in specs]
    with monkeypatch.context() as m:
        on_scalar_paths(m)
        expected = []
        for spec in specs:
            try:
                reference_twist(alg, spec)
            except Exception as exc:  # the reference's error
                expected.append((type(exc), str(exc)))
    assert got == expected and all(e is not None for e in got)


def count_calls(monkeypatch):
    calls = []
    multiply, evaluate = Algebra.multiply, NormForm.evaluate
    monkeypatch.setattr(Algebra, "multiply",
                        lambda self, x, y: calls.append("multiply") or multiply(self, x, y))
    monkeypatch.setattr(NormForm, "evaluate",
                        lambda self, x: calls.append("evaluate") or evaluate(self, x))
    return calls


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2), (2, 5)])
def test_field_norms_are_multiplicative_on_ints(p, n, monkeypatch):
    """True on field norms, walked on int residues: no Algebra.multiply and
    no NormForm.evaluate call."""
    alg = extension_as_algebra(ExtensionField(p, n))
    with monkeypatch.context() as m:
        on_scalar_paths(m)
        assert reference_multiplicative(alg, ScalarRegrep(alg))
    calls = count_calls(monkeypatch)
    assert verify_multiplicative(alg, NormForm.regrep_form(alg))
    assert calls == []


@pytest.mark.parametrize("p, n, seed", [(2, 3, 1), (3, 2, 2), (5, 2, 3), (7, 2, 4), (3, 3, 5)])
def test_random_tensor_regrep_is_not_multiplicative(p, n, seed, monkeypatch):
    """False on a dense random (non-associative) tensor with its regrep norm."""
    rng = random.Random(seed)
    field = PrimeField(p)
    alg = Algebra(field, [[[field.element(rng.randrange(p)) for _ in range(n)]
                           for _ in range(n)] for _ in range(n)])
    norm = NormForm.regrep_form(alg)
    with monkeypatch.context() as m:
        on_scalar_paths(m)
        expected = reference_multiplicative(alg, ScalarRegrep(alg))
    assert expected is False
    assert verify_multiplicative(alg, norm) is False
