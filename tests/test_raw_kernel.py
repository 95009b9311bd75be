"""One raw-payload product path for every scalar field: `Algebra.multiply`,
`associator`, `left/right_mul_matrix` and the `twist()` tensor over Q,
F_{p^k} and F_p against the `Scalar` paths they replace
(tests/reference_fp.py, tests/reference_twist.py): the same payload type,
value and repr, and the same errors.  Also: the codec of each field,
pickling, and `with_unit_found` leaving its input as it is."""

import pickle
import random
from fractions import Fraction

import pytest

from reference_fp import (basis_mul_matrix, on_scalar_paths, scalar_associator,
                          scalar_multiply)
from reference_twist import entries, reference_twist
from twistkit import fixtures
from twistkit.algebra import Algebra, associator, isotope
from twistkit.builders import cayley_dickson, ground_algebra, make_map
from twistkit.closedforms import star_case
from twistkit.errors import DimensionError
from twistkit.fields import ExtensionField, PrimeField, RationalField
from twistkit.linalg import Matrix
from twistkit.twist import TwistSpec, twist

Q, F7, F9, F25 = RationalField(), PrimeField(7), ExtensionField(3, 2), ExtensionField(5, 2)


def payloads(vec):
    return [(type(s.payload), s.payload, repr(s)) for s in vec]


def matrix_payloads(m):
    return m.field, [payloads(row) for row in m.rows]


def scalar(field, rng):
    if field.order() is None:
        return field.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return field.element_at(rng.randrange(field.order()))


def random_algebra(field, n, rng):
    """About half the cells zero, and e_0 a left zero divisor for n > 1."""
    def cell(i):
        if (i == 0 and n > 1) or rng.random() < 0.3:
            return [field.zero()] * n
        return [scalar(field, rng) if rng.random() < 0.6 else field.zero() for _ in range(n)]
    return Algebra(field, [[cell(i) for _ in range(n)] for i in range(n)])


def vector(field, n, rng):
    """Scalars of the field, zeros and small ints, mixed."""
    def entry():
        r = rng.random()
        return field.zero() if r < 0.25 else rng.randint(-5, 5) if r < 0.4 else scalar(field, rng)
    return [entry() for _ in range(n)]


def left_unit_algebra():
    """e_0 e_j = e_j, e_1 e_0 = e_1 e_1 = 0: e_0 is a left unit only."""
    one, zero = F7.one(), F7.zero()
    return Algebra(F7, [[[one, zero], [zero, one]], [[zero, zero], [zero, zero]]])


def f9_doubling():
    return cayley_dickson(ground_algebra(F9), F9.element_at(5), label="CD(F9)")


ALGEBRAS = {
    "H": fixtures.quaternions, "O": fixtures.octonions, "cyclicQ": fixtures.cyclic_q_fixture,
    "random-Q-3": lambda: random_algebra(Q, 3, random.Random(3)),
    "random-Q-4": lambda: random_algebra(Q, 4, random.Random(4)),
    "ground-F9": lambda: ground_algebra(F9), "CD(F9)": f9_doubling,
    "random-F9": lambda: random_algebra(F9, 3, random.Random(9)),
    "random-F25": lambda: random_algebra(F25, 3, random.Random(25)),
    "F27": fixtures.f27_algebra, "random-F7": lambda: random_algebra(F7, 4, random.Random(7)),
    "left-unit-F7": left_unit_algebra,
}


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_products_match_scalar_paths(name):
    alg = ALGEBRAS[name]()
    rng = random.Random(name)
    vecs = [vector(alg.field, alg.dim, rng) for _ in range(6)]
    vecs += [alg.zero(), alg.basis(alg.dim - 1)]
    for x in vecs:
        for side in ("left", "right"):
            got = alg.left_mul_matrix(x) if side == "left" else alg.right_mul_matrix(x)
            assert matrix_payloads(got) == matrix_payloads(basis_mul_matrix(alg, x, side))
        for y in vecs[::2]:
            assert payloads(alg.multiply(x, y)) == payloads(scalar_multiply(alg, x, y))
    for x, y, z in zip(vecs, vecs[1:], vecs[2:]):
        assert payloads(associator(alg, x, y, z)) == payloads(scalar_associator(alg, x, y, z))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_is_unit_matches_the_basis_products(name):
    """is_unit(e), read as L_e = R_e = 1, agrees with e e_j = e_j e = e_j on
    every basis vector; a vector of the wrong length raises."""
    alg = ALGEBRAS[name]()
    basis = [alg.basis(j) for j in range(alg.dim)]
    rng = random.Random(name)
    candidates = basis + [vector(alg.field, alg.dim, rng) for _ in range(3)]
    if alg.unit is not None:
        candidates.append(alg.unit)
    for e in candidates:
        expected = all(scalar_multiply(alg, e, b) == b == scalar_multiply(alg, b, e)
                       for b in basis)
        assert alg.is_unit(e) is expected
    assert alg.unit is None or alg.is_unit(alg.unit)
    with pytest.raises(DimensionError):
        alg.is_unit(basis[0] + [alg.field.zero()])


def random_invertible(field, n, rng):
    while True:
        m = Matrix(field, [[scalar(field, rng) if rng.random() < 3 / n else field.zero()
                            for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


@pytest.mark.parametrize("name", ["H", "cyclicQ", "random-Q-3", "ground-F9", "CD(F9)",
                                  "random-F9", "random-F25", "O"])
def test_twist_matches_reference_on_scalar_products(name, monkeypatch):
    """The twist tensor against tests/reference_twist.py with every product
    it takes on the Scalar loop: all 12 variants (every third on O, which
    the reference builds slowly), plain, with h, and with a pre-isotope."""
    alg = ALGEBRAS[name]()
    field, n = alg.field, alg.dim
    rng = random.Random(name)
    f, g, h = (random_invertible(field, n, rng) for _ in range(3))
    pre = tuple(random_invertible(field, n, rng) for _ in range(3))
    c = [scalar(field, rng) for _ in range(n)]
    variants = range(1, 13, 3) if n > 4 else range(1, 13)
    specs = [TwistSpec(v, c, f, g, h=hh, pre_isotope=pp) for v in variants
             for hh, pp in ((None, None), (h, None), (h, pre))]
    got = [entries(twist(alg, spec)) for spec in specs]
    with monkeypatch.context() as m:
        on_scalar_paths(m)
        expected = [entries(reference_twist(alg, spec)) for spec in specs]
    assert got == expected


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared with the Scalar path below
        return "raises", type(exc)


@pytest.mark.parametrize("name", ["H", "CD(F9)", "F27"])
@pytest.mark.parametrize("bad", [PrimeField(5).element(3), F25.gen(), Fraction(1, 2), 0.5],
                         ids=["foreign-F5", "foreign-F25", "Fraction", "float"])
def test_bad_coordinates_raise_what_the_scalar_paths_raise(name, bad):
    """A nonzero coordinate of another field, a Fraction or a float, against
    a nonzero partner, raises the type the Scalar product raises, in every
    product and multiplication matrix."""
    alg = ALGEBRAS[name]()
    one = alg.field.one()
    x, good = [bad] + [one] * (alg.dim - 1), [one] * alg.dim
    pairs = [
        (lambda: alg.multiply(x, good), lambda: scalar_multiply(alg, x, good)),
        (lambda: alg.multiply(good, x), lambda: scalar_multiply(alg, good, x)),
        (lambda: associator(alg, good, x, good), lambda: scalar_associator(alg, good, x, good)),
        (lambda: alg.left_mul_matrix(x), lambda: basis_mul_matrix(alg, x, "left")),
        (lambda: alg.right_mul_matrix(x), lambda: basis_mul_matrix(alg, x, "right")),
    ]
    for new, ref in pairs:
        expected = outcome(ref)
        assert expected[0] == "raises"
        assert outcome(new) == expected
    with pytest.raises(DimensionError):
        alg.multiply(good, good[:-1] + [one, one])


@pytest.mark.parametrize("field, lift_type, zero", [(Q, Fraction, Fraction(0)), (F7, int, 0),
                                                    (F9, type(F9.zero()), F9.zero())])
def test_codec_round_trip(field, lift_type, zero):
    lift, raw_zero, p, lower = field.codec()
    assert raw_zero == zero and type(raw_zero) is type(zero)
    assert p == (7 if field == F7 else None)
    rng = random.Random(repr(field))
    for _ in range(20):
        s = scalar(field, rng)
        assert type(lift(s)) is lift_type
        assert payloads([lower(lift(s))]) == payloads([s])


@pytest.mark.parametrize("name", ["H", "cyclicQ", "CD(F9)", "random-F25", "F27", "random-F7"])
def test_pickle_round_trip(name):
    alg = ALGEBRAS[name]()
    back = pickle.loads(pickle.dumps(alg))
    assert back.field == alg.field and back.label == alg.label
    assert [[payloads(cell) for cell in row] for row in back.table] == \
        [[payloads(cell) for cell in row] for row in alg.table]
    assert back.unit == alg.unit
    rng = random.Random(name)
    x, y = (vector(alg.field, alg.dim, rng) for _ in range(2))
    assert payloads(back.multiply(x, y)) == payloads(alg.multiply(x, y))
    assert matrix_payloads(back.left_mul_matrix(x)) == matrix_payloads(alg.left_mul_matrix(x))
    for obj in (alg.field, alg.field.one()):
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_with_unit_found_returns_a_new_algebra(H, O):
    for alg in (H, O, f9_doubling()):
        bare = Algebra(alg.field, alg.table, label="bare")
        found = bare.with_unit_found()
        assert bare.unit is None
        assert found is not bare and found.unit == alg.unit and found.label == "bare"
        assert payloads(found.multiply(alg.basis(1), alg.basis(1))) == \
            payloads(bare.multiply(alg.basis(1), alg.basis(1)))
        assert alg.with_unit_found() is alg
    no_unit = random_algebra(F7, 3, random.Random(1))
    assert no_unit.with_unit_found() is no_unit and no_unit.unit is None


def test_callers_of_with_unit_found_get_the_unit(H):
    ident = Matrix.identity(H.field, 4)
    iso = isotope(H, ident, ident, ident.scale(H.field.element(Fraction(1, 2))))
    assert payloads(iso.unit) == payloads([H.field.element(v) for v in (2, 0, 0, 0)])
    cmp, _ = star_case(H, "involution-1", 2, tau=make_map(H, "conj"))
    assert cmp.closed.unit is not None and cmp.closed.is_unit(cmp.closed.unit)
