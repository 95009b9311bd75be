"""Scalar tower: exact rationals, prime fields, polynomial-basis extensions."""

import random

import pytest

from twistkit.errors import FieldConstructionError, MixedFieldError
from twistkit.fields import (ExtensionField, PrimeField, RationalField,
                             default_modulus, field_make, field_norm,
                             field_trace, frobenius, is_prime,
                             poly_is_irreducible)


def brute_default_modulus(p, n):
    """Independent oracle: enumerate monic degree-n polynomials in
    low-degree-first lexicographic order, return the first with no monic
    divisor of degree 1..n//2 (root search done by brute division too)."""
    def divides(f, g):
        # does f divide g over F_p, by naive long division
        g = list(g)
        while len(g) >= len(f) and any(g):
            while g and g[-1] == 0:
                g.pop()
            if len(g) < len(f):
                break
            coeff = (g[-1] * pow(f[-1], p - 2, p)) % p
            shift = len(g) - len(f)
            for i, c in enumerate(f):
                g[shift + i] = (g[shift + i] - coeff * c) % p
        return not any(g)

    def all_monic(d):
        for idx in range(p**d):
            coeffs = []
            k = idx
            for _ in range(d):
                coeffs.append(k % p)
                k //= p
            yield coeffs + [1]

    for cand in all_monic(n):
        if not any(divides(f, cand) for d in range(1, n // 2 + 1)
                   for f in all_monic(d)):
            return cand
    raise AssertionError("no irreducible found")


def test_primality_trial_division():
    assert is_prime(2) and is_prime(3) and is_prime(31)
    assert not is_prime(1) and not is_prime(9) and not is_prime(91)
    with pytest.raises(FieldConstructionError):
        is_prime(2**31)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 3), (2, 2), (2, 4)])
def test_default_modulus_matches_brute_force(p, n):
    assert default_modulus(p, n) == brute_default_modulus(p, n)


def test_default_modulus_f9_is_t2_plus_1():
    # t^2+1 has no root mod 3, and every smaller candidate does
    assert default_modulus(3, 2) == [1, 0, 1]


def test_field_make_errors():
    with pytest.raises(FieldConstructionError):
        field_make({"kind": "ext", "p": 2, "n": 2, "modulus": [0, 0, 1]})  # t^2
    with pytest.raises(FieldConstructionError):
        field_make({"kind": "prime", "p": 6})
    with pytest.raises(FieldConstructionError):
        field_make({"kind": "ext", "p": 3, "n": 1})
    with pytest.raises(FieldConstructionError):
        field_make({"kind": "nope"})


def test_extension_defining_relation():
    F9 = ExtensionField(3, 2)
    t = F9.gen()
    assert t * t == F9.element(2)


def test_rational_arithmetic():
    Q = RationalField()
    assert Q.parse("2/3") + Q.parse("1/6") == Q.parse("5/6")
    assert repr(Q.parse("-26/18")) == "-13/9"
    assert repr(Q.element(4)) == "4"


def test_rational_ring_axioms_random():
    Q = RationalField()
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = (Q.parse(f"{rng.randint(-99, 99)}/{rng.randint(1, 99)}")
                   for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_extension_inverse_by_euclid_frozen():
    F9 = ExtensionField(3, 2)
    x = F9.element([1, 1])        # t + 1
    assert x.inverse() == F9.element([2, 1])
    assert x * x.inverse() == F9.one()


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3)])
def test_inverse_exhaustive(p, n):
    F = ExtensionField(p, n)
    for x in F.elements():
        if not x:
            continue
        assert x * x.inverse() == F.one()


def test_division_by_zero():
    F9 = ExtensionField(3, 2)
    with pytest.raises(ZeroDivisionError):
        F9.one() / F9.zero()
    with pytest.raises(ZeroDivisionError):
        RationalField().one() / RationalField().zero()


def test_mixed_field_arithmetic_raises():
    with pytest.raises(MixedFieldError):
        PrimeField(3).one() + PrimeField(5).one()
    with pytest.raises(MixedFieldError):
        RationalField().one() + PrimeField(3).one()


def test_frobenius_values():
    F9 = ExtensionField(3, 2)
    t = F9.gen()
    assert frobenius(t, 1) == F9.element([0, 2])      # t^3 = 2t
    for x in F9.elements():
        assert frobenius(x, 2) == x                    # order n
    F27 = ExtensionField(3, 3)
    assert frobenius(F27.one(), 1) == F27.one()
    for x in F27.elements():
        assert frobenius(frobenius(frobenius(x, 1), 1), 1) == x


def test_frobenius_is_additive_automorphism():
    F27 = ExtensionField(3, 3)
    elems = list(F27.elements())
    for x in elems[::5]:
        for y in elems[::7]:
            assert frobenius(x + y, 1) == frobenius(x, 1) + frobenius(y, 1)
            assert frobenius(x * y, 1) == frobenius(x, 1) * frobenius(y, 1)


def test_field_norm_values():
    F9 = ExtensionField(3, 2)
    t = F9.gen()
    assert field_norm(t + F9.one()) == PrimeField(3).element(2)
    assert field_norm(t) == PrimeField(3).element(1)
    assert field_norm(F9.one()) == PrimeField(3).element(1)


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3)])
def test_field_norm_multiplicative_exhaustive(p, n):
    F = ExtensionField(p, n)
    elems = list(F.elements())
    for x in elems:
        for y in elems:
            assert field_norm(x * y) == field_norm(x) * field_norm(y)


def test_field_norm_surjects_onto_prime_field():
    F9 = ExtensionField(3, 2)
    values = {field_norm(x).payload for x in F9.elements()}
    assert values == {0, 1, 2}


def test_field_trace_additive():
    F9 = ExtensionField(3, 2)
    elems = list(F9.elements())
    for x in elems:
        for y in elems:
            assert field_trace(x + y) == field_trace(x) + field_trace(y)


def test_element_enumeration_round_trip():
    F27 = ExtensionField(3, 3)
    for i in range(27):
        assert F27.element_index(F27.element_at(i)) == i


def test_parse_format_round_trip():
    F9 = ExtensionField(3, 2)
    for x in F9.elements():
        assert F9.parse(repr(x)) == x
    Q = RationalField()
    for s in ("-13/9", "0", "7", "2/3"):
        assert repr(Q.parse(s)) == s


def test_extension_caps():
    with pytest.raises(FieldConstructionError):
        ExtensionField(17, 2)
    with pytest.raises(FieldConstructionError):
        ExtensionField(3, 9)


def test_irreducibility_search_degree4():
    # x^4 + x + 1 is irreducible over F_2; x^4 + x^2 + 1 = (x^2+x+1)^2 is not
    assert poly_is_irreducible([1, 1, 0, 0, 1], 2)
    assert not poly_is_irreducible([1, 0, 1, 0, 1], 2)
