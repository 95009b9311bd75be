"""Bundled algebras: rational quaternions and octonions, the small finite
field blocks F_4, F_9, F_27, F_125, and the rational cyclic fixture.

All defaults are fixed so that every derived table is reproducible
bit-for-bit: doubling always uses c = -1 over Q (basis 1,i,j,k,l,il,jl,kl),
extension fields take the lexicographically smallest irreducible modulus.
"""

from __future__ import annotations

from .algebra import Algebra
from .builders import (cayley_dickson, cyclic_algebra, extension_as_algebra,
                       ground_algebra, number_field_algebra,
                       quadratic_conjugation)
from .errors import SpecError
from .fields import ExtensionField, RationalField
from .forms import CERT_DIVISION


def quaternions() -> Algebra:
    """H over Q: two doublings of the ground field with c = -1; norm is the
    sum of four squares (positive definite)."""
    q = RationalField()
    c = q.element(-1)
    complexes = cayley_dickson(ground_algebra(q, label="Q"), c, label="C")
    return cayley_dickson(complexes, c, label="H")


def octonions() -> Algebra:
    """O over Q: third doubling with c = -1; norm is the sum of eight
    squares."""
    return cayley_dickson(quaternions(), RationalField().element(-1), label="O")


def f4_algebra() -> Algebra:
    return extension_as_algebra(ExtensionField(2, 2), label="F4")


def f9_algebra() -> Algebra:
    return extension_as_algebra(ExtensionField(3, 2), label="F9")


def f27_algebra() -> Algebra:
    return extension_as_algebra(ExtensionField(3, 3), label="F27")


def f125_algebra() -> Algebra:
    return extension_as_algebra(ExtensionField(5, 3), label="F125")


def sqrt2_block() -> Algebra:
    """Q[t]/(t^2 - 2), the commutative block of the cyclic fixture."""
    return number_field_algebra([-2, 0, 1], label="Q(sqrt2)")


def split_qq() -> Algebra:
    """Q x Q on its idempotent basis: e0^2 = e0, e1^2 = e1, e0 e1 = 0.
    The canonical split block; every probe must find its zero divisors."""
    q = RationalField()
    one, zero = q.one(), q.zero()
    table = [[[one, zero], [zero, zero]], [[zero, zero], [zero, one]]]
    return Algebra(q, table, unit=[one, one], label="splitQQ")


def cyclic_q_fixture() -> Algebra:
    """The 4-dimensional rational cyclic algebra on Q(sqrt2) with u^2 = 3.

    Reduced norm: x0^2 - 2 x1^2 - 3 x2^2 + 6 x3^2.  It is anisotropic over Q
    (hence the algebra is division) by 3-adic descent: a primitive integer
    zero of x0^2 - 2 x1^2 = 3 (x2^2 - 2 x3^2) forces x0, x1 = 0 mod 3
    (2 is not a square mod 3), hence 9 | x0^2 - 2 x1^2, hence
    x2^2 = 2 x3^2 mod 3 forcing x2, x3 = 0 mod 3, contradicting primitivity.
    The division certificate below records that argument.
    """
    k = sqrt2_block()
    sigma = quadratic_conjugation(k)
    return cyclic_algebra(k, sigma, 3, certificate=CERT_DIVISION, label="cyclicQ")


# fixed documented sample of invertible integer quaternions used by the
# containment reports (all nonzero, hence invertible in a division algebra)
INNER_SAMPLE_H = [
    (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1), (2, 1, 0, 0), (2, 0, 1, 0),
    (2, 0, 0, 1), (1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 1),
    (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1), (1, 2, 0, 0),
    (1, 0, 2, 0), (1, 0, 0, 2), (2, 1, 1, 0), (2, 0, 1, 1), (1, 2, 3, 4),
]

_REGISTRY = {
    "H": quaternions,
    "O": octonions,
    "F4": f4_algebra,
    "F9": f9_algebra,
    "F27": f27_algebra,
    "F125": f125_algebra,
    "cyclicQ": cyclic_q_fixture,
    "splitQQ": split_qq,
}


def fixture_names():
    return sorted(_REGISTRY)


def fixture(name: str) -> Algebra:
    if not isinstance(name, str) or name not in _REGISTRY:
        raise SpecError(f"unknown fixture {name!r}; known: {fixture_names()}")
    return _REGISTRY[name]()
