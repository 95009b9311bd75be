"""`scan_c` reads every c's left-multiplication lines off one set of int
matrices, affine in c, built from N + 1 twists (N = dim * [F:F_p]).  Its
report must be byte-identical to the scan that builds and checks the
twisted algebra for every c (tests/reference_scan.py), over prime fields and
over F_{p^k}, and it must raise the same errors in the same order."""

import random
import sys
from functools import lru_cache

import pytest

import reference_scan
from reference_scan import reference_scan_c
from twistkit.algebra import Algebra
from twistkit.builders import (cayley_dickson, extension_as_algebra, ground_algebra,
                               make_map, standard_involution)
from twistkit.fields import ExtensionField
from twistkit.linalg import Matrix
from twistkit.twist import scan_c

TWIST = sys.modules["twistkit.twist"]   # the module; `twistkit.twist` is the function

PRIME_FIELDS = {"F4": (2, 2), "F8": (2, 3), "F9": (3, 2), "F25": (5, 2), "F27": (3, 3)}


@lru_cache(maxsize=None)
def prime_algebra(label):
    p, n = PRIME_FIELDS[label]
    return extension_as_algebra(ExtensionField(p, n), label=label)


def random_invertible(field, n, rng):
    while True:
        m = Matrix(field, [[field.element_at(rng.randrange(field.order())) for _ in range(n)]
                           for _ in range(n)])
        if m.is_invertible():
            return m


def random_unital(field, n, rng, label):
    """A random tensor whose e_0 is a two-sided unit."""
    one, zero = field.one(), field.zero()
    table = [[[field.element_at(rng.randrange(field.order())) for _ in range(n)]
              for _ in range(n)] for _ in range(n)]
    for i in range(n):
        table[0][i] = table[i][0] = [one if k == i else zero for k in range(n)]
    return Algebra(field, table, unit=table[0][0], label=label)


def ext_algebras():
    """F_{p^k}-algebras: the ground fields F_4 and F_9, the doubling of F_9
    and a random unital F_9 tensor, each with a map pair."""
    f4, f9 = ExtensionField(2, 2), ExtensionField(3, 2)
    rng = random.Random(9)
    out = {}
    for label, field in (("ground-F4", f4), ("ground-F9", f9)):
        alg = ground_algebra(field, label=label)
        out[label] = (alg, Matrix(field, [[field.element_at(2)]]),
                      Matrix.identity(field, 1))
    double = cayley_dickson(ground_algebra(f9), f9.element_at(5), label="CD-F9")
    out["CD-F9"] = (double, standard_involution(double), random_invertible(f9, 2, rng))
    rand = random_unital(f9, 2, rng, "rand-F9")
    out["rand-F9"] = (rand, random_invertible(f9, 2, rng), random_invertible(f9, 2, rng))
    return out


EXT = ext_algebras()


def assert_same_scan(alg, variant, f, g):
    new = scan_c(alg, variant, f, g).text()
    assert new == reference_scan_c(alg, variant, f, g).text()
    return new


@pytest.mark.parametrize("variant", range(1, 13))
@pytest.mark.parametrize("label", sorted(PRIME_FIELDS))
def test_prime_field_algebras_match_reference(label, variant):
    """Every variant on F4, F8, F9, F25 and F27 with a Frobenius pair."""
    alg = prime_algebra(label)
    n = alg.dim
    s, t = variant % n, 1 + variant % (n - 1) if n > 2 else 1
    assert_same_scan(alg, variant, make_map(alg, f"frob:{s}"), make_map(alg, f"frob:{t}"))


@pytest.mark.parametrize("variant", range(1, 13))
@pytest.mark.parametrize("label", sorted(EXT))
def test_extension_scalar_algebras_match_reference(label, variant):
    alg, f, g = EXT[label]
    text = assert_same_scan(alg, variant, f, g)
    assert len(text.splitlines()) == 1 + alg.field.order() ** alg.dim


def test_scans_find_both_statuses():
    """The differential runs see division and zero divisors alike."""
    f27 = prime_algebra("F27")
    frob1, frob2 = make_map(f27, "frob:1"), make_map(f27, "frob:2")
    text = scan_c(f27, 1, frob1, frob2).text()
    text += "".join(scan_c(alg, 1, f, g).text() for alg, f, g in EXT.values())
    assert "status=division" in text and "status=zero-divisor" in text


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def bad_inputs():
    f27, (cd, conj, _) = prime_algebra("F27"), EXT["CD-F9"]
    frob = make_map(f27, "frob:1")
    return {
        "singular f": (f27, Matrix.zero(f27.field, 3), frob),
        "singular g over F9": (cd, conj, Matrix.zero(cd.field, 2)),
        "wrong-size f": (f27, Matrix.identity(f27.field, 2), frob),
        "wrong-size g over F9": (cd, conj, Matrix.identity(cd.field, 3)),
    }


@pytest.mark.parametrize("case", sorted(bad_inputs()))
def test_errors_match_reference(case):
    alg, f, g = bad_inputs()[case]
    new = raised(scan_c, alg, 4, f, g)
    assert new == raised(reference_scan_c, alg, 4, f, g)


def test_scan_cap_matches_reference(monkeypatch):
    monkeypatch.setattr(TWIST, "SCAN_CAP", 26)
    monkeypatch.setattr(reference_scan, "SCAN_CAP", 26)
    alg = prime_algebra("F27")
    f = make_map(alg, "frob:1")
    new = raised(scan_c, alg, 1, f, f)
    assert new == raised(reference_scan_c, alg, 1, f, f)
    assert "exceeds scan cap 26" in new[1]


@pytest.mark.parametrize("label, calls", [("F4", 3), ("F27", 4), ("ground-F9", 3),
                                          ("CD-F9", 5), ("rand-F9", 5)])
def test_n_plus_one_twists_per_scan(monkeypatch, label, calls):
    """twist() runs once at c = 0 and once per F_p basis vector E_j."""
    if label in EXT:
        alg, f, g = EXT[label]
    else:
        alg = prime_algebra(label)
        f = g = make_map(alg, "frob:1")
    seen = []
    twist = TWIST.twist
    monkeypatch.setattr(TWIST, "twist", lambda a, spec: seen.append(spec.c) or twist(a, spec))
    scan_c(alg, 2, f, g)
    assert len(seen) == calls
    assert not any(seen[0])
