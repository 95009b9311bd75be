"""`scan_c` computes the norm criterion once per scan and one N(c) per c;
its report must be byte-identical to the scan that computed the whole
criterion for every c (tests/reference_scan.py), and it must raise the same
errors in the same order."""

import sys
from functools import lru_cache

import pytest

from reference_scan import reference_norm_criterion, reference_scan_c
from twistkit import forms
from twistkit.algebra import Algebra
from twistkit.builders import extension_as_algebra, make_map
from twistkit.fields import ExtensionField
from twistkit.linalg import Matrix
from twistkit.twist import TwistSpec, norm_criterion, scan_c

TWIST = sys.modules["twistkit.twist"]   # the module; `twistkit.twist` is the function

FIELDS = {"F4": (2, 2), "F9": (3, 2), "F25": (5, 2), "F27": (3, 3),
          "F49": (7, 2), "F125": (5, 3)}


@lru_cache(maxsize=None)
def field_algebra(label):
    p, n = FIELDS[label]
    return extension_as_algebra(ExtensionField(p, n), label=label)


def fresh(label):
    """A new algebra, so no multiplicativity verdict is cached on its norm."""
    p, n = FIELDS[label]
    return extension_as_algebra(ExtensionField(p, n), label=label)


def shear(field, n):
    """x -> x + x_1 e_0: invertible and not a similarity of the field norm."""
    return Matrix(field, [[field.element(int(i == j or (i, j) == (0, 1))) for j in range(n)]
                          for i in range(n)])


def assert_same_scan(alg, variant, f, g, f_desc="f", g_desc="g"):
    new = scan_c(alg, variant, f, g, f_desc=f_desc, g_desc=g_desc).text()
    assert new == reference_scan_c(alg, variant, f, g, f_desc=f_desc, g_desc=g_desc).text()
    return new


def frob_scan(label, variant, s, t):
    alg = field_algebra(label)
    f, g = make_map(alg, f"frob:{s}"), make_map(alg, f"frob:{t}")
    return assert_same_scan(alg, variant, f, g, f"frob:{s}", f"frob:{t}")


@pytest.mark.parametrize("variant", range(1, 13))
def test_every_variant_matches_reference(variant):
    """Every variant on F4, F9 and F27, with Frobenius pairs where s or t is
    prime to the degree."""
    frob_scan("F4", variant, 1, variant % 2)
    frob_scan("F9", variant, variant % 2, 1)
    frob_scan("F27", variant, 1 + variant % 2, variant % 3)


@pytest.mark.parametrize("label, variant, s, t", [
    ("F25", 1, 1, 1), ("F25", 8, 0, 1), ("F27", 1, 1, 2), ("F49", 1, 1, 0),
    ("F49", 11, 1, 1), ("F125", 1, 1, 2), ("F125", 6, 2, 0)])
def test_fields_match_reference(label, variant, s, t):
    text = frob_scan(label, variant, s, t)
    assert "criterion=guaranteed" in text


def test_albert_f27_verdicts():
    """variant 1, frob:1/frob:2 on F27: 14 division, the criterion
    guarantees exactly the c with N(c) != 1."""
    text = frob_scan("F27", 1, 1, 2)
    lines = text.splitlines()[1:]
    assert sum("status=division" in line for line in lines) == 14
    assert all(("N(c)=1 " in line) == ("criterion=not-guaranteed" in line)
               for line in lines)


@pytest.mark.parametrize("label", ["F9", "F27"])
def test_inapplicable_base_matches_reference(label):
    """A shear f is no similarity: every c reads inapplicable and N(c) is
    still printed."""
    alg = field_algebra(label)
    text = assert_same_scan(alg, 2, shear(alg.field, alg.dim), make_map(alg, "frob:1"))
    assert text.count("criterion=inapplicable") == alg.field.order() ** alg.dim
    assert "N(c)=?" not in text


def test_algebra_without_norm_matches_reference():
    src = field_algebra("F9")
    alg = Algebra(src.field, src.table, unit=src.unit, label="F9-bare")
    ident = Matrix.identity(alg.field, alg.dim)
    text = assert_same_scan(alg, 3, ident, ident)
    assert text.count("N(c)=? ") == 9 and "criterion=inapplicable" in text


def test_one_criterion_per_scan(monkeypatch):
    """norm_criterion runs once per scan, and the similarity check once per
    map; the reference runs both for every c."""
    calls = {"crit": 0, "sim": 0}
    crit, sim = TWIST.norm_criterion, TWIST.verify_similarity

    def counted_crit(*args):
        calls["crit"] += 1
        return crit(*args)

    def counted_sim(*args):
        calls["sim"] += 1
        return sim(*args)
    monkeypatch.setattr(TWIST, "norm_criterion", counted_crit)
    monkeypatch.setattr(TWIST, "verify_similarity", counted_sim)
    alg = field_algebra("F27")
    scan_c(alg, 1, make_map(alg, "frob:1"), make_map(alg, "frob:2"))
    assert calls == {"crit": 1, "sim": 2}


def test_norm_criterion_is_the_composition():
    """norm_criterion at every c of F9 equals the reference's report."""
    alg = field_algebra("F9")
    f, g = make_map(alg, "frob:1"), make_map(alg, "frob:1")
    for c in ([0, 0], [1, 0], [0, 1], [2, 2]):
        spec = TwistSpec(1, c, f, g)
        assert norm_criterion(alg, spec) == reference_norm_criterion(alg, spec)


def raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_singular_f_raises_the_twist_error_first():
    """The twist's singular-map error comes before the criterion's."""
    alg = fresh("F9")
    zero = Matrix.zero(alg.field, 2)
    g = make_map(alg, "frob:1")
    new = raised(scan_c, alg, 1, zero, g)
    assert new == raised(reference_scan_c, alg, 1, zero, g)
    assert new[1] == "twist map f is singular"


@pytest.mark.parametrize("singular_f", [False, True])
def test_cap_error_matches_reference(monkeypatch, singular_f):
    """With the point cap lowered, the multiplicativity check raises in both
    scans, after the first c's twist (so a singular f still wins)."""
    monkeypatch.setattr(forms, "EXHAUSTIVE_CAP", 100)
    results = []
    for fn in (scan_c, reference_scan_c):
        alg = fresh("F27")
        f = Matrix.zero(alg.field, 3) if singular_f else make_map(alg, "frob:1")
        results.append(raised(fn, alg, 1, f, make_map(alg, "frob:2")))
    assert results[0] == results[1]
    assert results[0][1] == ("twist map f is singular" if singular_f
                             else "multiplicativity exhaustion cap exceeded")
