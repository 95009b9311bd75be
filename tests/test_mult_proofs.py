"""The structural multiplicativity proofs of `forms._multiplicativity_proof`:
which route fires, that a route only ever proves, and that verdicts match the
enumeration of F^n (tests/reference_forms.py) on every field small enough for
it, and the pair walk the proofs replace over Q."""

import random

import pytest

import twistkit.forms as forms
from reference_forms import reference_multiplicative, reference_walk_multiplicative
from twistkit.algebra import Algebra
from twistkit.builders import (cayley_dickson, extension_as_algebra, ground_algebra,
                               number_field_algebra)
from twistkit.errors import DimensionError
from twistkit.fields import ExtensionField, PrimeField
from twistkit.forms import NormForm, _multiplicativity_proof, verify_multiplicative

# (p, n) of F_{p^n} as an n-dimensional algebra over F_p with its field norm
EXTENSIONS = {"F4": (2, 2), "F9": (3, 2), "F25": (5, 2), "F27": (3, 3),
              "F49": (7, 2), "F125": (5, 3)}
# the reference walks q^(2n) pairs: 15,625 on F125, which costs seconds
REFERENCE_ORDER = 100


def q_cubic():
    alg = number_field_algebra([-2, 0, 0, 1])
    alg.norm = NormForm.regrep_form(alg)
    return alg


def d5():
    f5 = PrimeField(5)
    return cayley_dickson(ground_algebra(f5), f5.element(2))


def squared_trace_h(H):
    """N(x) = 4 x_0^2 on H: homogeneous of degree 2, not multiplicative."""
    return NormForm.gram_form(H.field, [[4, 0, 0, 0], [0, 0, 0, 0],
                                        [0, 0, 0, 0], [0, 0, 0, 0]])


def random_tensor_algebra(p, n, rng):
    field = PrimeField(p)
    alg = Algebra(field, [[[field.element(rng.randrange(p)) for _ in range(n)]
                           for _ in range(n)] for _ in range(n)])
    alg.norm = NormForm.regrep_form(alg)
    return alg


def with_norm(alg, norm):
    alg.norm = norm
    return alg


def assert_matches_reference(alg, norm):
    verdict = verify_multiplicative(alg, norm)
    if alg.field.order() is None:
        assert verdict == reference_walk_multiplicative(alg, norm)
    elif alg.field.order() ** alg.dim < REFERENCE_ORDER:
        assert verdict == reference_multiplicative(alg, norm)
    return verdict


@pytest.mark.parametrize("name", list(EXTENSIONS))
def test_field_norms_take_the_associative_route(name):
    alg = extension_as_algebra(ExtensionField(*EXTENSIONS[name]))
    assert _multiplicativity_proof(alg, alg.norm) == "associative-regrep"
    assert assert_matches_reference(alg, alg.norm) is True


def test_cubic_number_field_takes_the_associative_route():
    alg = q_cubic()
    assert _multiplicativity_proof(alg, alg.norm) == "associative-regrep"
    assert assert_matches_reference(alg, alg.norm) is True


@pytest.mark.parametrize("name", ["H", "O", "D5"])
def test_composition_algebras_take_the_gram_route(name, H, O):
    alg = {"H": H, "O": O, "D5": d5()}[name]
    assert alg.norm.kind == "gram"
    assert _multiplicativity_proof(alg, alg.norm) == "gram-composition"
    assert assert_matches_reference(alg, alg.norm) is True


@pytest.mark.parametrize("p, n, seed", [(5, 2, 1), (7, 2, 2), (3, 3, 3), (5, 3, 4)])
def test_non_associative_regrep_is_walked(p, n, seed):
    alg = random_tensor_algebra(p, n, random.Random(seed))
    assert _multiplicativity_proof(alg, alg.norm) is None
    assert assert_matches_reference(alg, alg.norm) is False


def test_non_composition_gram_form_is_walked(H):
    tform = squared_trace_h(H)
    assert _multiplicativity_proof(H, tform) is None
    assert verify_multiplicative(H, tform) is False
    assert reference_walk_multiplicative(H, tform) is False


def test_regrep_norm_of_another_algebra_is_walked():
    """D5 (the doubling over F_5) and F25 are both associative of dimension
    2 over F_5, but det of D5's L_x is a norm of D5, not of F25."""
    f25 = extension_as_algebra(ExtensionField(5, 2))
    foreign = NormForm.regrep_form(d5())
    assert _multiplicativity_proof(f25, foreign) is None
    assert_matches_reference(f25, foreign)
    own = NormForm.regrep_form(extension_as_algebra(ExtensionField(5, 2)))
    assert _multiplicativity_proof(f25, own) == "associative-regrep"


@pytest.mark.parametrize("make, expected", [
    (lambda: ground_algebra(PrimeField(2)), True),
    (lambda: with_norm(extension_as_algebra(ExtensionField(2, 2)),
                       NormForm.gram_form(PrimeField(2), [[1, 0], [0, 1]])), False)],
    ids=["F2-square", "F4-sum-of-squares"])
def test_gram_forms_in_characteristic_2_are_walked(make, expected):
    alg = make()
    assert alg.norm.kind == "gram" and alg.field.characteristic == 2
    assert _multiplicativity_proof(alg, alg.norm) is None
    assert assert_matches_reference(alg, alg.norm) is expected


def test_cyclic_norms_are_walked(cyclicQ):
    assert _multiplicativity_proof(cyclicQ, cyclicQ.norm) is None
    assert assert_matches_reference(cyclicQ, cyclicQ.norm) is True


@pytest.mark.parametrize("p, n", [(3, 7), (5, 5)])
def test_cap_raises_before_any_proof(p, n, monkeypatch):
    alg = extension_as_algebra(ExtensionField(p, n))
    calls = []
    monkeypatch.setattr(forms, "_multiplicativity_proof",
                        lambda *args: calls.append(args))
    with pytest.raises(DimensionError, match="multiplicativity exhaustion cap exceeded"):
        verify_multiplicative(alg, alg.norm)
    assert calls == []


def test_dimension_mismatch_raises_before_any_proof(H, F9, monkeypatch):
    calls = []
    monkeypatch.setattr(forms, "_multiplicativity_proof",
                        lambda *args: calls.append(args))
    with pytest.raises(DimensionError, match="norm does not match the algebra"):
        verify_multiplicative(H, F9.norm)
    assert calls == []


def test_a_proof_skips_the_walk(F27, monkeypatch):
    """A proved norm is not evaluated at all; a norm the routes leave to the
    walk still is."""
    calls = []
    monkeypatch.setattr(forms, "_regrep_det_mod_p",
                        lambda *args: calls.append(1) or 0)
    assert verify_multiplicative(F27, F27.norm)
    assert calls == []
    alg = random_tensor_algebra(3, 2, random.Random(5))
    verify_multiplicative(alg, alg.norm)
    assert calls
