"""The analyzer's one-elimination paths against the ones they replaced
(tests/reference_analyzer.py): derivation bases, bracket tables and every
nucleus entry by entry, the elimination and associator counts, and the
closure check."""

import pytest

import reference_analyzer as ref
from reference_analyzer import SIDES, entries
from twistkit import algebra as algebra_mod
from twistkit.algebra import Algebra, nucleus
from twistkit.analyzer import (DerivationSpace, _bracket_table, derivations,
                               derivations_fixing, inner_derivation)
from twistkit.builders import cayley_dickson, ground_algebra
from twistkit.errors import DimensionError, HypothesisError
from twistkit.fields import ExtensionField, PrimeField, RationalField
from twistkit.fixtures import fixture
from twistkit.linalg import Matrix
from twistkit.twist import run_twist, twist_spec_from_parts


def twisted_star(name):
    """The twist-containment scenario's T1.star (H) or TO.star (O): variant 1,
    c = 2, f = g = conj."""
    alg = fixture(name)
    return run_twist(alg, twist_spec_from_parts(alg, 1, "2", "conj", "conj")).star


def zero_algebra():
    return Algebra(RationalField(), [[[RationalField().zero()]]])


# name: (constructor, (dim Der, dim of the nucleus, dim of the center))
ALGEBRAS = {
    "H": (lambda: fixture("H"), (3, 4, 1)),
    "O": (lambda: fixture("O"), (14, 1, 1)),
    "cyclicQ": (lambda: fixture("cyclicQ"), (3, 4, 1)),
    "F9": (lambda: fixture("F9"), (0, 2, 2)),
    "F27": (lambda: fixture("F27"), (0, 3, 3)),
    "D5": (lambda: cayley_dickson(ground_algebra(PrimeField(5)), PrimeField(5).element(2)),
           (0, 2, 2)),
    "ground-F9": (lambda: ground_algebra(ExtensionField(3, 2)), (0, 1, 1)),
    "CD(ground-F9)": (lambda: cayley_dickson(ground_algebra(ExtensionField(3, 2)),
                                             ExtensionField(3, 2).element_at(5)), (0, 2, 2)),
    "T1.star": (lambda: twisted_star("H"), (3, 1, 1)),
    "TO.star": (lambda: twisted_star("O"), (14, 1, 1)),
    "zero": (zero_algebra, (1, 1, 1)),
}


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_matches_reference(name):
    build, dims = ALGEBRAS[name]
    alg = build()
    space = derivations(alg)
    basis, bracket = ref.derivations(alg)
    assert entries(space.basis) == entries(basis)
    assert entries(space.bracket) == entries(bracket)
    for side in SIDES:
        assert entries(nucleus(alg, side)) == entries(ref.nucleus(alg, side)), side
    assert (space.dim, len(nucleus(alg, "all")), len(nucleus(alg, "center"))) == dims


@pytest.mark.parametrize("c", [[1, 0, 0, 0], [5, 0, 0, 0], [0, 1, 0, 0]])
def test_derivations_fixing_matches_reference(H, c):
    space = derivations_fixing(H, c)
    basis, bracket = ref.derivations(H, fixing=c)
    assert entries(space.basis) == entries(basis)
    assert entries(space.bracket) == entries(bracket)
    assert space.dim == (1 if c[1] else 3)


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("name", ["H", "O", "F9", "zero"])
def test_one_elimination_per_derivation_space(name, monkeypatch):
    alg = ALGEBRAS[name][0]()
    rrefs = counting(monkeypatch, Matrix, "rref")
    solves = counting(monkeypatch, Matrix, "solve")
    derivations(alg)
    derivations_fixing(alg, alg.basis(0))
    assert len(rrefs) == 2 and not solves


@pytest.mark.parametrize("name", ["H", "F9", "zero"])
def test_one_associator_tensor_per_nucleus(name, monkeypatch):
    alg = ALGEBRAS[name][0]()
    calls = counting(monkeypatch, algebra_mod, "associator")
    for side in SIDES:
        calls.clear()
        nucleus(alg, side)
        assert len(calls) == alg.dim**3, side
    with pytest.raises(DimensionError):
        nucleus(alg, "sideways")


def test_contains_reads_the_free_entries(H):
    space = derivations(H)
    ident = Matrix.identity(H.field, 4)
    assert space.contains(ident) is None
    assert ref.contains(space, ident) is None
    inner = inner_derivation(H, [0, 1, 2, 0])
    coords = space.contains(inner)
    assert coords is not None
    assert entries(coords) == entries(ref.contains(space, inner))


def elementary(field, n, r, c):
    m = Matrix.zero(field, n)
    m.rows[r][c] = field.one()
    return m


def test_bracket_outside_the_span_raises(H):
    # [E01, E10] = E00 - E11, which is not in the span of E01 and E10
    space = DerivationSpace(H, [elementary(H.field, 4, 0, 1), elementary(H.field, 4, 1, 0)])
    assert space.contains(elementary(H.field, 4, 0, 0)) is None
    with pytest.raises(HypothesisError):
        _bracket_table(space)


def test_unreduced_basis_is_refused(H):
    both = elementary(H.field, 4, 0, 1) + elementary(H.field, 4, 1, 0)
    with pytest.raises(DimensionError):
        DerivationSpace(H, [both, elementary(H.field, 4, 1, 0)])
    with pytest.raises(DimensionError):
        DerivationSpace(H, [Matrix.zero(H.field, 4)])
