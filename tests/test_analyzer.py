"""Derivation algebras, automorphism checks, containment reports."""

import pytest

from twistkit import analyzer
from twistkit.analyzer import (containment_check, derivation_family,
                               derivations, derivations_fixing,
                               inner_automorphism_family, inner_derivation,
                               is_automorphism, is_derivation)
from twistkit.builders import make_map
from twistkit.errors import CapExceeded
from twistkit.fields import RationalField
from twistkit.fixtures import INNER_SAMPLE_H
from twistkit.linalg import Matrix, vec_eq, vec_is_zero, vec_scale
from twistkit.twist import TwistSpec, run_twist, twist


def test_derivation_dimensions(H, O, F9):
    assert derivations(H).dim == 3
    assert derivations(O).dim == 14
    assert derivations(F9).dim == 0


def test_derivation_basis_satisfies_leibniz_and_kills_unit(H, O):
    for alg in (H, O):
        space = derivations(alg)
        for d in space.basis:
            ok, _ = is_derivation(alg, d)
            assert ok
            assert vec_is_zero(d.apply(alg.unit))


def test_bracket_table_is_built_on_first_read(H, monkeypatch):
    """derivations() builds no bracket table; the first read of .bracket
    builds it once, and derivation_report still carries it."""
    calls = []
    table = analyzer._bracket_table
    monkeypatch.setattr(analyzer, "_bracket_table",
                        lambda space: calls.append(1) or table(space))
    space = derivations(H)
    assert space.dim == 3 and calls == []
    assert space.bracket is space.bracket and calls == [1]
    assert len(analyzer.derivation_report(H)["bracket"]) == 3 and calls == [1, 1]


def test_bracket_closure_and_antisymmetry(H):
    space = derivations(H)
    dim = space.dim
    for a in range(dim):
        for b in range(dim):
            br = (space.basis[a] @ space.basis[b]) - (space.basis[b] @ space.basis[a])
            coords = space.bracket[a][b]
            recon = Matrix.zero(H.field, 4)
            for c, dmat in zip(coords, space.basis):
                recon = recon + dmat.scale(c)
            assert recon == br
            assert all(x == -y for x, y in zip(space.bracket[a][b],
                                               space.bracket[b][a]))


def test_derivations_fixing(H):
    # killing the unit (or any scalar) changes nothing
    assert derivations_fixing(H, H.unit).dim == 3
    assert derivations_fixing(H, H.scalar_vec(5)).dim == 3
    space = derivations_fixing(H, H.basis(1))
    assert space.dim == 1
    assert space.contains(inner_derivation(H, H.basis(1))) is not None


def test_rational_cap():
    # a 10-dimensional rational algebra exceeds the 81-unknown cap
    q = RationalField()
    n = 10
    zero, one = q.zero(), q.one()
    table = [[[one if k == 0 else zero for k in range(n)] for _ in range(n)]
             for _ in range(n)]
    from twistkit.algebra import Algebra
    alg = Algebra(q, table)
    with pytest.raises(CapExceeded):
        derivations(alg)


def test_is_automorphism(H):
    ok, _ = is_automorphism(H, make_map(H, "inner:[1,1,0,0]"))
    assert ok
    conj = make_map(H, "conj")
    ok, witness = is_automorphism(H, conj)
    assert not ok and witness == (1, 2)
    ok, witness = is_automorphism(H, Matrix.zero(H.field, 4))
    assert not ok and witness == "singular"


def test_is_derivation(H, O):
    assert is_derivation(H, Matrix.zero(H.field, 4))[0]
    di = inner_derivation(H, H.basis(1))
    assert is_derivation(H, di)[0]
    dio = inner_derivation(O, O.basis(1))
    ok, witness = is_derivation(O, dio)
    assert not ok and witness is not None


def test_inner_derivation_values(H):
    assert inner_derivation(H, H.scalar_vec(7)) == Matrix.zero(H.field, 4)
    di = inner_derivation(H, H.basis(1))
    assert vec_eq(di.apply(H.basis(2)), vec_scale(H.field.element(2), H.basis(3)))
    assert vec_eq(di.apply(H.basis(3)), vec_scale(H.field.element(-2), H.basis(2)))
    assert vec_is_zero(di.apply(H.unit))
    assert vec_is_zero(di.apply(H.basis(1)))


def test_derivation_conjugation_invariance(H):
    # F D F^-1 is again a derivation for any automorphism F
    f = make_map(H, "inner:[1,1,0,0]")
    finv = f.inverse()
    for d in derivations(H).basis:
        assert is_derivation(H, f @ d @ finv)[0]


def test_containment_inner_family_on_twisted(H):
    conj = make_map(H, "conj")
    spec = TwistSpec(variant=1, c=H.scalar_vec(2), f=conj, g=conj)
    star = run_twist(H, spec).star
    fam = inner_automorphism_family(H, INNER_SAMPLE_H, f=conj, c=H.scalar_vec(2))
    assert len(fam.members) == 20
    assert all(hyp for _, _, hyp in fam.members)
    rep = containment_check(star, fam, check_dim=True)
    assert rep["hypothesis_members_all_pass"]
    assert all(c["pass"] for c in rep["checks"])
    assert rep["der_dim"] >= 3


def test_containment_derivations_on_twisted_octonions(O):
    conj = make_map(O, "conj")
    spec = TwistSpec(variant=1, c=O.scalar_vec(2), f=conj, g=conj)
    star = run_twist(O, spec).star
    fam = derivation_family(O, f=conj, g=conj, c=O.scalar_vec(2))
    assert fam.injected_dim == 14
    rep = containment_check(star, fam, check_dim=True)
    assert rep["hypothesis_members_all_pass"]
    assert rep["der_dim"] >= 14
    assert rep["dim_bound_holds"]


def test_containment_dc_on_cyclic_circ(cyclicQ):
    fmap = make_map(cyclicQ, {"map": "inner", "q": [1, 1, 0, 0]})
    gmap = make_map(cyclicQ, {"map": "inner", "q": [3, 1, 0, 0]})
    c = cyclicQ.basis(1)
    spec = TwistSpec(variant=1, c=c, f=fmap, g=gmap)
    circ = twist(cyclicQ, spec)
    dc = inner_derivation(cyclicQ, c)
    assert any(any(row) for row in dc.rows)        # d_c is nonzero
    assert is_derivation(circ, dc)[0]
