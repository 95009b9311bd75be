"""Twist engine: the twelve products, criteria, Kaplanski trick, scans."""

import pytest

from twistkit.algebra import tensor_eq
from twistkit.builders import extension_as_algebra, make_map
from twistkit.errors import CapExceeded, HypothesisError, KaplanskiError
from twistkit.fields import ExtensionField, PrimeField
from twistkit.fixtures import split_qq
from twistkit.linalg import Matrix, vec_eq, vec_is_zero, vec_scale, vector_at
from twistkit.twist import (CyclicSubfield, TwistSpec, commutative_twist,
                            division_exhaustive, division_probe_char0,
                            iff_criterion, norm_criterion, run_twist, scan_c,
                            twist, unitalize)


def frob_spec(alg, variant, c, s=1, t=1):
    f = make_map(alg, f"frob:{s}")
    g = make_map(alg, f"frob:{t}")
    return TwistSpec(variant=variant, c=c, f=f, g=g)


def test_twist_c_zero_reproduces_product(H, F9):
    for alg, f in ((H, make_map(H, "conj")), (F9, make_map(F9, "frob:1"))):
        for variant in range(1, 13):
            spec = TwistSpec(variant=variant, c=alg.zero(), f=f, g=f)
            assert tensor_eq(twist(alg, spec), alg)


def test_twist_f9_zero_divisor_frozen(F9):
    spec = frob_spec(F9, 1, F9.basis(1))       # c = t
    circ = twist(F9, spec)
    one, tp1 = F9.basis(0), F9.element_from_string("[1,1]")
    assert vec_is_zero(circ.multiply(one, tp1))
    status, witness = division_exhaustive(circ)
    assert status == "zero-divisor"
    assert vec_eq(witness[0], one) and vec_eq(witness[1], tp1)


def test_twist_central_scalar_is_scaled_product(H):
    ident = Matrix.identity(H.field, 4)
    spec = TwistSpec(variant=1, c=H.scalar_vec(2), f=ident, g=ident)
    circ = twist(H, spec)
    for i in range(4):
        for j in range(4):
            assert vec_eq(circ.table[i][j],
                          vec_scale(H.field.element(-1), H.table[i][j]))


def test_variant_symmetry_commutative(F9, F27):
    # same f = g on a field block: all twelve tensors coincide
    frob = make_map(F9, "frob:1")
    c = F9.element_from_string("[1,1]")
    tensors = [twist(F9, TwistSpec(variant=v, c=c, f=frob, g=frob))
               for v in range(1, 13)]
    assert all(tensor_eq(tensors[0], t) for t in tensors[1:])
    # distinct powers: variants 1-6 agree, 7-12 agree, the groups differ
    s1, s2 = make_map(F27, "frob:1"), make_map(F27, "frob:2")
    c27 = F27.basis(1)
    group1 = [twist(F27, TwistSpec(variant=v, c=c27, f=s1, g=s2))
              for v in range(1, 7)]
    group2 = [twist(F27, TwistSpec(variant=v, c=c27, f=s1, g=s2))
              for v in range(7, 13)]
    assert all(tensor_eq(group1[0], t) for t in group1[1:])
    assert all(tensor_eq(group2[0], t) for t in group2[1:])
    assert not tensor_eq(group1[0], group2[0])


def test_norm_criterion_spec_values(H, F9):
    conj = make_map(H, "conj")
    crit = norm_criterion(H, TwistSpec(variant=1, c=H.scalar_vec(2), f=conj, g=conj))
    assert crit.verdict == "guaranteed"
    assert crit.norm_of_c == H.field.element(4)
    assert crit.threshold == H.field.element(1)
    frob = make_map(F9, "frob:1")
    crit = norm_criterion(F9, TwistSpec(variant=1, c=F9.basis(1), f=frob, g=frob))
    assert crit.verdict == "not-guaranteed"


def test_norm_criterion_inapplicable_without_certificate():
    kalg = extension_as_algebra(ExtensionField(3, 2))
    sigma = make_map(kalg, "frob:1")
    from twistkit.builders import cyclic_algebra
    a = cyclic_algebra(kalg, sigma, PrimeField(3).element(2))
    ident = Matrix.identity(a.field, 4)
    crit = norm_criterion(a, TwistSpec(variant=1, c=a.basis(1), f=ident, g=ident))
    assert crit.verdict == "inapplicable"


def test_norm_criterion_with_h_and_pre_isotope(H):
    conj = make_map(H, "conj")
    ident = Matrix.identity(H.field, 4)
    dbl = ident.scale(H.field.element(2))      # similarity factor 4
    spec = TwistSpec(variant=1, c=H.scalar_vec("1/4"), f=conj, g=conj,
                     h=dbl, pre_isotope=(dbl, ident, ident))
    crit = norm_criterion(H, spec)
    # threshold = 1/(1*1*4*4*1*1) = 1/16 = N(1/4)
    assert crit.threshold == H.field.parse("1/16")
    assert crit.norm_of_c == H.field.parse("1/16")
    assert crit.verdict == "not-guaranteed"
    spec2 = TwistSpec(variant=1, c=H.scalar_vec(2), f=conj, g=conj,
                      h=dbl, pre_isotope=(dbl, ident, ident))
    assert norm_criterion(H, spec2).verdict == "guaranteed"


def test_twist_with_h_matches_manual(H):
    conj = make_map(H, "conj")
    dbl = Matrix.identity(H.field, 4).scale(H.field.element(2))
    c = H.scalar_vec(3)
    spec = TwistSpec(variant=2, c=c, f=conj, g=conj, h=dbl)
    circ = twist(H, spec)
    for i in range(4):
        for j in range(4):
            p, q = conj.column(i), conj.column(j)
            sub = dbl.apply(H.multiply(H.multiply(c, p), q))
            want = [a - b for a, b in zip(H.table[i][j], sub)]
            assert vec_eq(circ.table[i][j], want)


def test_iff_criterion_f9(F9):
    frob = make_map(F9, "frob:1")
    sub = CyclicSubfield(basis=[F9.basis(0), F9.basis(1)], sigma=frob,
                         degree=2, s=1, t=1)
    for ci in range(9):
        c = vector_at(F9.field, 2, ci)
        spec = TwistSpec(variant=1, c=c, f=frob, g=frob)
        verdict = iff_criterion(F9, spec, sub)
        status, _ = division_exhaustive(twist(F9, spec))
        assert (verdict == "division") == (status == "certified")


def test_iff_criterion_f27_norm_kernel(F27):
    s1, s2 = make_map(F27, "frob:1"), make_map(F27, "frob:2")
    sub = CyclicSubfield(basis=[F27.basis(i) for i in range(3)], sigma=s1,
                         degree=3, s=1, t=2)
    # c = t^2 is a square, hence lies in the norm kernel: not division
    t = ExtensionField(3, 3).gen()
    c = [PrimeField(3).element(v) for v in (t * t).payload]
    spec = TwistSpec(variant=1, c=c, f=s1, g=s2)
    assert iff_criterion(F27, spec, sub) == "not-division"
    assert division_exhaustive(twist(F27, spec))[0] == "zero-divisor"


def test_iff_criterion_agrees_exhaustively_f27(F27):
    s1, s2 = make_map(F27, "frob:1"), make_map(F27, "frob:2")
    sub = CyclicSubfield(basis=[F27.basis(i) for i in range(3)], sigma=s1,
                         degree=3, s=1, t=2)
    for ci in range(27):
        c = vector_at(F27.field, 3, ci)
        spec = TwistSpec(variant=1, c=c, f=s1, g=s2)
        verdict = iff_criterion(F27, spec, sub)
        status, _ = division_exhaustive(twist(F27, spec))
        assert (verdict == "division") == (status == "certified")


def test_iff_criterion_inapplicable(F9):
    frob = make_map(F9, "frob:1")
    ident = Matrix.identity(F9.field, 2)
    # s = t = 0: neither power is prime to the degree
    sub = CyclicSubfield(basis=[F9.basis(0), F9.basis(1)], sigma=frob,
                         degree=2, s=0, t=0)
    spec = TwistSpec(variant=1, c=F9.basis(1), f=ident, g=ident)
    assert iff_criterion(F9, spec, sub) == "inapplicable"
    # f does not restrict to a sigma^s multiple: claim s=1 for f=id
    sub2 = CyclicSubfield(basis=[F9.basis(0), F9.basis(1)], sigma=frob,
                          degree=2, s=1, t=1)
    assert iff_criterion(F9, spec, sub2) == "inapplicable"


def test_unitalize_spec_example(F9):
    spec = frob_spec(F9, 1, F9.element_from_string("[1,1]"))
    circ = twist(F9, spec)
    star = unitalize(circ, F9.unit, F9.unit)
    assert vec_eq(star.unit, F9.element_from_string("[0,2]"))     # 2t
    assert star.find_unit() is not None
    # already-unital input with a = b = unit reproduces the table
    again = unitalize(star, star.unit, star.unit)
    assert tensor_eq(again, star)


def test_unitalize_quaternion_negative_unit(H):
    conj = make_map(H, "conj")
    spec = TwistSpec(variant=1, c=H.scalar_vec(2), f=conj, g=conj)
    circ = twist(H, spec)
    star = unitalize(circ, H.unit, H.unit)
    assert vec_eq(star.unit, vec_scale(H.field.element(-1), H.unit))


def test_unitalize_singular_side_fails_loudly(F9):
    spec = frob_spec(F9, 1, F9.basis(1))       # non-division twist, c = t
    circ = twist(F9, spec)
    with pytest.raises(KaplanskiError):
        unitalize(circ, F9.unit, F9.unit)


def test_division_exhaustive_field_and_cap(F9, monkeypatch):
    assert division_exhaustive(F9)[0] == "certified"
    import sys
    twist_mod = sys.modules["twistkit.twist"]
    monkeypatch.setattr(twist_mod, "EXHAUSTIVE_CAP", 2)
    with pytest.raises(CapExceeded):
        division_exhaustive(F9)


def test_probe_char0(H, cyclicQ):
    conj = make_map(H, "conj")
    spec = TwistSpec(variant=1, c=H.scalar_vec(2), f=conj, g=conj)
    circ = twist(H, spec)
    rep = division_probe_char0(circ, 100)
    assert rep.describe() == "no-counterexample(100)"
    assert rep.seed == 0
    rep0 = division_probe_char0(circ, 0)
    assert rep0.describe() == "no-counterexample(0)"
    split = split_qq()
    repqq = division_probe_char0(split, 5)
    assert repqq.status == "zero-divisor"
    assert vec_eq(repqq.witness[0], split.basis(0))
    assert vec_eq(repqq.witness[1], split.basis(1))


def test_scan_counts_and_agreement(F9, F27, F4):
    frob9 = make_map(F9, "frob:1")
    rep = scan_c(F9, 1, frob9, frob9)
    assert rep.division_count() == 5 and len(rep.records) == 9
    # division exactly where N(c) != 1 (c = 0 or nonsquare)
    for r in rep.records:
        is_div = r.status == "division"
        assert is_div == (r.norm_of_c != F9.field.element(1))
        assert (r.criterion == "guaranteed") == is_div
    s1, s2 = make_map(F27, "frob:1"), make_map(F27, "frob:2")
    rep27 = scan_c(F27, 1, s1, s2)
    assert rep27.division_count() == 14
    assert len(rep27.records) - rep27.division_count() == 13
    frob4 = make_map(F4, "frob:1")
    rep4 = scan_c(F4, 1, frob4, frob4)
    assert rep4.division_count() == 1
    assert len(rep4.records) == 4


def test_scan_line_format(F9):
    frob = make_map(F9, "frob:1")
    rep = scan_c(F9, 1, frob, frob, f_desc="frob:1", g_desc="frob:1")
    lines = rep.lines()
    assert lines[0] == "# scan algebra=F9 variant=1 f=frob:1 g=frob:1 seed=0"
    assert lines[1] == "c=[0,0] N(c)=0 status=division criterion=guaranteed"
    assert lines[4] == ("c=[0,1] N(c)=1 status=zero-divisor([1,0];[1,1]) "
                        "criterion=not-guaranteed")


def test_run_twist_transports_witness():
    split = split_qq()
    ident = Matrix.identity(split.field, 2)
    spec = TwistSpec(variant=1, c=split.zero(), f=ident, g=ident,
                     kaplanski=(split.unit, split.unit))
    result = run_twist(split, spec, probe_trials=10)
    assert result.division_status == "zero-divisor"
    assert result.star is not None
    assert vec_is_zero(result.star.multiply(*result.star_witness))


def test_commutative_twist_f125(F125):
    sigma = make_map(F125, "frob:1")
    one = F125.unit
    minus_one = vec_scale(F125.field.element(4), F125.unit)
    rep = commutative_twist(F125, sigma, 1, 2, one, one, minus_one)
    assert rep.commutative and rep.witness is None
    assert not rep.closed_form_matches
    assert rep.division_status == "division"


def test_commutative_twist_noncommutative_witness(F125):
    # a = t is moved by sigma^t, so the diamond product cannot be symmetric
    sigma = make_map(F125, "frob:1")
    a = F125.basis(1)
    # need a b c = -1: take b = 1, c = -a^{-1}
    K = ExtensionField(5, 3)
    ainv = K.element([0, 1, 0]).inverse()
    c = [F125.field.element(v) for v in (-ainv).payload]
    rep = commutative_twist(F125, sigma, 1, 2, a, F125.unit, c)
    assert not rep.commutative
    assert rep.witness is not None


def test_commutative_twist_hypothesis_errors(F9, F4, F125):
    sig9 = make_map(F9, "frob:1")
    with pytest.raises(HypothesisError):
        commutative_twist(F9, sig9, 1, 1, F9.unit, F9.unit, F9.unit)  # n even
    sig4 = make_map(F4, "frob:1")
    with pytest.raises(HypothesisError):
        commutative_twist(F4, sig4, 1, 1, F4.unit, F4.unit, F4.unit)  # char 2
    sig = make_map(F125, "frob:1")
    with pytest.raises(HypothesisError):
        commutative_twist(F125, sig, 1, 2, F125.unit, F125.unit, F125.unit)  # abc != -1
    with pytest.raises(HypothesisError):
        minus_one = vec_scale(F125.field.element(4), F125.unit)
        commutative_twist(F125, sig, 0, 3, F125.unit, F125.unit, minus_one)  # s = 0
