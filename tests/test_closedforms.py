"""Closed-form inverses and star products against the generic pipeline."""

import hashlib

import pytest

from twistkit.algebra import tensor_eq
from twistkit.analyzer import is_isomorphism
from twistkit.builders import make_map
from twistkit.closedforms import (closed_form_inverse, involution_inverse,
                                  involution_star, scalar_reflections_star,
                                  quaternion_reflections_star,
                                  reflection_inverse, series_inverse,
                                  star_case, twisted_map_matrix)
from twistkit.errors import HypothesisError, SpecError
from twistkit.linalg import Matrix, format_vector
from twistkit.twist import TwistSpec, run_twist


def test_involution_inverse_frozen(H):
    conj = make_map(H, "conj")
    fmat = twisted_map_matrix(H, H.scalar_vec(2), "left", conj)
    finv = involution_inverse(H, 2, conj)
    # -(1/3)(x + 2 conj(x))
    third = H.field.parse("-1/3")
    want = (Matrix.identity(H.field, 4) + conj.scale(H.field.element(2))).scale(third)
    assert finv == want
    assert fmat @ finv == Matrix.identity(H.field, 4)
    assert finv == fmat.inverse()


def test_reflection_inverse_and_series_collapse(H):
    href = make_map(H, {"map": "reflection", "q": [0, 1, 0, 0]})
    rinv = reflection_inverse(H, 2, href)
    fmat = twisted_map_matrix(H, H.scalar_vec(2), "left", href)
    assert fmat @ rinv == Matrix.identity(H.field, 4)
    sinv = series_inverse(H, H.scalar_vec(2), href, 2, side="left")
    assert sinv == rinv


def test_series_inverse_nonscalar_both_sides(cyclicQ):
    fu = make_map(cyclicQ, {"map": "inner", "q": [0, 0, 1, 0]})
    c = cyclicQ.basis(1)                        # sqrt2, not central
    for side in ("left", "right"):
        fmat = twisted_map_matrix(cyclicQ, c, side, fu)
        sinv = series_inverse(cyclicQ, c, fu, 2, side=side)
        assert fmat @ sinv == Matrix.identity(cyclicQ.field, 4)
        assert sinv == fmat.inverse()


def test_series_inverse_hypothesis_failures(H, cyclicQ):
    conj = make_map(H, "conj")
    not_invol = make_map(H, "inner:[1,1,0,0]")  # order 4, not 2
    with pytest.raises(HypothesisError):
        series_inverse(H, H.scalar_vec(2), not_invol, 2)
    fu = make_map(cyclicQ, {"map": "inner", "q": [0, 0, 1, 0]})
    # c sigma(c) = 1 for c = 3 + 2 sqrt2 blocks the series denominator
    c = cyclicQ.element_from_string("[3,2,0,0]")
    with pytest.raises(HypothesisError):
        series_inverse(cyclicQ, c, fu, 2)
    with pytest.raises(HypothesisError):
        involution_inverse(H, 1, conj)


def test_closed_form_inverse_dispatch(H):
    conj = make_map(H, "conj")
    m = closed_form_inverse(H, "involution", 2, conj)
    assert m == twisted_map_matrix(H, H.scalar_vec(2), "left", conj).inverse()
    with pytest.raises(HypothesisError):
        closed_form_inverse(H, "nope", 2, conj)


@pytest.mark.parametrize("c", [2, 3, -2])
def test_scalar_reflections_corrected_matches_generic(H, c):
    fi = make_map(H, "inner:[0,1,0,0]")
    gj = make_map(H, "inner:[0,0,1,0]")
    cmp = scalar_reflections_star(H, fi, gj, c)
    assert cmp.matches
    assert cmp.first_mismatch is None


def test_scalar_reflections_verbatim_spot_value(H):
    fi = make_map(H, "inner:[0,1,0,0]")
    gj = make_map(H, "inner:[0,0,1,0]")
    cmp = scalar_reflections_star(H, fi, gj, 2)
    assert format_vector(cmp.closed_verbatim.table[1][2]) == "[0,0,0,-13/9]"
    assert format_vector(cmp.generic.table[1][2]) == "[0,0,0,-1]"
    assert cmp.verbatim_matches is False
    assert cmp.findings() and cmp.findings()[0]["formula"] == "verbatim"


def test_scalar_reflections_hypotheses(H):
    fi = make_map(H, "inner:[0,1,0,0]")
    with pytest.raises(HypothesisError):
        scalar_reflections_star(H, fi, fi, 1)
    with pytest.raises(HypothesisError):
        scalar_reflections_star(H, fi, fi, -1)


@pytest.mark.parametrize("case", ["1", "7.1", "7.2"])
@pytest.mark.parametrize("c", ["2", "1/2", "-3"])
def test_involution_star_quaternions(H, case, c):
    conj = make_map(H, "conj")
    cmp = involution_star(H, conj, H.field.parse(c), case)
    assert cmp.matches


@pytest.mark.parametrize("case", ["1", "7.1", "7.2"])
def test_involution_star_octonions(O, case):
    conj = make_map(O, "conj")
    cmp = involution_star(O, conj, O.field.element(2), case)
    assert cmp.matches


def test_involution_star_degenerate_c_zero(H):
    # c = 0 passes the c != +-1 hypothesis and both routes must reproduce
    # the original product
    conj = make_map(H, "conj")
    cmp = involution_star(H, conj, H.field.zero(), "1")
    assert cmp.matches
    assert tensor_eq(cmp.closed, H) and tensor_eq(cmp.generic, H)


def test_involution_star_case71_spot(H):
    conj = make_map(H, "conj")
    cmp = involution_star(H, conj, H.field.element(2), "7.1")
    # 1 * 1 = (1/((1-2)(1-4))) (1 - 2 + 2 - 4) = -1
    assert format_vector(cmp.closed.table[0][0]) == "[-1,0,0,0]"


@pytest.mark.parametrize("variant", [1, 3, 5, 7, 9, 11])
@pytest.mark.parametrize("cstr", ["[1,2,0,0]", "[1,1,1,0]"])
def test_assoc_reflections_proper_matches_generic(H, variant, cstr):
    fi = make_map(H, "inner:[0,1,0,0]")
    gj = make_map(H, "inner:[0,0,1,0]")
    c = H.element_from_string(cstr)
    cmp = quaternion_reflections_star(H, fi, gj, c, variant)
    assert cmp.matches, cmp.first_mismatch


def test_assoc_reflections_reference_findings_recorded(H):
    fi = make_map(H, "inner:[0,1,0,0]")
    gj = make_map(H, "inner:[0,0,1,0]")
    c = H.element_from_string("[1,2,0,0]")
    flags = {}
    for v in (1, 3, 5, 7, 9, 11):
        cmp = quaternion_reflections_star(H, fi, gj, c, v)
        flags[v] = (cmp.substituted_matches, cmp.verbatim_matches)
    # the clean reference lines (variants 1 and 3, with y already in place)
    assert flags[1] == (True, True)
    # variants with swapped slots in print never match verbatim
    assert flags[5][1] is False and flags[7][1] is False
    assert flags[9][1] is False and flags[11][1] is False


def test_scaled_product_isotope_isomorphism(H):
    # with f an automorphism and scalar c, x o y = (id - c f)(x y); the map
    # id - c f carries the original product to the unitalized twist
    f = make_map(H, "inner:[1,1,0,0]")
    c = H.field.element(2)
    spec = TwistSpec(variant=1, c=H.scalar_vec(c), f=f, g=f)
    star = run_twist(H, spec).star
    phi = Matrix.identity(H.field, 4) - f.scale(c)
    ok, witness = is_isomorphism(H, star, phi)
    assert ok, witness


def test_assoc_reflections_tables_pinned(H):
    # sha256 of the proper, substituted and verbatim tables, flags and
    # mismatch positions of 54 cases: any change to one of the three
    # readings of any variant changes it
    maps = {"inner": ("inner:[0,1,0,0]", "inner:[0,0,1,0]"),
            "reflection": ("reflection:[0,1,0,0]", "reflection:[0,0,1,0]"),
            "inner+conj": ("inner:[1,1,0,0]", "conj")}
    digest = hashlib.sha256()
    for name, (fs, gs) in maps.items():
        f, g = make_map(H, fs), make_map(H, gs)
        for cs in ("[1,2,0,0]", "[1,1,1,0]", "[2,0,1,1]"):
            c = H.element_from_string(cs)
            for v in (1, 3, 5, 7, 9, 11):
                cmp = quaternion_reflections_star(H, f, g, c, v)
                rows = [f"{name} {cs} {v} {cmp.matches} {cmp.substituted_matches} "
                        f"{cmp.verbatim_matches} {cmp.first_mismatch} "
                        f"{cmp.verbatim_mismatch}"]
                for alg in (cmp.closed, cmp.substituted, cmp.closed_verbatim):
                    rows.append(";".join(format_vector(cell)
                                         for row in alg.table for cell in row))
                digest.update(("\n".join(rows) + "\n").encode())
    assert digest.hexdigest() == \
        "d839c86fa46213dd87e9e56b6942239f74bccc5f55bd5aa234a175fc45d9233b"


def test_star_case_spec_errors(H):
    fi = make_map(H, "inner:[0,1,0,0]")
    for case in ("bogus", "assoc-x", "reflections-2"):
        with pytest.raises(SpecError, match="unknown closed-form case"):
            star_case(H, case, "2", f=fi, g=fi)
    with pytest.raises(SpecError, match="needs maps f and g"):
        star_case(H, "assoc-1", "[1,2,0,0]", f=fi)
    with pytest.raises(HypothesisError, match="unknown involution case"):
        star_case(H, "involution-9", "2")
