"""JSON round trips for algebras, norms, twist specs; error handling."""

import json

import pytest

from twistkit.algebra import tensor_eq
from twistkit.builders import make_map
from twistkit.errors import SpecError
from twistkit.serial import (algebra_from_json, algebra_to_json,
                             build_from_spec, read_algebra,
                             twist_spec_from_json, twist_spec_to_json,
                             write_algebra)
from twistkit.twist import TwistSpec
from twistkit.linalg import vec_eq


def round_trip(alg):
    doc = json.loads(json.dumps(algebra_to_json(alg)))
    return algebra_from_json(doc)


def test_round_trip_tensors_exact(H, F9, cyclicQ):
    for alg in (H, F9, cyclicQ):
        back = round_trip(alg)
        assert tensor_eq(alg, back)
        assert back.label == alg.label
        assert vec_eq(back.unit, alg.unit)


def test_round_trip_norms(H, F9, cyclicQ):
    for alg in (H, F9, cyclicQ):
        back = round_trip(alg)
        assert back.norm.kind == alg.norm.kind
        assert back.norm.certificate == alg.norm.certificate
        for idx in range(alg.dim):
            v = alg.basis(idx)
            assert back.norm.evaluate(v) == alg.norm.evaluate(v)


def test_scalar_encodings(H):
    doc = algebra_to_json(H)
    # rational scalars travel as strings, exact
    flat = json.dumps(doc)
    assert "-1" in flat
    v = H.element_from_string("[0,0,-13/9,0]")
    from twistkit.serial import vector_to_json, vector_from_json
    assert vector_to_json(v) == ["0", "0", "-13/9", "0"]
    assert vec_eq(vector_from_json(H.field, vector_to_json(v)), v)


def test_file_round_trip(tmp_path, F27):
    path = tmp_path / "f27.json"
    write_algebra(F27, path)
    back = read_algebra(path)
    assert tensor_eq(F27, back)
    # re-serialization is byte-identical (determinism of encoding)
    path2 = tmp_path / "f27b.json"
    write_algebra(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_twist_spec_round_trip(H):
    conj = make_map(H, "conj")
    spec = TwistSpec(variant=7, c=H.scalar_vec(2), f=conj, g=conj,
                     kaplanski=(H.unit, H.unit))
    doc = json.loads(json.dumps(twist_spec_to_json(spec)))
    back = twist_spec_from_json(H, doc)
    assert back.variant == 7
    assert vec_eq(back.c, spec.c)
    assert back.f == spec.f and back.g == spec.g
    assert vec_eq(back.kaplanski[0], H.unit)


def test_bad_files_raise(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError):
        read_algebra(bad)
    with pytest.raises(SpecError):
        algebra_from_json({"dim": 2})
    with pytest.raises(SpecError):
        build_from_spec({"build": "wat"})


DIM_MISMATCH = {"field": {"kind": "prime", "p": 5}, "dim": 2, "table": [[[1]]],
                "unit": None, "label": "bad", "norm": None}


def test_declared_dim_must_match_table():
    with pytest.raises(SpecError, match="declared dim 2"):
        algebra_from_json(DIM_MISMATCH)
    assert algebra_from_json(dict(DIM_MISMATCH, dim=1)).dim == 1
    assert algebra_from_json({k: v for k, v in DIM_MISMATCH.items() if k != "dim"}).dim == 1


def test_build_from_spec_kinds(F9):
    ext = build_from_spec({"build": "extension", "p": 3, "n": 2, "label": "F9"})
    assert tensor_eq(ext, F9)
    h = build_from_spec({"build": "cayley_dickson",
                         "base": {"build": "cayley_dickson",
                                  "base": {"build": "ground",
                                           "field": {"kind": "rational"}},
                                  "c": "-1"},
                         "c": "-1", "label": "H"})
    from twistkit.fixtures import quaternions
    assert tensor_eq(h, quaternions())
    cyc = build_from_spec({"build": "cyclic",
                           "K": {"kind": "number", "modulus": [-2, 0, 1]},
                           "d": "3", "certificate": "division-certified"})
    from twistkit.fixtures import cyclic_q_fixture
    assert tensor_eq(cyc, cyclic_q_fixture())
    fx = build_from_spec({"fixture": "splitQQ"})
    assert fx.label == "splitQQ"
