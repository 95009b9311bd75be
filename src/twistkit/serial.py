"""JSON encodings for scalars, algebras, maps, twist specs and builder specs.

Scalar encodings: rationals as "n/d" strings (plain "n" when integral),
prime-field residues as integers, extension elements as coefficient arrays
(constant term first).  Writing and re-reading an algebra reproduces its
structure tensor exactly.
"""

from __future__ import annotations

import json

from .algebra import Algebra
from .builders import (MapSpec, cayley_dickson, cyclic_algebra,
                       extension_as_algebra, ground_algebra, make_map,
                       number_field_algebra, quadratic_conjugation)
from .errors import SpecError
from .fields import (ExtensionField, PrimeField, RationalField, field_descriptor,
                     field_make)
from .forms import NormForm
from .linalg import Matrix
from .twist import TwistSpec


def scalar_to_json(x):
    field = x.field
    if isinstance(field, RationalField):
        return repr(x)
    if isinstance(field, PrimeField):
        return x.payload
    return list(x.payload)


def vector_to_json(v):
    return [scalar_to_json(x) for x in v]


def vector_from_json(field, obj):
    if not isinstance(obj, list):
        raise SpecError(f"not a coordinate list: {obj!r}")
    return [field.parse(x) for x in obj]


def matrix_to_json(m: Matrix):
    return [vector_to_json(r) for r in m.rows]


def matrix_from_json(field, obj) -> Matrix:
    if not (isinstance(obj, list) and obj):
        raise SpecError(f"not a matrix (a list of rows): {obj!r}")
    return Matrix(field, [vector_from_json(field, r) for r in obj])


def norm_to_json(norm):
    if norm is None:
        return None
    if norm.kind == "gram":
        return {"kind": "gram", "certificate": norm.certificate,
                "matrix": matrix_to_json(norm.data["gram"])}
    if norm.kind == "regrep":
        return {"kind": "regrep", "certificate": norm.certificate}
    if norm.kind == "cyclic":
        kalg = norm.data["kalg"]
        return {"kind": "cyclic", "certificate": norm.certificate,
                "ktable": [[vector_to_json(cell) for cell in row] for row in kalg.table],
                "kunit": vector_to_json(kalg.unit),
                "sigma": matrix_to_json(norm.data["sigma"]),
                "d": scalar_to_json(norm.data["d"])}
    return None  # explicit polynomial evaluators are not serialized


def norm_from_json(alg: Algebra, obj):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise SpecError(f"norm is not an object: {obj!r}")
    kind = obj.get("kind")
    cert = obj.get("certificate", "unknown")
    if kind == "gram":
        g = matrix_from_json(alg.field, obj["matrix"])
        return NormForm(alg.field, g.nrows, 2, "gram", cert, gram=g)
    if kind == "regrep":
        return NormForm.regrep_form(alg, certificate=cert)
    if kind == "cyclic":
        table = [[vector_from_json(alg.field, cell) for cell in row]
                 for row in obj["ktable"]]
        kalg = Algebra(alg.field, table, unit=vector_from_json(alg.field, obj["kunit"]))
        sigma = matrix_from_json(alg.field, obj["sigma"])
        return NormForm.cyclic_form(kalg, sigma, alg.field.parse(obj["d"]),
                                    certificate=cert)
    raise SpecError(f"unknown norm kind {kind!r}")


def algebra_to_json(alg: Algebra) -> dict:
    return {
        "field": field_descriptor(alg.field),
        "dim": alg.dim,
        "table": [[vector_to_json(cell) for cell in row] for row in alg.table],
        "unit": vector_to_json(alg.unit) if alg.unit is not None else None,
        "label": alg.label,
        "norm": norm_to_json(alg.norm),
    }


def algebra_from_json(obj: dict) -> Algebra:
    try:
        field = field_make(obj["field"])
        table = [[vector_from_json(field, cell) for cell in row]
                 for row in obj["table"]]
        if obj.get("dim", len(table)) != len(table):
            raise SpecError(f"declared dim {obj['dim']} but the table has dim {len(table)}")
        unit = vector_from_json(field, obj["unit"]) if obj.get("unit") else None
        alg = Algebra(field, table, unit=unit, label=obj.get("label", ""))
        alg.norm = norm_from_json(alg, obj.get("norm"))
        return alg
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad algebra file: {exc}") from exc


def write_algebra(alg: Algebra, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_json(alg), fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_algebra(path) -> Algebra:
    try:
        with open(path, encoding="utf-8") as fh:
            return algebra_from_json(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read algebra file {path}: {exc}") from exc


def twist_spec_to_json(spec: TwistSpec) -> dict:
    def map_json(m):
        return None if m is None else {"map": "explicit", "matrix": matrix_to_json(m)}

    return {
        "variant": spec.variant,
        "c": vector_to_json(spec.c),
        "f": map_json(spec.f),
        "g": map_json(spec.g),
        "h": map_json(spec.h),
        "pre_isotope": [map_json(m) for m in spec.pre_isotope]
        if spec.pre_isotope else None,
        "kaplanski": {"a": vector_to_json(spec.kaplanski[0]),
                      "b": vector_to_json(spec.kaplanski[1])}
        if spec.kaplanski else None,
    }


def twist_spec_from_json(alg: Algebra, obj: dict) -> TwistSpec:
    try:
        c = vector_from_json(alg.field, obj["c"])
        f = make_map(alg, MapSpec.parse(obj["f"]))
        g = make_map(alg, MapSpec.parse(obj["g"]))
        h = make_map(alg, MapSpec.parse(obj["h"])) if obj.get("h") else None
        pre = None
        if obj.get("pre_isotope"):
            pre = tuple(make_map(alg, MapSpec.parse(s)) for s in obj["pre_isotope"])
        kap = None
        if obj.get("kaplanski"):
            kap = (vector_from_json(alg.field, obj["kaplanski"]["a"]),
                   vector_from_json(alg.field, obj["kaplanski"]["b"]))
        return TwistSpec(variant=int(obj["variant"]), c=c, f=f, g=g, h=h,
                         pre_isotope=pre, kaplanski=kap)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad twist spec: {exc}") from exc


def build_from_spec(obj) -> Algebra:
    """Execute a builder spec:

      {"build":"ground","field":{...}}
      {"build":"extension","p":3,"n":2[,"modulus":[...]]}
      {"build":"cayley_dickson","base":{...spec...},"c":"-1"}
      {"build":"number_field","modulus":[-2,0,1]}
      {"build":"cyclic","K":{...field or number_field...},"d":"3"}
      {"fixture":"H"}
    """
    from .fixtures import fixture
    if isinstance(obj, str):
        return fixture(obj)
    if not isinstance(obj, dict):
        raise SpecError(f"builder spec is not an object or a fixture name: {obj!r}")
    if "fixture" in obj:
        return fixture(obj["fixture"])
    kind = obj.get("build")
    try:
        if kind == "ground":
            return ground_algebra(field_make(obj["field"]),
                                  label=obj.get("label", "F"))
        if kind == "extension":
            ext = ExtensionField(int(obj["p"]), int(obj["n"]), obj.get("modulus"))
            return extension_as_algebra(ext, label=obj.get("label", ""))
        if kind == "cayley_dickson":
            base = build_from_spec(obj["base"])
            c = base.field.parse(obj["c"]) if isinstance(obj["c"], str) \
                else base.field.element(obj["c"])
            return cayley_dickson(base, c, label=obj.get("label", ""))
        if kind == "number_field":
            return number_field_algebra(obj["modulus"], label=obj.get("label", ""))
        if kind == "cyclic":
            kobj = obj["K"]
            if kobj.get("kind") == "ext":
                ext = ExtensionField(int(kobj["p"]), int(kobj["n"]), kobj.get("modulus"))
                kalg = extension_as_algebra(ext)
                sigma = make_map(kalg, MapSpec(kind="frobenius", k=1))
            elif kobj.get("kind") == "number":
                kalg = number_field_algebra(kobj["modulus"])
                sigma = quadratic_conjugation(kalg)
            else:
                raise SpecError(f"unsupported cyclic base {kobj!r}")
            d = kalg.field.parse(obj["d"]) if isinstance(obj["d"], str) \
                else kalg.field.element(obj["d"])
            return cyclic_algebra(kalg, sigma, d,
                                  certificate=obj.get("certificate", "unknown"),
                                  label=obj.get("label", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"bad builder spec: {exc}") from exc
    raise SpecError(f"unknown builder kind {kind!r}")
