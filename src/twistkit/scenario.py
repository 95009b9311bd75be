"""Scripted scenario runner: build steps, twist steps and analyses tied into
one deterministic report, with exact expected-value assertions.

A scenario is a JSON object {"name": ..., "notes": [...], "steps": [...]};
each step is {"op": ..., ...} and may carry "expect*" keys whose mismatch is
reported (and fails the run) with the computed value.  Reports are plain
text, byte-identical across runs for a fixed seed.
"""

from __future__ import annotations

import json
import operator

from . import fixtures
from .algebra import (associator, commutator, nucleus, opposite, isotope,
                      tensor_eq, vanishes_outside)
from .analyzer import (containment_check, derivation_family, derivations,
                       derivations_fixing, inner_automorphism_family,
                       inner_derivation, is_automorphism, is_derivation)
from .builders import MapSpec, make_map
from .closedforms import inverse_check, star_case
from .errors import SpecError, TwistkitError
from .fields import field_make, field_norm, frobenius
from .forms import verify_multiplicative, verify_similarity
from .linalg import format_vector
from .serial import build_from_spec, matrix_from_json
from .twist import (TwistSpec, commutative_twist, division_exhaustive,
                    division_probe_char0, iff_criterion, norm_criterion,
                    run_twist, scan_c, zero_divisor_text, CyclicSubfield)


class ScenarioEnv:
    def __init__(self, seed=0):
        self.seed = seed
        self.fields = {}
        self.algebras = {}
        self.maps = {}
        self.twists = {}
        self.ops_covered = set()

    def algebra(self, name):
        try:
            return self.algebras[name]
        except KeyError:
            raise SpecError(f"unknown algebra label {name!r}") from None

    def field(self, name):
        try:
            return self.fields[name]
        except KeyError:
            raise SpecError(f"unknown field label {name!r}") from None

    def twist(self, name):
        try:
            return self.twists[name]
        except KeyError:
            raise SpecError(f"unknown twist label {name!r}") from None


class _Step(dict):
    """A scenario step whose missing keys are spec errors."""

    def __missing__(self, key):
        raise SpecError(f"step lacks {key!r}")


def _fmt(value):
    if isinstance(value, str):
        return value
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return format_vector(value)
    return repr(value)


def _resolve_map(env, alg, spec):
    if isinstance(spec, str) and spec.startswith("@"):
        if spec[1:] not in env.maps:
            raise SpecError(f"unknown map label {spec!r}")
        return env.maps[spec[1:]]
    if isinstance(spec, dict) and "matrix" in spec and spec.get("map") is None:
        return matrix_from_json(alg.field, spec["matrix"])
    env.ops_covered.add(f"map:{MapSpec.parse(spec).kind}")
    return make_map(alg, spec)


def _expect(step, key, computed, failures, idx):
    if key in step:
        want_s, got_s = _fmt(step[key]), _fmt(computed)
        if want_s != got_s:
            failures.append(f"FAIL [{idx:02d}] {step['op']}.{key}: "
                            f"expected {want_s} got {got_s}")


def run_step(env: ScenarioEnv, step: dict, idx: int, lines, failures):
    step = _Step(step)
    op = step["op"]
    env.ops_covered.add(op)
    out = [f"[{idx:02d}] {op}"]

    if op == "field":
        fld = field_make(step["spec"])
        env.fields[step["label"]] = fld
        out.append(f"label={step['label']} kind={fld.kind} order={fld.order()}")
    elif op == "field-arith":
        fld = env.field(step["field"])
        a, b = fld.parse(step["a"]), fld.parse(step["b"])
        arith = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
                 "div": operator.truediv}.get(step["operation"])
        if arith is None:
            raise SpecError(f"unknown field-arith operation {step['operation']!r}")
        if arith is operator.truediv and not b:
            raise SpecError(f"division by zero in {fld!r}")
        val = arith(a, b)
        out.append(f"{step['operation']} -> {val!r}")
        _expect(step, "expect", val, failures, idx)
    elif op == "frobenius":
        fld = env.field(step["field"])
        val = frobenius(fld.parse(step["x"]), int(step.get("k", 1)))
        out.append(f"-> {val!r}")
        _expect(step, "expect", val, failures, idx)
    elif op == "field-norm":
        fld = env.field(step["field"])
        val = field_norm(fld.parse(step["x"]))
        out.append(f"-> {val!r}")
        _expect(step, "expect", val, failures, idx)
    elif op == "build":
        spec = step["spec"]
        alg = build_from_spec(spec)
        env.algebras[step["label"]] = alg
        kind = spec if isinstance(spec, str) else spec.get("build", "fixture")
        if isinstance(spec, dict) and "fixture" in spec:
            kind = "fixture"
        env.ops_covered.add(f"build:{kind}")
        out.append(f"label={step['label']} dim={alg.dim} "
                   f"unit={_fmt(alg.unit)} norm={alg.norm.kind if alg.norm else 'none'}")
        _expect(step, "expect_dim", alg.dim, failures, idx)
    elif op == "multiply":
        alg = env.algebra(step["algebra"])
        val = alg.multiply(alg.parse_element(step["x"]),
                           alg.parse_element(step["y"]))
        out.append(f"-> {format_vector(val)}")
        _expect(step, "expect", val, failures, idx)
    elif op == "mul-matrix":
        alg = env.algebra(step["algebra"])
        a = alg.parse_element(step["a"])
        m = alg.left_mul_matrix(a) if step.get("side", "left") == "left" \
            else alg.right_mul_matrix(a)
        if "label" in step:
            env.maps[step["label"]] = m
        out.append(f"side={step.get('side', 'left')} det={m.det()!r}")
        _expect(step, "expect_det", m.det(), failures, idx)
    elif op == "find-unit":
        alg = env.algebra(step["algebra"])
        val = alg.find_unit()
        out.append(f"-> {_fmt(val)}")
        _expect(step, "expect", val, failures, idx)
    elif op == "commutator":
        alg = env.algebra(step["algebra"])
        val = commutator(alg, alg.parse_element(step["x"]),
                         alg.parse_element(step["y"]))
        out.append(f"-> {format_vector(val)}")
        _expect(step, "expect", val, failures, idx)
    elif op == "associator":
        alg = env.algebra(step["algebra"])
        val = associator(alg, alg.parse_element(step["x"]),
                         alg.parse_element(step["y"]), alg.parse_element(step["z"]))
        out.append(f"-> {format_vector(val)}")
        _expect(step, "expect", val, failures, idx)
    elif op == "nucleus":
        alg = env.algebra(step["algebra"])
        basis = nucleus(alg, step.get("side", "all"))
        out.append(f"side={step.get('side', 'all')} dim={len(basis)}")
        _expect(step, "expect_dim", len(basis), failures, idx)
    elif op == "isotope":
        alg = env.algebra(step["algebra"])
        f = _resolve_map(env, alg, step["f"])
        g = _resolve_map(env, alg, step["g"])
        h = _resolve_map(env, alg, step["h"]) if step.get("h") else None
        env.algebras[step["label"]] = isotope(alg, f, g, h)
        out.append(f"label={step['label']}")
    elif op == "opposite":
        alg = env.algebra(step["algebra"])
        env.algebras[step["label"]] = opposite(alg)
        out.append(f"label={step['label']}")
    elif op == "tensor-eq":
        a = env.algebra(step["a"])
        b = env.algebra(step["b"])
        val = tensor_eq(a, b)
        out.append(f"-> {_fmt(val)}")
        _expect(step, "expect", val, failures, idx)
    elif op == "norm-eval":
        alg = env.algebra(step["algebra"])
        val = alg.norm.evaluate(alg.parse_element(step["x"]))
        out.append(f"-> {val!r}")
        _expect(step, "expect", val, failures, idx)
    elif op == "polarize":
        alg = env.algebra(step["algebra"])
        vs = [alg.parse_element(v) for v in step["vectors"]]
        val = alg.norm.polarize(*vs)
        out.append(f"-> {val!r}")
        _expect(step, "expect", val, failures, idx)
    elif op == "similarity":
        alg = env.algebra(step["algebra"])
        m = _resolve_map(env, alg, step["map"])
        val = verify_similarity(alg.norm, m)
        out.append(f"-> {_fmt(val)}")
        _expect(step, "expect", val, failures, idx)
    elif op == "multiplicative":
        alg = env.algebra(step["algebra"])
        val = verify_multiplicative(alg, alg.norm)
        out.append(f"-> {_fmt(val)}")
        _expect(step, "expect", val, failures, idx)
    elif op == "map":
        alg = env.algebra(step["algebra"])
        m = _resolve_map(env, alg, step["spec"])
        env.maps[step["label"]] = m
        out.append(f"label={step['label']} det={m.det()!r}")
    elif op == "twist":
        alg = env.algebra(step["algebra"])
        spec = TwistSpec(
            variant=int(step.get("variant", 1)),
            c=alg.parse_element(step["c"]),
            f=_resolve_map(env, alg, step["f"]),
            g=_resolve_map(env, alg, step["g"]),
            h=_resolve_map(env, alg, step["h"]) if step.get("h") else None)
        result = run_twist(alg, spec, probe_trials=int(step.get("probe", 0)),
                           seed=env.seed)
        env.twists[step["label"]] = result
        env.algebras[step["label"] + ".circ"] = result.circ
        if result.star is not None:
            env.algebras[step["label"] + ".star"] = result.star
        out.append(f"label={step['label']} division={result.division_status} "
                   f"criterion={result.criterion.verdict}")
        _expect(step, "expect_division", result.division_status, failures, idx)
        _expect(step, "expect_criterion", result.criterion.verdict, failures, idx)
    elif op == "criterion":
        result = env.twist(step["twist"])
        alg = result.source
        crit = norm_criterion(alg, result.spec)
        out.append(f"-> {crit.verdict} threshold={_fmt(crit.threshold)} "
                   f"N(c)={_fmt(crit.norm_of_c)}")
        _expect(step, "expect", crit.verdict, failures, idx)
    elif op == "iff-criterion":
        result = env.twist(step["twist"])
        alg = result.source
        sf = _Step(step["subfield"])
        basis = [alg.parse_element(b) for b in sf["basis"]]
        sig = sf["sigma"]
        if isinstance(sig, dict) and "matrix" in sig:
            sigma = matrix_from_json(alg.field, sig["matrix"])
        else:
            sigma = _resolve_map(env, alg, sig)
        sub = CyclicSubfield(basis=basis, sigma=sigma, degree=int(sf["degree"]),
                             s=int(sf["s"]), t=int(sf["t"]))
        val = iff_criterion(alg, result.spec, sub)
        out.append(f"-> {val}")
        _expect(step, "expect", val, failures, idx)
    elif op == "unitalize":
        result = env.twist(step["twist"])
        if result.star is None:
            raise SpecError(f"twist {step['twist']} has no star: {result.kaplanski_note}")
        env.algebras[step["label"]] = result.star
        out.append(f"label={step['label']} unit={_fmt(result.star.unit)}")
        _expect(step, "expect_unit", result.star.unit, failures, idx)
    elif op == "division":
        alg = env.algebra(step["algebra"])
        status, witness = division_exhaustive(alg)
        text = status if status == "certified" else zero_divisor_text(witness)
        out.append(f"-> {text}")
        _expect(step, "expect", text, failures, idx)
    elif op == "probe":
        alg = env.algebra(step["algebra"])
        rep = division_probe_char0(alg, int(step.get("trials", 100)), seed=env.seed)
        out.append(f"seed={rep.seed} -> {rep.describe()}")
        _expect(step, "expect", rep.describe(), failures, idx)
    elif op == "scan":
        alg = env.algebra(step["algebra"])
        f = _resolve_map(env, alg, step["f"])
        g = _resolve_map(env, alg, step["g"])
        rep = scan_c(alg, int(step.get("variant", 1)), f, g, seed=env.seed,
                     f_desc=str(step["f"]), g_desc=str(step["g"]))
        out.append(f"division={rep.division_count()} total={len(rep.records)}")
        lines.extend("    " + l for l in rep.lines())
        _expect(step, "expect_division", rep.division_count(), failures, idx)
    elif op == "commutative-twist":
        alg = env.algebra(step["algebra"])
        sigma = _resolve_map(env, alg, step.get("sigma", "frob:1"))
        rep = commutative_twist(alg, sigma, int(step["s"]), int(step["t"]),
                                alg.parse_element(step["a"]),
                                alg.parse_element(step["b"]),
                                alg.parse_element(step["c"]))
        out.append(f"commutative={_fmt(rep.commutative)} "
                   f"shortcut_matches={_fmt(rep.closed_form_matches)} "
                   f"division={rep.division_status} "
                   f"witness={_fmt(list(rep.witness)) if rep.witness else 'null'}")
        _expect(step, "expect_commutative", rep.commutative, failures, idx)
        _expect(step, "expect_shortcut", rep.closed_form_matches, failures, idx)
        _expect(step, "expect_division", rep.division_status, failures, idx)
    elif op == "closed-form-inverse":
        alg = env.algebra(step["algebra"])
        side = step.get("side", "left")
        agree, composed = inverse_check(alg, step["kind"], step["c"],
                                        _resolve_map(env, alg, step["map"]),
                                        int(step.get("n", 2)), side)
        out.append(f"kind={step['kind']} side={side} matches_generic={_fmt(agree)} "
                   f"composes_to_id={_fmt(composed)}")
        _expect(step, "expect_match", agree, failures, idx)
    elif op == "closed-form-star":
        alg = env.algebra(step["algebra"])
        maps = {k: _resolve_map(env, alg, step[k]) for k in ("f", "g", "tau") if k in step}
        cmp, fields = star_case(alg, step["case"], step["c"], **maps)
        out.extend(f"{k}={_fmt(v)}" for k, v in fields if k != "first_mismatch")
        if step.get("spot"):
            if cmp.closed_verbatim is None:
                raise SpecError(f"case {step['case']!r} has no verbatim reading to spot")
            i, j = step["spot"]
            gen, verb = cmp.generic.table[i][j], cmp.closed_verbatim.table[i][j]
            out.append(f"generic[{i},{j}]={format_vector(gen)} "
                       f"verbatim[{i},{j}]={format_vector(verb)}")
            _expect(step, "expect_verbatim_spot", verb, failures, idx)
            _expect(step, "expect_generic_spot", gen, failures, idx)
        _expect(step, "expect_match", cmp.matches, failures, idx)
    elif op == "derivations":
        alg = env.algebra(step["algebra"])
        space = derivations(alg)
        out.append(f"dim={space.dim}")
        _expect(step, "expect_dim", space.dim, failures, idx)
    elif op == "derivations-fixing":
        alg = env.algebra(step["algebra"])
        space = derivations_fixing(alg, alg.parse_element(step["c"]))
        out.append(f"dim={space.dim}")
        _expect(step, "expect_dim", space.dim, failures, idx)
    elif op == "is-automorphism":
        alg = env.algebra(step["algebra"])
        m = _resolve_map(env, alg, step["map"])
        ok, witness = is_automorphism(alg, m)
        out.append(f"-> {_fmt(ok)} witness={_fmt(list(witness)) if witness else 'null'}")
        _expect(step, "expect", ok, failures, idx)
    elif op == "is-derivation":
        alg = env.algebra(step["algebra"])
        m = _resolve_map(env, alg, step["map"])
        ok, witness = is_derivation(alg, m)
        out.append(f"-> {_fmt(ok)} witness={_fmt(list(witness)) if witness else 'null'}")
        _expect(step, "expect", ok, failures, idx)
    elif op == "inner-derivation":
        alg = env.algebra(step["algebra"])
        m = inner_derivation(alg, alg.parse_element(step["a"]))
        env.maps[step["label"]] = m
        out.append(f"label={step['label']}")
    elif op == "containment":
        target = env.algebra(step["target"])
        source = env.algebra(step["source"])
        f = _resolve_map(env, source, step["f"]) if step.get("f") else None
        g = _resolve_map(env, source, step["g"]) if step.get("g") else None
        c = source.parse_element(step["c"]) if step.get("c") else None
        if step["family"] == "inner-sample":
            fam = inner_automorphism_family(source, fixtures.INNER_SAMPLE_H,
                                            f=f, g=g, c=c)
        elif step["family"] == "derivations":
            fam = derivation_family(source, f=f, g=g, c=c)
        else:
            raise SpecError(f"unknown family {step['family']!r}")
        rep = containment_check(target, fam, check_dim=step.get("check_dim", False))
        out.append(f"family={fam.name} members={len(fam.members)} "
                   f"hyp_all_pass={_fmt(rep['hypothesis_members_all_pass'])}"
                   + (f" der_dim={rep['der_dim']}" if "der_dim" in rep else ""))
        _expect(step, "expect_all_pass", rep["hypothesis_members_all_pass"],
                failures, idx)
        if "expect_min_dim" in step:
            ok = rep.get("der_dim", -1) >= int(step["expect_min_dim"])
            if not ok:
                failures.append(f"FAIL [{idx:02d}] containment.expect_min_dim: "
                                f"dim {rep.get('der_dim')} < {step['expect_min_dim']}")
    elif op == "subalgebra-closure":
        alg = env.algebra(step["algebra"])
        val = vanishes_outside(alg, list(step["coords"]))
        out.append(f"coords={step['coords']} -> {_fmt(val)}")
        _expect(step, "expect", val, failures, idx)
    else:
        raise SpecError(f"unknown scenario op {op!r}")

    lines.append(" ".join(out))


def scenario_run(scenario: dict, seed=0, env: ScenarioEnv | None = None):
    """Execute a scenario; returns (report_text, ok, env)."""
    env = env or ScenarioEnv(seed=seed)
    name = scenario.get("name", "?")
    lines = [f"# scenario {name} seed={seed}"]
    for note in scenario.get("notes", []):
        lines.append(f"# note: {note}")
    failures = []
    for idx, step in enumerate(scenario.get("steps", []), start=1):
        try:
            run_step(env, step, idx, lines, failures)
        except TwistkitError as exc:
            op = step.get("op")
            if step.get("expect_error"):
                lines.append(f"[{idx:02d}] {op} error={exc}")
                env.ops_covered.add(op)
            else:
                failures.append(f"FAIL [{idx:02d}] {op}: error {exc}")
                lines.append(f"[{idx:02d}] {op} error={exc}")
    lines.extend(failures)
    ok = not failures
    lines.append(f"result={'ok' if ok else 'fail'} steps={len(scenario.get('steps', []))} "
                 f"failures={len(failures)}")
    return "\n".join(lines) + "\n", ok, env


def load_scenario(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read scenario {path}: {exc}") from exc


# -- bundled scenarios ------------------------------------------------------

ALBERT_F9 = {
    "name": "albert-f9",
    "notes": ["degree-2 field twist over F_9: division exactly off the norm kernel"],
    "steps": [
        {"op": "field", "label": "K9", "spec": {"kind": "ext", "p": 3, "n": 2}},
        {"op": "field-arith", "field": "K9", "a": "[1,0]", "b": "[1,1]",
         "operation": "div", "expect": "[2,1]"},
        {"op": "frobenius", "field": "K9", "x": "[0,1]", "k": 1, "expect": "[0,2]"},
        {"op": "field-norm", "field": "K9", "x": "[1,1]", "expect": "2"},
        {"op": "build", "label": "F9", "spec": {"build": "extension", "p": 3, "n": 2,
                                                "label": "F9"}},
        {"op": "map", "label": "s", "algebra": "F9", "spec": "frob:1"},
        {"op": "multiply", "algebra": "F9", "x": "[0,1]", "y": "[0,1]",
         "expect": "[2,0]"},
        {"op": "scan", "algebra": "F9", "variant": 1, "f": "frob:1", "g": "frob:1",
         "expect_division": 5},
        {"op": "twist", "label": "T1", "algebra": "F9", "variant": 1, "c": "[0,1]",
         "f": "@s", "g": "@s", "expect_division": "zero-divisor"},
        {"op": "division", "algebra": "T1.circ",
         "expect": "zero-divisor([1,0];[1,1])"},
        {"op": "twist", "label": "T2", "algebra": "F9", "variant": 1, "c": "[1,1]",
         "f": "@s", "g": "@s", "expect_division": "certified-exhaustive"},
        {"op": "criterion", "twist": "T2", "expect": "guaranteed"},
        {"op": "iff-criterion", "twist": "T2",
         "subfield": {"basis": ["[1,0]", "[0,1]"], "sigma": "@s",
                      "degree": 2, "s": 1, "t": 1},
         "expect": "division"},
        {"op": "find-unit", "algebra": "T2.circ", "expect": "null"},
        {"op": "unitalize", "label": "S2", "twist": "T2", "expect_unit": "[0,2]"},
        {"op": "find-unit", "algebra": "S2", "expect": "[0,2]"},
        {"op": "derivations", "algebra": "F9", "expect_dim": 0},
    ],
}

ALBERT_F27 = {
    "name": "albert-f27",
    "notes": ["degree-3 field twist over F_27 with distinct automorphism powers"],
    "steps": [
        {"op": "build", "label": "F27", "spec": {"build": "extension", "p": 3, "n": 3,
                                                 "label": "F27"}},
        {"op": "map", "label": "s1", "algebra": "F27", "spec": "frob:1"},
        {"op": "map", "label": "s2", "algebra": "F27", "spec": "frob:2"},
        {"op": "scan", "algebra": "F27", "variant": 1, "f": "@s1", "g": "@s2",
         "expect_division": 14},
        {"op": "twist", "label": "T", "algebra": "F27", "variant": 1, "c": "[0,1,0]",
         "f": "@s1", "g": "@s2"},
        {"op": "iff-criterion", "twist": "T",
         "subfield": {"basis": ["[1,0,0]", "[0,1,0]", "[0,0,1]"], "sigma": "@s1",
                      "degree": 3, "s": 1, "t": 2},
         "expect": "division"},
    ],
}

ALBERT_F4 = {
    "name": "albert-f4",
    "notes": ["degenerate scan: every nonzero element of F_4 has norm 1"],
    "steps": [
        {"op": "build", "label": "F4", "spec": {"build": "extension", "p": 2, "n": 2,
                                                "label": "F4"}},
        {"op": "scan", "algebra": "F4", "variant": 1, "f": "frob:1", "g": "frob:1",
         "expect_division": 1},
    ],
}

HURWITZ_STRUCTURE = {
    "name": "hurwitz-structure",
    "notes": ["doubling tower over Q and over F_5; nuclei and norm machinery"],
    "steps": [
        {"op": "build", "label": "Q1", "spec": {"build": "ground",
                                                "field": {"kind": "rational"},
                                                "label": "Q1"}},
        {"op": "norm-eval", "algebra": "Q1", "x": "[-3]", "expect": "9"},
        {"op": "build", "label": "C", "spec": {"build": "cayley_dickson",
                                               "base": {"build": "ground",
                                                        "field": {"kind": "rational"}},
                                               "c": "-1", "label": "C"}},
        {"op": "norm-eval", "algebra": "C", "x": "[3,4]", "expect": "25"},
        {"op": "build", "label": "H", "spec": {"fixture": "H"}},
        {"op": "build", "label": "O", "spec": {"build": "cayley_dickson",
                                               "base": {"fixture": "H"},
                                               "c": "-1", "label": "O"}},
        {"op": "find-unit", "algebra": "H", "expect": "[1,0,0,0]"},
        {"op": "multiply", "algebra": "H", "x": "[0,1,0,0]", "y": "[0,0,1,0]",
         "expect": "[0,0,0,1]"},
        {"op": "mul-matrix", "algebra": "H", "side": "left", "a": "[0,1,0,0]",
         "expect_det": "1"},
        {"op": "commutator", "algebra": "H", "x": "[0,1,0,0]", "y": "[0,0,1,0]",
         "expect": "[0,0,0,2]"},
        {"op": "associator", "algebra": "H", "x": "[0,1,0,0]", "y": "[0,0,1,0]",
         "z": "[0,0,0,1]", "expect": "[0,0,0,0]"},
        {"op": "associator", "algebra": "O", "x": "[0,1,0,0,0,0,0,0]",
         "y": "[0,0,1,0,0,0,0,0]", "z": "[0,0,0,0,1,0,0,0]",
         "expect": "[0,0,0,0,0,0,0,2]"},
        {"op": "nucleus", "algebra": "H", "side": "all", "expect_dim": 4},
        {"op": "nucleus", "algebra": "O", "side": "all", "expect_dim": 1},
        {"op": "nucleus", "algebra": "O", "side": "center", "expect_dim": 1},
        {"op": "opposite", "label": "Hop", "algebra": "H"},
        {"op": "multiply", "algebra": "Hop", "x": "[0,1,0,0]", "y": "[0,0,1,0]",
         "expect": "[0,0,0,-1]"},
        {"op": "map", "label": "cj", "algebra": "H", "spec": "conj"},
        {"op": "isotope", "label": "Hiso", "algebra": "H", "f": "@cj", "g": "@cj",
         "h": "@cj"},
        {"op": "tensor-eq", "a": "Hiso", "b": "Hop", "expect": True},
        {"op": "norm-eval", "algebra": "H", "x": "[2,0,0,0]", "expect": "4"},
        {"op": "polarize", "algebra": "H", "vectors": ["[1,0,0,0]", "[0,1,0,0]"],
         "expect": "0"},
        {"op": "similarity", "algebra": "H", "map": "@cj", "expect": "1"},
        {"op": "map", "label": "dbl", "algebra": "H",
         "spec": {"map": "explicit", "matrix": [["2", "0", "0", "0"],
                                                ["0", "2", "0", "0"],
                                                ["0", "0", "2", "0"],
                                                ["0", "0", "0", "2"]]}},
        {"op": "similarity", "algebra": "H", "map": "@dbl", "expect": "4"},
        {"op": "multiplicative", "algebra": "H", "expect": True},
        {"op": "multiplicative", "algebra": "O", "expect": True},
        {"op": "build", "label": "D5", "spec": {"build": "cayley_dickson",
                                                "base": {"build": "ground",
                                                         "field": {"kind": "prime",
                                                                   "p": 5}},
                                                "c": "2", "label": "D5"}},
        {"op": "multiplicative", "algebra": "D5", "expect": True},
        {"op": "division", "algebra": "D5", "expect": "certified"},
    ],
}

REFLECTION_STAR_ORACLE = {
    "name": "reflection-star-oracle",
    "notes": ["two inner reflections with scalar twist element on H: the",
              "stepwise expansion matches the pipeline on all basis pairs;",
              "the compact reference form differs in one sign and is recorded"],
    "steps": [
        {"op": "build", "label": "H", "spec": {"fixture": "H"}},
        {"op": "map", "label": "fi", "algebra": "H",
         "spec": {"map": "reflection", "q": [0, 1, 0, 0]}},
        {"op": "map", "label": "gj", "algebra": "H",
         "spec": {"map": "reflection", "q": [0, 0, 1, 0]}},
        {"op": "closed-form-star", "algebra": "H", "case": "reflections-1",
         "f": "@fi", "g": "@gj", "c": "2", "spot": [1, 2], "expect_match": True,
         "expect_verbatim_spot": "[0,0,0,-13/9]", "expect_generic_spot": "[0,0,0,-1]"},
        {"op": "closed-form-star", "algebra": "H", "case": "reflections-1",
         "f": "@fi", "g": "@gj", "c": "3", "expect_match": True},
        {"op": "closed-form-star", "algebra": "H", "case": "reflections-1",
         "f": "@fi", "g": "@gj", "c": "-2", "expect_match": True},
        {"op": "closed-form-star", "algebra": "H", "case": "assoc-1",
         "f": "@fi", "g": "@gj", "c": "[1,2,0,0]", "expect_match": True},
        {"op": "closed-form-star", "algebra": "H", "case": "assoc-7",
         "f": "@fi", "g": "@gj", "c": "[1,2,0,0]", "expect_match": True},
    ],
}

INVOLUTION_STAR_ORACLE = {
    "name": "involution-star-oracle",
    "notes": ["conjugation twists with scalar c on H and O: closed star",
              "products equal the pipeline exactly; one-sided inverse",
              "formulas cross-check the generic matrix inverse"],
    "steps": [
        {"op": "build", "label": "H", "spec": {"fixture": "H"}},
        {"op": "build", "label": "O", "spec": {"fixture": "O"}},
        {"op": "build", "label": "A", "spec": {"fixture": "cyclicQ"}},
        {"op": "closed-form-star", "algebra": "H", "case": "involution-1",
         "c": "2", "expect_match": True},
        {"op": "closed-form-star", "algebra": "H", "case": "involution-7.1",
         "c": "1/2", "expect_match": True},
        {"op": "closed-form-star", "algebra": "H", "case": "involution-7.2",
         "c": "-3", "expect_match": True},
        {"op": "closed-form-star", "algebra": "O", "case": "involution-1",
         "c": "2", "expect_match": True},
        {"op": "closed-form-star", "algebra": "O", "case": "involution-7.1",
         "c": "2", "expect_match": True},
        {"op": "closed-form-star", "algebra": "O", "case": "involution-7.2",
         "c": "2", "expect_match": True},
        {"op": "closed-form-inverse", "algebra": "H", "kind": "involution",
         "map": "conj", "c": "2", "expect_match": True},
        {"op": "closed-form-inverse", "algebra": "H", "kind": "reflection",
         "map": {"map": "reflection", "q": [0, 1, 0, 0]}, "c": "2",
         "expect_match": True},
        {"op": "closed-form-inverse", "algebra": "A", "kind": "series",
         "map": {"map": "inner", "q": [0, 0, 1, 0]}, "c": "[0,1,0,0]", "n": 2,
         "side": "left", "expect_match": True},
        {"op": "closed-form-inverse", "algebra": "A", "kind": "series",
         "map": {"map": "inner", "q": [0, 0, 1, 0]}, "c": "[0,1,0,0]", "n": 2,
         "side": "right", "expect_match": True},
    ],
}

TWIST_CONTAINMENT = {
    "name": "twist-containment",
    "notes": ["automorphisms and derivations surviving the twist: inner",
              "sample on twisted H, all basis derivations on twisted O,",
              "d_c on the twisted cyclic fixture"],
    "steps": [
        {"op": "build", "label": "H", "spec": {"fixture": "H"}},
        {"op": "build", "label": "O", "spec": {"fixture": "O"}},
        {"op": "build", "label": "A", "spec": {"build": "cyclic",
                                               "K": {"kind": "number",
                                                     "modulus": [-2, 0, 1]},
                                               "d": "3",
                                               "certificate": "division-certified",
                                               "label": "cyclicQ"}},
        {"op": "map", "label": "cjH", "algebra": "H", "spec": "conj"},
        {"op": "map", "label": "cjO", "algebra": "O", "spec": "conj"},
        {"op": "is-automorphism", "algebra": "H",
         "map": {"map": "inner", "q": [1, 1, 0, 0]}, "expect": True},
        {"op": "is-automorphism", "algebra": "H", "map": "@cjH", "expect": False},
        {"op": "twist", "label": "T1", "algebra": "H", "variant": 1, "c": "2",
         "f": "@cjH", "g": "@cjH", "expect_division": "guaranteed-by-norm"},
        {"op": "containment", "target": "T1.star", "source": "H",
         "family": "inner-sample", "f": "@cjH", "c": "2",
         "expect_all_pass": True, "check_dim": True, "expect_min_dim": 3},
        {"op": "twist", "label": "T7", "algebra": "H", "variant": 7, "c": "2",
         "f": "@cjH", "g": "id", "expect_division": "guaranteed-by-norm"},
        {"op": "containment", "target": "T7.star", "source": "H",
         "family": "inner-sample", "f": "@cjH", "c": "2",
         "expect_all_pass": True},
        {"op": "twist", "label": "TO", "algebra": "O", "variant": 1, "c": "2",
         "f": "@cjO", "g": "@cjO", "expect_division": "guaranteed-by-norm"},
        {"op": "containment", "target": "TO.star", "source": "O",
         "family": "derivations", "f": "@cjO", "g": "@cjO", "c": "2",
         "expect_all_pass": True, "check_dim": True, "expect_min_dim": 14},
        {"op": "derivations-fixing", "algebra": "H", "c": "[0,1,0,0]",
         "expect_dim": 1},
        {"op": "map", "label": "fu", "algebra": "A",
         "spec": {"map": "inner", "q": [1, 1, 0, 0]}},
        {"op": "map", "label": "gu", "algebra": "A",
         "spec": {"map": "inner", "q": [3, 1, 0, 0]}},
        {"op": "twist", "label": "TC", "algebra": "A", "variant": 1,
         "c": "[0,1,0,0]", "f": "@fu", "g": "@gu"},
        {"op": "inner-derivation", "label": "dc", "algebra": "A", "a": "[0,1,0,0]"},
        {"op": "is-derivation", "algebra": "TC.circ", "map": "@dc", "expect": True},
        {"op": "is-derivation", "algebra": "H", "map": "@cjH", "expect": False},
    ],
}

SUBALGEBRA_KAPLANSKI = {
    "name": "subalgebra-kaplanski",
    "notes": ["twists restricted to a stable subfield stay inside it; the",
              "seeded probe finds idempotent zero divisors in split blocks"],
    "steps": [
        {"op": "build", "label": "O", "spec": {"fixture": "O"}},
        {"op": "map", "label": "cjO", "algebra": "O", "spec": "conj"},
        {"op": "twist", "label": "TH", "algebra": "O", "variant": 1,
         "c": "[1,1,0,0,0,0,0,0]", "f": "@cjO", "g": "@cjO",
         "expect_division": "guaranteed-by-norm"},
        {"op": "subalgebra-closure", "algebra": "TH.circ", "coords": [0, 1, 2, 3],
         "expect": True},
        {"op": "subalgebra-closure", "algebra": "TH.star", "coords": [0, 1, 2, 3],
         "expect": True},
        {"op": "build", "label": "A", "spec": {"fixture": "cyclicQ"}},
        {"op": "map", "label": "iu", "algebra": "A",
         "spec": {"map": "inner", "q": [0, 0, 1, 0]}},
        {"op": "twist", "label": "TK", "algebra": "A", "variant": 1,
         "c": "[0,1,0,0]", "f": "@iu", "g": "@iu",
         "expect_division": "guaranteed-by-norm"},
        {"op": "subalgebra-closure", "algebra": "TK.circ", "coords": [0, 1],
         "expect": True},
        {"op": "subalgebra-closure", "algebra": "TK.star", "coords": [0, 1],
         "expect": True},
        {"op": "probe", "algebra": "TK.circ", "trials": 25,
         "expect": "no-counterexample(25)"},
        {"op": "build", "label": "QQ", "spec": {"fixture": "splitQQ"}},
        {"op": "probe", "algebra": "QQ", "trials": 5,
         "expect": "zero-divisor([1,0];[0,1])"},
    ],
}

COMMUTATIVE_TWIST = {
    "name": "commutative-twist",
    "notes": ["odd-degree commutative construction over F_125; the isotope",
              "x o f(y) is commutative, the shortcut reference tensor is not",
              "equal to it and the mismatch is recorded"],
    "steps": [
        {"op": "field", "label": "K125", "spec": {"kind": "ext", "p": 5, "n": 3}},
        {"op": "field-norm", "field": "K125", "x": "[4,0,0]", "expect": "4"},
        {"op": "build", "label": "F125", "spec": {"build": "extension", "p": 5,
                                                  "n": 3, "label": "F125"}},
        {"op": "commutative-twist", "algebra": "F125", "s": 1, "t": 2,
         "a": "[1,0,0]", "b": "[1,0,0]", "c": "[4,0,0]",
         "expect_commutative": True, "expect_shortcut": False,
         "expect_division": "division"},
    ],
}

BUNDLED = {
    s["name"]: s for s in [
        ALBERT_F9, ALBERT_F27, ALBERT_F4, HURWITZ_STRUCTURE,
        REFLECTION_STAR_ORACLE, INVOLUTION_STAR_ORACLE, TWIST_CONTAINMENT,
        SUBALGEBRA_KAPLANSKI, COMMUTATIVE_TWIST,
    ]
}

# the operation surface the bundled suite must exercise (coverage harness)
REQUIRED_OPS = {
    "field", "field-arith", "frobenius", "field-norm",
    "build:ground", "build:extension", "build:cayley_dickson", "build:cyclic",
    "map:conjugation", "map:frobenius", "map:inner", "map:reflection",
    "map:explicit", "map:identity",
    "multiply", "mul-matrix", "find-unit", "commutator", "associator",
    "nucleus", "isotope", "opposite", "norm-eval", "polarize", "similarity",
    "multiplicative", "twist", "criterion", "iff-criterion", "unitalize",
    "division", "probe", "scan", "commutative-twist", "closed-form-inverse",
    "closed-form-star", "derivations", "derivations-fixing",
    "is-automorphism", "is-derivation", "inner-derivation", "containment",
}


def run_bundle(seed=0):
    """Run every bundled scenario; returns (combined_report, ok, covered_ops)."""
    parts = []
    all_ok = True
    covered = set()
    for name in sorted(BUNDLED):
        text, ok, env = scenario_run(BUNDLED[name], seed=seed)
        parts.append(text)
        all_ok = all_ok and ok
        covered |= env.ops_covered
    summary = f"# bundle seed={seed} scenarios={len(BUNDLED)} " \
              f"result={'ok' if all_ok else 'fail'}\n"
    return "".join(parts) + summary, all_ok, covered
