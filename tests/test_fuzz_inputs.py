"""Fuzzing the input surfaces with hypothesis: CLI arguments, and scenario,
twist-spec, builder-spec and algebra files.  Whatever the input, the CLI
returns 0, 1 or 2 (2 with an `error:` line) and the scenario runner writes a
line per step or a `FAIL` line; no exception escapes either."""

import contextlib
import io
import json

import pytest

from twistkit import fixtures
from twistkit.cli import main
from twistkit.errors import SpecError
from twistkit.scenario import scenario_run
from twistkit.serial import algebra_to_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(
    max_examples=60, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture,
                           hypothesis.HealthCheck.too_slow])

# fixtures cheap enough to load and twist many times
ALGEBRAS = ["H", "F4", "F9", "F27", "cyclicQ", "splitQQ"]
MAPS = ["id", "conj", "frob:1", "frob:2", "frob:x", "inner:[0,1,0,0]", "inner:[1,1]",
        "inner:5", "inner:null", "inner:[[1],0,0,0]", "inner:[0,0", "reflection:[0,1,0,0]",
        "reflection:[1,0,0,0]", "explicit", "nope", '{"map":"frob","k":"x"}']
SCALARS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2", "1/2", "1/0", "x", "", "[1,0]", "[0,1]",
                     "[1,0,0,0]", "[0,1,0]", "[1,x]", "[9,9,9,9,9]", "[]", "null", "[[1]]"]),
    st.integers(-3, 9).map(str))

json_leaves = st.one_of(st.none(), st.booleans(), st.integers(-3, 20),
                        st.sampled_from([0.5, "H", "F9", "@m", "[1,0,0,0]", "1/2", "x",
                                         "frob:1", "conj", "id", "inner:[0,1,0,0]"]))
json_values = st.recursive(json_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.dictionaries(st.sampled_from(
        ["map", "k", "q", "matrix", "kind", "p", "n", "build", "fixture", "c", "a", "b"]),
        kids, max_size=4)), max_leaves=10)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "error:" in err.getvalue() or "usage:" in err.getvalue(), argv
    return code, out.getvalue()


@st.composite
def cli_args(draw):
    command = draw(st.sampled_from(["twist", "unitalize", "check-division", "scan",
                                    "derivations", "nuclei", "verify-closed-form"]))
    argv = [command, "--algebra", draw(st.sampled_from(ALGEBRAS))]
    options = {"--c": SCALARS, "--f": st.sampled_from(MAPS), "--g": st.sampled_from(MAPS),
               "--h": st.sampled_from(MAPS), "--variant": st.integers(-1, 13).map(str),
               "--trials": st.integers(0, 3).map(str), "--fix": SCALARS,
               "--side": st.sampled_from(["left", "right", "all", "every", "up"]),
               "--case": st.sampled_from(["involution-1", "involution-9", "assoc-3",
                                          "assoc-x", "reflections-1", "inverse-series",
                                          "inverse-involution", "nope"]),
               "--tau": st.sampled_from(MAPS), "--n": st.integers(-1, 3).map(str)}
    required = {"twist": ["--c", "--f", "--g"], "unitalize": ["--c", "--f", "--g"],
                "scan": ["--f", "--g"], "verify-closed-form": ["--case", "--c"]}
    flags = [f for f in required.get(command, []) if draw(st.integers(0, 9))]
    flags += draw(st.lists(st.sampled_from(sorted(set(options) - set(flags))), max_size=3,
                           unique=True))
    for flag in flags:
        argv += [flag, draw(options[flag])]
    return argv


@SETTINGS
@hypothesis.given(cli_args())
def test_cli_arguments(argv):
    run(argv)


@SETTINGS
@hypothesis.given(json_values)
def test_twist_and_build_spec_files(tmp_path, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    run(["twist", "--algebra", "H", "--spec", str(spec)])
    run(["build", "--spec", str(spec)])


def mutate(draw, doc):
    """`doc` with one subtree (chosen along a random path) replaced."""
    if not isinstance(doc, (dict, list)) or not doc or draw(st.integers(0, 3)) == 0:
        return draw(json_values)
    keys = sorted(doc) if isinstance(doc, dict) else list(range(len(doc)))
    key = draw(st.sampled_from(keys))
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[key] = mutate(draw, doc[key])
    return out


@SETTINGS
@hypothesis.given(st.data())
def test_algebra_files(tmp_path, data):
    name = data.draw(st.sampled_from(["H", "F4", "F9", "cyclicQ"]))
    doc = mutate(data.draw, algebra_to_json(fixtures.fixture(name)))
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    run(["check-division", "--algebra", str(path), "--trials", "2"])
    run(["twist", "--algebra", str(path), "--c", "1", "--f", "id", "--g", "id"])


OPS = ["field", "field-arith", "frobenius", "field-norm", "build", "multiply", "mul-matrix",
       "find-unit", "commutator", "associator", "nucleus", "isotope", "opposite",
       "tensor-eq", "norm-eval", "polarize", "similarity", "multiplicative", "map", "twist",
       "criterion", "iff-criterion", "unitalize", "division", "probe", "scan",
       "commutative-twist", "closed-form-inverse", "closed-form-star", "derivations",
       "derivations-fixing", "is-automorphism", "is-derivation", "inner-derivation",
       "subalgebra-closure", "nope"]
KEYS = ["label", "algebra", "field", "spec", "x", "y", "z", "a", "b", "c", "f", "g", "h",
        "map", "side", "variant", "twist", "subfield", "coords", "spot", "case", "kind",
        "operation", "k", "n", "s", "t", "trials", "probe", "vectors", "expect", "sigma"]
step_values = st.one_of(json_values, st.sampled_from(
    ["A", "T", "K", "T.circ", "@m", "[0,1,0,0]", "2", "frob:1", "conj", "involution-1",
     "series", "add", "div", "left", "right", [9], [0, 1], [9, 9], [0, 0], 5]))


@st.composite
def scenarios(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(json_values)
    prelude = [{"op": "build", "label": "A", "spec": {"fixture": draw(st.sampled_from(
                   ["H", "F9", "F4"]))}},
               {"op": "field", "label": "K", "spec": {"kind": "prime", "p": 5}},
               {"op": "map", "label": "m", "algebra": "A", "spec": "id"},
               {"op": "twist", "label": "T", "algebra": "A", "c": "2", "f": "@m", "g": "@m"}]
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        step = {"op": draw(st.sampled_from(OPS))}
        step.update(draw(st.dictionaries(st.sampled_from(KEYS), step_values, max_size=6)))
        if draw(st.booleans()):
            step.setdefault("algebra", "A")
        steps.append(step if draw(st.integers(0, 9)) else draw(json_values))
    return {"name": "fuzz", "steps": prelude + steps}


@SETTINGS
@hypothesis.given(scenarios())
def test_scenario_files(tmp_path, scen):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scen))
    code, report = run(["scenario", "--file", str(path)])
    if code == 2:
        with pytest.raises(SpecError):
            scenario_run(scen)
    else:
        assert report.splitlines()[-1].startswith("result=")
