"""Malformed CLI arguments, spec files and scenario files that used to end in
a traceback: the CLI exits 2 with an `error:` line, and a scenario step
becomes a `FAIL` line (a file that is not a scenario object exits 2)."""

import json

import pytest

from twistkit.cli import main


def cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("g", ["inner:5", "inner:null", "inner:[[1],0,0,0]"])
def test_bad_inner_map_argument_exits_2(capsys, g):
    code, _, err = cli(capsys, "twist", "--algebra", "H", "--c", "2", "--f", "conj", "--g", g)
    assert code == 2 and err.startswith("error: bad ")


GOOD_SPEC = {"variant": 1, "c": ["2", "0", "0", "0"], "f": {"map": "conjugation"},
             "g": {"map": "conjugation"}}


@pytest.mark.parametrize("text, message", [
    ("{bad", "error: bad spec file: Expecting property name"),
    (json.dumps({**GOOD_SPEC, "pre_isotope": [{"map": "identity"}]}),
     "error: a pre-isotope takes 3 maps, got 1"),
], ids=["not-json", "one-pre-isotope-map"])
def test_bad_twist_spec_file_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text)
    code, _, err = cli(capsys, "twist", "--algebra", "H", "--spec", str(path))
    assert code == 2 and err.startswith(message)


def test_twist_spec_file_still_works(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**GOOD_SPEC, "pre_isotope": [{"map": "identity"}] * 3}))
    code, out, _ = cli(capsys, "twist", "--algebra", "H", "--spec", str(path))
    assert code == 0 and json.loads(out)["variant"] == 1


@pytest.mark.parametrize("doc", [[1, 2], 5, None, {"fixture": {"x": 1}}, {"fixture": None}])
def test_build_spec_that_is_not_a_builder_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, _, err = cli(capsys, "build", "--spec", str(path))
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("doc", [{"steps": 5}, [{"op": "build"}], {"notes": 3, "steps": []}])
def test_file_that_is_not_a_scenario_exits_2(capsys, tmp_path, doc):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(doc))
    code, out, err = cli(capsys, "scenario", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: not a scenario")


BUILD_H = {"op": "build", "label": "H", "spec": {"fixture": "H"}}


@pytest.mark.parametrize("step, fail_line", [
    (5, "FAIL [02] None: error step is not an object: 5"),
    ({"op": "build", "label": "X", "spec": 5},
     "FAIL [02] build: error builder spec is not an object or a fixture name: 5"),
    ({"op": "twist", "label": "T", "algebra": "H", "variant": "x", "c": "2",
      "f": "conj", "g": "conj"}, "FAIL [02] twist: error step 'variant' is not an integer: 'x'"),
    ({"op": "subalgebra-closure", "algebra": "H", "coords": [9]},
     "FAIL [02] subalgebra-closure: error step 'coords' is not a list of indices in 0..3: [9]"),
    ({"op": "closed-form-star", "algebra": "H", "case": "reflections-1", "c": "2",
      "f": "inner:[0,1,0,0]", "g": "inner:[0,0,1,0]", "spot": [9, 9]},
     "FAIL [02] closed-form-star: error step 'spot' is not a list of 2 indices in 0..3: [9, 9]"),
    ({"op": "map", "label": "m", "algebra": "H", "spec": {"matrix": None}},
     "FAIL [02] map: error not a matrix (a list of rows): None"),
    ({"op": "map", "label": "m", "algebra": "H", "spec": {"matrix": ["1000", "0100"]}},
     "FAIL [02] map: error not a coordinate list: '1000'"),
    ({"op": "build", "label": ["H"], "spec": "H"},
     "FAIL [02] build: error step label is not a string: ['H']"),
    ({"op": "multiply", "algebra": "H", "x": [[1], 0, 0, 0], "y": "[1,0,0,0]"},
     "FAIL [02] multiply: error bad coordinates [[1], 0, 0, 0]: argument should be a string "
     "or a Rational instance"),
], ids=["step-not-object", "build-spec-5", "variant-x", "coords-9", "spot-9-9", "matrix-null",
        "matrix-string-rows", "list-label", "nested-coordinate"])
def test_bad_scenario_steps_are_fail_lines(capsys, tmp_path, step, fail_line):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps({"name": "bad", "steps": [BUILD_H, step]}))
    code, out, _ = cli(capsys, "scenario", "--file", str(path))
    assert code == 1
    assert fail_line in out.splitlines()
    assert out.splitlines()[-1] == "result=fail steps=2 failures=1"
