"""Workbench: scenario runner, coverage harness, CLI exit codes."""

import json
import os
import subprocess
import sys

import pytest

from twistkit.cli import main
from twistkit.scenario import (BUNDLED, REQUIRED_OPS, run_bundle, scenario_run)


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run([sys.executable, "-m", "twistkit.cli", *args],
                          capture_output=True, text=True, env=env)
    return proc


def test_bundled_scenarios_all_pass():
    report, ok, covered = run_bundle(seed=0)
    assert ok, report
    assert "result=fail" not in report


def test_coverage_harness():
    _, _, covered = run_bundle(seed=0)
    missing = REQUIRED_OPS - covered
    assert not missing, f"operations never exercised: {sorted(missing)}"


def test_scenario_failure_reports_computed_value():
    scen = {"name": "bad-expectation",
            "steps": [{"op": "build", "label": "H", "spec": {"fixture": "H"}},
                      {"op": "derivations", "algebra": "H", "expect_dim": 4}]}
    report, ok, _ = scenario_run(scen, seed=0)
    assert not ok
    assert "FAIL" in report and "expected 4 got 3" in report


def test_scenario_expected_error():
    scen = {"name": "bad-build",
            "steps": [{"op": "build", "label": "X", "expect_error": True,
                       "spec": {"build": "extension", "p": 2, "n": 2,
                                "modulus": [0, 0, 1]}}]}
    report, ok, _ = scenario_run(scen, seed=0)
    assert ok, report


def test_cli_scan_lines():
    proc = run_cli("scan", "--algebra", "F9", "--variant", "1",
                   "--f", "frob:1", "--g", "frob:1")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 10            # header + 9 records
    assert lines[0].endswith("seed=0")
    assert sum("status=division" in l for l in lines) == 5


def test_cli_derivations():
    proc = run_cli("derivations", "--algebra", "H")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["der_dim"] == 3 and doc["seed"] == 0


def test_cli_scenario_exit_codes(tmp_path):
    proc = run_cli("scenario", "--name", "albert-f4")
    assert proc.returncode == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "asserting-wrong-derdim",
        "steps": [{"op": "build", "label": "H", "spec": {"fixture": "H"}},
                  {"op": "derivations", "algebra": "H", "expect_dim": 4}]}))
    proc = run_cli("scenario", "--file", str(bad))
    assert proc.returncode == 1
    assert "expected 4 got 3" in proc.stdout


def test_cli_usage_errors(tmp_path):
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    bad = tmp_path / "bad_spec.json"
    bad.write_text(json.dumps({"build": "extension", "p": 2, "n": 2,
                               "modulus": [0, 0, 1]}))
    proc = run_cli("build", "--spec", str(bad))
    assert proc.returncode == 2
    proc = run_cli("scan", "--algebra", "nonexistent-fixture",
                   "--f", "id", "--g", "id")
    assert proc.returncode == 2


def test_cli_export_build_round_trip(tmp_path):
    out = tmp_path / "h.json"
    proc = run_cli("export", "--fixture", "H", "--out", str(out))
    assert proc.returncode == 0
    proc = run_cli("check-division", "--algebra", str(out), "--trials", "10")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["status"] == "no-counterexample(10)"


def test_cli_seed_env_override():
    proc = run_cli("scan", "--algebra", "F4", "--f", "frob:1", "--g", "frob:1",
                   env_extra={"TWISTKIT_SEED": "7"})
    assert "seed=7" in proc.stdout.splitlines()[0]


@pytest.mark.parametrize("args, env_extra", [
    (["twist", "--algebra", "H", "--c", "[1,x,0,0]", "--f", "id", "--g", "id"], None),
    (["twist", "--algebra", "H", "--c", "[1,0,0,0]", "--f", "inner:[0,0", "--g", "id"], None),
    (["scan", "--algebra", "F4", "--f", "frob:1", "--g", "frob:1"], {"TWISTKIT_SEED": "x"}),
], ids=["bad-c", "bad-map-json", "bad-seed"])
def test_cli_bad_input_exits_2(args, env_extra):
    proc = run_cli(*args, env_extra=env_extra)
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_cli_declared_dim_mismatch_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"kind": "prime", "p": 5}, "dim": 2,
                                "table": [[[1]]], "unit": None, "label": "bad", "norm": None}))
    proc = run_cli("check-division", "--algebra", str(path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr
    assert "certified" not in proc.stdout


def test_cli_bad_scalar_in_algebra_file_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"field": {"kind": "rational"}, "dim": 1,
                                "table": [[["1/0"]]], "unit": None, "label": "bad"}))
    proc = run_cli("check-division", "--algebra", str(path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


def test_bundled_scenario_names_stable():
    assert set(BUNDLED) == {
        "albert-f9", "albert-f27", "albert-f4", "hurwitz-structure",
        "reflection-star-oracle", "involution-star-oracle",
        "twist-containment", "subalgebra-kaplanski", "commutative-twist",
    }


@pytest.mark.parametrize("step, fail_line", [
    ({"op": "multiply", "algebra": "H", "x": "[0,1,0,0]"},
     "FAIL [02] multiply: error step lacks 'y'"),
    ({"op": "similarity", "algebra": "H", "map": "@nope", "expect": "1"},
     "FAIL [02] similarity: error unknown map label '@nope'"),
    ({"op": "criterion", "twist": "T9", "expect": "guaranteed"},
     "FAIL [02] criterion: error unknown twist label 'T9'"),
    ({"algebra": "H"}, "FAIL [02] None: error step lacks 'op'"),
    # a list holds the steps that follow a field K = F_5
    ([{"op": "field-arith", "field": "K", "a": "1", "b": "0", "operation": "add",
       "expect": "2"}], "FAIL [03] field-arith.expect: expected 2 got 1"),
    ([{"op": "field-arith", "field": "K", "a": "1", "b": "0", "operation": "div"}],
     "FAIL [03] field-arith: error division by zero in F_5"),
    ([{"op": "field-arith", "field": "K", "a": "1", "b": "2", "operation": "pow"}],
     "FAIL [03] field-arith: error unknown field-arith operation 'pow'"),
], ids=["missing-key", "unknown-map", "unknown-twist", "missing-op",
        "add-zero", "div-zero", "unknown-arith"])
def test_scenario_spec_errors_are_fail_lines(step, fail_line):
    if isinstance(step, dict):
        step = [step]
    else:
        step = [{"op": "field", "label": "K", "spec": {"kind": "prime", "p": 5}}] + step
    scen = {"name": "spec-error",
            "steps": [{"op": "build", "label": "H", "spec": {"fixture": "H"}}] + step}
    report, ok, _ = scenario_run(scen, seed=0)
    assert not ok
    assert fail_line in report.splitlines()


FI, GJ = "inner:[0,1,0,0]", "inner:[0,0,1,0]"
RI, RJ = "reflection:[0,1,0,0]", "reflection:[0,0,1,0]"
T, F = True, False
# the exact stdout of verify-closed-form for each case family, pinned as the
# documents it prints (sorted keys, indent 1)
CLOSED_FORM_GOLDEN = [
    ("H", "reflections-1", ["--c", "2", "--f", FI, "--g", GJ],
     {"corrected_matches": T, "first_mismatch": [0, 0], "verbatim_matches": F}),
    ("H", "reflections-1", ["--c", "3", "--f", RI, "--g", RJ],
     {"corrected_matches": T, "first_mismatch": [0, 0], "verbatim_matches": F}),
    ("H", "assoc-1", ["--c", "[1,2,0,0]", "--f", FI, "--g", GJ],
     {"proper_matches": T, "substituted_matches": T, "verbatim_matches": T}),
    ("H", "assoc-3", ["--c", "[1,2,0,0]", "--f", FI, "--g", GJ],
     {"proper_matches": T, "substituted_matches": F, "verbatim_matches": F}),
    ("H", "assoc-5", ["--c", "[1,2,0,0]", "--f", FI, "--g", GJ],
     {"proper_matches": T, "substituted_matches": F, "verbatim_matches": F}),
    ("H", "assoc-7", ["--c", "[1,2,0,0]", "--f", FI, "--g", GJ],
     {"proper_matches": T, "substituted_matches": T, "verbatim_matches": F}),
    ("H", "assoc-9", ["--c", "[1,2,0,0]", "--f", FI, "--g", GJ],
     {"proper_matches": T, "substituted_matches": T, "verbatim_matches": F}),
    ("H", "assoc-11", ["--c", "[1,2,0,0]", "--f", FI, "--g", GJ],
     {"proper_matches": T, "substituted_matches": F, "verbatim_matches": F}),
    ("H", "assoc-3", ["--c", "2", "--f", FI, "--g", GJ],
     {"proper_matches": T, "substituted_matches": T, "verbatim_matches": T}),
    ("H", "involution-1", ["--c", "2"], {"first_mismatch": None, "matches": T}),
    ("H", "involution-7.1", ["--c", "1/2"], {"first_mismatch": None, "matches": T}),
    ("H", "involution-7.2", ["--c", "-3"], {"first_mismatch": None, "matches": T}),
    ("O", "involution-1", ["--c", "2"], {"first_mismatch": None, "matches": T}),
    ("O", "involution-7.1", ["--c", "2"], {"first_mismatch": None, "matches": T}),
    ("O", "involution-7.2", ["--c", "3"], {"first_mismatch": None, "matches": T}),
    ("H", "inverse-involution", ["--c", "2", "--f", "conj"],
     {"composes_to_id": T, "matches_generic": T}),
    ("H", "inverse-reflection", ["--c", "2", "--f", RI, "--side", "right"],
     {"composes_to_id": T, "matches_generic": T}),
    ("cyclicQ", "inverse-series",
     ["--c", "[0,1,0,0]", "--f", GJ, "--n", "2", "--side", "left"],
     {"composes_to_id": T, "matches_generic": T}),
    ("cyclicQ", "inverse-series",
     ["--c", "[0,1,0,0]", "--f", GJ, "--n", "2", "--side", "right"],
     {"composes_to_id": T, "matches_generic": T}),
]


@pytest.mark.parametrize("alg, case, extra, fields", CLOSED_FORM_GOLDEN,
                         ids=[f"{a}-{c}-{i}" for i, (a, c, _, _) in
                              enumerate(CLOSED_FORM_GOLDEN)])
def test_cli_verify_closed_form_golden(alg, case, extra, fields, capsys):
    code = main(["verify-closed-form", "--algebra", alg, "--case", case, *extra])
    doc = {"seed": 0, "algebra": alg, "case": case, **fields}
    assert code == 0
    assert capsys.readouterr().out == json.dumps(doc, sort_keys=True, indent=1) + "\n"


def test_cli_verify_closed_form_unknown_case(capsys):
    assert main(["verify-closed-form", "--algebra", "H", "--case", "bogus",
                 "--c", "2"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "unknown closed-form case 'bogus'" in out.err
