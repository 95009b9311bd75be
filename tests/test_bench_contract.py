"""What the benchmark under bench/ reaches in twistkit still exists and still
works: every name its tracer patches, the `twistkit.twist` module in
sys.modules, and each seed-1 op of every workload with its oracle check and
pinned digests.  Nothing under bench/ is changed; its modules are imported
from there."""

import importlib
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_modules():
    sys.path.insert(0, str(BENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        yield importlib.import_module("spans"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = write_bytecode


def test_traced_names_resolve(bench_modules):
    spans, _ = bench_modules
    for modname, fname, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(modname), fname)), (modname, fname)
    for modname, clsname, meth, _ in spans.METHODS:
        cls = getattr(importlib.import_module(modname), clsname)
        assert callable(vars(cls)[meth]), (clsname, meth)
    assert callable(sys.modules["twistkit.twist"].division_exhaustive)
    assert callable(importlib.import_module("twistkit.scenario").scenario_run)
    assert callable(vars(importlib.import_module("twistkit.linalg").Matrix)["rref"])
    fields = importlib.import_module("twistkit.fields")
    for clsname, _ in spans.OpCounter.KINDS:
        for meth in ("_add", "_neg", "_mul", "_inv"):
            assert callable(vars(getattr(fields, clsname))[meth]), (clsname, meth)


def test_twist_module_in_sys_modules():
    importlib.import_module("twistkit.twist")
    mod = sys.modules["twistkit.twist"]
    assert isinstance(mod, types.ModuleType)
    assert callable(mod.twist) and callable(mod.TwistSpec)


def test_tracer_installs_and_restores(bench_modules):
    spans, _ = bench_modules
    algebra = importlib.import_module("twistkit.algebra")
    twist_mod = sys.modules["twistkit.twist"]
    before = (algebra.Algebra.multiply, twist_mod.twist, twist_mod.division_exhaustive)
    for recorder in (spans.Tracer(), spans.OpCounter()):
        recorder.install()
        recorder.uninstall()
    assert (algebra.Algebra.multiply, twist_mod.twist, twist_mod.division_exhaustive) == before


def test_division_ops_pass_their_checks(bench_modules, tmp_path):
    _, workloads = bench_modules
    ops = workloads.division(1, tmp_path)
    assert len(ops) == len(workloads.LADDER) + (
        workloads.REFUTES_PER_FIELD * len(workloads.REFUTE_FIELDS))
    for op in ops:
        op.check(op.call())


@pytest.mark.parametrize("workload", ["bundle", "scan"])
def test_cli_ops_pass_their_checks(bench_modules, tmp_path, workload):
    """The rule of `run_pass` in bench/run.py: a probe passes when it shows
    its known defect, and otherwise its check must pass, as every other op's."""
    _, workloads = bench_modules
    for op in workloads.WORKLOADS[workload](1, tmp_path):
        out = op.call()
        if op.known_defect is None or not op.known_defect(out):
            op.check(out)
