"""twistkit benchmark: one workload per run, result as a JSON line.

    python3 bench/run.py --workload bundle|scan|division --seed N \
        --seconds S --trace 0|1

Run from the repository root.  With --trace 0 the workload's ops run in
passes, one op at a time, until S seconds have gone by, with host speed
samples (calib.py) between them; the last stdout line holds the end-to-end
metrics of BENCHMARK.json, their times scaled to the reference host speed.  With --trace 1 the
workload runs one untraced pass, one traced pass (set-up included) and one
Scalar-op counting pass, whatever S is, because per-layer counts must repeat
exactly; the last line holds the per-layer metrics and the spans go to
.bench_build/bench/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
CAL_EVERY_S = 0.2   # at most one host speed sample per this many seconds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["bundle", "scan", "division"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--setup-only", action="store_true",
                    help="import twistkit, make the inputs and exit (one set-up sample)")
    return ap.parse_args(argv)


def setup(name, seed, workdir):
    """Import twistkit and make the workload's inputs; returns its ops."""
    import twistkit.cli  # noqa: F401  (imports every twistkit module)
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, workdir)


def measure_setup(args):
    """Wall times of SETUP_REPEATS fresh processes that each start the
    interpreter, import twistkit, make the inputs and exit, and host speed
    samples taken before and after each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    times, speed = [], []
    for _ in range(SETUP_REPEATS):
        speed.append(calib.sample())
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        speed.append(calib.sample())
    return times, speed


class Pass:
    """Outcome of running every op of a workload once."""

    def __init__(self):
        self.times = []          # (op id, op, seconds) of timed ops that passed
        self.failures = []       # (op, reason) of timed ops
        self.probe_errors = []   # (op, reason) of probes
        self.not_ok = set()      # ids of ops that failed, known defects included

    @property
    def wall_s(self):
        return sum(t for _, _, t in self.times)


def run_pass(ops, tracer=None, deadline=None, before_op=None, repeat=False):
    """Run every op once, or the ops before `deadline` (a perf_counter time).
    With `repeat`, a timed op runs again until its runs add up to its
    `min_s`, so that a short op gets as many samples as a long one."""
    res = Pass()
    for op_id, op in enumerate(ops, start=1):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if before_op is not None:
            before_op()
        if tracer is not None:
            tracer.op_id = op_id
        probe = op.known_defect is not None
        spent = 0.0
        while True:
            try:
                t0 = time.perf_counter()
                out = op.call()
                dt = time.perf_counter() - t0
                if probe and op.known_defect(out):
                    res.not_ok.add(op_id)
                    break
                op.check(out)
            except Exception as exc:  # OracleError or a twistkit failure: the op failed
                reason = f"{type(exc).__name__}: {exc}"
                (res.probe_errors if probe else res.failures).append((op.label, reason))
                res.not_ok.add(op_id)
                break
            if probe:
                break
            res.times.append((op_id, op, dt))
            spent += dt
            if not repeat or spent >= op.min_s:
                break
    return res


def counts_of(passes, ops):
    """correct, attempted, failed and the share of the workload's ops, probes
    included, that never failed."""
    attempted = sum(len(p.times) + len(p.failures) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    correct = failed == 0 and not any(p.probe_errors for p in passes)
    not_ok = set().union(*(p.not_ok for p in passes))
    return correct, attempted, failed, 1 - len(not_ok) / len(ops)


def report_errors(passes):
    for p in passes:
        for label, reason in p.failures + p.probe_errors:
            print(f"FAILED {label}: {reason}", file=sys.stderr)


def timed_run(args, ops, workdir):
    """Passes over the ops until --seconds have gone by; the last pass stops
    at the deadline.  Each op counts with its mean time over the run, scaled
    to the reference host speed by the mean of the speed samples taken
    between the ops (see calib.py)."""
    probe = calib.Probe(CAL_EVERY_S)
    start = time.perf_counter()
    passes = [run_pass(ops, before_op=probe.maybe, repeat=True)]
    while time.perf_counter() - start < args.seconds:
        passes.append(run_pass(ops, deadline=start + args.seconds, before_op=probe.maybe,
                               repeat=True))
    report_errors(passes)
    correct, attempted, failed, ok_share = counts_of(passes, ops)
    samples = {}
    for p in passes:
        for op_id, _, t in p.times:
            samples.setdefault(op_id, []).append(t)
    times = [statistics.fmean(v) for v in samples.values()]
    scale = probe.scale()
    values = {
        "wall_s": sum(times) * scale,
        "op_rate_per_s": 1 / (statistics.geometric_mean(times) * scale) if times else 0.0,
        "ok_share": ok_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"speed_samples": probe.samples,
           "passes": [[(op.label, t) for _, op, t in p.times] for p in passes]}
    (workdir / f"times-{args.workload}-seed{args.seed}.json").write_text(json.dumps(raw))
    print(f"# {args.workload} seed={args.seed}: {len(passes)} passes, "
          f"{attempted} timed ops, {failed} failed; unscaled wall_s {sum(times):.4f}, "
          f"scale {scale:.4f} from {len(probe.samples)} speed samples", file=sys.stderr)
    return correct, attempted, failed, values


def rates(res):
    """Work per second of each op kind in one untraced pass."""
    def per(kind):
        timed = [(op, t) for _, op, t in res.times if op.kind == kind]
        total = sum(t for _, t in timed)
        return sum(op.work for op, _ in timed) / total if total else 0.0
    return {
        "workload.scan_c_per_s": per("scan"),
        "workload.certify_elems_per_s": per("certify"),
        "workload.refutes_per_s": per("refute"),
    }


SPAN_STAT = re.compile(r"(?P<span>.+)\.(?P<stat>calls|self_s|incl_s)(?:\.(?P<kind>fp|q))?")


def traced_run(args, ops, workdir):
    from spans import OpCounter, Tracer
    plain = run_pass(ops)

    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(setup(args.workload, args.seed, workdir), tracer)  # op 0: set-up
    finally:
        tracer.uninstall()
    tracer.dump(workdir / f"trace-{args.workload}-seed{args.seed}.tsv")

    counter = OpCounter()
    counter.install()
    try:
        counted = run_pass(ops)
    finally:
        counter.uninstall()

    passes = [plain, traced, counted]
    report_errors(passes)
    correct, attempted, failed, _ = counts_of(passes, ops)
    calls, incl, self_s, x_per_elem, y_per_witness = tracer.summary()
    stats = {"calls": calls, "incl_s": incl, "self_s": self_s}
    special = {f"fields.ops.{kind}": n for kind, n in counter.counts().items()}
    special.update(rates(plain))
    special.update({
        "linalg.rref.cells.q": tracer.rref_cells_q,
        "twist.x_per_elem": x_per_elem,
        "twist.y_per_witness": y_per_witness,
        "trace.overhead_s": traced.wall_s - plain.wall_s,
    })

    def value(name):
        if name in special:
            return special[name]
        m = SPAN_STAT.fullmatch(name)
        if m is None:
            raise KeyError(f"no rule for per-layer metric {name}")
        span = m["span"] + (f".{m['kind']}" if m["kind"] else "")
        return stats[m["stat"]].get(span, 0)
    return correct, attempted, failed, value


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "twistkit" / "__init__.py").is_file():
        print(f"error: no twistkit sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_build" / "bench"
    workdir.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        setup(args.workload, args.seed, workdir)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        ops = setup(args.workload, args.seed, workdir)
        correct, attempted, failed, value = traced_run(args, ops, workdir)
        metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        setup_times, setup_speed = measure_setup(args)
        ops = setup(args.workload, args.seed, workdir)
        correct, attempted, failed, values = timed_run(args, ops, workdir)
        values["setup_s"] = (statistics.median(setup_times) * calib.REF_S
                             / statistics.median(setup_speed))
        print(f"# set-up samples: {setup_times}; speed samples: {setup_speed}", file=sys.stderr)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
