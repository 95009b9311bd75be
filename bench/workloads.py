"""The three workloads: their inputs, made from the seed, and their ops.

An op is one call into twistkit, timed on its own, plus a check of its output
against `oracle` or a pinned digest.  CLI ops call `twistkit.cli.main` in the
benchmark's process with stdout captured, and each loads its algebra afresh
(from a fixture or a file), as a real invocation does.  Library ops hand
twistkit fresh map matrices, so no cached determinant carries over between
passes.  twistkit is reached through `sys.modules` at call time, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from oracle import GF, OracleError, parse_vector

PINS = json.loads((Path(__file__).parent / "pins.json").read_text(encoding="utf-8"))

CAP_MESSAGE = "multiplicativity exhaustion cap exceeded"


def _tk(name):
    return sys.modules["twistkit." + name]


def _ints(vec):
    return tuple(int(repr(v)) for v in vec)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = _tk("cli").main(argv)
    return rc, out.getvalue(), err.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _oracle_for(alg):
    """Reference field for a twistkit F_{p^n} algebra, after checking every
    structure constant against it."""
    return GF.from_table(alg.field.order(), [[_ints(cell) for cell in row] for row in alg.table])


def _frob_pair(rng, n, lo=0):
    """Frobenius powers s, t in lo..n-1 with s or t prime to n."""
    while True:
        s, t = rng.randrange(lo, n), rng.randrange(lo, n)
        if gcd(s, n) == 1 or gcd(t, n) == 1:
            return s, t


def _draw_c(rng, gf, division):
    """A nonzero c with N(c) != 1 (division) or N(c) = 1."""
    while True:
        c = gf.element_at(rng.randrange(1, gf.order))
        if gf.is_division(c) == division:
            return c


@dataclass
class Op:
    """`call` runs twistkit; `check` raises OracleError on a wrong output.
    `work` counts what the op's per-kind rate counts.  In a timed pass the op
    runs again until its runs add up to `min_s` seconds.  An op with a
    `known_defect` test is a probe: run and checked every pass, never timed,
    and `known_defect(output)` says whether it failed the way it does today."""
    label: str
    call: object
    check: object
    kind: str = ""
    work: int = 0
    known_defect: object = None
    min_s: float = 0.0


# -- bundle ------------------------------------------------------------------

# Three scenarios take milliseconds; each pass repeats them to this many
# seconds, so that their mean time is as steady as that of the long ones.
BUNDLE_MIN_S = 0.1


def bundle(seed, workdir):
    """`twistkit scenario --name <name>`, one op per bundled scenario; the
    bundled inputs do not depend on the seed.  `scenario --all` prints these
    reports back to back plus a summary line, so pinning each one pins it."""
    names = sorted(_tk("scenario").BUNDLED)
    if names != sorted(PINS["bundle"]):
        raise OracleError(f"bundled scenarios {names} differ from the pinned ones")

    def op(name):
        def check(out):
            rc, text, err = out
            if rc != 0:
                raise OracleError(f"scenario {name} exited {rc}: {err.strip()}")
            if not text.splitlines()[-1].startswith("result=ok "):
                raise OracleError(f"scenario {name} does not end in result=ok")
            if _digest(text) != PINS["bundle"][name]:
                raise OracleError(f"scenario {name} differs from the pinned digest")
        return Op(f"scenario {name}", lambda: _cli(["--seed", "0", "scenario", "--name", name]),
                  check, kind="bundle", min_s=BUNDLE_MIN_S)
    return [op(name) for name in names]


# -- scan --------------------------------------------------------------------

SCAN_LINE = re.compile(r"c=(\[[^\]]*\]) N\(c\)=(\d+) "
                       r"status=(?:division|zero-divisor\((\[[^\]]*\]);(\[[^\]]*\])\)) "
                       r"criterion=(\S+)")


def check_scan(text, gf, header, variant, s, t):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise OracleError(f"scan header {lines[:1]} != {header!r}")
    if len(lines) != gf.order + 1:
        raise OracleError(f"scan has {len(lines) - 1} records, want {gf.order}")
    for idx, line in enumerate(lines[1:]):
        m = SCAN_LINE.fullmatch(line)
        if m is None:
            raise OracleError(f"unparsed scan line {line!r}")
        c = parse_vector(m[1])
        if c != gf.element_at(idx):
            raise OracleError(f"record {idx} is for c={c}")
        if int(m[2]) != gf.norm(c):
            raise OracleError(f"N({c}) printed as {m[2]}, is {gf.norm(c)}")
        division = gf.is_division(c)
        if (m[3] is None) != division:
            raise OracleError(f"c={c}: status disagrees with N(c) = {gf.norm(c)}")
        if m[5] != ("guaranteed" if division else "not-guaranteed"):
            raise OracleError(f"c={c}: criterion {m[5]}")
        if not division:
            gf.check_witness(parse_vector(m[3]), parse_vector(m[4]), c, variant, s, t)


def check_unitalize(doc, gf, c, variant, s, t):
    division = gf.is_division(c)
    want = {"norm_of_c": str(gf.norm(c)), "threshold": "1",
            "division_status": "certified-exhaustive" if division else "zero-divisor",
            "criterion": "guaranteed" if division else "not-guaranteed",
            "star_unit": gf.circ(gf.one, gf.one, c, variant, s, t)}
    got = dict(doc)
    if "star_unit" in doc:
        got["star_unit"] = parse_vector(doc["star_unit"])
    for key, value in want.items():
        if got.get(key) != value:
            raise OracleError(f"unitalize {key}: {got.get(key)!r} != {value!r}")
    if not division:
        x, y = (parse_vector(v) for v in doc["witness"])
        gf.check_witness(x, y, c, variant, s, t)
        # Kaplanski with a = b = 1 sends the witness to (R_1 x, L_1 y)
        sx, sy = (parse_vector(v) for v in doc["star_witness"])
        if (sx, sy) != (gf.circ(x, gf.one, c, variant, s, t), gf.circ(gf.one, y, c, variant, s, t)):
            raise OracleError("star witness is not the transported witness")


def _vec_arg(c):
    return "[" + ",".join(str(v) for v in c) + "]"


# Seeded scans, one per field: (p, n).  F27 is the bundled fixture.
SCAN_FIELDS = [(5, 2), (3, 3), (7, 2)]


def scan(seed, workdir):
    """CLI scans: the albert-f27 case and one seeded instance on each field of
    SCAN_FIELDS; CLI unitalize: the albert-f27 case with c = t and a seeded
    division instance on F49.  All timed.  Three unitalize probes of the
    ROADMAP item 4 defect, untimed."""
    tk_fields, builders, fixtures, serial = (_tk(m) for m in ("fields", "builders", "fixtures", "serial"))
    rng = random.Random(seed)
    ops, algebras = [], {}

    def algebra(p, n):
        """The CLI's --algebra argument for F_{p^n} and its oracle field."""
        label = f"F{p ** n}"
        if label not in algebras:
            if label in fixtures.fixture_names():
                algebras[label] = (label, _oracle_for(fixtures.fixture(label)))
            else:
                alg = builders.extension_as_algebra(tk_fields.ExtensionField(p, n), label=label)
                path = workdir / f"{label}.json"
                serial.write_algebra(alg, path)
                algebras[label] = (str(path), _oracle_for(alg))
        return label, *algebras[label]

    def scan_op(label, algebra_arg, gf, variant, s, t):
        digest = PINS["scan"][label][f"v{variant}-s{s}-t{t}"]
        argv = ["--seed", "0", "scan", "--algebra", algebra_arg, "--variant", str(variant),
                "--f", f"frob:{s}", "--g", f"frob:{t}"]
        header = f"# scan algebra={label} variant={variant} f=frob:{s} g=frob:{t} seed=0"

        def check(out):
            rc, text, err = out
            if rc != 0:
                raise OracleError(f"scan {label} exited {rc}: {err.strip()}")
            check_scan(text, gf, header, variant, s, t)
            if _digest(text) != digest:
                raise OracleError(f"scan {label} differs from the pinned digest")
        return Op(f"scan {label} v{variant} frob:{s}/frob:{t}", lambda: _cli(argv), check,
                  kind="scan", work=gf.order)

    def unitalize_argv(algebra_arg, c, variant, s, t):
        return ["--seed", "0", "unitalize", "--algebra", algebra_arg, "--variant", str(variant),
                "--c", _vec_arg(c), "--f", f"frob:{s}", "--g", f"frob:{t}"]

    def unitalize_check(label, gf, c, variant, s, t, digest=None):
        def check(out):
            rc, text, err = out
            if rc != 0:
                raise OracleError(f"unitalize {label} exited {rc}: {err.strip()}")
            check_unitalize(json.loads(text), gf, c, variant, s, t)
            if digest is not None and _digest(text) != digest:
                raise OracleError(f"unitalize {label} differs from the pinned digest")
        return check

    label, arg27, gf27 = algebra(3, 3)
    ops.append(scan_op(label, arg27, gf27, 1, 1, 2))
    for p, n in SCAN_FIELDS:
        label, arg, gf = algebra(p, n)
        variant, (s, t) = rng.randint(1, 12), _frob_pair(rng, n)
        ops.append(scan_op(label, arg, gf, variant, s, t))

    c27 = gf27.basis(1)
    ops.append(Op("unitalize F27 c=t", lambda: _cli(unitalize_argv(arg27, c27, 1, 1, 2)),
                  unitalize_check("F27", gf27, c27, 1, 1, 2, PINS["unitalize_f27"]),
                  kind="unitalize"))
    label, arg49, gf49 = algebra(7, 2)
    variant, (s, t) = rng.randint(1, 12), _frob_pair(rng, 2)
    c49 = _draw_c(rng, gf49, True)
    argv49 = unitalize_argv(arg49, c49, variant, s, t)
    ops.append(Op(f"unitalize F49 v{variant} frob:{s}/frob:{t} c={c49}", lambda: _cli(argv49),
                  unitalize_check("F49", gf49, c49, variant, s, t), kind="unitalize"))

    for p, n in ((13, 3), (3, 7), (5, 5)):
        alg = builders.extension_as_algebra(tk_fields.ExtensionField(p, n), label=f"F{p}^{n}")
        path = workdir / f"F{p}_{n}.json"
        serial.write_algebra(alg, path)
        gf = _oracle_for(alg)
        pv, (ps, pt) = rng.randint(1, 12), _frob_pair(rng, n)
        c = gf.element_at(rng.randrange(1, gf.order))
        argv = unitalize_argv(str(path), c, pv, ps, pt)
        ops.append(Op(f"probe unitalize F{p}^{n}", lambda argv=argv: _cli(argv),
                      unitalize_check(f"F{p}^{n}", gf, c, pv, ps, pt),
                      known_defect=lambda out: out[0] == 2 and CAP_MESSAGE in out[2]))
    return ops


# -- division ----------------------------------------------------------------

# One certify instance per field, N(c) != 1: every x is scanned.
LADDER = [(7, 3), (5, 4), (11, 3), (13, 3), (7, 4), (3, 6), (5, 5), (3, 7)]
# N(c) = 1: the scan stops at the first singular L_x and searches a y.  The
# powers s, t are nonzero: with f or g the identity only a few x are
# singular, the scan runs to a position that the draw decides, and the time
# of the set would follow the seed (the ladder covers the full scan).
REFUTE_FIELDS = [(2, 8), (3, 5), (3, 6), (3, 7), (5, 4), (5, 5), (7, 3), (11, 3), (13, 3)]
REFUTES_PER_FIELD = 48


def division(seed, workdir):
    """Library twist() + division_exhaustive() on the certify ladder and on
    REFUTES_PER_FIELD refutations per field of REFUTE_FIELDS."""
    tk_fields, builders, linalg, twist_mod = (_tk(m) for m in ("fields", "builders", "linalg", "twist"))
    rng = random.Random(seed)
    fields, maps = {}, {}

    def field_of(p, n):
        if (p, n) not in fields:
            alg = builders.extension_as_algebra(tk_fields.ExtensionField(p, n))
            fields[(p, n)] = (alg, _oracle_for(alg))
        return fields[(p, n)]

    def frob_rows(p, n, k):
        if (p, n, k) not in maps:
            maps[(p, n, k)] = builders.make_map(field_of(p, n)[0], f"frob:{k}").rows
        return maps[(p, n, k)]

    def instance(p, n, certify):
        alg, gf = field_of(p, n)
        variant, (s, t) = rng.randint(1, 12), _frob_pair(rng, n, lo=0 if certify else 1)
        c = _draw_c(rng, gf, certify)
        F = alg.field
        cvec = [F.element(v) for v in c]
        frows, grows = frob_rows(p, n, s), frob_rows(p, n, t)

        def call():
            spec = twist_mod.TwistSpec(variant, cvec, linalg.Matrix(F, frows),
                                       linalg.Matrix(F, grows))
            return twist_mod.division_exhaustive(twist_mod.twist(alg, spec))

        def check(out):
            status, witness = out
            if certify:
                if status != "certified":
                    raise OracleError(f"F_{p}^{n} c={c}: {status}, but N(c) != 1")
            else:
                if status != "zero-divisor":
                    raise OracleError(f"F_{p}^{n} c={c}: {status}, but N(c) = 1")
                gf.check_witness(_ints(witness[0]), _ints(witness[1]), c, variant, s, t)
        if certify:
            return Op(f"certify F_{p}^{n} v{variant} s{s} t{t} c={c}", call, check,
                      kind="certify", work=gf.order - 1)
        return Op(f"refute F_{p}^{n} v{variant} s{s} t{t} c={c}", call, check,
                  kind="refute", work=1)

    ops = [instance(p, n, True) for p, n in LADDER]
    for _ in range(REFUTES_PER_FIELD):
        ops += [instance(p, n, False) for p, n in REFUTE_FIELDS]
    return ops


WORKLOADS = {"bundle": bundle, "scan": scan, "division": division}
