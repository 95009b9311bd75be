"""Command line front end.

Exit codes: 0 on success, 1 on a failed expected-result assertion, 2 on
usage/spec errors.  --seed (default 0, overridable via TWISTKIT_SEED) drives
only the char-0 division probe; it is recorded in every report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import nucleus
from .analyzer import derivation_report
from .builders import make_map
from .closedforms import inverse_check, star_case
from .errors import SpecError, TwistkitError
from .fixtures import fixture, fixture_names
from .linalg import format_vector
from .scenario import (BUNDLED, load_scenario, run_bundle, scenario_run)
from .serial import (build_from_spec, read_algebra, twist_spec_from_json,
                     write_algebra)
from .twist import (division_exhaustive, division_probe_char0, run_twist,
                    scan_c, twist_spec_from_parts)


def _load_algebra(ref: str):
    if os.path.exists(ref):
        return read_algebra(ref)
    if ref in fixture_names():
        return fixture(ref)
    raise SpecError(f"--algebra {ref!r}: not a file and not a fixture "
                    f"(known fixtures: {fixture_names()})")


def _emit(doc: dict):
    print(json.dumps(doc, sort_keys=True, indent=1))


def _twist_spec(alg, args):
    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            return twist_spec_from_json(alg, json.load(fh))
    if args.c is None or args.f is None or args.g is None:
        raise SpecError("either --spec or all of --variant/--c/--f/--g are required")
    return twist_spec_from_parts(alg, args.variant, args.c, args.f, args.g,
                                 h_spec=args.h)


def cmd_build(args, seed):
    with open(args.spec, encoding="utf-8") as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpecError(f"bad spec file: {exc}") from exc
    alg = build_from_spec(spec)
    if args.out:
        write_algebra(alg, args.out)
    _emit({"seed": seed, "label": alg.label, "dim": alg.dim,
           "unit": format_vector(alg.unit) if alg.unit else None,
           "norm": alg.norm.kind if alg.norm else None,
           "out": args.out})
    return 0


def cmd_export(args, seed):
    alg = _load_algebra(args.fixture)
    write_algebra(alg, args.out)
    _emit({"seed": seed, "label": alg.label, "out": args.out})
    return 0


def cmd_twist(args, seed, unitalize=False):
    alg = _load_algebra(args.algebra)
    spec = _twist_spec(alg, args)
    result = run_twist(alg, spec, probe_trials=args.trials, seed=seed)
    doc = {
        "seed": seed,
        "algebra": alg.label,
        "variant": spec.variant,
        "division_status": result.division_status,
        "criterion": result.criterion.verdict,
        "threshold": repr(result.criterion.threshold)
        if result.criterion.threshold is not None else None,
        "norm_of_c": repr(result.criterion.norm_of_c)
        if result.criterion.norm_of_c is not None else None,
    }
    if result.witness:
        doc["witness"] = [format_vector(v) for v in result.witness]
    if unitalize:
        if result.star is None:
            raise SpecError(f"unitalization failed: {result.kaplanski_note}")
        doc["star_unit"] = format_vector(result.star.unit)
        if result.star_witness:
            doc["star_witness"] = [format_vector(v) for v in result.star_witness]
        if args.out:
            write_algebra(result.star, args.out)
            doc["out"] = args.out
    elif args.out:
        write_algebra(result.circ, args.out)
        doc["out"] = args.out
    _emit(doc)
    return 0


def cmd_check_division(args, seed):
    alg = _load_algebra(args.algebra)
    doc = {"seed": seed, "algebra": alg.label}
    if alg.field.order() is not None:
        status, witness = division_exhaustive(alg)
        doc["status"] = status
        if witness:
            doc["witness"] = [format_vector(v) for v in witness]
    else:
        rep = division_probe_char0(alg, args.trials, seed=seed)
        doc["status"] = rep.describe()
    _emit(doc)
    return 0


def cmd_scan(args, seed):
    alg = _load_algebra(args.algebra)
    f = make_map(alg, args.f)
    g = make_map(alg, args.g)
    rep = scan_c(alg, args.variant, f, g, seed=seed, f_desc=args.f, g_desc=args.g)
    sys.stdout.write(rep.text())
    return 0


def cmd_derivations(args, seed):
    alg = _load_algebra(args.algebra)
    fixing = alg.element_from_string(args.fix) if args.fix else None
    doc = derivation_report(alg, fixing=fixing)
    doc["seed"] = seed
    _emit(doc)
    return 0


def cmd_nuclei(args, seed):
    alg = _load_algebra(args.algebra)
    doc = {"seed": seed, "algebra": alg.label or "?"}
    sides = [args.side] if args.side != "every" else \
        ["left", "middle", "right", "all", "center"]
    for side in sides:
        basis = nucleus(alg, side)
        doc[side] = {"dim": len(basis), "basis": [format_vector(v) for v in basis]}
    _emit(doc)
    return 0


def cmd_verify_closed_form(args, seed):
    alg = _load_algebra(args.algebra)
    doc = {"seed": seed, "algebra": alg.label, "case": args.case}
    maps = {k: make_map(alg, getattr(args, k)) for k in ("f", "g", "tau")
            if getattr(args, k) is not None}
    if args.case.startswith("inverse-"):
        matches, composes = inverse_check(alg, args.case[len("inverse-"):], args.c,
                                          maps.get("f"), args.n, args.side)
        doc.update(matches_generic=matches, composes_to_id=composes)
    else:
        _, fields = star_case(alg, args.case, args.c, **maps)
        doc.update((k, v) for k, v in fields if k != "c")
    _emit(doc)
    return 0


def cmd_scenario(args, seed):
    if not (args.all or args.name or args.file):
        raise SpecError("scenario needs one of --all, --name, --file")
    if args.all:
        report, ok, _ = run_bundle(seed=seed)
        sys.stdout.write(report)
        return 0 if ok else 1
    if args.name:
        if args.name not in BUNDLED:
            raise SpecError(f"unknown bundled scenario {args.name!r}; "
                            f"known: {sorted(BUNDLED)}")
        scen = BUNDLED[args.name]
    else:
        scen = load_scenario(args.file)
    report, ok, _ = scenario_run(scen, seed=seed)
    sys.stdout.write(report)
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="twistkit",
        description="exact construction and analysis of twisted division algebras")
    parser.add_argument("--seed", type=int,
                        default=os.environ.get("TWISTKIT_SEED", "0"))
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="build an algebra from a builder spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")

    p = subs.add_parser("export", help="write a bundled fixture to an algebra file")
    p.add_argument("--fixture", required=True)
    p.add_argument("--out", required=True)

    for name in ("twist", "unitalize"):
        p = subs.add_parser(name, help=f"{name} a twisted product")
        p.add_argument("--algebra", required=True)
        p.add_argument("--spec", help="twist spec JSON file")
        p.add_argument("--variant", type=int, default=1)
        p.add_argument("--c")
        p.add_argument("--f")
        p.add_argument("--g")
        p.add_argument("--h")
        p.add_argument("--trials", type=int, default=0)
        p.add_argument("--out")

    p = subs.add_parser("check-division", help="exhaustive or probe division check")
    p.add_argument("--algebra", required=True)
    p.add_argument("--trials", type=int, default=100)

    p = subs.add_parser("scan", help="per-c division scan over a finite algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--variant", type=int, default=1)
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = subs.add_parser("derivations", help="derivation algebra report")
    p.add_argument("--algebra", required=True)
    p.add_argument("--fix", help="vector c for Der_c")

    p = subs.add_parser("nuclei", help="nucleus dimensions and bases")
    p.add_argument("--algebra", required=True)
    p.add_argument("--side", default="every",
                   choices=["left", "middle", "right", "all", "center", "every"])

    p = subs.add_parser("verify-closed-form", help="closed forms vs generic pipeline")
    p.add_argument("--algebra", required=True)
    p.add_argument("--case", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--f")
    p.add_argument("--g")
    p.add_argument("--tau")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--side", default="left", choices=["left", "right"])

    p = subs.add_parser("scenario", help="run a scenario file or bundled scenario")
    p.add_argument("--file")
    p.add_argument("--name")
    p.add_argument("--all", action="store_true")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    seed = args.seed

    handlers = {
        "build": cmd_build,
        "export": cmd_export,
        "twist": lambda a, s: cmd_twist(a, s, unitalize=False),
        "unitalize": lambda a, s: cmd_twist(a, s, unitalize=True),
        "check-division": cmd_check_division,
        "scan": cmd_scan,
        "derivations": cmd_derivations,
        "nuclei": cmd_nuclei,
        "verify-closed-form": cmd_verify_closed_form,
        "scenario": cmd_scenario,
    }
    try:
        return handlers[args.command](args, seed)
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TwistkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
