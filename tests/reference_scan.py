"""The scan that computed the whole norm criterion for every c, kept as the
reference for the differential tests of `scan_c`: one `norm_criterion` per
c, each with its own multiplicativity check, similarity factors and
threshold.
"""

from twistkit.errors import CapExceeded, DimensionError
from twistkit.forms import CERT_UNKNOWN, verify_similarity
from twistkit.linalg import vector_at
from twistkit.twist import (GUARANTEED, INAPPLICABLE, NOT_GUARANTEED, SCAN_CAP,
                            CriterionReport, ScanRecord, ScanReport, TwistSpec,
                            division_exhaustive, ensure_multiplicative, twist)


def reference_norm_criterion(alg, spec):
    if alg.norm is None:
        return CriterionReport(INAPPLICABLE, reason="no norm attached")
    if alg.norm.certificate == CERT_UNKNOWN:
        return CriterionReport(INAPPLICABLE, reason="no anisotropy certificate")
    if not ensure_multiplicative(alg):
        return CriterionReport(INAPPLICABLE, reason="norm is not multiplicative")
    factors = {}
    named = [("alpha", spec.f), ("beta", spec.g)]
    if spec.h is not None:
        named.append(("d", spec.h))
    if spec.pre_isotope is not None:
        named += [(f"d{i+1}", m) for i, m in enumerate(spec.pre_isotope)]
    prod = alg.field.one()
    for name, m in named:
        a = verify_similarity(alg.norm, m)
        if a is None:
            return CriterionReport(INAPPLICABLE, factors=factors,
                                   reason=f"{name} is not a verified similarity")
        factors[name] = a
        prod = prod * a
    threshold = prod.inverse()
    nc = alg.norm.evaluate([alg.field.element(v) for v in spec.c])
    verdict = GUARANTEED if nc != threshold else NOT_GUARANTEED
    return CriterionReport(verdict, threshold=threshold, norm_of_c=nc, factors=factors)


def reference_scan_c(alg, variant, f, g, seed=0, f_desc="f", g_desc="g"):
    q = alg.field.order()
    if q is None:
        raise DimensionError("scan_c needs a finite field")
    total = q**alg.dim
    if total > SCAN_CAP:
        raise CapExceeded(f"|A| = {total} exceeds scan cap {SCAN_CAP}")
    records = []
    for ci in range(total):
        c = vector_at(alg.field, alg.dim, ci)
        spec = TwistSpec(variant=variant, c=c, f=f, g=g)
        circ = twist(alg, spec)
        status, witness = division_exhaustive(circ)
        crit = reference_norm_criterion(alg, spec)
        nc = crit.norm_of_c
        if nc is None and alg.norm is not None:
            nc = alg.norm.evaluate(c)
        records.append(ScanRecord(
            c=c, norm_of_c=nc,
            status="division" if status == "certified" else "zero-divisor",
            witness=witness, criterion=crit.verdict))
    return ScanReport(algebra=alg.label or "?", variant=variant,
                      f_desc=f_desc, g_desc=g_desc, seed=seed, records=records)
