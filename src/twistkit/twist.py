"""The twelve twisted products, division criteria, Kaplanski unitalization,
exhaustive certification and parameter scans.

Given a unital algebra A with multiplicative norm N, an element c and
similarity maps f, g (optionally h and a pre-isotope), the twisted product
subtracts one of the twelve bracketings of c, f(x), g(y) (variants 7-12 swap
in f(y), g(x)) from x y.  When N is anisotropic and N(c) differs from the
reciprocal of the product of similarity factors, the twist is division.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from math import gcd

from .algebra import (Algebra, _sparse_product, first_tensor_mismatch, isotope,
                      left_mul_lines, opposite)
from .builders import make_map
from .errors import (CapExceeded, DimensionError, HypothesisError,
                     KaplanskiError, MixedFieldError, SingularMapError)
from .fields import Scalar
from .forms import (CERT_UNKNOWN, EXHAUSTIVE_CAP, verify_multiplicative,
                    verify_similarity)
from .linalg import (Matrix, det_mod_p, first_kernel_vector_mod_p,
                     format_vector, in_span, vec_add, vec_eq, vec_is_zero, vec_scale,
                     vector_at, zero_vector)

SCAN_CAP = 2**14

GUARANTEED = "guaranteed"
NOT_GUARANTEED = "not-guaranteed"
INAPPLICABLE = "inapplicable"


@dataclass
class TwistSpec:
    """variant 1..12, twist element c (coordinate vector), maps f, g, and the
    optional extras: h, a pre-isotope triple, Kaplanski elements (a, b)."""
    variant: int
    c: list
    f: Matrix
    g: Matrix
    h: Matrix | None = None
    pre_isotope: tuple | None = None
    kaplanski: tuple | None = None

    def __post_init__(self):
        if not 1 <= self.variant <= 12:
            raise DimensionError(f"variant must be 1..12, got {self.variant}")


# The subtracted term of variants k and k + 6 (see twist()); m is the product.
_BRACKETINGS = (
    lambda m, h, c, p, q: m(c, h(m(p, q))),
    lambda m, h, c, p, q: h(m(m(c, p), q)),
    lambda m, h, c, p, q: m(h(m(p, c)), q),
    lambda m, h, c, p, q: h(m(p, m(c, q))),
    lambda m, h, c, p, q: h(m(m(p, q), c)),
    lambda m, h, c, p, q: h(m(p, m(q, c))),
)


def _raw(field):
    """(lift, zero, p, lower) on `field`: int payloads reduced mod p after
    each product on F_p, Fraction payloads on Q (p None), the Scalars
    themselves on F_{p^k}; lower turns a raw value into its Scalar."""
    if field.kind == "ext":
        return (lambda s: s), field.zero(), None, (lambda v: v)
    if field.kind == "prime":
        p = field.p
        return (lambda s: s.payload), 0, p, (lambda v: Scalar(field, v % p))
    return (lambda s: s.payload), 0, None, (lambda v: Scalar(field, v))


def twist(alg: Algebra, spec: TwistSpec) -> Algebra:
    """Structure tensor of the twisted product x o y.

    Variant bracketings (h omitted when not supplied; p = f(x), q = g(y) for
    variants 1-6 and p = f(y), q = g(x) for 7-12):

      1/7: xy - c h(p q)      2/8:  xy - h((c p) q)   3/9:  xy - h(p c) q
      4/10: xy - h(p (c q))   5/11: xy - h((p q) c)   6/12: xy - h(p (q c))

    With a pre-isotope (h1,h2,h3) all products are taken in A^(h1,h2,h3).
    It runs on raw scalars (see _raw), over F_p on the int tensor of the
    base, and lowers each entry to a Scalar once.
    """
    base = alg
    if spec.pre_isotope is not None:
        h1, h2, h3 = spec.pre_isotope
        base = isotope(alg, h1, h2, h3)
    for name, m in (("f", spec.f), ("g", spec.g), ("h", spec.h)):
        if m is not None and not m.is_invertible():
            raise SingularMapError(f"twist map {name} is singular")
    n = alg.dim
    if len(spec.c) != n:
        raise DimensionError("twist element has wrong length")
    lift, zero, p, lower = _raw(alg.field)
    c = [lift(alg.field.element(v)) for v in spec.c]
    for m in (spec.f, spec.g, spec.h):
        if m is not None and m.field != alg.field:
            raise MixedFieldError("twist map is over another field")
        if m is not None and m.nrows != n:
            raise DimensionError("twist map has wrong size")
    fcols, gcols = ([[lift(a) for a in col] for col in m.columns()] for m in (spec.f, spec.g))
    hrows = None if spec.h is None else [[lift(a) for a in row] for row in spec.h.rows]
    if base._cells is not None:
        dense, consts = base._int_table, base._cells
    else:
        dense = [[[lift(t) for t in cell] for cell in row] for row in base.table]
        consts = [[[(k, t) for k, t in enumerate(cell) if t] for cell in row] for row in dense]

    def mul(x, y):
        return _sparse_product(consts, x, y, zero, p)

    def happly(v):
        if hrows is None:
            return v
        out = [sum((a * b for a, b in zip(row, v)), zero) for row in hrows]
        return out if p is None else [a % p for a in out]

    def entry(i, j):
        u, v = (fcols[j], gcols[i]) if spec.variant > 6 else (fcols[i], gcols[j])
        sub = _BRACKETINGS[(spec.variant - 1) % 6](mul, happly, c, u, v)
        return [lower(a - b) for a, b in zip(dense[i][j], sub)]

    table = [[entry(i, j) for j in range(n)] for i in range(n)]
    label = f"({alg.label},o{spec.variant})" if alg.label else ""
    return Algebra(alg.field, table, label=label)


def ensure_multiplicative(alg: Algebra) -> bool:
    """Verify (once, cached on the form) that the attached norm is
    multiplicative for the algebra."""
    if alg.norm is None:
        return False
    cached = getattr(alg.norm, "_mult_verified", None)
    if cached is None:
        cached = verify_multiplicative(alg, alg.norm)
        alg.norm._mult_verified = cached
    return cached


@dataclass
class CriterionReport:
    verdict: str
    threshold: object = None       # 1/(alpha beta d d1 d2 d3)
    norm_of_c: object = None
    factors: dict = dc_field(default_factory=dict)
    reason: str = ""

    def at(self, norm, c) -> CriterionReport:
        """The report for another c with the same maps: N(c) against this
        report's threshold.  An INAPPLICABLE report holds for every c."""
        if self.verdict == INAPPLICABLE:
            return self
        nc = norm.evaluate(c)
        verdict = GUARANTEED if nc != self.threshold else NOT_GUARANTEED
        return CriterionReport(verdict, threshold=self.threshold, norm_of_c=nc,
                               factors=self.factors)


def norm_criterion(alg: Algebra, spec: TwistSpec) -> CriterionReport:
    """Division guarantee: anisotropic multiplicative N and
    N(c) != 1/(alpha beta d d1 d2 d3), absent maps contributing factor 1.

    Only N(c) depends on c.  The rest (certificate, multiplicativity, the
    similarity factors, the threshold) is computed here once, and
    CriterionReport.at gives the verdict for another c from it; scan_c
    calls this once per scan and `at` for every further c."""
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
    base = CriterionReport("", threshold=prod.inverse(), factors=factors)
    return base.at(alg.norm, [alg.field.element(v) for v in spec.c])


@dataclass
class CyclicSubfield:
    """An identified cyclic subfield K inside A: its basis (first vector must
    be the unit of A), a generator sigma of the Galois action in K
    coordinates, the degree, and the claimed powers s, t with
    f|_K = a sigma^s and g|_K = b sigma^t."""
    basis: list
    sigma: Matrix
    degree: int
    s: int
    t: int


def iff_criterion(alg: Algebra, spec: TwistSpec, sub: CyclicSubfield):
    """Exact biconditional: with c in K, f|_K = a sigma^s, g|_K = b sigma^t
    and s or t prime to the degree, the twist is division iff
    N(c) != 1/(alpha beta).  Returns "division" | "not-division" |
    "inapplicable"."""
    base = norm_criterion(alg, spec)
    if base.verdict == INAPPLICABLE:
        return INAPPLICABLE
    if gcd(sub.s, sub.degree) != 1 and gcd(sub.t, sub.degree) != 1:
        return INAPPLICABLE
    if alg.unit is None or not vec_eq(sub.basis[0], alg.unit):
        return INAPPLICABLE
    kbasis = sub.basis
    fld = alg.field
    # K closed under multiplication
    for u in kbasis:
        for v in kbasis:
            if in_span(kbasis, alg.multiply(u, v), fld) is None:
                return INAPPLICABLE
    cvec = [fld.element(v) for v in spec.c]
    if in_span(kbasis, cvec, fld) is None:
        return INAPPLICABLE

    def embed(coords):
        out = zero_vector(fld, alg.dim)
        for co, bvec in zip(coords, kbasis):
            if co:
                out = [o + co * b for o, b in zip(out, bvec)]
        return out

    def restriction_matches(m, power):
        """m|_K = a sigma^power for the a determined by m(1_K)."""
        sig_p = Matrix.identity(fld, sub.degree)
        for _ in range(power % sub.degree):
            sig_p = sub.sigma @ sig_p
        avec = m.apply(kbasis[0])
        if in_span(kbasis, avec, fld) is None:
            return False
        for bvec in kbasis:
            coords = in_span(kbasis, bvec, fld)
            img = m.apply(bvec)
            expected = alg.multiply(avec, embed(sig_p.apply(coords)))
            if not vec_eq(img, expected):
                return False
        return True

    if not restriction_matches(spec.f, sub.s):
        return INAPPLICABLE
    if not restriction_matches(spec.g, sub.t):
        return INAPPLICABLE
    alpha_beta = base.factors["alpha"] * base.factors["beta"]
    return "division" if base.norm_of_c != alpha_beta.inverse() else "not-division"


def unitalize(circ: Algebra, a, b) -> Algebra:
    """Kaplanski's trick: x * y = (R_a^-1 x) o (L_b^-1 y); unital with
    identity a o b, and division exactly when the input is."""
    ra = circ.right_mul_matrix(a)
    lb = circ.left_mul_matrix(b)
    if not ra.is_invertible():
        raise KaplanskiError("R_a is singular: a is a right zero-divisor side in (A,o)")
    if not lb.is_invertible():
        raise KaplanskiError("L_b is singular: b is a left zero-divisor side in (A,o)")
    ra_inv = ra.inverse()
    lb_inv = lb.inverse()
    n = circ.dim
    table = [[circ.multiply(ra_inv.column(i), lb_inv.column(j)) for j in range(n)]
             for i in range(n)]
    unit = circ.multiply(a, b)
    label = circ.label.replace(",o", ",*") if ",o" in circ.label else \
        (f"({circ.label},*)" if circ.label else "")
    return Algebra(circ.field, table, unit=unit, label=label)


def division_exhaustive(alg: Algebra):
    """Exhaustive zero-divisor search over a finite field; returns
    ("certified", None) or ("zero-divisor", (x, y)) with the
    lexicographically first witness of the full pair scan.

    The scan runs on int-coded F_p matrices (an algebra over F_{p^k} is read
    in F_p coordinates).  It takes one determinant per F_p line, on the
    first x of the line, so the first singular x is the first one in the
    canonical order; y is the kernel vector of L_x with the smallest index.
    The caps are those of the full pair scan."""
    q = alg.field.order()
    if q is None:
        raise DimensionError("exhaustive division check needs a finite field")
    total = q**alg.dim
    if total > EXHAUSTIVE_CAP:
        raise CapExceeded(f"|A| = {total} exceeds exhaustive cap {EXHAUSTIVE_CAP}")
    p = alg.field.characteristic
    for xi, lx in left_mul_lines(alg):
        if det_mod_p(lx, p):
            continue
        y = first_kernel_vector_mod_p(lx, p)
        yi = sum(c * p**j for j, c in enumerate(y))
        return ("zero-divisor", (vector_at(alg.field, alg.dim, xi),
                                 vector_at(alg.field, alg.dim, yi)))
    return ("certified", None)


def zero_divisor_text(witness) -> str:
    """The report form of a zero-divisor witness (x, y) with xy = 0."""
    x, y = witness
    return f"zero-divisor({format_vector(x)};{format_vector(y)})"


@dataclass
class ProbeReport:
    status: str                 # "no-counterexample" | "zero-divisor"
    trials: int
    seed: int
    witness: tuple | None = None

    def describe(self) -> str:
        if self.status == "no-counterexample":
            return f"no-counterexample({self.trials})"
        return zero_divisor_text(self.witness)


def division_probe_char0(alg: Algebra, trials: int, seed=0) -> ProbeReport:
    """Seeded sampling probe over Q: basis pairs first, then random integer
    vectors checked for singular L_x / R_x and vanishing pair products.
    Never certifies division; reports the seed it used."""
    if alg.field.characteristic != 0:
        raise DimensionError("probe is the char-0 path; use division_exhaustive")
    if trials <= 0:
        return ProbeReport("no-counterexample", 0, seed)
    n = alg.dim
    for i in range(n):
        for j in range(n):
            if vec_is_zero(alg.table[i][j]):
                return ProbeReport("zero-divisor", trials, seed,
                                   (alg.basis(i), alg.basis(j)))
    rng = random.Random(seed)
    prev = None
    for _ in range(trials):
        x = [alg.field.element(rng.randint(-9, 9)) for _ in range(n)]
        if vec_is_zero(x):
            x[0] = alg.field.one()
        lx = alg.left_mul_matrix(x)
        if not lx.det():
            y = lx.nullspace()[0]
            return ProbeReport("zero-divisor", trials, seed, (x, y))
        rx = alg.right_mul_matrix(x)
        if not rx.det():
            y = rx.nullspace()[0]
            return ProbeReport("zero-divisor", trials, seed, (y, x))
        if prev is not None and vec_is_zero(alg.multiply(prev, x)):
            return ProbeReport("zero-divisor", trials, seed, (prev, x))
        prev = x
    return ProbeReport("no-counterexample", trials, seed)


@dataclass
class ScanRecord:
    c: list
    norm_of_c: object
    status: str            # "division" | "zero-divisor"
    witness: tuple | None
    criterion: str

    def line(self) -> str:
        nc = repr(self.norm_of_c) if self.norm_of_c is not None else "?"
        status = "division" if self.status == "division" else \
            zero_divisor_text(self.witness)
        return (f"c={format_vector(self.c)} N(c)={nc} "
                f"status={status} criterion={self.criterion}")


@dataclass
class ScanReport:
    algebra: str
    variant: int
    f_desc: str
    g_desc: str
    seed: int
    records: list

    def division_count(self) -> int:
        return sum(1 for r in self.records if r.status == "division")

    def lines(self):
        head = (f"# scan algebra={self.algebra} variant={self.variant} "
                f"f={self.f_desc} g={self.g_desc} seed={self.seed}")
        return [head] + [r.line() for r in self.records]

    def text(self) -> str:
        return "\n".join(self.lines()) + "\n"


def scan_c(alg: Algebra, variant: int, f: Matrix, g: Matrix, seed=0,
           f_desc="f", g_desc="g") -> ScanReport:
    """Run the twist and the exhaustive division check for every c in A
    (including 0), with the norm-criterion verdict per c.

    The criterion is computed once, at the first c (after that c's twist
    and division check, so errors come in that order), and every further c
    costs one N(c) through CriterionReport.at."""
    q = alg.field.order()
    if q is None:
        raise DimensionError("scan_c needs a finite field")
    total = q**alg.dim
    if total > SCAN_CAP:
        raise CapExceeded(f"|A| = {total} exceeds scan cap {SCAN_CAP}")
    records = []
    crit = None
    for ci in range(total):
        c = vector_at(alg.field, alg.dim, ci)
        spec = TwistSpec(variant=variant, c=c, f=f, g=g)
        circ = twist(alg, spec)
        status, witness = division_exhaustive(circ)
        crit = norm_criterion(alg, spec) if crit is None else crit.at(alg.norm, c)
        nc = crit.norm_of_c
        if nc is None and alg.norm is not None:
            nc = alg.norm.evaluate(c)
        records.append(ScanRecord(
            c=c, norm_of_c=nc,
            status="division" if status == "certified" else "zero-divisor",
            witness=witness, criterion=crit.verdict))
    return ScanReport(algebra=alg.label or "?", variant=variant,
                      f_desc=f_desc, g_desc=g_desc, seed=seed, records=records)


@dataclass
class TwistResult:
    """The orchestrated outcome: the product (A,o), the unitalized (A,*),
    the division verdict with certificates, and the criterion data."""
    source: Algebra
    spec: TwistSpec
    circ: Algebra
    star: Algebra | None
    division_status: str     # guaranteed-by-norm | certified-exhaustive |
    #                          zero-divisor | unknown
    witness: tuple | None
    star_witness: tuple | None
    criterion: CriterionReport
    kaplanski_note: str = ""


def run_twist(alg: Algebra, spec: TwistSpec, probe_trials=0, seed=0) -> TwistResult:
    """Twist, certify, unitalize; transports any zero-divisor witness through
    the Kaplanski bijections and re-verifies it on (A,*)."""
    circ = twist(alg, spec)
    crit = norm_criterion(alg, spec)
    witness = None
    if alg.field.order() is not None and alg.field.order()**alg.dim <= EXHAUSTIVE_CAP:
        status, witness = division_exhaustive(circ)
        division = "certified-exhaustive" if status == "certified" else "zero-divisor"
    elif crit.verdict == GUARANTEED:
        division = "guaranteed-by-norm"
    elif probe_trials > 0:
        probe = division_probe_char0(circ, probe_trials, seed=seed)
        if probe.status == "zero-divisor":
            division, witness = "zero-divisor", probe.witness
        else:
            division = "unknown"
    else:
        division = "unknown"
    if division == "zero-divisor":
        if not vec_is_zero(circ.multiply(*witness)):
            raise AssertionError("witness failed re-verification")

    star = None
    star_witness = None
    note = ""
    ab = spec.kaplanski
    if ab is None and alg.unit is not None:
        ab = (alg.unit, alg.unit)
    if ab is None:
        note = "no Kaplanski elements available (source is not unital)"
    else:
        a, b = ab
        try:
            star = unitalize(circ, a, b)
            if witness is not None:
                x, y = witness
                star_witness = (circ.right_mul_matrix(a).apply(x),
                                circ.left_mul_matrix(b).apply(y))
                if not vec_is_zero(star.multiply(*star_witness)):
                    raise AssertionError("transported witness failed")
        except KaplanskiError as exc:
            note = str(exc)
    return TwistResult(source=alg, spec=spec, circ=circ, star=star,
                       division_status=division, witness=witness,
                       star_witness=star_witness, criterion=crit,
                       kaplanski_note=note)


@dataclass
class CommutativeTwistReport:
    circ: Algebra
    diamond: Algebra
    commutative: bool
    witness: tuple | None
    closed_form_matches: bool
    first_mismatch: tuple | None
    division_status: str


def commutative_twist(kalg: Algebra, sigma: Matrix, s: int, t: int,
                      a, b, c) -> CommutativeTwistReport:
    """The odd-degree commutative construction on a cyclic field block:
    with s + t = n (s, t nonzero), odd n and odd characteristic, and
    a b c = -1 in K, build x o y = x y - c (a sigma^s(x)) (b sigma^t(y)) and
    its isotope x <> y = x o f(y), reporting whether <> is commutative and
    whether the shortcut tensor x y + f(x) f^{-1}(y) matches it exactly."""
    n = kalg.dim
    if n % 2 == 0 or n < 3:
        raise HypothesisError("degree must be odd and >= 3")
    if kalg.field.characteristic % 2 == 0 or kalg.field.characteristic == 0:
        raise HypothesisError("odd characteristic required")
    if s % n == 0 or t % n == 0 or (s + t) % n != 0:
        raise HypothesisError("need s, t nonzero with s + t = n")
    a = [kalg.field.element(v) for v in a]
    b = [kalg.field.element(v) for v in b]
    c = [kalg.field.element(v) for v in c]
    abc = kalg.multiply(a, kalg.multiply(b, c))
    if not vec_eq(abc, vec_scale(-kalg.field.one(), kalg.unit)):
        raise HypothesisError("a b c = -1 fails in K")
    sig_pows = [Matrix.identity(kalg.field, n)]
    for _ in range(2 * n):
        sig_pows.append(sigma @ sig_pows[-1])
    fmap = kalg.left_mul_matrix(a) @ sig_pows[s % n]
    gmap = kalg.left_mul_matrix(b) @ sig_pows[t % n]
    spec = TwistSpec(variant=1, c=c, f=fmap, g=gmap)
    circ = twist(kalg, spec)
    diamond = isotope(circ, Matrix.identity(kalg.field, n), fmap)
    witness = first_tensor_mismatch(diamond, opposite(diamond))
    finv = fmap.inverse()
    claimed = Algebra(kalg.field, [[vec_add(kalg.table[i][j],
                                            kalg.multiply(fmap.column(i), finv.column(j)))
                                    for j in range(n)] for i in range(n)])
    mismatch = first_tensor_mismatch(diamond, claimed)
    status, _ = division_exhaustive(diamond)
    return CommutativeTwistReport(
        circ=circ, diamond=diamond, commutative=witness is None, witness=witness,
        closed_form_matches=mismatch is None, first_mismatch=mismatch,
        division_status="division" if status == "certified" else "zero-divisor")


def twist_spec_from_parts(alg: Algebra, variant, c, f_spec, g_spec,
                          h_spec=None) -> TwistSpec:
    """Assemble a TwistSpec from map descriptors (MapSpec inputs) and a c
    given as a vector, a coordinate string, or a base-field scalar."""
    c = alg.parse_element(c)
    f = f_spec if isinstance(f_spec, Matrix) else make_map(alg, f_spec)
    g = g_spec if isinstance(g_spec, Matrix) else make_map(alg, g_spec)
    h = None
    if h_spec is not None:
        h = h_spec if isinstance(h_spec, Matrix) else make_map(alg, h_spec)
    return TwistSpec(variant=int(variant), c=c, f=f, g=g, h=h)
