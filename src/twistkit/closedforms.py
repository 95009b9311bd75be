"""Closed-form inverses of the one-sided twist maps and explicit star
products, used as independent oracles against the generic
twist -> unitalize pipeline.

Each star case carries a reference formula in up to three readings: the
compact quoted form evaluated verbatim, a reading with obvious slot slips
restored, and the step-by-step inverse-composition expansion.  The generic
pipeline is the ground truth; a mismatching reading is reported as a
finding, never silently patched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, first_tensor_mismatch, tensor_eq
from .analyzer import is_automorphism
from .builders import algebra_inverse, make_map
from .errors import HypothesisError, SpecError
from .fields import Scalar
from .linalg import Matrix, vec_add, vec_scale, vec_sub
from .twist import TwistSpec, run_twist


def twisted_map_matrix(alg: Algebra, c, side="left", f: Matrix | None = None) -> Matrix:
    """Matrix of F(x) = x - c f(x) (side="left") or G(x) = x - f(x) c."""
    f = f if f is not None else Matrix.identity(alg.field, alg.dim)
    cmat = alg.left_mul_matrix(c) if side == "left" else alg.right_mul_matrix(c)
    return Matrix.identity(alg.field, alg.dim) - (cmat @ f)


def series_inverse(alg: Algebra, c, f: Matrix, n: int, side="left") -> Matrix:
    """Inverse of x - c f(x) (or x - f(x) c) when f^n = id:

        F^-1(x) = (1 - c f(c) ... f^{n-1}(c))^-1 (x + c f(x) + c f(c) f^2(x) + ...)

    and mirrored for the right-handed map, where the prefactor acts by right
    multiplication (verified by composition; the two sides differ when the
    element 1 - f^{n-1}(c)...f(c)c is not central)."""
    if n < 2:
        raise HypothesisError("series inverse needs n >= 2")
    ident = Matrix.identity(alg.field, alg.dim)
    fp = ident
    for _ in range(n):
        fp = f @ fp
    if fp != ident:
        raise HypothesisError("f^n = id fails")
    if alg.unit is None:
        raise HypothesisError("series inverse needs a unital algebra")
    c = [alg.field.element(v) for v in c]
    # partial products pi_k = c f(c) ... f^{k-1}(c) (left) or
    # rho_k = f^{k-1}(c) ... f(c) c (right)
    partials = [alg.unit]
    fk_c = list(c)
    for _ in range(n):
        prev = partials[-1]
        partials.append(alg.multiply(prev, fk_c) if side == "left"
                        else alg.multiply(fk_c, prev))
        fk_c = f.apply(fk_c)
    w = vec_sub(alg.unit, partials[n])
    winv = algebra_inverse(alg, w)
    if winv is None:
        raise HypothesisError("1 - c f(c) ... f^{n-1}(c) is not invertible")
    total = Matrix.zero(alg.field, alg.dim)
    fpow = ident
    for k in range(n):
        pk = partials[k]
        mul_mat = alg.left_mul_matrix(pk) if side == "left" else alg.right_mul_matrix(pk)
        total = total + (mul_mat @ fpow)
        fpow = f @ fpow
    pre = alg.left_mul_matrix(winv) if side == "left" else alg.right_mul_matrix(winv)
    return pre @ total


def involution_inverse(alg: Algebra, c, tau: Matrix) -> Matrix:
    """Inverse of F(x) = x - c tau(x) for an involution tau and scalar c with
    c^2 != 1:  F^-1(x) = (1 - c tau(c))^-1 (x + c tau(x))."""
    c = alg.field.element(c)
    if c * c == alg.field.one():
        raise HypothesisError("need c^2 != 1")
    pref = (alg.field.one() - c * c).inverse()
    m = Matrix.identity(alg.field, alg.dim) + tau.scale(c)
    return m.scale(pref)


def reflection_inverse(alg: Algebra, c, h: Matrix) -> Matrix:
    """Inverse of F(x) = x - c h(x) for a reflection h (automorphism with
    h^2 = id) and scalar c with c^2 != 1: (1 - c^2)^-1 (x + c h(x))."""
    ok, witness = is_automorphism(alg, h)
    if not ok:
        raise HypothesisError(f"h is not an automorphism; witness {witness}")
    if h @ h != Matrix.identity(alg.field, alg.dim):
        raise HypothesisError("h^2 = id fails")
    return involution_inverse(alg, c, h)


def closed_form_inverse(alg: Algebra, kind: str, c, mapping: Matrix,
                        n: int = 2, side="left") -> Matrix:
    """Dispatch: kind in {"series", "involution", "reflection"}."""
    if kind == "series":
        return series_inverse(alg, c if isinstance(c, list) else alg.scalar_vec(c),
                              mapping, n, side=side)
    if kind == "involution":
        return involution_inverse(alg, c, mapping)
    if kind == "reflection":
        return reflection_inverse(alg, c, mapping)
    raise HypothesisError(f"unknown closed-form inverse kind {kind!r}")


def _scalar(alg, c):
    if isinstance(c, (int, Scalar)):
        return alg.field.element(c)
    return alg.field.parse(str(c))


def inverse_check(alg: Algebra, kind: str, c, m: Matrix | None, n: int = 2, side="left"):
    """The closed-form inverse of x - c m(x) (or x - m(x) c) against the
    generic matrix inverse: (matches_generic, composes_to_id).  c is an
    element for the series kind (see Algebra.parse_element), a scalar
    otherwise."""
    if m is None:
        raise SpecError(f"closed-form inverse {kind!r} needs a map")
    cval = alg.parse_element(c) if kind == "series" else _scalar(alg, c)
    inv = closed_form_inverse(alg, kind, cval, m, n=n, side=side)
    cvec = cval if isinstance(cval, list) else alg.scalar_vec(cval)
    fmat = twisted_map_matrix(alg, cvec, side, m)
    return inv == fmat.inverse(), (fmat @ inv) == Matrix.identity(alg.field, alg.dim)


@dataclass
class StarComparison:
    """Outcome of one closed-form star case against the generic pipeline."""
    case: str
    generic: Algebra
    closed: Algebra
    matches: bool
    first_mismatch: tuple | None
    closed_verbatim: Algebra | None = None
    verbatim_matches: bool | None = None
    verbatim_mismatch: tuple | None = None
    substituted: Algebra | None = None
    substituted_matches: bool | None = None

    def findings(self):
        out = []
        if not self.matches:
            out.append({"case": self.case, "formula": "corrected",
                        "first_mismatch": self.first_mismatch})
        if self.verbatim_matches is False:
            out.append({"case": self.case, "formula": "verbatim",
                        "first_mismatch": self.verbatim_mismatch})
        return out


def _tensor_from(alg: Algebra, product, label):
    n = alg.dim
    table = [[product(alg.basis(i), alg.basis(j)) for j in range(n)] for i in range(n)]
    return Algebra(alg.field, table, label=label).with_unit_found()


def _generic_star(alg, spec):
    result = run_twist(alg, spec)
    if result.star is None:
        raise HypothesisError(f"generic pipeline failed: {result.kaplanski_note}")
    return result.star


def _scalar_hypotheses(alg, c, exclude_one=True):
    c = alg.field.element(c)
    one = alg.field.one()
    if exclude_one and (c == one or c == -one):
        raise HypothesisError("need c != 1 and c != -1")
    return c


def scalar_reflections_star(alg: Algebra, f: Matrix, g: Matrix, c) -> StarComparison:
    """Two-reflection case with scalar c: the star of x o y = xy - c f(x)g(y).

    The stepwise expansion carries a minus sign on the f(x)g(y) term:

        (1-c^2)^-2 [(1-c^3) xy + (c-c^2)(x g(y) + f(x) y) + (c^2-c) f(x) g(y)]

    while the compact reference form adds all three cross terms with one
    positive coefficient; both readings are built and compared."""
    c = _scalar_hypotheses(alg, c)
    one = alg.field.one()
    d2 = ((one - c * c) ** 2).inverse()
    coef_xy = d2 * (one - c**3)
    coef_cross = d2 * (c - c * c)
    mul = alg.multiply

    def corrected(x, y):
        fx, gy = f.apply(x), g.apply(y)
        out = vec_scale(coef_xy, mul(x, y))
        out = vec_add(out, vec_scale(coef_cross, mul(x, gy)))
        out = vec_add(out, vec_scale(coef_cross, mul(fx, y)))
        return vec_sub(out, vec_scale(coef_cross, mul(fx, gy)))

    def verbatim(x, y):
        fx, gy = f.apply(x), g.apply(y)
        out = vec_scale(coef_xy, mul(x, y))
        cross = vec_add(vec_add(mul(x, gy), mul(fx, y)), mul(fx, gy))
        return vec_add(out, vec_scale(coef_cross, cross))

    spec = TwistSpec(variant=1, c=alg.scalar_vec(c), f=f, g=g)
    generic = _generic_star(alg, spec)
    closed = _tensor_from(alg, corrected, "refl-closed")
    closed_v = _tensor_from(alg, verbatim, "refl-closed-verbatim")
    return StarComparison(
        case="reflections-star-1", generic=generic, closed=closed,
        matches=tensor_eq(generic, closed),
        first_mismatch=first_tensor_mismatch(generic, closed),
        closed_verbatim=closed_v,
        verbatim_matches=tensor_eq(generic, closed_v),
        verbatim_mismatch=first_tensor_mismatch(generic, closed_v))


def involution_star(alg: Algebra, tau: Matrix, c, case: str) -> StarComparison:
    """Involution cases with scalar c:

      "1":   x o y = xy - c tau(x)tau(y);  star =
             (1-c^2)^-2 [(1-c^3) xy - c(1-c) tau(x)tau(y)
                                     + c(1-c)(x tau(y) + tau(x) y)]
      "7.1": x o y = xy - c tau(y) x;  star =
             ((1-c)(1-c^2))^-1 (xy - c tau(y) x + c x tau(y) - c^2 y x)
      "7.2": x o y = xy - c y tau(x);  star =
             ((1-c)(1-c^2))^-1 (xy - c y tau(x) + c tau(x) y - c^2 y x)
    """
    c = _scalar_hypotheses(alg, c)
    one = alg.field.one()
    mul = alg.multiply
    ident = Matrix.identity(alg.field, alg.dim)
    if case == "1":
        pref = ((one - c * c) ** 2).inverse()

        def closed(x, y):
            tx, ty = tau.apply(x), tau.apply(y)
            out = vec_scale(one - c**3, mul(x, y))
            out = vec_sub(out, vec_scale(c * (one - c), mul(tx, ty)))
            out = vec_add(out, vec_scale(c * (one - c), vec_add(mul(x, ty), mul(tx, y))))
            return vec_scale(pref, out)

        spec = TwistSpec(variant=1, c=alg.scalar_vec(c), f=tau, g=tau)
    elif case in ("7.1", "7.2"):
        pref = ((one - c) * (one - c * c)).inverse()
        if case == "7.1":
            def closed(x, y):
                ty = tau.apply(y)
                out = mul(x, y)
                out = vec_sub(out, vec_scale(c, mul(ty, x)))
                out = vec_add(out, vec_scale(c, mul(x, ty)))
                out = vec_sub(out, vec_scale(c * c, mul(y, x)))
                return vec_scale(pref, out)

            spec = TwistSpec(variant=7, c=alg.scalar_vec(c), f=tau, g=ident)
        else:
            def closed(x, y):
                tx = tau.apply(x)
                out = mul(x, y)
                out = vec_sub(out, vec_scale(c, mul(y, tx)))
                out = vec_add(out, vec_scale(c, mul(tx, y)))
                out = vec_sub(out, vec_scale(c * c, mul(y, x)))
                return vec_scale(pref, out)

            spec = TwistSpec(variant=7, c=alg.scalar_vec(c), f=ident, g=tau)
    else:
        raise HypothesisError(f"unknown involution case {case!r}")
    generic = _generic_star(alg, spec)
    closed_alg = _tensor_from(alg, closed, f"invol-closed-{case}")
    return StarComparison(
        case=f"involution-star-{case}", generic=generic, closed=closed_alg,
        matches=tensor_eq(generic, closed_alg),
        first_mismatch=first_tensor_mismatch(generic, closed_alg))


# odd variant -> (where c sits in the subtracted term, whether the g factor
# comes first); u and v are the first and second factor of that term
_REFLECTION_STARS = {1: ("c(uv)", False), 3: ("(uc)v", False), 5: ("(uv)c", False),
                     7: ("c(uv)", True), 9: ("(uc)v", True), 11: ("(uv)c", True)}


def quaternion_reflections_star(alg: Algebra, f: Matrix, g: Matrix, c,
                                variant: int) -> StarComparison:
    """Two-reflection cases on an associative division algebra with a general
    twist element c, for the odd variants 1,3,5,7,9,11 (the products placing
    f on x and g on y, with 7/9/11 read as xy - c g(y)f(x), xy - (g(y)c)f(x),
    xy - (g(y)f(x))c).

    Each factor of the subtracted term is inverted by the one-sided series of
    x - c m(x) when c stands left of it in the term, of x - m(x) c otherwise.
    Three tensors are built: "proper" (the inverse-composition expansion with
    prefactors on the side forced by the one-sided series), "substituted"
    (the compact reference form, which writes every prefactor on the left,
    with y restored in the y slots), and "verbatim" (the compact reference
    form including its slot slips).  The generic pipeline is authoritative;
    the comparison records mismatches of the reference readings instead of
    failing."""
    if variant not in _REFLECTION_STARS:
        raise HypothesisError("variant must be odd, in 1..11")
    term, g_first = _REFLECTION_STARS[variant]
    cvec = c if isinstance(c, list) else alg.scalar_vec(c)
    mul = alg.multiply
    one_vec = alg.unit

    def inv(u):
        out = algebra_inverse(alg, u)
        if out is None:
            raise HypothesisError("closed-form denominator is not invertible")
        return out

    def series(m, slot):
        """(prefactor, numerator, left) of the series inverting the factor
        in `slot` for map m, and of its m-image."""
        mc = m.apply(cvec)
        w_cm = inv(vec_sub(one_vec, mul(cvec, mc)))   # (1 - c m(c))^-1
        w_mc = inv(vec_sub(one_vec, mul(mc, cvec)))   # (1 - m(c) c)^-1
        if term.index("c") < term.index(slot):
            return ((w_cm, lambda x: vec_add(x, mul(cvec, m.apply(x))), True),
                    (w_mc, lambda x: vec_add(m.apply(x), mul(mc, x)), True))
        return ((w_mc, lambda x: vec_add(x, mul(m.apply(x), cvec)), False),
                (w_cm, lambda x: vec_add(m.apply(x), mul(x, mc)), False))

    f_ser, f_img = series(f, "v" if g_first else "u")
    g_ser, g_img = series(g, "u" if g_first else "v")

    def subtracted(u, v):
        if term == "c(uv)":
            return mul(cvec, mul(u, v))
        if term == "(uc)v":
            return mul(mul(u, cvec), v)
        return mul(mul(u, v), cvec)

    def star(on_side):
        def apply(piece, x):
            pre, num, left = piece
            return mul(pre, num(x)) if left or not on_side else mul(num(x), pre)

        def product(x, y):
            fi, gi = apply(f_img, x), apply(g_img, y)
            u, v = (gi, fi) if g_first else (fi, gi)
            return vec_sub(mul(apply(f_ser, x), apply(g_ser, y)), subtracted(u, v))
        return product

    proper, substituted = star(True), star(False)
    if variant == 11:
        fc = f.apply(cvec)
        (w2, _, _), (w1, _, _) = f_ser, f_img    # (1 - f(c) c)^-1, (1 - c f(c))^-1
        (w4, _, _), (w3, _, _) = g_ser, g_img    # (1 - g(c) c)^-1, (1 - c g(c))^-1

        def verbatim(x, y):
            # this reference form also swaps a prefactor pair and writes f(c)
            # inside the g factor; transcribed as quoted
            t1 = mul(mul(w1, vec_add(x, mul(cvec, f.apply(x)))),
                     mul(w4, vec_add(x, mul(g.apply(x), cvec))))
            t2 = mul(mul(mul(w3, vec_add(g.apply(x), mul(x, fc))),
                         mul(w2, vec_add(f.apply(x), mul(fc, x)))), cvec)
            return vec_sub(t1, t2)
    elif variant in (1, 3):
        verbatim = substituted
    else:
        def verbatim(x, y):
            return substituted(x, x)

    spec = TwistSpec(variant=variant, c=cvec, f=g, g=f) if g_first else \
        TwistSpec(variant=variant, c=cvec, f=f, g=g)
    generic = _generic_star(alg, spec)
    closed = _tensor_from(alg, proper, f"assoc-closed-{variant}")
    subst = _tensor_from(alg, substituted, f"assoc-subst-{variant}")
    verb = _tensor_from(alg, verbatim, f"assoc-verbatim-{variant}")
    cmp = StarComparison(
        case=f"assoc-reflections-star-{variant}", generic=generic, closed=closed,
        matches=tensor_eq(generic, closed),
        first_mismatch=first_tensor_mismatch(generic, closed),
        closed_verbatim=verb,
        verbatim_matches=tensor_eq(generic, verb),
        verbatim_mismatch=first_tensor_mismatch(generic, verb))
    cmp.substituted = subst
    cmp.substituted_matches = tensor_eq(generic, subst)
    return cmp


def star_case(alg: Algebra, case: str, c, f: Matrix | None = None,
              g: Matrix | None = None, tau: Matrix | None = None):
    """Run a named closed-form star case against the generic pipeline:
    "reflections-1" (scalar c, maps f and g), "involution-1", "-7.1" or
    "-7.2" (scalar c, involution tau, conjugation by default) or
    "assoc-<odd variant>" (element c, maps f and g).

    Returns (comparison, fields): the reported (name, value) pairs in order,
    the given c for the scalar cases and the first mismatch of the reading
    those cases report."""
    kind, _, sub = case.partition("-")
    if kind == "involution":
        tau = tau if tau is not None else make_map(alg, "conj")
        cmp = involution_star(alg, tau, _scalar(alg, c), sub)
        return cmp, [("case", case), ("c", c), ("matches", cmp.matches),
                     ("first_mismatch", cmp.first_mismatch)]
    if case != "reflections-1" and not (kind == "assoc" and sub.isdigit()):
        raise SpecError(f"unknown closed-form case {case!r}")
    if f is None or g is None:
        raise SpecError(f"closed-form case {case!r} needs maps f and g")
    if kind == "assoc":
        cmp = quaternion_reflections_star(alg, f, g, alg.parse_element(c), int(sub))
        return cmp, [("case", case), ("proper_matches", cmp.matches),
                     ("substituted_matches", cmp.substituted_matches),
                     ("verbatim_matches", cmp.verbatim_matches)]
    cmp = scalar_reflections_star(alg, f, g, _scalar(alg, c))
    return cmp, [("case", case), ("c", c), ("corrected_matches", cmp.matches),
                 ("verbatim_matches", cmp.verbatim_matches),
                 ("first_mismatch", cmp.verbatim_mismatch)]
