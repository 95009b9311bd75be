"""Multiplicative forms of degree d and their verification machinery.

A form is carried either as a Gram matrix (degree 2), as the determinant of a
left-multiplication representation (degree n), or as the determinant of the
representation over a commutative subfield block (cyclic algebras).  Over a
prime field the representation determinant is det_mod_p of the int L_x,
from int basis matrices built with the form; over F_{p^k} and Q it is the
Scalar determinant of left_mul_matrix(x).

Multiplicativity and similarity are proved, never sampled: on the points of
determining_points, on all of F^n where those do not fix the form, or (degree
2, char != 2) through the Gram matrix.  Multiplicativity is first tried by a
structural proof that replaces the pair walk on those points:
"associative-regrep" (det L_x on an associative algebra) and
"gram-composition" (L_x^T G L_x = N(x) G on the degree-2 points).

Anisotropy is never decided by a general algorithm: it travels as a
certificate ("positive-definite", "field-norm", "division-certified") and
absent a certificate downstream division guarantees are refused.
"""

from __future__ import annotations

from itertools import combinations, product
from operator import mul

from .algebra import (_associator_tensor, _prime_left_mul_mats, _residues,
                      _sparse_product, tensor_eq)
from .analyzer import is_automorphism
from .errors import DimensionError, HypothesisError, SingularMapError
from .fields import Scalar
from .linalg import (Matrix, basis_vector, det_mod_p, vec_add, vec_is_zero,
                     vector_at, zero_vector)

CERT_POSITIVE_DEFINITE = "positive-definite"
CERT_FIELD_NORM = "field-norm"
CERT_DIVISION = "division-certified"
CERT_UNKNOWN = "unknown"

EXHAUSTIVE_CAP = 2**20


class NormForm:
    """A homogeneous degree-d form N on an n-dimensional space over a field."""

    def __init__(self, field, dim, degree, kind, certificate=CERT_UNKNOWN, **data):
        self.field = field
        self.dim = dim
        self.degree = degree
        self.kind = kind
        self.certificate = certificate
        self.data = data
        self._gram_cache = data.get("gram")

    # -- constructors --

    @classmethod
    def gram_form(cls, field, gram, certificate=CERT_UNKNOWN):
        n = len(gram)
        rows = [[field.element(v) for v in row] for row in gram]
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise DimensionError("gram matrix must be symmetric")
        return cls(field, n, 2, "gram", certificate, gram=Matrix(field, rows))

    @classmethod
    def regrep_form(cls, algebra, certificate=CERT_UNKNOWN):
        """det of left multiplication; degree = dim of the algebra.  For a
        field extension viewed as an algebra this is the field norm.  Over a
        prime field the int matrices M_j of y -> e_j y are built here, kept
        entry by entry as (M_0[r][c], M_1[r][c], ...), and evaluate takes
        det_mod_p of L_x = sum_j x_j M_j."""
        coeffs = None
        if algebra.field.kind == "prime":
            mats = _prime_left_mul_mats(algebra)[1]
            coeffs = [list(zip(*rows)) for rows in zip(*mats)]
        return cls(algebra.field, algebra.dim, algebra.dim, "regrep",
                   certificate, algebra=algebra, int_coeffs=coeffs)

    @classmethod
    def cyclic_form(cls, kalg, sigma, d, certificate=CERT_UNKNOWN):
        """Reduced norm of the crossed product on (+) K u^j with u^n = d and
        u x = sigma(x) u: the determinant over K of left multiplication on
        the right-K-basis {u^j}.  Degree n on an n^2-dimensional space."""
        n = kalg.dim
        return cls(kalg.field, n * n, n, "cyclic", certificate,
                   kalg=kalg, sigma=sigma, d=kalg.field.element(d))

    # -- evaluation --

    def evaluate(self, x):
        if len(x) != self.dim:
            raise DimensionError(f"form on dim {self.dim}, got vector of {len(x)}")
        if self.kind == "gram":
            g = self.data["gram"]
            acc = self.field.zero()
            for i, xi in enumerate(x):
                if not xi:
                    continue
                row = g.rows[i]
                for j, xj in enumerate(x):
                    if xj and row[j]:
                        acc = acc + xi * row[j] * xj
            return acc
        if self.kind == "regrep":
            coeffs = self.data.get("int_coeffs")
            if coeffs is None:
                return self.data["algebra"].left_mul_matrix(x).det()
            return Scalar(self.field, _regrep_det_mod_p(coeffs, _residues(self.field, x),
                                                        self.field.p))
        if self.kind == "cyclic":
            return self._cyclic_eval(x)
        raise DimensionError(f"unknown form kind {self.kind}")

    __call__ = evaluate

    def _cyclic_eval(self, x):
        kalg = self.data["kalg"]
        sigma = self.data["sigma"]
        d = self.data["d"]
        n = kalg.dim
        # coordinate slices: kappa_j in K with x = sum_j kappa_j u^j
        kappas = [x[j * n:(j + 1) * n] for j in range(n)]
        sig_pows = [Matrix.identity(self.field, n)]
        for _ in range(n - 1):
            sig_pows.append(sigma @ sig_pows[-1])
        # left multiplication in the right-K-basis {u^m}:
        # kappa_j u^j u^k = d^q u^m sigma^{-m}(kappa_j), m=(j+k)%n, q=(j+k)//n
        rows = []
        for m in range(n):
            row = []
            for k in range(n):
                j = (m - k) % n
                entry = sig_pows[(n - m) % n].apply(kappas[j])
                if j + k >= n:
                    entry = [d * v for v in entry]
                row.append(entry)
            rows.append(row)
        det = _det_over_ring(kalg, rows)
        if any(det[1:]):
            raise AssertionError("cyclic norm left the base field")
        return det[0]

    # -- polarization --

    def polarize(self, *vs):
        """The symmetric d-linear form from the alternating subset-sum

            theta(v_1..v_d) = sum over nonempty S of (-1)^(d-|S|) N(sum_{i in S} v_i),

        valid when char(F) = 0 or > d."""
        d = self.degree
        if len(vs) != d:
            raise DimensionError(f"polarization of a degree-{d} form takes {d} arguments")
        if 0 < self.field.characteristic <= d:
            raise HypothesisError("polarization needs char 0 or char > degree")
        acc = self.field.zero()
        for l in range(1, d + 1):
            sign = (-1) ** (d - l)
            for subset in combinations(range(d), l):
                s = zero_vector(self.field, self.dim)
                for i in subset:
                    s = vec_add(s, vs[i])
                val = self.evaluate(s)
                acc = acc + val if sign > 0 else acc - val
        return acc

    def gram(self) -> Matrix:
        """Gram matrix of a degree-2 form (derived from the evaluator when not
        stored; needs char != 2): N(x) = x^T G x with G symmetric."""
        if self.degree != 2:
            raise DimensionError("gram() is only defined for degree-2 forms")
        if self._gram_cache is not None:
            return self._gram_cache
        if self.field.characteristic == 2:
            raise HypothesisError("cannot derive a gram matrix in characteristic 2")
        n = self.dim
        half = self.field.element(2).inverse()
        g = [[None] * n for _ in range(n)]
        for i in range(n):
            ei = basis_vector(self.field, n, i)
            g[i][i] = self.evaluate(ei)
            for j in range(i + 1, n):
                ej = basis_vector(self.field, n, j)
                theta = self.polarize(ei, ej)
                g[i][j] = g[j][i] = half * theta
        self._gram_cache = Matrix(self.field, g)
        return self._gram_cache


def _regrep_det_mod_p(coeffs, a, p):
    """det_mod_p of L_a = sum_j a_j M_j for int coordinates a, from the int
    coefficients (M_j[r][c] for all j) of each entry."""
    return det_mod_p([[sum(map(mul, a, e)) % p for e in row] for row in coeffs], p)


def _det_over_ring(kalg, rows):
    """Determinant of a matrix with entries in a commutative algebra, by
    cofactor expansion along the first row.  Entries are coordinate vectors."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = zero_vector(kalg.field, kalg.dim)
    for j in range(n):
        if not any(rows[0][j]):
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = kalg.multiply(rows[0][j], _det_over_ring(kalg, minor))
        if j % 2:
            term = [-v for v in term]
        acc = vec_add(acc, term)
    return acc


# -- the points every norm check walks --

def determining_points(field, dim, degree):
    """Points whose values pin down a degree-d form on F^dim, or None.

    Every vector of support <= d with nonzero entries in 1..d; for d <= 2
    only the entry 1, which leaves e_i and e_i + e_j (diagonal plus
    polarization) and settles every coefficient in every field.  For d > 2
    the form restricted to a support S has degree <= d in each variable, so
    its values on {0..d}^S fix it when char is 0 or > d (cf. Alon,
    Combinatorial Nullstellensatz, 1999).  None when 0 < char <= d and d > 2.
    """
    if degree > 2 and 0 < field.characteristic <= degree:
        return None
    top = degree if degree > 2 else 1
    pts = []
    for support_size in range(1, min(degree, dim) + 1):
        for support in combinations(range(dim), support_size):
            for values in product(range(1, top + 1), repeat=support_size):
                v = zero_vector(field, dim)
                for pos, val in zip(support, values):
                    v[pos] = field.element(val)
                pts.append(v)
    return pts


def _check_points(field, dim, degree, power, what):
    """The points a check walks: determining_points, or every vector of
    F^dim when they do not determine the form.  A check makes points**power
    evaluations, capped at EXHAUSTIVE_CAP."""
    pts = determining_points(field, dim, degree)
    count = len(pts) if pts is not None else field.order() ** dim
    if count ** power > EXHAUSTIVE_CAP:
        raise DimensionError(f"{what} exhaustion cap exceeded")
    if pts is None:
        return (vector_at(field, dim, i) for i in range(count))
    return pts


def verify_similarity(norm: NormForm, f: Matrix, routes=None):
    """Exact similarity factor a with N(f(x)) = a N(x) for all x, or None.

    Degree 2 (char != 2): checked on Gram matrices, F^T G F = a G ("gram").
    Otherwise, after the cap of _check_points, proved by _automorphism_factor
    ("automorphism") when it applies, else checked on those points
    ("points"): N o f - a N is a degree-d form, so it vanishes everywhere
    once it vanishes there.  `routes`, when given, is a list that gets the
    route that decided appended.
    """
    alpha, route = _similarity(norm, f)
    if routes is not None:
        routes.append(route)
    return alpha


def _similarity(norm: NormForm, f: Matrix):
    """(factor or None, route) for verify_similarity."""
    if not f.is_invertible():
        raise SingularMapError("similarity candidate is singular")
    if norm.degree == 2 and norm.field.characteristic != 2:
        g = norm.gram()
        m = f.transpose() @ g @ f
        alpha = None
        for i in range(norm.dim):
            for j in range(norm.dim):
                if g.rows[i][j]:
                    alpha = m.rows[i][j] / g.rows[i][j]
                    break
            if alpha is not None:
                break
        if alpha is None:
            return None, "gram"
        return (alpha if m == g.scale(alpha) else None), "gram"
    pts = _check_points(norm.field, norm.dim, norm.degree, 1, "similarity")
    alpha = _automorphism_factor(norm, f)
    if alpha is not None:
        return alpha, "automorphism"
    pending = []
    for x in pts:
        nx = norm.evaluate(x)
        nfx = norm.evaluate(f.apply(x))
        if not nx:
            if alpha is None:
                pending.append(nfx)
            elif nfx:
                return None, "points"
            continue
        if alpha is None:
            alpha = nfx / nx
            if not alpha or any(pending):
                return None, "points"
            pending = None
        if nfx != alpha * nx:
            return None, "points"
    return alpha, "points"


def _automorphism_factor(norm: NormForm, f: Matrix):
    """N(a) for a = f(1) when that proves N(f(x)) = N(a) N(x), or None.

    It applies to a regrep norm N = det L on an algebra A with a unit and
    vanishing basis associators, where L_a is invertible and sigma =
    L_a^-1 f is an automorphism of A.  Then f(x) = a sigma(x), and
    L_{sigma x} = sigma L_x sigma^-1, so N(f(x)) = det(L_a L_{sigma x}) =
    N(a) N(x)."""
    alg = norm.data["algebra"] if norm.kind == "regrep" else None
    if alg is None or alg.unit is None or not _is_associative(alg):
        return None
    a = f.apply(alg.unit)
    la = alg.left_mul_matrix(a)
    if not la.is_invertible() or not is_automorphism(alg, la.inverse() @ f)[0]:
        return None
    return norm.evaluate(a)


def _is_associative(alg) -> bool:
    """Every basis associator of alg vanishes (the tensor nucleus reads)."""
    return all(vec_is_zero(v) for plane in _associator_tensor(alg)
               for row in plane for v in row)


def _multiplicativity_proof(alg, norm: NormForm):
    """The route that proves N(xy) = N(x) N(y) for all x, y, or None.

    "associative-regrep": N is det L_x for alg's structure tensor and every
    basis associator of alg vanishes, so L_{xy} = L_x L_y.
    "gram-composition" (degree 2, char != 2): L_x^T G L_x = N(x) G at the
    points of determining_points (_gram_composes); each entry of the
    difference is a quadratic form in x, which those points fix, and the
    identity gives N(xy) = y^T L_x^T G L_x y = N(x) N(y)."""
    if norm.kind == "regrep" and tensor_eq(norm.data["algebra"], alg):
        if _is_associative(alg):
            return "associative-regrep"
    elif norm.kind == "gram" and norm.degree == 2 and alg.field.characteristic != 2:
        if _gram_composes(alg, norm.gram()):
            return "gram-composition"
    return None


def _gram_composes(alg, g: Matrix) -> bool:
    """L_x^T G L_x = N(x) G at the points e_i and e_i + e_j, for N(x) =
    x^T G x, read off the basis blocks P_ij = L_{e_i}^T G L_{e_j}, whose
    entry (a, b) is (e_i e_a)^T G (e_j e_b): at e_i the identity is
    P_ii = G_ii G, and given those, at e_i + e_j it is P_ij + P_ji =
    2 G_ij G.  Summed on alg's raw cells."""
    n, cells = alg.dim, alg._cells
    lift, zero, p, _ = alg.field.codec()
    graw = [[lift(v) for v in row] for row in g.rows]

    def form(u, v):
        """u^T G v for the sparse cells u, v."""
        return sum((t * s * graw[k][l] for k, t in u for l, s in v if graw[k][l]), zero)

    for i in range(n):
        for j in range(i, n):
            scale = graw[i][i] if i == j else 2 * graw[i][j]
            for a in range(n):
                for b in range(n):
                    lhs = form(cells[i][a], cells[j][b])
                    if i != j:
                        lhs += form(cells[j][a], cells[i][b])
                    rhs = scale * graw[a][b]
                    if (lhs - rhs) % p if p is not None else lhs != rhs:
                        return False
    return True


def verify_multiplicative(alg, norm: NormForm, routes=None) -> bool:
    """Exact check of N(xy) = N(x) N(y).  After the cap of _check_points, a
    route of _multiplicativity_proof (associative-regrep, gram-composition)
    proves it without the pair walk.  Otherwise every pair of the points of
    _check_points is walked ("points"): for fixed y both sides are degree-d
    forms in x, and for fixed x in y.  N is evaluated once per point and
    once per pair; a prime-field regrep norm is evaluated on int residues
    throughout.  A False always comes from a failing pair.  `routes`, when
    given, is a list that gets the route that decided appended."""
    if alg.dim != norm.dim or alg.field != norm.field:
        raise DimensionError("norm does not match the algebra")
    pts = _check_points(alg.field, alg.dim, norm.degree, 2, "multiplicativity")
    route = _multiplicativity_proof(alg, norm)
    if routes is not None:
        routes.append(route or "points")
    if route:
        return True
    pts = list(pts)
    coeffs = norm.data.get("int_coeffs")
    if coeffs is not None:
        p, cells = alg.field.p, alg._cells
        pts = [_residues(alg.field, x) for x in pts]
        norms = [_regrep_det_mod_p(coeffs, x, p) for x in pts]
        return all(_regrep_det_mod_p(coeffs, _sparse_product(cells, x, y, 0, p), p)
                   == nx * ny % p for x, nx in zip(pts, norms) for y, ny in zip(pts, norms))
    norms = [norm.evaluate(x) for x in pts]
    for x, nx in zip(pts, norms):
        for y, ny in zip(pts, norms):
            if norm.evaluate(alg.multiply(x, y)) != nx * ny:
                return False
    return True


def is_positive_definite(gram: Matrix) -> bool:
    """Sylvester criterion with exact leading principal minors (Q only)."""
    if gram.field.characteristic != 0:
        raise HypothesisError("positive definiteness is a rational-field notion here")
    n = gram.nrows
    for k in range(1, n + 1):
        sub = Matrix(gram.field, [row[:k] for row in gram.rows[:k]])
        if not (sub.det().payload > 0):
            return False
    return True
