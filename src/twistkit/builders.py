"""Constructors for the source algebras and maps.

Covers: the one-dimensional ground algebra, Cayley-Dickson doubling (the
route to quaternions and octonions), finite field extensions viewed as
algebras with Frobenius maps, commutative number-field blocks over Q, cyclic
(crossed-product) algebras, and the map zoo (identity, conjugation,
Frobenius powers, inner automorphisms, reflections, explicit matrices).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import Algebra, opposite, vanishes_outside
from .analyzer import is_automorphism, is_isomorphism
from .errors import (FieldConstructionError, HypothesisError,
                     SingularMapError, SpecError)
from .fields import ExtensionField, PrimeField, RationalField
from .forms import (CERT_FIELD_NORM, CERT_POSITIVE_DEFINITE, CERT_UNKNOWN,
                    NormForm, is_positive_definite)
from .linalg import Matrix, basis_vector, vec_eq, vec_scale, zero_vector


def ground_algebra(field, label="F") -> Algebra:
    """The field itself as a one-dimensional algebra with norm x^2."""
    one = field.one()
    alg = Algebra(field, [[[one]]], unit=[one], label=label)
    alg.norm = NormForm.gram_form(field, [[1]],
                                  certificate=CERT_POSITIVE_DEFINITE
                                  if field.characteristic == 0 else CERT_UNKNOWN)
    return alg


def standard_involution(alg: Algebra) -> Matrix:
    """conj(x) = T(x) 1 - x with T(x) the polarization of the degree-2 norm
    against the unit.  Raises when the algebra has no such involution."""
    if alg.norm is None or alg.norm.degree != 2:
        raise HypothesisError("standard involution needs a degree-2 norm")
    if alg.unit is None:
        raise HypothesisError("standard involution needs a unit")
    cols = []
    for i in range(alg.dim):
        ei = alg.basis(i)
        t = alg.norm.polarize(alg.unit, ei)
        cols.append([t * u - x for u, x in zip(alg.unit, ei)])
    m = Matrix.from_columns(alg.field, cols)
    _check_scalar_involution(alg, m)
    return m


def _check_scalar_involution(alg, m):
    """x + conj(x) in F.1 and x conj(x) = N(x) 1, on every basis element."""
    for i in range(alg.dim):
        ei = alg.basis(i)
        bar = m.apply(ei)
        s = [a + b for a, b in zip(ei, bar)]
        t = alg.norm.polarize(alg.unit, ei)
        if not vec_eq(s, vec_scale(t, alg.unit)):
            raise HypothesisError("involution fails x + conj(x) in F.1")
        prod = alg.multiply(ei, bar)
        if not vec_eq(prod, vec_scale(alg.norm.evaluate(ei), alg.unit)):
            raise HypothesisError("involution fails x conj(x) = N(x) 1")


def cayley_dickson(base: Algebra, c, label="") -> Algebra:
    """Doubling of a unital algebra with scalar involution:

        (u,v)(u',v') = (uu' + c conj(v')v, v'u + v conj(u'))

    with unit (1,0) and norm N((u,v)) = N(u) - c N(v)."""
    c = base.field.element(c)
    if not c:
        raise HypothesisError("doubling scalar must be nonzero")
    conj = standard_involution(base)
    m = base.dim
    n = 2 * m
    field = base.field
    zero = zero_vector(field, m)

    def pack(first, second):
        return list(first) + list(second)

    table = [[None] * n for _ in range(n)]
    for i in range(n):
        u, v = (base.basis(i), zero) if i < m else (zero, base.basis(i - m))
        for j in range(n):
            up, vp = (base.basis(j), zero) if j < m else (zero, base.basis(j - m))
            first = [a + c * b for a, b in
                     zip(base.multiply(u, up), base.multiply(conj.apply(vp), v))]
            second = [a + b for a, b in
                      zip(base.multiply(vp, u), base.multiply(v, conj.apply(up)))]
            table[i][j] = pack(first, second)
    unit = pack(base.unit, zero)
    out = Algebra(field, table, unit=unit, label=label or f"CD({base.label},{c!r})")

    g = base.norm.gram()
    zero_s = field.zero()
    gram = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i < m and j < m:
                gram[i][j] = g.rows[i][j]
            elif i >= m and j >= m:
                gram[i][j] = -c * g.rows[i - m][j - m]
            else:
                gram[i][j] = zero_s
    cert = CERT_UNKNOWN
    if isinstance(field, RationalField):
        gm = Matrix(field, gram)
        if is_positive_definite(gm):
            cert = CERT_POSITIVE_DEFINITE
    out.norm = NormForm.gram_form(field, gram, certificate=cert)
    return out


def extension_as_algebra(ext: ExtensionField, label="") -> Algebra:
    """F_{p^n} as a commutative n-dimensional algebra over F_p in the power
    basis {1, t, ..., t^(n-1)}, with the degree-n field norm attached."""
    if not isinstance(ext, ExtensionField):
        raise FieldConstructionError("extension field required")
    p, n = ext.p, ext.n
    base = PrimeField(p)
    t = ext.gen()
    powers = [ext.one()]
    for _ in range(2 * n):
        powers.append(powers[-1] * t)
    table = [[[base.element(c) for c in (powers[i] * powers[j]).payload]
              for j in range(n)] for i in range(n)]
    unit = basis_vector(base, n, 0)
    alg = Algebra(base, table, unit=unit, label=label or f"F_{p}^{n}")
    alg.norm = NormForm.regrep_form(alg, certificate=CERT_FIELD_NORM)
    return alg


def number_field_algebra(modulus, label="") -> Algebra:
    """Q[t]/(f) for a monic rational polynomial f, power basis; commutative
    block used as the K of rational cyclic algebras.  No norm attached."""
    field = RationalField()
    coeffs = [field.element(c) for c in modulus]
    if not coeffs or coeffs[-1] != field.one():
        raise FieldConstructionError("modulus must be monic")
    n = len(coeffs) - 1
    if n < 2:
        raise FieldConstructionError("degree must be >= 2")
    # t^n = -(c_0 + c_1 t + ... + c_{n-1} t^{n-1}); powers up to t^(2n-2)
    reduction = [-coeffs[i] for i in range(n)]
    powers = [basis_vector(field, n, i) for i in range(n)]
    for k in range(n, 2 * n - 1):
        prev = powers[k - 1]
        shifted = [field.zero()] + prev[:-1]
        overflow = prev[-1]
        powers.append([s + overflow * r for s, r in zip(shifted, reduction)])
    table = [[list(powers[i + j]) for j in range(n)] for i in range(n)]
    return Algebra(field, table, unit=powers[0], label=label or "Q[t]/(f)")


def quadratic_conjugation(kalg: Algebra) -> Matrix:
    """The nontrivial automorphism of a quadratic commutative block
    Q[t]/(t^2 + bt + a): t -> -b - t."""
    if kalg.dim != 2:
        raise HypothesisError("quadratic conjugation needs dim 2")
    field = kalg.field
    # t^2 = table[1][1]; modulus t^2 + bt + a has -b = coefficient of t there
    tsq = kalg.table[1][1]
    minus_b = tsq[1]
    cols = [kalg.basis(0), [minus_b * u for u in kalg.unit]]
    cols[1] = [a - b for a, b in zip(cols[1], kalg.basis(1))]
    return Matrix.from_columns(field, cols)


def cyclic_algebra(kalg: Algebra, sigma: Matrix, d, certificate=CERT_UNKNOWN,
                   label="") -> Algebra:
    """Crossed product on basis {x_i u^j} (index i + n j) with relations
    u^n = d and u x = sigma(x) u, for a commutative n-dimensional block K
    with an order-n automorphism sigma.  The degree-n reduced norm (det of
    the representation over K) is attached."""
    field = kalg.field
    n = kalg.dim
    d = field.element(d)
    if not d:
        raise HypothesisError("structure scalar d must be nonzero")
    ok, witness = is_automorphism(kalg, sigma)
    if not ok:
        raise HypothesisError(f"sigma is not an automorphism of K; witness {witness}")
    sig_pows = [Matrix.identity(field, n)]
    for _ in range(n - 1):
        sig_pows.append(sigma @ sig_pows[-1])
    if sigma @ sig_pows[-1] != Matrix.identity(field, n):
        raise HypothesisError("sigma must have order dividing n")
    dim = n * n
    zero = field.zero()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for j in range(n):
            row_idx = a + n * j
            for b in range(n):
                sig_b = sig_pows[j].apply(kalg.basis(b))
                prod = kalg.multiply(kalg.basis(a), sig_b)
                for l in range(n):
                    col_idx = b + n * l
                    m = (j + l) % n
                    wrap = d if j + l >= n else field.one()
                    cell = table[row_idx][col_idx]
                    for k in range(n):
                        if prod[k]:
                            cell[k + n * m] = cell[k + n * m] + wrap * prod[k]
    unit = basis_vector(field, dim, 0)
    alg = Algebra(field, table, unit=unit, label=label or f"cyclic(n={n},d={d!r})")
    _verify_cyclic_relations(alg, kalg, sigma, d)
    if not vanishes_outside(alg, range(n)):
        raise AssertionError("K block is not closed")
    alg.norm = NormForm.cyclic_form(kalg, sigma, d, certificate=certificate)
    return alg


def _verify_cyclic_relations(alg, kalg, sigma, d):
    n = kalg.dim
    u = basis_vector(alg.field, alg.dim, n)
    acc = alg.unit
    for _ in range(n):
        acc = alg.multiply(acc, u)
    if not vec_eq(acc, alg.scalar_vec(d)):
        raise HypothesisError("u^n = d fails")
    for i in range(n):
        x = basis_vector(alg.field, alg.dim, i)
        sx = sigma.apply(kalg.basis(i))
        sx_emb = list(sx) + [alg.field.zero()] * (alg.dim - n)
        if not vec_eq(alg.multiply(u, x), alg.multiply(sx_emb, u)):
            raise HypothesisError("u x = sigma(x) u fails")


@dataclass
class MapSpec:
    """Descriptor for make_map: identity | conjugation | frobenius(k) |
    inner(q) | reflection(q) | explicit(matrix)."""
    kind: str
    k: int = 0
    q: list | None = None
    matrix: list | None = None

    @classmethod
    def parse(cls, obj):
        """From JSON ({"map":"inner","q":[...]}) or CLI shorthand
        ("id", "conj", "frob:1", "inner:[0,1,0,0]")."""
        if isinstance(obj, MapSpec):
            return obj
        if isinstance(obj, dict):
            kind = obj.get("map")
            return cls(kind=kind, k=int(obj.get("k", 0)),
                       q=obj.get("q"), matrix=obj.get("matrix"))
        text = str(obj)
        if ":" in text:
            head, arg = text.split(":", 1)
            try:
                if head == "frob":
                    return cls(kind="frobenius", k=int(arg))
                if head in ("inner", "reflection"):
                    return cls(kind=head, q=json.loads(arg))
            except ValueError as exc:
                raise SpecError(f"bad map argument in {text!r}: {exc}") from None
            raise HypothesisError(f"unknown map shorthand {text!r}")
        if text in ("id", "identity"):
            return cls(kind="identity")
        if text in ("conj", "conjugation"):
            return cls(kind="conjugation")
        raise HypothesisError(f"unknown map shorthand {text!r}")

    def describe(self) -> str:
        if self.kind == "frobenius":
            return f"frob:{self.k}"
        if self.kind in ("inner", "reflection"):
            return f"{self.kind}:{self.q}"
        if self.kind == "identity":
            return "id"
        if self.kind == "conjugation":
            return "conj"
        return "explicit"


def algebra_inverse(alg: Algebra, q):
    """Two-sided inverse of q, via the linear system q y = 1 (checked on the
    other side too); None when q is not invertible."""
    if alg.unit is None:
        raise HypothesisError("inverses need a unital algebra")
    lq = alg.left_mul_matrix(q)
    sol, _ = lq.solve(alg.unit)
    if sol is None:
        return None
    if not vec_eq(alg.multiply(sol, q), alg.unit):
        return None
    return sol


def make_map(alg: Algebra, spec) -> Matrix:
    """Build and verify the requested map as an exact matrix.

    Automorphism kinds (frobenius, inner, reflection) are verified on all
    basis pairs; conjugation is verified as an involution (period-2
    anti-automorphism)."""
    spec = MapSpec.parse(spec)
    n = alg.dim
    field = alg.field
    if spec.kind == "identity":
        return Matrix.identity(field, n)
    if spec.kind == "conjugation":
        m = standard_involution(alg)
        if m @ m != Matrix.identity(field, n):
            raise HypothesisError("conjugation is not of period 2")
        ok, witness = is_isomorphism(alg, opposite(alg), m)
        if not ok:
            raise HypothesisError(
                f"conjugation is not an anti-automorphism at pair {witness}")
        return m
    if spec.kind == "frobenius":
        if field.characteristic == 0:
            raise HypothesisError("frobenius needs positive characteristic")
        p = field.characteristic
        cols = []
        for i in range(n):
            acc = alg.basis(i)
            power = alg.basis(i)
            for _ in range(p - 1):
                acc = alg.multiply(acc, power)
            cols.append(acc)
        m1 = Matrix.from_columns(field, cols)
        m = Matrix.identity(field, n)
        for _ in range(spec.k % _frobenius_order(alg, m1)):
            m = m1 @ m
        ok, witness = is_automorphism(alg, m)
        if not ok:
            raise HypothesisError(f"frobenius power fails at basis pair {witness}")
        return m
    if spec.kind in ("inner", "reflection"):
        q = [field.parse(v) if isinstance(v, str) else field.element(v) for v in spec.q]
        qinv = algebra_inverse(alg, q)
        if qinv is None:
            raise SingularMapError("inner map parameter is not invertible")
        m = alg.right_mul_matrix(qinv) @ alg.left_mul_matrix(q)
        ok, witness = is_automorphism(alg, m)
        if not ok:
            raise HypothesisError(f"x -> (q x) q^-1 is not an automorphism; "
                                  f"witness basis pair {witness}")
        if spec.kind == "reflection" and m @ m != Matrix.identity(field, n):
            raise HypothesisError("map is not a reflection (square is not id)")
        return m
    if spec.kind == "explicit":
        rows = [[field.parse(v) if isinstance(v, str) else field.element(v)
                 for v in row] for row in spec.matrix]
        m = Matrix(field, rows)
        if not m.is_invertible():
            raise SingularMapError("explicit map is singular")
        return m
    raise HypothesisError(f"unknown map kind {spec.kind!r}")


def _frobenius_order(alg, m1):
    """Multiplicative order of the p-power map (the extension degree)."""
    ident = Matrix.identity(alg.field, alg.dim)
    m = m1
    for order in range(1, alg.dim + 1):
        if m == ident:
            return order
        m = m1 @ m
    raise HypothesisError("p-power map has order exceeding the dimension")
