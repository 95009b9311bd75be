"""Structure analysis: derivation algebras from the exact Leibniz nullspace,
automorphism/derivation verification, inner derivations, and containment
reports for twisted algebras.

The Leibniz system for an n-dimensional algebra has n^2 unknowns (the matrix
entries of D) and n^3 equations D(e_i e_j) = D(e_i) e_j + e_i D(e_j); the
derivation space is its exact nullspace, returned in reduced echelon form
with the Lie bracket table computed and closure verified on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import Algebra, _lift_all, _sparse_product
from .errors import CapExceeded, DimensionError, HypothesisError
from .linalg import Matrix, vec_eq, vec_is_zero

RATIONAL_UNKNOWN_CAP = 81


def _leibniz_rows(alg: Algebra):
    """Rows of the Leibniz system over unknowns D[a][b], flattened a*n+b."""
    n = alg.dim
    zero = alg.field.zero()
    rows = []
    for i in range(n):
        for j in range(n):
            prod = alg.table[i][j]
            for k in range(n):
                row = [zero] * (n * n)
                for b in range(n):
                    if prod[b]:
                        row[k * n + b] = row[k * n + b] + prod[b]
                for a in range(n):
                    t = alg.table[a][j][k]
                    if t:
                        row[a * n + i] = row[a * n + i] - t
                    t = alg.table[i][a][k]
                    if t:
                        row[a * n + j] = row[a * n + j] - t
                rows.append(row)
    return rows


def _dedupe_rows(rows):
    seen = set()
    out = []
    for row in rows:
        if not any(row):
            continue
        key = tuple(a.payload for a in row)
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


@dataclass
class DerivationSpace:
    """Basis of Der(A) (or Der_c(A)) as matrices, with the Lie bracket
    structure constants over that basis (computed on first read).

    The basis is a nullspace basis: each member has a 1 at its own free
    entry, which is its last nonzero entry in row-major order, and a 0 at
    the free entries of the others."""
    algebra: Algebra
    basis: list

    def __post_init__(self):
        self._free = [max(((r, c) for r, row in enumerate(b.rows)
                           for c, v in enumerate(row) if v), default=(0, 0))
                      for b in self.basis]
        one, zero = self.algebra.field.one(), self.algebra.field.zero()
        if any(b.rows[r][c] != (one if i == k else zero) for i, b in enumerate(self.basis)
               for k, (r, c) in enumerate(self._free)):
            raise DimensionError("basis is not reduced at its free entries")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def bracket(self) -> list:
        return _bracket_table(self)

    def contains(self, m: Matrix):
        """Coordinates of m in the span of the basis, or None: the entries of
        m at the free entries, checked by one exact recombination."""
        coords = [m.rows[r][c] for r, c in self._free]
        span = Matrix.zero(self.algebra.field, self.algebra.dim)
        for k, b in zip(coords, self.basis):
            if k:
                span = span + b.scale(k)
        return coords if span == m else None


def _cap_check(alg: Algebra):
    if alg.field.characteristic == 0 and alg.dim * alg.dim > RATIONAL_UNKNOWN_CAP:
        raise CapExceeded(
            f"{alg.dim * alg.dim} unknowns exceed the rational cap {RATIONAL_UNKNOWN_CAP}")


def derivations(alg: Algebra, fixing=None) -> DerivationSpace:
    """Exact nullspace of the Leibniz system; with `fixing` set, the extra
    conditions D(c) = 0 are adjoined (the derivations killing c)."""
    _cap_check(alg)
    n = alg.dim
    rows = _leibniz_rows(alg)
    if fixing is not None:
        c = [alg.field.element(v) for v in fixing]
        zero = alg.field.zero()
        for k in range(n):
            row = [zero] * (n * n)
            for b in range(n):
                if c[b]:
                    row[k * n + b] = c[b]
            rows.append(row)
    # no constraints left (dim-1 zero algebra): one zero row, so every
    # elementary matrix is a derivation
    rows = _dedupe_rows(rows) or [[alg.field.zero()] * (n * n)]
    kernel = Matrix(alg.field, rows).nullspace()
    return DerivationSpace(alg, [Matrix(alg.field, [vec[r * n:(r + 1) * n] for r in range(n)])
                                 for vec in kernel])


def derivations_fixing(alg: Algebra, c) -> DerivationSpace:
    return derivations(alg, fixing=c)


def _bracket_table(space: DerivationSpace):
    """Structure constants of [D_a, D_b] over the basis, [D_b, D_a] by
    antisymmetry; raises HypothesisError if a bracket leaves the span."""
    dim = space.dim
    zero = space.algebra.field.zero()
    table = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for a, da in enumerate(space.basis):
        for b in range(a + 1, dim):
            db = space.basis[b]
            coords = space.contains((da @ db) - (db @ da))
            if coords is None:
                raise HypothesisError(f"bracket [D{a}, D{b}] leaves the derivation span")
            table[a][b] = coords
            table[b][a] = [-v for v in coords]
    return table


def is_derivation(alg: Algebra, d: Matrix):
    """(ok, witness): D(e_i e_j) = D(e_i) e_j + e_i D(e_j) on all pairs."""
    cols = d.columns()
    for i in range(alg.dim):
        for j in range(alg.dim):
            lhs = d.apply(alg.table[i][j])
            rhs = [u + v for u, v in zip(alg.multiply(cols[i], alg.basis(j)),
                                         alg.multiply(alg.basis(i), cols[j]))]
            if not vec_eq(lhs, rhs):
                return False, (i, j)
    return True, None


def is_automorphism(alg: Algebra, m: Matrix):
    """(ok, witness): invertible and F(e_i e_j) = F(e_i) F(e_j) on all pairs."""
    return is_isomorphism(alg, alg, m)


def is_isomorphism(src: Algebra, dst: Algebra, m: Matrix):
    """(ok, witness): invertible and m(x .src. y) = m(x) .dst. m(y).

    Checked on the basis pairs in order, on raw values (fields codec):
    m(e_i e_j), summed from src's cells on the raw columns of m, against
    dst's product of columns i and j; the witness is the first pair that
    differs."""
    if src.dim != dst.dim or src.field != dst.field:
        raise DimensionError("isomorphism candidates need equal ambient spaces")
    if not m.is_invertible():
        return False, "singular"
    n = src.dim
    lift, zero, p, _ = src.field.codec()
    cols = _lift_all(src.field, lift, zero, n, m.columns())
    for i, (row, ci) in enumerate(zip(src._cells, cols)):
        for j, (cell, cj) in enumerate(zip(row, cols)):
            image = [sum((t * cols[k][r] for k, t in cell), zero) for r in range(n)]
            if p is not None:
                image = [a % p for a in image]
            if image != _sparse_product(dst._cells, ci, cj, zero, p):
                return False, (i, j)
    return True, None


def inner_derivation(alg: Algebra, a) -> Matrix:
    """Matrix of d_a: x -> a x - x a."""
    a = [alg.field.element(v) for v in a]
    return alg.left_mul_matrix(a) - alg.right_mul_matrix(a)


def commutes(m1: Matrix, m2: Matrix) -> bool:
    return m1 @ m2 == m2 @ m1


@dataclass
class CandidateFamily:
    """A finitely testable family of candidate automorphisms/derivations of a
    twisted algebra, with per-member hypothesis flags."""
    name: str
    kind: str                     # "automorphism" | "derivation"
    members: list                 # (label, Matrix, hypotheses_ok)
    injected_dim: int | None = None


def inner_automorphism_family(alg: Algebra, qs, f=None, g=None, c=None,
                              name="inner") -> CandidateFamily:
    """Inner automorphisms x -> (q x) q^-1 for the sample list qs; the
    hypothesis flag records commuting with f and g and fixing c."""
    from .builders import algebra_inverse
    members = []
    for q in qs:
        qv = [alg.field.element(v) for v in q]
        qinv = algebra_inverse(alg, qv)
        if qinv is None:
            raise AssertionError(f"sample {q} is not invertible")
        m = alg.right_mul_matrix(qinv) @ alg.left_mul_matrix(qv)
        hyp = True
        for other in (f, g):
            if other is not None and not commutes(m, other):
                hyp = False
        if c is not None and not vec_eq(m.apply(c), [alg.field.element(v) for v in c]):
            hyp = False
        members.append((f"inner({q})", m, hyp))
    return CandidateFamily(name=name, kind="automorphism", members=members)


def derivation_family(alg: Algebra, f=None, g=None, c=None,
                      name="derivations") -> CandidateFamily:
    """The computed basis of Der(A); hypothesis flags record commuting with
    f, g and killing c."""
    space = derivations(alg)
    members = []
    for idx, d in enumerate(space.basis):
        hyp = True
        for other in (f, g):
            if other is not None and not commutes(d, other):
                hyp = False
        if c is not None and not vec_is_zero(d.apply([alg.field.element(v) for v in c])):
            hyp = False
        members.append((f"D{idx}", d, hyp))
    return CandidateFamily(name=name, kind="derivation", members=members,
                           injected_dim=space.dim)


def containment_check(target: Algebra, family: CandidateFamily,
                      check_dim=False) -> dict:
    """Run is_automorphism / is_derivation for every member on the target
    algebra.  Members whose hypotheses verified exactly must pass; the report
    lists each member with its flags and witnesses, and optionally the
    recomputed dim Der(target) against the injected dimension."""
    checks = []
    all_hyp_pass = True
    for label, m, hyp in family.members:
        if family.kind == "automorphism":
            ok, witness = is_automorphism(target, m)
        else:
            ok, witness = is_derivation(target, m)
        if hyp and not ok:
            all_hyp_pass = False
        checks.append({"name": label, "hypotheses_ok": hyp, "pass": ok,
                       "witness": witness})
    report = {
        "algebra": target.label or "?",
        "family": family.name,
        "kind": family.kind,
        "checks": checks,
        "hypothesis_members_all_pass": all_hyp_pass,
    }
    if check_dim:
        space = derivations(target)
        report["der_dim"] = space.dim
        if family.injected_dim is not None:
            report["injected_dim"] = family.injected_dim
            report["dim_bound_holds"] = space.dim >= family.injected_dim
    return report


def derivation_report(alg: Algebra, fixing=None) -> dict:
    """Structured derivation analysis: dimension, basis, bracket table."""
    space = derivations(alg, fixing=fixing)
    return {
        "algebra": alg.label or "?",
        "der_dim": space.dim,
        "der_basis": [[[repr(v) for v in row] for row in b.rows] for b in space.basis],
        "bracket": [[[repr(v) for v in cell] for cell in row] for row in space.bracket],
    }
