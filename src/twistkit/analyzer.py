"""Structure analysis: derivation algebras from the exact Leibniz nullspace,
automorphism/derivation verification, inner derivations, and containment
reports for twisted algebras.

The Leibniz system for an n-dimensional algebra has n^2 unknowns (the matrix
entries of D) and n^3 equations D(e_i e_j) = D(e_i) e_j + e_i D(e_j); the
derivation space is its exact nullspace, returned in reduced echelon form
with the Lie bracket table computed and closure verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import Algebra
from .errors import CapExceeded, DimensionError
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
    structure constants over that basis."""
    algebra: Algebra
    basis: list
    bracket: list = dc_field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: Matrix):
        """Coordinates of m in the span of the basis, or None."""
        flat = [v for row in m.rows for v in row]
        from .linalg import in_span
        vecs = [[v for row in b.rows for v in row] for b in self.basis]
        return in_span(vecs, flat, self.algebra.field)


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
    rows = _dedupe_rows(rows)
    if not rows:
        # no constraints: every matrix is a derivation (dim-1 zero algebra)
        basis = []
        for a in range(n):
            for b in range(n):
                m = Matrix.zero(alg.field, n)
                m.rows[a][b] = alg.field.one()
                basis.append(m)
        space = DerivationSpace(alg, basis)
    else:
        kernel = Matrix(alg.field, rows).nullspace()
        basis = [Matrix(alg.field, [vec[r * n:(r + 1) * n] for r in range(n)])
                 for vec in kernel]
        space = DerivationSpace(alg, basis)
    space.bracket = _bracket_table(space)
    return space


def derivations_fixing(alg: Algebra, c) -> DerivationSpace:
    return derivations(alg, fixing=c)


def _bracket_table(space: DerivationSpace):
    """Structure constants of [D_a, D_b] over the computed basis; raises if
    the bracket leaves the span (exact closure check)."""
    table = []
    for a, da in enumerate(space.basis):
        row = []
        for b, db in enumerate(space.basis):
            if b <= a:
                row.append(None)  # filled by antisymmetry below
                continue
            br = (da @ db) - (db @ da)
            coords = space.contains(br)
            assert coords is not None, "bracket closure failed"
            row.append(coords)
        table.append(row)
    dim = len(space.basis)
    zero = space.algebra.field.zero()
    full = [[None] * dim for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            if a == b:
                full[a][b] = [zero] * dim
            elif b > a:
                full[a][b] = table[a][b]
            else:
                full[a][b] = [-v for v in table[b][a]]
    return full


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
    """(ok, witness): invertible and m(x .src. y) = m(x) .dst. m(y)."""
    if src.dim != dst.dim or src.field != dst.field:
        raise DimensionError("isomorphism candidates need equal ambient spaces")
    if not m.is_invertible():
        return False, "singular"
    cols = m.columns()
    for i in range(src.dim):
        for j in range(src.dim):
            if not vec_eq(m.apply(src.table[i][j]), dst.multiply(cols[i], cols[j])):
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
        assert qinv is not None, f"sample {q} is not invertible"
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
