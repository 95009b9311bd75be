"""The analyzer as it was before it read bracket coordinates at the free
entries and took every nucleus from one associator tensor: coordinates by a
full elimination per bracket (`in_span`), the empty-system basis built by
hand, and one associator pass per nucleus slot; and `is_isomorphism` on
Scalar vectors, before it ran on the raw tensor.  Kept as the reference
that tests compare the fast paths with, entry by entry."""

from twistkit.algebra import associator, commutator
from twistkit.analyzer import DerivationSpace, _cap_check, _dedupe_rows, _leibniz_rows
from twistkit.errors import DimensionError
from twistkit.linalg import Matrix, in_span, vec_eq

SIDES = ("left", "middle", "right", "all", "center")


def entries(value):
    """Nested lists of Scalars (or Matrices) as (payload type, repr) pairs."""
    if isinstance(value, Matrix):
        return entries(value.rows)
    if isinstance(value, list):
        return [entries(v) for v in value]
    return type(value.payload), repr(value)


def contains(space, m):
    """Coordinates of m in the span of space.basis, or None."""
    flat = [v for row in m.rows for v in row]
    vecs = [[v for row in b.rows for v in row] for b in space.basis]
    return in_span(vecs, flat, space.algebra.field)


def bracket_table(space):
    dim = len(space.basis)
    zero = space.algebra.field.zero()
    full = [[None] * dim for _ in range(dim)]
    for a, da in enumerate(space.basis):
        for b, db in enumerate(space.basis):
            if a == b:
                full[a][b] = [zero] * dim
            elif b > a:
                coords = contains(space, (da @ db) - (db @ da))
                assert coords is not None, "bracket closure failed"
                full[a][b] = coords
    for a in range(dim):
        for b in range(a):
            full[a][b] = [-v for v in full[b][a]]
    return full


def derivations(alg, fixing=None):
    """(basis, bracket table) of Der(A), or of Der_c(A) with `fixing`."""
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
        basis = []
        for a in range(n):
            for b in range(n):
                m = Matrix.zero(alg.field, n)
                m.rows[a][b] = alg.field.one()
                basis.append(m)
    else:
        kernel = Matrix(alg.field, rows).nullspace()
        basis = [Matrix(alg.field, [vec[r * n:(r + 1) * n] for r in range(n)])
                 for vec in kernel]
    space = DerivationSpace(alg, basis)
    return basis, bracket_table(space)


def nucleus(alg, side="all"):
    n = alg.dim

    def rows_for(slot):
        rows = []
        for j in range(n):
            ej = alg.basis(j)
            for k in range(n):
                ek = alg.basis(k)
                cols = []
                for i in range(n):
                    ei = alg.basis(i)
                    args = {"left": (ei, ej, ek), "middle": (ej, ei, ek),
                            "right": (ej, ek, ei)}[slot]
                    cols.append(associator(alg, *args))
                for comp in range(n):
                    rows.append([cols[i][comp] for i in range(n)])
        return rows

    sides = {"left": ["left"], "middle": ["middle"], "right": ["right"],
             "all": ["left", "middle", "right"],
             "center": ["left", "middle", "right"]}
    if side not in sides:
        raise DimensionError(f"unknown nucleus side {side!r}")
    rows = []
    for slot in sides[side]:
        rows.extend(rows_for(slot))
    if side == "center":
        for j in range(n):
            ej = alg.basis(j)
            cols = [commutator(alg, alg.basis(i), ej) for i in range(n)]
            for comp in range(n):
                rows.append([cols[i][comp] for i in range(n)])
    return Matrix(alg.field, rows).nullspace()


def is_isomorphism(src, dst, m):
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
