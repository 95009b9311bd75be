"""The `Scalar` paths that the raw-payload kernels replace, kept as the
reference for the differential tests: the product loop of
`Algebra.multiply`, the associator on it, the cached-basis
`left/right_mul_matrix`, the `_gauss_echelon` determinant and the `Scalar`
product of `Matrix`, and the `Scalar` build of `_prime_left_mul_mats`.
"""

from twistkit.errors import DimensionError
from twistkit.linalg import Matrix, _gauss_echelon, vec_sub, zero_vector


def scalar_multiply(alg, x, y):
    """x y by Scalar products over the structure constants."""
    if len(x) != alg.dim or len(y) != alg.dim:
        raise DimensionError("vector length mismatch")
    out = zero_vector(alg.field, alg.dim)
    for i, xi in enumerate(x):
        if not xi:
            continue
        ti = alg.table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, t in enumerate(ti[j]):
                if t:
                    out[k] = out[k] + c * t
    return out


def scalar_associator(alg, x, y, z):
    """(xy)z - x(yz) on the Scalar product loop."""
    return vec_sub(scalar_multiply(alg, scalar_multiply(alg, x, y), z),
                   scalar_multiply(alg, x, scalar_multiply(alg, y, z)))


def basis_mats(alg, side):
    """Left/right multiplication matrices of all basis vectors."""
    mats = []
    for i in range(alg.dim):
        if side == "left":
            cols = [alg.table[i][j] for j in range(alg.dim)]
        else:
            cols = [alg.table[j][i] for j in range(alg.dim)]
        mats.append(Matrix.from_columns(alg.field, cols))
    return mats


def basis_mul_matrix(alg, a, side):
    """L_a (side "left") or R_a as the a-combination of the basis matrices:
    the body of the cached-basis `Algebra._mul_matrix`, built afresh."""
    mats = basis_mats(alg, side)
    rows = [[alg.field.zero()] * alg.dim for _ in range(alg.dim)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for r in range(alg.dim):
            mrow = mats[i].rows[r]
            row = rows[r]
            for cidx in range(alg.dim):
                if mrow[cidx]:
                    row[cidx] = row[cidx] + ai * mrow[cidx]
    return Matrix(alg.field, rows)


def scalar_det(m):
    """Determinant by Gaussian elimination on Scalars."""
    rows = [list(r) for r in m.rows]
    pivots, sign = _gauss_echelon(rows, m.ncols)
    if len(pivots) < m.ncols:
        return m.field.zero()
    acc = m.field.one() if sign == 1 else -m.field.one()
    for r, c in pivots:
        acc = acc * rows[r][c]
    return acc


def scalar_matmul(a, b):
    zero = a.field.zero()
    cols = b.transpose().rows
    return Matrix(a.field, [[sum((u * v for u, v in zip(row, col) if u and v), zero)
                             for col in cols] for row in a.rows])


def scalar_prime_left_mul_mats(alg):
    """(p, mats) with mats[j] the int rows of y -> E_j y, every entry taken
    through a Scalar product and element_index."""
    field = alg.field
    p = field.characteristic
    k = 1
    while p**k < field.order():
        k += 1
    big = alg.dim * k
    tpow = [field.element_at(p**a) for a in range(k)]
    mats = []
    for i in range(alg.dim):
        for a in range(k):
            rows = [[0] * big for _ in range(big)]
            for b in range(k):
                s = tpow[a] * tpow[b]
                for l, prod in enumerate(alg.table[i]):
                    for m, t in enumerate(prod):
                        if not t:
                            continue
                        idx = field.element_index(s * t)
                        for d in range(k):
                            rows[m * k + d][l * k + b] = idx % p
                            idx //= p
            mats.append(rows)
    return p, mats


class ScalarRegrep:
    """The regrep norm of `alg` as the Scalar determinant of L_x."""

    def __init__(self, alg):
        self.alg = alg

    def evaluate(self, x):
        return scalar_det(self.alg.left_mul_matrix(x))


def on_scalar_paths(monkeypatch):
    """Route Algebra.multiply, left/right_mul_matrix and Matrix.det through
    the Scalar paths until the monkeypatch context ends (for calling the
    other reference modules)."""
    from twistkit.algebra import Algebra
    monkeypatch.setattr(Algebra, "multiply", scalar_multiply)
    monkeypatch.setattr(Algebra, "left_mul_matrix",
                        lambda alg, a: basis_mul_matrix(alg, a, "left"))
    monkeypatch.setattr(Algebra, "right_mul_matrix",
                        lambda alg, a: basis_mul_matrix(alg, a, "right"))
    monkeypatch.setattr(Matrix, "det", scalar_det)
