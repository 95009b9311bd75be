"""Exact linear algebra over the scalar tower.

Over Q the forward elimination is fraction-free (Bareiss) on integer-cleared
rows; over finite fields it is plain Gaussian elimination, which over a
prime field runs on the int payloads for det and products.  Pivoting is
deterministic: first nonzero entry in column order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from .errors import DimensionError, SingularMapError
from .fields import RationalField, Scalar


# -- vector helpers (vectors are lists of Scalar) --

def zero_vector(field, n):
    z = field.zero()
    return [z] * n


def basis_vector(field, n, i):
    v = zero_vector(field, n)
    v[i] = field.one()
    return v


def vector_at(field, dim, idx):
    """idx-th coordinate vector in the canonical enumeration of a finite
    field's space: coordinate 0 is the least significant digit, field
    elements ordered by their index."""
    q = field.order()
    out = []
    for _ in range(dim):
        out.append(field.element_at(idx % q))
        idx //= q
    return out


def vec_add(x, y):
    return [a + b for a, b in zip(x, y)]


def vec_sub(x, y):
    return [a - b for a, b in zip(x, y)]


def vec_scale(c, x):
    return [c * a for a in x]


def vec_is_zero(x):
    return not any(x)


def vec_eq(x, y):
    return len(x) == len(y) and all(a == b for a, b in zip(x, y))


def format_vector(x) -> str:
    return "[" + ",".join(repr(a) for a in x) + "]"


def _bareiss_echelon(rows, ncols):
    """Fraction-free forward elimination on integer rows, in place.

    Returns (pivot list of (row, col), sign from row swaps).  After the call
    the matrix is in row echelon form with integer entries (subdeterminants
    of the input).
    """
    nrows = len(rows)
    pivots = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        p = rows[r][c]
        for i in range(r + 1, nrows):
            ri = rows[i]
            a = ri[c]
            rr = rows[r]
            for j in range(c, len(ri)):
                ri[j] = (p * ri[j] - a * rr[j]) // prev
        prev = p
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots, sign


def _gauss_echelon(rows, ncols):
    """Plain forward elimination with field division, in place on Scalars."""
    nrows = len(rows)
    pivots = []
    sign = 1
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
            sign = -sign
        p = rows[r][c]
        for i in range(r + 1, nrows):
            a = rows[i][c]
            if not a:
                continue
            factor = a / p
            ri, rr = rows[i], rows[r]
            for j in range(c, len(ri)):
                ri[j] = ri[j] - factor * rr[j]
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return pivots, sign


class Matrix:
    """Dense exact matrix; entries are Scalars of one field.

    Immutable by convention: all operations return new matrices.
    """

    def __init__(self, field, rows):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise DimensionError("ragged matrix")
        self._det = None

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field, nrows, ncols=None):
        z = field.zero()
        return cls(field, [[z] * (ncols or nrows) for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field, cols):
        return cls(field, [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))])

    def column(self, j):
        return [r[j] for r in self.rows]

    def columns(self):
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self):
        return Matrix(self.field, [[self.rows[i][j] for i in range(self.nrows)]
                                   for j in range(self.ncols)])

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise DimensionError(f"apply: {self.ncols} cols vs vector of {len(vec)}")
        out = []
        zero = self.field.zero()
        for row in self.rows:
            acc = zero
            for a, x in zip(row, vec):
                if a and x:
                    acc = acc + a * x
            out.append(acc)
        return out

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows or self.field != other.field:
            raise DimensionError("matmul shape/field mismatch")
        if self.field.kind == "prime":
            field, p = self.field, self.field.p
            rows = [[a.payload for a in row] for row in self.rows]
            cols = [[b.payload for b in col] for col in zip(*other.rows)]
            return Matrix(field, [[Scalar(field, sum(map(mul, r, c)) % p) for c in cols]
                                  for r in rows])
        zero = self.field.zero()
        bt = other.transpose().rows
        out = []
        for row in self.rows:
            out.append([sum((a * b for a, b in zip(row, col) if a and b), zero) for col in bt])
        return Matrix(self.field, out)

    def __add__(self, other):
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)]
                                   for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, c):
        return Matrix(self.field, [[c * a for a in r] for r in self.rows])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.nrows == self.nrows and other.ncols == self.ncols
                and all(a == b for r1, r2 in zip(self.rows, other.rows)
                        for a, b in zip(r1, r2)))

    def __hash__(self):
        return hash((self.field, tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        body = "; ".join("[" + ",".join(repr(a) for a in r) + "]" for r in self.rows)
        return f"Matrix({self.field!r}, {body})"

    def is_rational(self):
        return isinstance(self.field, RationalField)

    # -- elimination-backed operations --

    def _int_rows(self, extra=None):
        """Clear denominators row-wise; returns integer rows (matrix | extra)."""
        out = []
        for i, row in enumerate(self.rows):
            payloads = [a.payload for a in row]
            if extra is not None:
                payloads += [a.payload for a in extra[i]]
            lcm = 1
            for f in payloads:
                lcm = lcm * f.denominator // gcd(lcm, f.denominator)
            out.append([int(f * lcm) for f in payloads])
        return out

    def rref(self, aug=None):
        """Reduced row echelon form of (self | aug).

        Returns (rows of Scalars, pivot column indices of the left block).
        """
        acols = len(aug[0]) if aug else 0
        total = self.ncols + acols
        if self.is_rational():
            rows = self._int_rows(extra=aug)
            pivots, _ = _bareiss_echelon(rows, self.ncols)
            srows = [[Scalar(self.field, Fraction(x)) for x in r] for r in rows]
        else:
            srows = [list(r) + (list(aug[i]) if aug else [])
                     for i, r in enumerate(self.rows)]
            pivots, _ = _gauss_echelon(srows, self.ncols)
        # back substitution: normalize pivots to 1, clear above
        for r, c in reversed(pivots):
            p = srows[r][c]
            inv = p.inverse()
            srows[r] = [inv * a for a in srows[r]]
            for i in range(r):
                a = srows[i][c]
                if a:
                    srows[i] = [x - a * y for x, y in zip(srows[i], srows[r])]
        return [row[:total] for row in srows], [c for _, c in pivots]

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self):
        if self._det is not None:
            return self._det
        if self.nrows != self.ncols:
            raise DimensionError("det of non-square matrix")
        if self.is_rational():
            scale = Fraction(1)
            rows = []
            for row in self.rows:
                lcm = 1
                for a in row:
                    lcm = lcm * a.payload.denominator // gcd(lcm, a.payload.denominator)
                scale *= lcm
                rows.append([int(a.payload * lcm) for a in row])
            pivots, sign = _bareiss_echelon(rows, self.ncols)
            if len(pivots) < self.ncols:
                self._det = self.field.zero()
            else:
                r, c = pivots[-1]
                self._det = Scalar(self.field, Fraction(sign * rows[r][c]) / scale)
        elif self.field.kind == "prime":
            self._det = Scalar(self.field, det_mod_p([[a.payload for a in r] for r in self.rows],
                                                     self.field.p))
        else:
            rows = [list(r) for r in self.rows]
            pivots, sign = _gauss_echelon(rows, self.ncols)
            if len(pivots) < self.ncols:
                self._det = self.field.zero()
            else:
                acc = self.field.one() if sign == 1 else -self.field.one()
                for r, c in pivots:
                    acc = acc * rows[r][c]
                self._det = acc
        return self._det

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and bool(self.det())

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise DimensionError("inverse of non-square matrix")
        n = self.nrows
        ident = Matrix.identity(self.field, n)
        rows, pivots = self.rref(aug=ident.rows)
        if pivots != list(range(n)):
            raise SingularMapError("matrix is singular")
        return Matrix(self.field, [r[n:] for r in rows[:n]])

    def nullspace(self):
        """Canonical kernel basis: one vector per free column, ascending."""
        rows, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        zero, one = self.field.zero(), self.field.one()
        for fc in free:
            v = [zero] * self.ncols
            v[fc] = one
            for r, c in zip(range(len(pivots)), pivots):
                v[c] = -rows[r][fc]
            basis.append(v)
        return basis

    def solve(self, rhs):
        """A particular solution x of self @ x = rhs, or None if inconsistent.

        Returns (solution, unique: bool); free variables are set to zero.
        """
        rows, pivots = self.rref(aug=[[v] for v in rhs])
        for i in range(len(pivots), self.nrows):
            if rows[i][self.ncols]:
                return None, False
        zero = self.field.zero()
        x = [zero] * self.ncols
        for r, c in zip(range(len(pivots)), pivots):
            x[c] = rows[r][self.ncols]
        return x, len(pivots) == self.ncols


def in_span(basis, vec, field):
    """Exact membership of vec in the span of basis vectors; returns the
    coordinate vector or None."""
    if not basis:
        return None if any(vec) else []
    m = Matrix.from_columns(field, basis)
    sol, _ = m.solve(vec)
    if sol is None:
        return None
    if not vec_eq(m.apply(sol), vec):
        return None
    return sol


# -- int-coded F_p matrices (lists of int rows, entries in [0, p)) --

def det_mod_p(rows, p):
    """Determinant mod p of a square int matrix by Gaussian elimination;
    `rows` is left unchanged."""
    rows = list(rows)
    n = len(rows)
    det = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            det = -det
        piv = rows[c]
        det = det * piv[c] % p
        inv = pow(piv[c], -1, p)
        for i in range(c + 1, n):
            a = rows[i][c]
            if a:
                f = a * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], piv)]
    return det % p


def rref_mod_p(rows, p):
    """Reduced row echelon form mod p (pivots in column order, scaled to 1);
    returns (rows, pivot columns) and leaves the input unchanged."""
    rows = list(rows)
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        piv = rows[r] = [x * inv % p for x in rows[r]]
        for i in range(nrows):
            a = rows[i][c]
            if i != r and a:
                rows[i] = [(x - a * y) % p for x, y in zip(rows[i], piv)]
        pivots.append(c)
        if len(pivots) == nrows:
            break
    return rows, pivots


def first_kernel_vector_mod_p(rows, p):
    """The nonzero kernel vector of smallest index sum_j v_j p^j, or None.

    Its highest nonzero coordinate h is the first column that depends on the
    earlier ones, v_h = 1, and the rest is that dependency."""
    ncols = len(rows[0])
    reduced, pivots = rref_mod_p(rows, p)
    h = next((c for c, pc in enumerate(pivots) if pc != c), len(pivots))
    if h == ncols:
        return None
    return [-reduced[j][h] % p for j in range(h)] + [1] + [0] * (ncols - h - 1)
