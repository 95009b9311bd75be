"""Finite-dimensional nonassociative algebras by structure constants.

An algebra is a field, a dimension n and an n*n*n tensor with
e_i e_j = sum_k table[i][j][k] e_k.  Elements are coordinate vectors.
Over a prime field the tensor is also kept as int residues, built once at
construction, and products run on them (_sparse_product).
"""

from __future__ import annotations

from .errors import DimensionError, MixedFieldError, SingularMapError
from .fields import Scalar
from .linalg import Matrix, basis_vector, vec_eq, vec_sub, zero_vector

DENSE_DIM_CAP = 16


class Algebra:
    def __init__(self, field, table, unit=None, label="", norm=None):
        self.field = field
        self.dim = len(table)
        if self.dim < 1:
            raise DimensionError("algebra dimension must be >= 1")
        if self.dim > DENSE_DIM_CAP:
            raise DimensionError(f"dimension cap is {DENSE_DIM_CAP}, got {self.dim}")
        self.table = [[list(cell) for cell in row] for row in table]
        for row in self.table:
            if len(row) != self.dim or any(len(cell) != self.dim for cell in row):
                raise DimensionError("structure tensor is not n*n*n")
        # over F_p: the tensor as int residues, dense and as sparse (k, t) cells
        self._int_table = self._cells = None
        if field.kind == "prime":
            self._int_table = [[_residues(field, cell) for cell in row] for row in self.table]
            self._cells = [[[(k, t) for k, t in enumerate(cell) if t] for cell in row]
                           for row in self._int_table]
        self.label = label
        self.norm = norm
        self.unit = None
        if unit is not None:
            unit = list(unit)
            if not self.is_unit(unit):
                raise DimensionError("declared unit is not a two-sided identity")
            self.unit = unit
        self._left_basis_mats = None
        self._right_basis_mats = None

    def __repr__(self):
        return f"Algebra({self.label or '?'}, dim={self.dim} over {self.field!r})"

    def zero(self):
        return zero_vector(self.field, self.dim)

    def basis(self, i):
        return basis_vector(self.field, self.dim, i)

    def scalar_vec(self, c):
        """The vector c * 1_A; requires a unit."""
        if self.unit is None:
            raise DimensionError("algebra has no unit")
        c = self.field.element(c)
        return [c * u for u in self.unit]

    def multiply(self, x, y):
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionError("vector length mismatch")
        if self._cells is not None:
            field = self.field
            return [Scalar(field, v) for v in _sparse_product(
                self._cells, _residues(field, x), _residues(field, y), 0, field.p)]
        out = zero_vector(self.field, self.dim)
        for i, xi in enumerate(x):
            if not xi:
                continue
            ti = self.table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, t in enumerate(ti[j]):
                    if t:
                        out[k] = out[k] + c * t
        return out

    def _basis_mats(self, side):
        """Left/right multiplication matrices of all basis vectors (cached)."""
        cached = self._left_basis_mats if side == "left" else self._right_basis_mats
        if cached is not None:
            return cached
        mats = []
        for i in range(self.dim):
            if side == "left":
                cols = [self.table[i][j] for j in range(self.dim)]
            else:
                cols = [self.table[j][i] for j in range(self.dim)]
            mats.append(Matrix.from_columns(self.field, cols))
        if side == "left":
            self._left_basis_mats = mats
        else:
            self._right_basis_mats = mats
        return mats

    def left_mul_matrix(self, a) -> Matrix:
        """Matrix of x -> a*x in the fixed basis."""
        return self._mul_matrix(a, "left")

    def right_mul_matrix(self, a) -> Matrix:
        """Matrix of x -> x*a in the fixed basis."""
        return self._mul_matrix(a, "right")

    def _mul_matrix(self, a, side):
        mats = self._basis_mats(side)
        rows = [[self.field.zero()] * self.dim for _ in range(self.dim)]
        for i, ai in enumerate(a):
            if not ai:
                continue
            for r in range(self.dim):
                mrow = mats[i].rows[r]
                row = rows[r]
                for cidx in range(self.dim):
                    if mrow[cidx]:
                        row[cidx] = row[cidx] + ai * mrow[cidx]
        return Matrix(self.field, rows)

    def is_unit(self, e) -> bool:
        for j in range(self.dim):
            ej = self.basis(j)
            if not vec_eq(self.multiply(e, ej), ej):
                return False
            if not vec_eq(self.multiply(ej, e), ej):
                return False
        return True

    def find_unit(self):
        """Solve e*e_j = e_j and e_j*e = e_j for all j; the two-sided unit is
        unique when it exists, None otherwise."""
        rows = []
        rhs = []
        for j in range(self.dim):
            # sum_i e_i (e_i e_j) = e_j : row block indexed by (j, k)
            for k in range(self.dim):
                rows.append([self.table[i][j][k] for i in range(self.dim)])
                rhs.append(self.field.one() if j == k else self.field.zero())
            for k in range(self.dim):
                rows.append([self.table[j][i][k] for i in range(self.dim)])
                rhs.append(self.field.one() if j == k else self.field.zero())
        sol, _ = Matrix(self.field, rows).solve(rhs)
        if sol is None or not self.is_unit(sol):
            return None
        return sol

    def with_unit_found(self):
        """Return self with the unit slot populated if one exists."""
        if self.unit is not None:
            return self
        e = self.find_unit()
        if e is not None:
            self.unit = e
        return self

    def element_from_string(self, text):
        """Parse a coordinate vector like "[1,0,-13/9,0]" (entries in the
        scalar textual encoding)."""
        body = text.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise DimensionError(f"bad vector literal {text!r}")
        parts = _split_top_level(body[1:-1])
        if len(parts) != self.dim:
            raise DimensionError(f"expected {self.dim} coordinates, got {len(parts)}")
        return [self.field.parse(p) for p in parts]

    def parse_element(self, val):
        """An element from a coordinate list, a "[...]" literal, or a scalar
        (a Scalar, an int or scalar text) read as that multiple of the unit."""
        if isinstance(val, list):
            return [self.field.element(v) for v in val]
        if isinstance(val, (int, Scalar)):
            return self.scalar_vec(val)
        text = str(val)
        if text.startswith("["):
            return self.element_from_string(text)
        return self.scalar_vec(self.field.parse(text))


def _residues(field, vec):
    """The int residues mod p of a vector over the prime field `field`: a
    Scalar of the field gives its payload, an int its residue, a zero entry
    0; a nonzero entry of another field or type raises what a Scalar product
    with it raises (MixedFieldError, TypeError)."""
    out = []
    for v in vec:
        if not v:
            out.append(0)
        elif isinstance(v, Scalar):
            if v.field != field:
                raise MixedFieldError(f"{field} vs {v.field}")
            out.append(v.payload)
        elif isinstance(v, int):
            out.append(v % field.p)
        else:
            raise TypeError(f"not an element of {field}: {v!r}")
    return out


def _sparse_product(cells, x, y, zero, p=None):
    """x y on raw coordinates, from cells[i][j] = the nonzero (k, t) of
    e_i e_j; reduced mod p when p is given.  The one product kernel of
    Algebra.multiply over F_p, twist() and verify_multiplicative."""
    out = [zero] * len(cells)
    for xi, row in zip(x, cells):
        if xi:
            for yj, cell in zip(y, row):
                if yj:
                    s = xi * yj
                    for k, t in cell:
                        out[k] += s * t
    return out if p is None else [a % p for a in out]


def _split_top_level(body):
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or parts:
        parts.append("".join(cur))
    return [p.strip() for p in parts]


def commutator(alg: Algebra, x, y):
    """[x,y] = xy - yx."""
    return vec_sub(alg.multiply(x, y), alg.multiply(y, x))


def associator(alg: Algebra, x, y, z):
    """[x,y,z] = (xy)z - x(yz); over F_p on the int tensor."""
    if alg._cells is None:
        return vec_sub(alg.multiply(alg.multiply(x, y), z),
                       alg.multiply(x, alg.multiply(y, z)))
    if not len(x) == len(y) == len(z) == alg.dim:
        raise DimensionError("vector length mismatch")
    field, cells = alg.field, alg._cells
    x, y, z = (_residues(field, v) for v in (x, y, z))
    left = _sparse_product(cells, _sparse_product(cells, x, y, 0), z, 0)
    right = _sparse_product(cells, x, _sparse_product(cells, y, z, 0), 0)
    return [Scalar(field, (a - b) % field.p) for a, b in zip(left, right)]


def _associator_tensor(alg: Algebra):
    """The n^3 basis associators, assoc[a][b][c] = [e_a, e_b, e_c]: read by
    every nucleus and by the associative-regrep multiplicativity proof."""
    basis = [alg.basis(i) for i in range(alg.dim)]
    return [[[associator(alg, x, y, z) for z in basis] for y in basis] for x in basis]


def nucleus(alg: Algebra, side="all"):
    """Basis of the requested nucleus: exact nullspace of the stacked linear
    conditions [x,A,A]=0 (left), [A,x,A]=0 (middle), [A,A,x]=0 (right), their
    intersection ("all"), or the center ("center": all + commutators).  The
    n^3 basis associators are computed once and each slot reads its block."""
    n = alg.dim
    # the associator with x = e_i in the slot, as read from assoc[a][b][c]
    slots = {"left": lambda i, j, k: assoc[i][j][k],      # [x, e_j, e_k]
             "middle": lambda i, j, k: assoc[j][i][k],    # [e_j, x, e_k]
             "right": lambda i, j, k: assoc[j][k][i]}     # [e_j, e_k, x]
    sides = {"all": list(slots), "center": list(slots), **{s: [s] for s in slots}}
    if side not in sides:
        raise DimensionError(f"unknown nucleus side {side!r}")
    assoc = _associator_tensor(alg)
    rows = []
    for slot in sides[side]:
        for j in range(n):
            for k in range(n):
                cols = [slots[slot](i, j, k) for i in range(n)]
                rows.extend([col[comp] for col in cols] for comp in range(n))
    if side == "center":
        for j in range(n):
            cols = [commutator(alg, alg.basis(i), alg.basis(j)) for i in range(n)]
            rows.extend([col[comp] for col in cols] for comp in range(n))
    return Matrix(alg.field, rows).nullspace()


def center(alg: Algebra):
    return nucleus(alg, side="center")


def isotope(alg: Algebra, f: Matrix, g: Matrix, h: Matrix | None = None) -> Algebra:
    """The algebra with product h(f(x) * g(y)) for invertible f, g, h."""
    n = alg.dim
    h = h if h is not None else Matrix.identity(alg.field, n)
    for name, m in (("f", f), ("g", g), ("h", h)):
        if not m.is_invertible():
            raise SingularMapError(f"isotope map {name} is singular")
    fcols = f.columns()
    gcols = g.columns()
    table = [[h.apply(alg.multiply(fcols[i], gcols[j])) for j in range(n)]
             for i in range(n)]
    out = Algebra(alg.field, table, label=f"{alg.label}^(f,g,h)" if alg.label else "")
    return out.with_unit_found()


def opposite(alg: Algebra) -> Algebra:
    """Same space, product x.y = yx (tensor with i, j transposed)."""
    n = alg.dim
    table = [[alg.table[j][i] for j in range(n)] for i in range(n)]
    return Algebra(alg.field, table, unit=alg.unit,
                   label=f"{alg.label}^op" if alg.label else "")


def tensor_eq(a: Algebra, b: Algebra) -> bool:
    if a.dim != b.dim or a.field != b.field:
        return False
    return all(vec_eq(a.table[i][j], b.table[i][j])
               for i in range(a.dim) for j in range(a.dim))


def first_tensor_mismatch(a: Algebra, b: Algebra):
    """First basis pair where the two products differ, or None."""
    for i in range(a.dim):
        for j in range(a.dim):
            if not vec_eq(a.table[i][j], b.table[i][j]):
                return (i, j)
    return None


def vanishes_outside(alg: Algebra, coords) -> bool:
    """True when products of basis vectors indexed by `coords` have zero
    components outside `coords` (subalgebra-closure on a coordinate block)."""
    inside = set(coords)
    for i in coords:
        for j in coords:
            for k in range(alg.dim):
                if k not in inside and alg.table[i][j][k]:
                    return False
    return True


def _prime_left_mul_mats(alg: Algebra):
    """The algebra read in F_p coordinates (finite fields only).

    Each F_{p^k} coordinate becomes its k coefficients, low first, so the
    F_p coordinate vector of x has index sum_j x_j p^j equal to the canonical
    index of x.  Returns (p, mats) with mats[j] the matrix of y -> E_j y for
    the j-th F_p basis vector E_j, as int rows.  L_x is F_p-singular exactly
    when it is singular over the scalar field."""
    field = alg.field
    p = field.characteristic
    if alg._int_table is not None:
        return p, [[list(r) for r in zip(*mat)] for mat in alg._int_table]
    k = 1
    while p**k < field.order():
        k += 1
    big = alg.dim * k
    tpow = [field.element_at(p**a) for a in range(k)]   # F_p basis of the field
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


def left_mul_lines(alg: Algebra):
    """Yield (index, L_x as int rows mod p) for every nonzero x whose highest
    nonzero F_p coordinate is 1, in increasing canonical index.

    These are the first members of the F_p lines {lambda x}, and L_{lambda x}
    = lambda L_x, so they stand for every nonzero x.  Raising F_p digit j by
    1 mod p adds mats[j], so each step of the odometer costs one addition."""
    p, mats = _prime_left_mul_mats(alg)

    def add(u, v):
        return [[(a + b) % p for a, b in zip(ru, rv)] for ru, rv in zip(u, v)]

    for h, top in enumerate(mats):
        lx = top
        digits = [0] * h
        for step in range(p**h):
            if step:
                j = 0
                while digits[j] == p - 1:
                    digits[j] = 0
                    lx = add(lx, mats[j])
                    j += 1
                digits[j] += 1
                lx = add(lx, mats[j])
            yield p**h + step, lx
