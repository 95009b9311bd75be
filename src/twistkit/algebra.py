"""Finite-dimensional nonassociative algebras by structure constants.

An algebra is a field, a dimension n and an n*n*n tensor with
e_i e_j = sum_k table[i][j][k] e_k.  Elements are coordinate vectors.
The tensor is also kept on the field's raw values (fields codec: int
residues over F_p, Fractions over Q, Scalars over F_{p^k}), built once at
construction, and every product runs on it (_sparse_product).
"""

from __future__ import annotations

import copy

from .errors import DimensionError, MixedFieldError, SingularMapError, SpecError
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
        # the tensor on raw values, dense and as the sparse (k, t) cells of e_i e_j
        lift, zero, _, _ = field.codec()
        self._raw_table = [_lift_all(field, lift, zero, self.dim, row) for row in self.table]
        self._cells = [[[(k, t) for k, t in enumerate(cell) if t] for cell in row]
                       for row in self._raw_table]
        self.label = label
        self.norm = norm
        self.unit = None
        if unit is not None:
            unit = list(unit)
            if not self.is_unit(unit):
                raise DimensionError("declared unit is not a two-sided identity")
            self.unit = unit

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
        lift, zero, _, lower = self.field.codec()
        x, y = _lift_all(self.field, lift, zero, self.dim, (x, y))
        return [lower(v) for v in _sparse_product(self._cells, x, y, zero)]

    def left_mul_matrix(self, a) -> Matrix:
        """Matrix of x -> a*x in the fixed basis."""
        return self._mul_matrix(a, "left")

    def right_mul_matrix(self, a) -> Matrix:
        """Matrix of x -> x*a in the fixed basis."""
        return self._mul_matrix(a, "right")

    def _mul_matrix(self, a, side):
        """Column j is a e_j (left) or e_j a (right), summed on the raw tensor."""
        field, n, cells = self.field, self.dim, self._cells
        lift, zero, _, lower = field.codec()
        (a,) = _lift_all(field, lift, zero, n, (a,))
        rows = [[zero] * n for _ in range(n)]
        for i, ai in enumerate(a):
            if ai:
                for j in range(n):
                    for k, t in cells[i][j] if side == "left" else cells[j][i]:
                        rows[k][j] += ai * t
        return Matrix(field, [[lower(v) for v in row] for row in rows])

    def is_unit(self, e) -> bool:
        ident = Matrix.identity(self.field, self.dim)
        return self.left_mul_matrix(e) == ident and self.right_mul_matrix(e) == ident

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
        """This algebra with its unit: self when the unit is declared or none
        exists, otherwise a copy (sharing the tensor) whose unit is set."""
        e = None if self.unit is not None else self.find_unit()
        if e is None:
            return self
        out = copy.copy(self)
        out.unit = e
        return out

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
            try:
                vec = [self.field.parse(v) if isinstance(v, str) else self.field.element(v)
                       for v in val]
            except (TypeError, ValueError) as exc:
                raise SpecError(f"bad coordinates {val!r}: {exc}") from None
            if len(vec) != self.dim:
                raise DimensionError(f"expected {self.dim} coordinates, got {len(vec)}")
            return vec
        if isinstance(val, (int, Scalar)):
            return self.scalar_vec(val)
        text = str(val)
        if text.startswith("["):
            return self.element_from_string(text)
        return self.scalar_vec(self.field.parse(text))


def _lift_all(field, lift, zero, n, vecs):
    """The raw values of each vector over `field`, from the lift and raw zero
    of field.codec(): a Scalar of the field gives its raw value, an int its
    element's, a zero the raw zero; a nonzero entry of another field or type
    raises what a Scalar product with it raises (MixedFieldError, TypeError).
    Every vector must have length n (DimensionError before any entry)."""
    if any(len(vec) != n for vec in vecs):
        raise DimensionError("vector length mismatch")
    out = []
    for vec in vecs:
        raw = []
        for v in vec:
            if isinstance(v, Scalar) and (v.field is field or v.field == field):
                raw.append(lift(v))
            elif not v:
                raw.append(zero)
            elif isinstance(v, int):
                raw.append(lift(field.element(v)))
            elif isinstance(v, Scalar):
                raise MixedFieldError(f"{field} vs {v.field}")
            else:
                raise TypeError(f"not an element of {field}: {v!r}")
        out.append(raw)
    return out


def _residues(field, vec):
    """The raw values of one vector over `field` (see _lift_all)."""
    lift, zero, _, _ = field.codec()
    return _lift_all(field, lift, zero, len(vec), (vec,))[0]


def _sparse_product(cells, x, y, zero, p=None):
    """x y on raw coordinates, from cells[i][j] = the nonzero (k, t) of
    e_i e_j; reduced mod p when p is given.  The one product kernel of
    Algebra.multiply, associator, twist() and verify_multiplicative."""
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
    """[x,y,z] = (xy)z - x(yz), on the raw tensor."""
    cells, (lift, zero, _, lower) = alg._cells, alg.field.codec()
    x, y, z = _lift_all(alg.field, lift, zero, alg.dim, (x, y, z))
    left = _sparse_product(cells, _sparse_product(cells, x, y, zero), z, zero)
    right = _sparse_product(cells, x, _sparse_product(cells, y, z, zero), zero)
    return [lower(a - b) for a, b in zip(left, right)]


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
    if not isinstance(side, str) or side not in sides:
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
    return a.dim == b.dim and a.field == b.field and first_tensor_mismatch(a, b) is None


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
    return all(k in inside for i in coords for j in coords for k, _ in alg._cells[i][j])


def _prime_left_mul_mats(alg: Algebra):
    """The algebra read in F_p coordinates (finite fields only).

    Each F_{p^k} coordinate becomes its k coefficients, low first, so the
    F_p coordinate vector of x has index sum_j x_j p^j equal to the canonical
    index of x.  Returns (p, mats) with mats[j] the matrix of y -> E_j y for
    the j-th F_p basis vector E_j, as int rows.  L_x is F_p-singular exactly
    when it is singular over the scalar field."""
    field = alg.field
    p = field.characteristic
    if field.kind == "prime":
        return p, [[list(r) for r in zip(*mat)] for mat in alg._raw_table]
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
                for l, cell in enumerate(alg._cells[i]):
                    for m, t in cell:
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
    = lambda L_x, so they stand for every nonzero x."""
    return _mat_lines(*_prime_left_mul_mats(alg))


def _mat_lines(p, mats):
    """left_mul_lines from the int matrices (p, mats) of _prime_left_mul_mats:
    the lines with highest digit h run mats[h] + sum_{j<h} d_j mats[j]."""
    for h, top in enumerate(mats):
        for step, lx in enumerate(_odometer(top, mats[:h], p)):
            yield p**h + step, lx


def _odometer(start, steps, p):
    """Yield start + sum_j d_j steps[j] mod p (int matrices, as rows) for
    every digit vector d in increasing index sum_j d_j p^j.

    Each value raises digit j by 1 with carry, adding steps[j]; a digit that
    wraps from p - 1 to 0 adds its step a p-th time, which is 0 mod p, so a
    value costs one matrix addition per digit that moves."""
    def add(u, v):
        return [[(a + b) % p for a, b in zip(ru, rv)] for ru, rv in zip(u, v)]

    value, digits = start, [0] * len(steps)
    yield value
    for _ in range(p**len(steps) - 1):
        j = 0
        while digits[j] == p - 1:
            digits[j] = 0
            value = add(value, steps[j])
            j += 1
        digits[j] += 1
        value = add(value, steps[j])
        yield value
