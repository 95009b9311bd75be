"""The pair scan on Scalar matrices that `division_exhaustive` replaces,
kept as the reference for the differential tests: every nonzero x in the
canonical order, det L_x over the scalar field, then every y until L_x y = 0.
"""

from twistkit.algebra import left_mul_lines
from twistkit.errors import DimensionError
from twistkit.linalg import format_vector, rref_mod_p, vec_is_zero, vector_at


def reference_division_exhaustive(alg):
    total = alg.field.order()**alg.dim
    for xi in range(1, total):
        x = vector_at(alg.field, alg.dim, xi)
        lx = alg.left_mul_matrix(x)
        if lx.det():
            continue
        for yi in range(1, total):
            y = vector_at(alg.field, alg.dim, yi)
            if vec_is_zero(lx.apply(y)):
                return ("zero-divisor", (x, y))
    return ("certified", None)


def reference_pairs_count(alg):
    """Ordered nonzero pairs with x y = 0, by the same scan."""
    total = alg.field.order()**alg.dim
    count = 0
    for xi in range(1, total):
        lx = alg.left_mul_matrix(vector_at(alg.field, alg.dim, xi))
        if lx.det():
            continue
        count += sum(1 for yi in range(1, total)
                     if vec_is_zero(lx.apply(vector_at(alg.field, alg.dim, yi))))
    return count


def zero_divisor_pairs_count(alg) -> int:
    """Number of ordered nonzero pairs multiplying to zero (finite fields,
    small dimensions only; used by isotopy-invariance checks): the sum over
    singular nonzero x of p^(dim ker L_x) - 1, one L_x per F_p line."""
    order = alg.field.order()
    if order is None or order**alg.dim > 2**12:
        raise DimensionError("zero divisor count is capped to tiny algebras")
    p = alg.field.characteristic
    count = 0
    for _, lx in left_mul_lines(alg):
        count += p**(len(lx) - len(rref_mod_p(lx, p)[1])) - 1
    return (p - 1) * count


def witness_text(result):
    """A division_exhaustive result as text: the status and, for a zero
    divisor, both witness vectors as printed in reports."""
    status, witness = result
    if witness is None:
        return status
    return f"{status}({format_vector(witness[0])};{format_vector(witness[1])})"
