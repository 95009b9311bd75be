"""The `Scalar` build of the twisted tensor that `twist()` replaces, kept as
the reference for the differential tests: every basis pair multiplies
`Scalar` vectors through `Algebra.multiply` to form xy and the bracketed
c-term, one `if shape` branch per bracketing.
"""

from twistkit.algebra import Algebra, isotope
from twistkit.errors import DimensionError, SingularMapError


def reference_twist(alg, spec):
    base = alg
    if spec.pre_isotope is not None:
        h1, h2, h3 = spec.pre_isotope
        base = isotope(alg, h1, h2, h3)
    for name, m in (("f", spec.f), ("g", spec.g)):
        if not m.is_invertible():
            raise SingularMapError(f"twist map {name} is singular")
    if spec.h is not None and not spec.h.is_invertible():
        raise SingularMapError("twist map h is singular")
    n = alg.dim
    if len(spec.c) != n:
        raise DimensionError("twist element has wrong length")
    c = [alg.field.element(v) for v in spec.c]
    fcols = spec.f.columns()
    gcols = spec.g.columns()
    happly = spec.h.apply if spec.h is not None else (lambda v: v)
    mul = base.multiply
    swap = spec.variant > 6
    shape = (spec.variant - 1) % 6 + 1
    table = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            dot = mul(base.basis(i), base.basis(j))
            p = fcols[j] if swap else fcols[i]
            q = gcols[i] if swap else gcols[j]
            if shape == 1:
                sub = mul(c, happly(mul(p, q)))
            elif shape == 2:
                sub = happly(mul(mul(c, p), q))
            elif shape == 3:
                sub = mul(happly(mul(p, c)), q)
            elif shape == 4:
                sub = happly(mul(p, mul(c, q)))
            elif shape == 5:
                sub = happly(mul(mul(p, q), c))
            else:
                sub = happly(mul(p, mul(q, c)))
            table[i][j] = [a - b for a, b in zip(dot, sub)]
    label = f"({alg.label},o{spec.variant})" if alg.label else ""
    return Algebra(alg.field, table, label=label)


def entries(alg):
    """Everything a twist returns, as comparable data: each entry's payload
    type, value and repr, and the label."""
    table = [[[(type(s.payload), s.payload, repr(s)) for s in cell] for cell in row]
             for row in alg.table]
    return alg.field, alg.dim, alg.label, alg.unit, table
