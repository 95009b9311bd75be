"""References for the differential tests of the norm checks.

The enumeration that `verify_similarity` and `verify_multiplicative` ran
over every finite field before they walked `determining_points`: every
vector of F^n, in the `vector_at` order, and every pair of them.  The pair
walk that `verify_multiplicative` ran on every algebra before the
structural proofs, which serves as the reference over Q.  And
`verify_similarity` before its `automorphism` route and
`_multiplicativity_proof` before `gram-composition` was read off the basis
blocks: the Gram route or the walk on the points, and L_x^T G L_x at each
point."""

from twistkit.algebra import _associator_tensor, _residues, _sparse_product, tensor_eq
from twistkit.errors import DimensionError, SingularMapError
from twistkit.forms import _check_points, _regrep_det_mod_p, determining_points
from twistkit.linalg import vec_is_zero, vector_at


def _all_vectors(field, dim):
    return [vector_at(field, dim, i) for i in range(field.order()**dim)]


def reference_similarity(norm, f):
    """The factor a with N(f(x)) = a N(x) on all of F^n, or None."""
    alpha = None
    pending = []
    for x in _all_vectors(norm.field, norm.dim):
        nx = norm.evaluate(x)
        nfx = norm.evaluate(f.apply(x))
        if not nx:
            if alpha is None:
                pending.append(nfx)
            elif nfx:
                return None
            continue
        if alpha is None:
            alpha = nfx / nx
            if not alpha or any(pending):
                return None
            pending = None
        if nfx != alpha * nx:
            return None
    return alpha


def reference_multiplicative(alg, norm):
    """N(xy) = N(x) N(y) on all pairs of F^n."""
    xs = _all_vectors(alg.field, alg.dim)
    values = [norm.evaluate(x) for x in xs]
    return all(norm.evaluate(alg.multiply(x, y)) == nx * ny
               for x, nx in zip(xs, values) for y, ny in zip(xs, values))


def reference_walk_multiplicative(alg, norm) -> bool:
    """Exact check of N(xy) = N(x) N(y) on all pairs of the points of
    _check_points: for fixed y both sides are degree-d forms in x, and for
    fixed x in y.  N is evaluated once per point and once per pair; a
    prime-field regrep norm is evaluated on int residues throughout."""
    if alg.dim != norm.dim or alg.field != norm.field:
        raise DimensionError("norm does not match the algebra")
    pts = list(_check_points(alg.field, alg.dim, norm.degree, 2, "multiplicativity"))
    coeffs = norm.data.get("int_coeffs")
    if coeffs is not None:
        p, cells = alg.field.p, alg._cells
        pts = [_residues(alg.field, x) for x in pts]
        norms = [_regrep_det_mod_p(coeffs, x, p) for x in pts]
        return all(_regrep_det_mod_p(coeffs, _sparse_product(cells, x, y, 0, p), p)
                   == nx * ny % p for x, nx in zip(pts, norms) for y, ny in zip(pts, norms))
    norms = [norm.evaluate(x) for x in pts]
    for x, nx in zip(pts, norms):
        for y, ny in zip(pts, norms):
            if norm.evaluate(alg.multiply(x, y)) != nx * ny:
                return False
    return True


def reference_verify_similarity(norm, f):
    """Exact similarity factor a with N(f(x)) = a N(x) for all x, or None.

    Degree 2 (char != 2): checked on Gram matrices, F^T G F = a G.  Otherwise
    on the points of _check_points: N o f - a N is a degree-d form, so it
    vanishes everywhere once it vanishes there.
    """
    if not f.is_invertible():
        raise SingularMapError("similarity candidate is singular")
    if norm.degree == 2 and norm.field.characteristic != 2:
        g = norm.gram()
        m = f.transpose() @ g @ f
        alpha = None
        for i in range(norm.dim):
            for j in range(norm.dim):
                if g.rows[i][j]:
                    alpha = m.rows[i][j] / g.rows[i][j]
                    break
            if alpha is not None:
                break
        if alpha is None:
            return None
        return alpha if m == g.scale(alpha) else None
    alpha = None
    pending = []
    for x in _check_points(norm.field, norm.dim, norm.degree, 1, "similarity"):
        nx = norm.evaluate(x)
        nfx = norm.evaluate(f.apply(x))
        if not nx:
            if alpha is None:
                pending.append(nfx)
            elif nfx:
                return None
            continue
        if alpha is None:
            alpha = nfx / nx
            if not alpha or any(pending):
                return None
            pending = None
        if nfx != alpha * nx:
            return None
    return alpha


def reference_multiplicativity_proof(alg, norm):
    """The route that proves N(xy) = N(x) N(y) for all x, y, or None.

    "associative-regrep": N is det L_x for alg's structure tensor and every
    basis associator of alg vanishes, so L_{xy} = L_x L_y.
    "gram-composition" (degree 2, char != 2): L_x^T G L_x = N(x) G at the
    points of determining_points; each entry of the difference is a
    quadratic form in x, which those points fix, and the identity gives
    N(xy) = y^T L_x^T G L_x y = N(x) N(y)."""
    if norm.kind == "regrep" and tensor_eq(norm.data["algebra"], alg):
        if all(vec_is_zero(v) for plane in _associator_tensor(alg)
               for row in plane for v in row):
            return "associative-regrep"
    elif norm.kind == "gram" and norm.degree == 2 and alg.field.characteristic != 2:
        g = norm.gram()
        for x in determining_points(alg.field, alg.dim, 2):
            lx = alg.left_mul_matrix(x)
            if lx.transpose() @ g @ lx != g.scale(norm.evaluate(x)):
                return None
        return "gram-composition"
    return None
