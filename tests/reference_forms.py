"""References for the differential tests of the norm checks.

The enumeration that `verify_similarity` and `verify_multiplicative` ran
over every finite field before they walked `determining_points`: every
vector of F^n, in the `vector_at` order, and every pair of them.  And the
pair walk that `verify_multiplicative` ran on every algebra before the
structural proofs, which serves as the reference over Q."""

from twistkit.algebra import _residues, _sparse_product
from twistkit.errors import DimensionError
from twistkit.forms import _check_points, _regrep_det_mod_p
from twistkit.linalg import vector_at


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
