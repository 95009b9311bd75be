"""The enumeration that `verify_similarity` and `verify_multiplicative` ran
over every finite field before they walked `determining_points`, kept as the
reference for the differential tests: every vector of F^n, in the
`vector_at` order, and every pair of them."""

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
