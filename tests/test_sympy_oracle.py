"""sympy as an independent oracle: the int-coded eliminations of `linalg`
over GF(p) and the Bareiss path of `Matrix` over Q (det, rank, nullspace)
on random and rank-deficient matrices, and the irreducibility of every
default modulus the fixture and benchmark fields use."""

import random
from fractions import Fraction

import pytest

from twistkit.fields import ExtensionField, RationalField
from twistkit.linalg import Matrix, det_mod_p, first_kernel_vector_mod_p, rref_mod_p

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

PRIMES = [2, 3, 5, 7, 11, 13]

# F4, F9, F27, F125 (fixtures); the scan, probe, certify and refutation
# fields of bench/workloads.py.
FIELDS = sorted({(2, 2), (3, 2), (3, 3), (5, 3),
                 (5, 2), (7, 2), (13, 3), (3, 7), (5, 5),
                 (7, 3), (5, 4), (11, 3), (7, 4), (3, 6),
                 (2, 8), (3, 5)})


def gf_matrix(rows, p):
    field = sympy.GF(p)
    return DomainMatrix([[field(v) for v in row] for row in rows],
                        (len(rows), len(rows[0])), field)


def as_ints(dm, p):
    return [[int(v) % p for v in row] for row in dm.to_list()]


def random_rows(p, nrows, ncols, rng, deficient):
    """Random residues; when deficient, one row the sum of two others plus
    a multiple, or one zero column."""
    rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
    if deficient and nrows > 2 and rng.random() < 0.5:
        a, b, t = rng.sample(range(nrows), 3)
        k = rng.randrange(p)
        rows[t] = [(x + k * y) % p for x, y in zip(rows[a], rows[b])]
    elif deficient:
        col = rng.randrange(ncols)
        for row in rows:
            row[col] = 0
    return rows


def cases(p, seed, square=False):
    rng = random.Random(seed)
    for trial in range(30):
        n = rng.randint(1, 6)
        m = n if square or trial % 3 == 0 else rng.randint(1, 6)
        yield random_rows(p, n, m, rng, deficient=trial % 2 == 1)


def rational_cases(seed, square=False):
    """Random rationals; every other matrix rank-deficient, with one row
    the sum of another and a multiple of a third, or one zero column."""
    rng = random.Random(seed)
    for trial in range(30):
        n = rng.randint(1, 6)
        m = n if square or trial % 3 == 0 else rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(n)]
        if trial % 2 and n > 2 and rng.random() < 0.5:
            a, b, t = rng.sample(range(n), 3)
            k = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            rows[t] = [x + k * y for x, y in zip(rows[a], rows[b])]
        elif trial % 2:
            col = rng.randrange(m)
            for row in rows:
                row[col] = Fraction(0)
        yield Matrix(RationalField(), [[RationalField().element(v) for v in row]
                                       for row in rows]), sympy.Matrix(rows)


def as_fractions(values):
    return [Fraction(int(v.p), int(v.q)) for v in values]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bareiss_det_matches_sympy(seed):
    for m, expected in rational_cases(seed, square=True):
        assert m.det().payload == as_fractions([expected.det()])[0]


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_bareiss_rank_and_nullspace_match_sympy(seed):
    """rank, and the canonical kernel basis: one vector per free column,
    that coordinate 1 and the other free ones 0, as sympy builds it."""
    for m, expected in rational_cases(seed):
        assert m.rank() == expected.rank()
        assert ([[v.payload for v in vec] for vec in m.nullspace()]
                == [as_fractions(vec) for vec in expected.nullspace()])


@pytest.mark.parametrize("p", PRIMES)
def test_det_mod_p_matches_sympy(p):
    for rows in cases(p, p, square=True):
        before = [list(r) for r in rows]
        assert det_mod_p(rows, p) == int(gf_matrix(rows, p).det()) % p
        assert rows == before


@pytest.mark.parametrize("p", PRIMES)
def test_rref_mod_p_matches_sympy(p):
    for rows in cases(p, 10 + p):
        before = [list(r) for r in rows]
        reduced, pivots = rref_mod_p(rows, p)
        expected, expected_pivots = gf_matrix(rows, p).rref()
        assert pivots == list(expected_pivots)
        assert reduced == as_ints(expected, p)
        assert rows == before


@pytest.mark.parametrize("p", PRIMES)
def test_first_kernel_vector_matches_sympy(p):
    """None exactly when sympy finds full column rank; otherwise the kernel
    vector whose highest coordinate h is the first column that depends on
    the earlier ones, scaled to v_h = 1, is sympy's one-dimensional kernel
    of the first h + 1 columns."""
    for rows in cases(p, 20 + p):
        ncols = len(rows[0])
        m = gf_matrix(rows, p)
        v = first_kernel_vector_mod_p(rows, p)
        if m.rank() == ncols:
            assert v is None
            continue
        h = next(h for h in range(ncols)
                 if gf_matrix([row[:h + 1] for row in rows], p).rank() <= h)
        kernel = gf_matrix([row[:h + 1] for row in rows], p).nullspace()
        assert kernel.shape[0] == 1
        w = [int(a) % p for a in kernel.to_list()[0]]
        scale = pow(w[h], -1, p)
        assert v == [a * scale % p for a in w] + [0] * (ncols - h - 1)
        assert all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)


@pytest.mark.parametrize("p, n", FIELDS)
def test_default_modulus_is_irreducible(p, n):
    modulus = ExtensionField(p, n).modulus
    x = sympy.symbols("x")
    poly = sympy.Poly(list(reversed(modulus)), x, modulus=p)
    assert poly.degree() == n and poly.LC() == 1
    assert poly.is_irreducible
