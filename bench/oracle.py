"""Reference arithmetic for F_{p^n}, written for the benchmark alone.

Nothing here imports twistkit.  Elements are tuples of ints: power-basis
coefficients over F_p, constant term first, the same coordinates twistkit
uses for `extension_as_algebra`.  The division verdict of a twist by
Frobenius powers comes from the field norm, not from a search:

    x o y = xy - c σ^s(x) σ^t(y)        (variants 1-6)
    x o y = xy - c σ^s(y) σ^t(x)        (variants 7-12)

with σ the p-power map and s or t prime to n is a division algebra iff
N(c) != 1.  Every bracketing of c, f(x), g(y) gives the same product because
a field is commutative and associative.
"""

from __future__ import annotations


class OracleError(Exception):
    """An output or input that disagrees with the reference arithmetic."""


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_rem(a, m, p):
    a = _trim(a)
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) >= len(m):
        coef = a[-1] * inv_lead % p
        shift = len(a) - len(m)
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - coef * mi) % p
        a = _trim(a)
    return a


def _poly_gcd(a, b, p):
    a, b = _trim(x % p for x in a), _trim(x % p for x in b)
    while b:
        a, b = b, _poly_rem(a, b, p)
    return a


def _prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


class GF:
    """F_p[t]/(m) for a monic irreducible m of degree n >= 2."""

    def __init__(self, p, modulus):
        self.p = p
        self.mod = tuple(int(c) % p for c in modulus)
        self.n = len(self.mod) - 1
        if self.n < 2 or self.mod[-1] != 1:
            raise OracleError(f"modulus {modulus} is not monic of degree >= 2")
        self.order = p ** self.n
        self.one = (1,) + (0,) * (self.n - 1)
        if not self._irreducible():
            raise OracleError(f"modulus {modulus} is reducible over F_{p}")

    @classmethod
    def from_table(cls, p, table):
        """The field whose power-basis structure constants are `table`
        (table[i][j] = coordinates of t^i t^j).  The modulus is read off
        t * t^(n-1) and every other entry is checked against it."""
        n = len(table)
        if n < 2:
            raise OracleError("need dimension >= 2")
        tn = [int(v) % p for v in table[1][n - 1]]
        field = cls(p, [(-v) % p for v in tn] + [1])
        for i in range(n):
            for j in range(n):
                want = field.mul(field.basis(i), field.basis(j))
                if tuple(int(v) % p for v in table[i][j]) != want:
                    raise OracleError(f"structure constant ({i},{j}) is not t^{i} t^{j}")
        return field

    def _irreducible(self):
        # Rabin: t^(p^n) = t, and gcd(t^(p^(n/r)) - t, m) = 1 for each prime r | n.
        t = self.basis(1)
        if self.frob(t, self.n) != t:
            return False
        for r in _prime_factors(self.n):
            h = list(self.frob(t, self.n // r))
            h[1] -= 1
            if len(_poly_gcd(h, self.mod, self.p)) != 1:
                return False
        return True

    def basis(self, i):
        v = [0] * self.n
        v[i] = 1
        return tuple(v)

    def element_at(self, idx):
        """The idx-th element in base-p digit order, least significant first."""
        out = []
        for _ in range(self.n):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, n, mod = self.p, self.n, self.mod
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        for k in range(2 * n - 2, n - 1, -1):
            coef = prod[k] % p
            if coef:
                for i in range(n):
                    prod[k - n + i] -= coef * mod[i]
        return tuple(x % p for x in prod[:n])

    def pow(self, a, e):
        out, base = self.one, tuple(a)
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def frob(self, a, k):
        """a^(p^k)."""
        return self.pow(a, self.p ** k)

    def norm(self, a):
        """N(a) = a^((p^n - 1)/(p - 1)), an element of F_p."""
        r = self.pow(a, (self.order - 1) // (self.p - 1))
        if any(r[1:]):
            raise OracleError("norm left the prime field")
        return r[0]

    def circ(self, x, y, c, variant, s, t):
        """The twisted product x o y for f = σ^s, g = σ^t."""
        u, v = (x, y) if variant <= 6 else (y, x)
        return self.sub(self.mul(x, y),
                        self.mul(c, self.mul(self.frob(u, s), self.frob(v, t))))

    def is_division(self, c):
        return self.norm(c) != 1

    def check_witness(self, x, y, c, variant, s, t):
        """Raise unless x, y are nonzero and x o y = 0."""
        if not any(x) or not any(y):
            raise OracleError(f"witness has a zero factor: {x}, {y}")
        if any(self.circ(x, y, c, variant, s, t)):
            raise OracleError(f"witness {x}, {y} does not multiply to zero")


def parse_vector(text):
    """Coordinates from twistkit's vector text, e.g. "[1,0,2]"."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise OracleError(f"bad vector {text!r}")
    return tuple(int(v) for v in body[1:-1].split(","))
