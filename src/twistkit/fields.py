"""Exact scalar arithmetic: rationals, prime fields F_p, extensions F_{p^n}.

Extension fields are polynomial quotient rings F_p[t]/(m) with a monic
irreducible modulus m, elements stored as coefficient tuples (constant term
first).  Everything is immutable after construction and safe to share.

No floating point is used anywhere; rationals are `fractions.Fraction`.

`field.codec()` = (lift, zero, p, lower) says what products compute on: lift
maps a Scalar of the field to its raw value (int residue over F_p, Fraction
over Q, the Scalar itself over F_{p^k}), zero is the raw zero, p reduces
growing sums (None: never) and lower maps a raw result back to its Scalar.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import attrgetter

from .errors import FieldConstructionError, MixedFieldError, SpecError

PRIME_CAP = 2**31
EXT_DEGREE_MIN = 2
EXT_DEGREE_MAX = 8
EXT_PRIME_MAX = 13


def is_prime(p: int) -> bool:
    """Trial-division primality for p < 2**31."""
    if p >= PRIME_CAP:
        raise FieldConstructionError(f"prime {p} exceeds cap {PRIME_CAP}")
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    i = 3
    while i * i <= p:
        if p % i == 0:
            return False
        i += 2
    return True


# -- polynomial helpers over F_p (coefficient lists, constant term first) --

def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_divmod(a, b, p):
    """Quotient and remainder of a by b over F_p; b must be nonzero."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    if da < db:
        return [], _poly_trim(a)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * (da - db + 1)
    for k in range(da - db, -1, -1):
        coeff = (a[db + k] * inv_lead) % p
        q[k] = coeff
        if coeff:
            for j in range(db + 1):
                a[j + k] = (a[j + k] - coeff * b[j]) % p
    return _poly_trim(q), _poly_trim(a[:db])


def _poly_mod(a, m, p):
    return _poly_divmod(a, m, p)[1]


def _poly_xgcd(a, b, p):
    """Extended Euclid: returns (g, s, t) with s*a + t*b = g over F_p."""
    r0, r1 = _poly_trim(list(a)), _poly_trim(list(b))
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([(x - y) % p for x, y in _zip_pad(s0, _poly_mul(q, s1, p))])
        t0, t1 = t1, _poly_trim([(x - y) % p for x, y in _zip_pad(t0, _poly_mul(q, t1, p))])
    return r0, s0, t0


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _monic_polys(degree, p):
    """All monic polynomials of the given degree over F_p, lexicographic in
    (c0, c1, ..., c_{degree-1})."""
    coeffs = [0] * degree
    while True:
        yield coeffs + [1]
        i = degree - 1
        while i >= 0 and coeffs[i] == p - 1:
            coeffs[i] = 0
            i -= 1
        if i < 0:
            return
        coeffs[i] += 1


def poly_is_irreducible(m, p) -> bool:
    """Exhaustive factor search: m is irreducible over F_p iff no monic
    polynomial of degree 1..deg(m)//2 divides it."""
    m = _poly_trim(list(m))
    deg = len(m) - 1
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for f in _monic_polys(d, p):
            if not _poly_divmod(m, f, p)[1]:
                return False
    return True


def default_modulus(p, n):
    """The lexicographically smallest monic irreducible of degree n over F_p,
    coefficients compared low-degree-first."""
    for idx in range(p**n):
        coeffs = []
        k = idx
        for _ in range(n):
            coeffs.append(k % p)
            k //= p
        m = coeffs + [1]
        if poly_is_irreducible(m, p):
            return m
    raise FieldConstructionError(f"no irreducible of degree {n} over F_{p}")  # unreachable


class Scalar:
    """An element of a ScalarField.  Payload: Fraction, int residue in [0,p),
    or tuple of int coefficients of length n (reduced mod p and modulus)."""

    __slots__ = ("field", "payload")

    def __init__(self, field, payload):
        self.field = field
        self.payload = payload

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise MixedFieldError(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field._add(self, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field._add(self, self.field._neg(o))

    def __rsub__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field._add(o, self.field._neg(self))

    def __mul__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field._mul(self, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field._mul(self, self.field._inv(o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o if o is NotImplemented else self.field._mul(o, self.field._inv(self))

    def __neg__(self):
        return self.field._neg(self)

    def __pow__(self, k: int):
        if k < 0:
            return self.field._inv(self) ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse(self):
        return self.field._inv(self)

    def __bool__(self):
        return bool(self.payload) if not isinstance(self.payload, tuple) else any(self.payload)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.element(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.payload == other.payload

    def __hash__(self):
        return hash((self.field, self.payload))

    def __repr__(self):
        return self.field.format(self)


_payload = attrgetter("payload")
_FRACTION_ZERO = Fraction(0)


def _itself(v):
    return v


class ScalarField:
    """Base class; concrete kinds: rationals, prime, extension."""

    kind = "?"
    characteristic = 0

    def order(self):
        """Number of elements, or None for infinite fields."""
        return None

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    # subclasses implement element/_add/_neg/_mul/_inv/format/_parse/codec

    def parse(self, text):
        """An element from its textual (or JSON) encoding."""
        try:
            return self._parse(text)
        except (TypeError, ValueError, ZeroDivisionError):
            raise SpecError(f"bad {self!r} literal {text!r}") from None

    def __ne__(self, other):
        return not self.__eq__(other)


class RationalField(ScalarField):
    kind = "rational"
    characteristic = 0

    def element(self, x):
        if isinstance(x, Scalar):
            if x.field != self:
                raise MixedFieldError("not a rational")
            return x
        return Scalar(self, Fraction(x))

    def _add(self, a, b):
        return Scalar(self, a.payload + b.payload)

    def _neg(self, a):
        return Scalar(self, -a.payload)

    def _mul(self, a, b):
        return Scalar(self, a.payload * b.payload)

    def _inv(self, a):
        if not a.payload:
            raise ZeroDivisionError("division by zero in Q")
        return Scalar(self, 1 / a.payload)

    def codec(self):
        return _payload, _FRACTION_ZERO, None, partial(Scalar, self)

    def format(self, a) -> str:
        f = a.payload
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def _parse(self, text):
        return Scalar(self, Fraction(str(text)))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "Q"


class PrimeField(ScalarField):
    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldConstructionError(f"{p} is not prime")
        self.p = p
        self.characteristic = p

    def order(self):
        return self.p

    def element(self, x):
        if isinstance(x, Scalar):
            if x.field != self:
                raise MixedFieldError(f"not an element of {self}")
            return x
        return Scalar(self, int(x) % self.p)

    def elements(self):
        return (Scalar(self, r) for r in range(self.p))

    def element_index(self, a) -> int:
        return a.payload

    def element_at(self, idx: int):
        return Scalar(self, idx % self.p)

    def _add(self, a, b):
        return Scalar(self, (a.payload + b.payload) % self.p)

    def _neg(self, a):
        return Scalar(self, (-a.payload) % self.p)

    def _mul(self, a, b):
        return Scalar(self, (a.payload * b.payload) % self.p)

    def _inv(self, a):
        if a.payload == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Scalar(self, pow(a.payload, self.p - 2, self.p))

    def codec(self):
        return _payload, 0, self.p, self.element_at

    def format(self, a) -> str:
        return str(a.payload)

    def _parse(self, text):
        return self.element(int(text))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class ExtensionField(ScalarField):
    """F_{p^n} = F_p[t]/(modulus), modulus monic irreducible of degree n.

    When no modulus is supplied the deterministic default is the
    lexicographically smallest monic irreducible (low-degree coefficients
    compared first), which makes derived tables reproducible bit-for-bit.
    """

    kind = "ext"

    def __init__(self, p: int, n: int, modulus=None):
        if not is_prime(p):
            raise FieldConstructionError(f"{p} is not prime")
        if p > EXT_PRIME_MAX:
            raise FieldConstructionError(f"extension prime cap is {EXT_PRIME_MAX}, got {p}")
        if not (EXT_DEGREE_MIN <= n <= EXT_DEGREE_MAX):
            raise FieldConstructionError(
                f"extension degree must be in [{EXT_DEGREE_MIN},{EXT_DEGREE_MAX}], got {n}")
        if modulus is None:
            modulus = default_modulus(p, n)
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise FieldConstructionError(f"modulus must be monic of degree {n}")
        if not poly_is_irreducible(modulus, p):
            raise FieldConstructionError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.n = n
        self.modulus = tuple(modulus)
        self.characteristic = p
        self.prime_subfield = PrimeField(p)

    def order(self):
        return self.p**self.n

    def element(self, x):
        if isinstance(x, Scalar):
            if x.field == self:
                return x
            if x.field == self.prime_subfield:
                return self.element([x.payload])
            raise MixedFieldError(f"not an element of {self}")
        if isinstance(x, int):
            return Scalar(self, tuple([x % self.p] + [0] * (self.n - 1)))
        coeffs = [int(c) % self.p for c in x]
        coeffs = _poly_mod(_poly_trim(coeffs), list(self.modulus), self.p)
        return Scalar(self, tuple(coeffs + [0] * (self.n - len(coeffs))))

    def gen(self):
        """The residue class of t."""
        return self.element([0, 1])

    def elements(self):
        return (self.element_at(i) for i in range(self.order()))

    def element_index(self, a) -> int:
        return sum(c * self.p**i for i, c in enumerate(a.payload))

    def element_at(self, idx: int):
        coeffs = []
        for _ in range(self.n):
            coeffs.append(idx % self.p)
            idx //= self.p
        return Scalar(self, tuple(coeffs))

    def _add(self, a, b):
        return Scalar(self, tuple((x + y) % self.p for x, y in zip(a.payload, b.payload)))

    def _neg(self, a):
        return Scalar(self, tuple((-x) % self.p for x in a.payload))

    def _mul(self, a, b):
        prod = _poly_mul(_poly_trim(list(a.payload)), _poly_trim(list(b.payload)), self.p)
        red = _poly_mod(prod, list(self.modulus), self.p)
        return Scalar(self, tuple(red + [0] * (self.n - len(red))))

    def _inv(self, a):
        pa = _poly_trim(list(a.payload))
        if not pa:
            raise ZeroDivisionError(f"division by zero in {self}")
        g, s, _ = _poly_xgcd(pa, list(self.modulus), self.p)
        if len(g) != 1:
            raise AssertionError("modulus not coprime to nonzero element")
        ginv = pow(g[0], self.p - 2, self.p)
        s = [(c * ginv) % self.p for c in s]
        red = _poly_mod(s, list(self.modulus), self.p)
        return Scalar(self, tuple(red + [0] * (self.n - len(red))))

    def codec(self):
        return _itself, self.zero(), None, _itself

    def format(self, a) -> str:
        return "[" + ",".join(str(c) for c in a.payload) + "]"

    def _parse(self, text):
        if isinstance(text, (list, tuple)):
            return self.element(list(text))
        body = str(text).strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError("not a [...] literal")
        return self.element([int(c) for c in body[1:-1].split(",")])

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.n == self.n and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ext", self.p, self.n, self.modulus))

    def __repr__(self):
        return f"F_{self.p}^{self.n}"


def frobenius(x: Scalar, k: int) -> Scalar:
    """x^(p^k) on an extension field; an F_p-linear field automorphism fixing
    F_p.  k is taken mod n."""
    field = x.field
    if not isinstance(field, ExtensionField):
        raise MixedFieldError("frobenius needs an extension field element")
    k %= field.n
    return x ** (field.p**k)


def field_norm(x: Scalar) -> Scalar:
    """Product of all Galois conjugates x^(p^k), k = 0..n-1; lands in the
    prime subfield and is multiplicative."""
    field = x.field
    if not isinstance(field, ExtensionField):
        raise MixedFieldError("field_norm needs an extension field element")
    acc = field.one()
    for k in range(field.n):
        acc = acc * frobenius(x, k)
    if any(acc.payload[1:]):
        raise AssertionError("norm left the prime subfield")
    return Scalar(field.prime_subfield, acc.payload[0])


def field_trace(x: Scalar) -> Scalar:
    """Sum of all Galois conjugates; lands in the prime subfield."""
    field = x.field
    if not isinstance(field, ExtensionField):
        raise MixedFieldError("field_trace needs an extension field element")
    acc = field.zero()
    for k in range(field.n):
        acc = acc + frobenius(x, k)
    if any(acc.payload[1:]):
        raise AssertionError("trace left the prime subfield")
    return Scalar(field.prime_subfield, acc.payload[0])


def field_make(descriptor: dict) -> ScalarField:
    """Build a field from its JSON descriptor:

        {"kind":"rational"} | {"kind":"prime","p":3}
        | {"kind":"ext","p":3,"n":2,"modulus":[1,0,1]}   (modulus optional)
    """
    kind = descriptor.get("kind") if isinstance(descriptor, dict) else None
    try:
        if kind == "rational":
            return RationalField()
        if kind == "prime":
            return PrimeField(int(descriptor["p"]))
        if kind == "ext":
            return ExtensionField(int(descriptor["p"]), int(descriptor["n"]),
                                  descriptor.get("modulus"))
    except (KeyError, TypeError, ValueError) as exc:
        raise FieldConstructionError(f"bad field descriptor {descriptor!r}: {exc}") from exc
    raise FieldConstructionError(f"unknown field kind {kind!r}")


def field_descriptor(field: ScalarField) -> dict:
    if isinstance(field, RationalField):
        return {"kind": "rational"}
    if isinstance(field, PrimeField):
        return {"kind": "prime", "p": field.p}
    if isinstance(field, ExtensionField):
        return {"kind": "ext", "p": field.p, "n": field.n, "modulus": list(field.modulus)}
    raise FieldConstructionError(f"unknown field {field!r}")
