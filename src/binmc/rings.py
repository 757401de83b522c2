"""Exact coefficient rings: integers, rationals, prime fields, polynomials over a field.

Every ring is a Euclidean domain and all arithmetic is exact.  Elements are
plain immutable Python values (int, Fraction, tuple of coefficients), with the
ring object supplying the operations.  No floating point anywhere.
"""
from __future__ import annotations

import operator
from fractions import Fraction

from .errors import RingError


def _int_literal(doc) -> int:
    """Parse a decimal literal in the exact form str(int) writes.

    That rejects '+', leading zeros, '-0', '_' separators, whitespace and
    non-ASCII digits, so equal integers always have equal literals.  Raises
    TypeError or ValueError otherwise.
    """
    value = int(doc, 10)
    if str(value) != doc:
        raise ValueError(f"integer literal {doc!r} is not canonical")
    return value


class Ring:
    """Common interface.

    Subclasses fill in arithmetic on raw element values.  ``euclid_div`` must
    return (q, r) with a = q*b + r and size(r) < size(b); ``size`` is the
    Euclidean size used for pivot selection (0 only for the zero element).
    ``canonical_factor`` splits a = u * c with u a unit and c the canonical
    associate (nonnegative integer, monic polynomial, 1 in a field).
    """

    is_field = False
    kind = "?"

    def __repr__(self):
        return f"<ring {self.kind}>"

    # arithmetic; subclasses may rebind these to builtins for speed
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero

    def is_unit(self, a):
        raise NotImplementedError

    def unit_inverse(self, a):
        raise NotImplementedError

    def euclid_div(self, a, b):
        raise NotImplementedError

    def size(self, a):
        raise NotImplementedError

    def canonical_factor(self, a):
        raise NotImplementedError

    def try_divide(self, a, b):
        """q with a = q*b, or None."""
        if self.is_zero(b):
            return self.zero if self.is_zero(a) else None
        q, r = self.euclid_div(a, b)
        return q if self.is_zero(r) else None

    def from_int(self, k: int):
        raise NotImplementedError

    # element <-> JSON-compatible document
    def element_to_doc(self, a):
        raise NotImplementedError

    def element_from_doc(self, doc):
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError


class IntegerRing(Ring):
    kind = "integers"
    zero = 0
    one = 1

    def __init__(self):
        self.add = operator.add
        self.neg = operator.neg
        self.sub = operator.sub
        self.mul = operator.mul
        self.size = abs

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a == 1 or a == -1

    def unit_inverse(self, a):
        if a == 1 or a == -1:
            return a
        raise RingError(f"{a} is not a unit in the integers")

    def euclid_div(self, a, b):
        # symmetric remainder keeps Smith-form entries small; divmod floors, so
        # r lies in [0, b) or (b, 0] and one correction recenters it either way
        q, r = divmod(a, b)
        if 2 * abs(r) > abs(b):
            q, r = q + 1, r - b
        return q, r

    def canonical_factor(self, a):
        if a < 0:
            return -1, -a
        return 1, a

    def from_int(self, k):
        return k

    def element_to_doc(self, a):
        return str(a)

    def element_from_doc(self, doc):
        try:
            return _int_literal(doc)
        except (TypeError, ValueError):
            raise RingError(f"bad integer literal {doc!r}")

    def descriptor(self):
        return {"kind": "integers"}

    def __eq__(self, other):
        return other is self or isinstance(other, IntegerRing)

    def __hash__(self):
        return hash("integers")


class RationalRing(Ring):
    kind = "rationals"
    is_field = True
    zero = Fraction(0)
    one = Fraction(1)

    def __init__(self):
        self.add = operator.add
        self.neg = operator.neg
        self.sub = operator.sub
        self.mul = operator.mul

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def unit_inverse(self, a):
        if a == 0:
            raise RingError("0 is not a unit")
        return 1 / Fraction(a)

    def euclid_div(self, a, b):
        return Fraction(a) / b, Fraction(0)

    def size(self, a):
        return 0 if a == 0 else 1

    def canonical_factor(self, a):
        if a == 0:
            return Fraction(1), Fraction(0)
        return Fraction(a), Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def element_to_doc(self, a):
        f = Fraction(a)
        return f"{f.numerator}/{f.denominator}"

    def element_from_doc(self, doc):
        try:
            if "/" in doc:
                num, den = doc.split("/")
                return Fraction(_int_literal(num), _int_literal(den))
            return Fraction(_int_literal(doc))
        except (TypeError, ValueError, ZeroDivisionError, AttributeError):
            raise RingError(f"bad rational literal {doc!r}")

    def descriptor(self):
        return {"kind": "rationals"}

    def __eq__(self, other):
        return other is self or isinstance(other, RationalRing)

    def __hash__(self):
        return hash("rationals")


# GF(p) needs p < PRIME_BOUND.  Primality is checked by trial division, which
# below 2**31 takes at most about 23,000 steps, a few milliseconds.
PRIME_BOUND = 2 ** 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class PrimeField(Ring):
    kind = "prime-field"
    is_field = True
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise RingError(f"prime modulus has {p.bit_length()} bits; GF(p) needs p < 2**31")
        if not _is_prime(p):
            raise RingError(f"{p} is not prime")
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def is_unit(self, a):
        return a % self.p != 0

    def unit_inverse(self, a):
        if a % self.p == 0:
            raise RingError("0 is not a unit")
        return pow(a, -1, self.p)

    def euclid_div(self, a, b):
        return (a * pow(b, -1, self.p)) % self.p, 0

    def size(self, a):
        return 0 if a % self.p == 0 else 1

    def canonical_factor(self, a):
        a %= self.p
        if a == 0:
            return 1, 0
        return a, 1

    def from_int(self, k):
        return k % self.p

    def element_to_doc(self, a):
        return str(a % self.p)

    def element_from_doc(self, doc):
        try:
            value = _int_literal(doc)
        except (TypeError, ValueError):
            raise RingError(f"bad prime-field literal {doc!r}")
        if not 0 <= value < self.p:
            # only the reduced literal is accepted, so equal objects have equal digests
            raise RingError(f"prime-field literal {doc!r} is not reduced modulo {self.p}")
        return value

    def descriptor(self):
        return {"kind": "prime-field", "p": str(self.p)}

    def __eq__(self, other):
        return other is self or isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime-field", self.p))


class PolynomialRing(Ring):
    """Univariate polynomials over a field, as coefficient tuples (ascending degree).

    The zero polynomial is the empty tuple; tuples never carry trailing zeros.
    """

    kind = "polynomials-over"

    def __init__(self, base: Ring):
        if not base.is_field:
            raise RingError("polynomial coefficients must come from a field")
        self.base = base
        self.zero = ()
        self.one = (base.one,)

    def _trim(self, coeffs):
        n = len(coeffs)
        while n and self.base.is_zero(coeffs[n - 1]):
            n -= 1
        return tuple(coeffs[:n])

    def poly(self, coeffs) -> tuple:
        """Coefficients as literals, integers (reduced into the base) or elements."""
        base = self.base
        return self._trim([base.element_from_doc(c) if isinstance(c, str)
                           else base.from_int(c) if isinstance(c, int) else c
                           for c in coeffs])

    def add(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        badd = self.base.add
        for i, c in enumerate(b):
            out[i] = badd(out[i], c)
        return self._trim(out)

    def neg(self, a):
        bneg = self.base.neg
        return tuple(bneg(c) for c in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return ()
        out = [self.base.zero] * (len(a) + len(b) - 1)
        badd, bmul = self.base.add, self.base.mul
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = badd(out[i + j], bmul(x, y))
        return self._trim(out)

    def is_zero(self, a):
        return len(a) == 0

    def is_unit(self, a):
        return len(a) == 1

    def unit_inverse(self, a):
        if len(a) != 1:
            raise RingError("only nonzero constants are units")
        return (self.base.unit_inverse(a[0]),)

    def euclid_div(self, a, b):
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.base.zero] * max(len(a) - len(b) + 1, 0)
        r = list(a)
        lead_inv = self.base.unit_inverse(b[-1])
        bmul, bsub = self.base.mul, self.base.sub
        while len(r) >= len(b):
            if self.base.is_zero(r[-1]):
                r.pop()
                continue
            k = len(r) - len(b)
            c = bmul(r[-1], lead_inv)
            q[k] = c
            for i, bc in enumerate(b):
                r[k + i] = bsub(r[k + i], bmul(c, bc))
            r.pop()
        return self._trim(q), self._trim(r)

    def size(self, a):
        return len(a)  # degree + 1, so strictly decreasing remainders

    def canonical_factor(self, a):
        if not a:
            return self.one, ()
        lead = a[-1]
        inv = self.base.unit_inverse(lead)
        monic = tuple(self.base.mul(c, inv) for c in a)
        return (lead,), monic

    def from_int(self, k):
        return self._trim([self.base.from_int(k)])

    def element_to_doc(self, a):
        return [self.base.element_to_doc(c) for c in a]

    def element_from_doc(self, doc):
        if not isinstance(doc, list):
            raise RingError(f"bad polynomial literal {doc!r}")
        return self._trim([self.base.element_from_doc(c) for c in doc])

    def descriptor(self):
        return {"kind": "polynomials-over", "coefficients": self.base.descriptor()}

    def __eq__(self, other):
        return other is self or isinstance(other, PolynomialRing) and other.base == self.base

    def __hash__(self):
        return hash(("polynomials-over", self.base))


ZZ = IntegerRing()
QQ = RationalRing()

_prime_fields: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _prime_fields:
        _prime_fields[p] = PrimeField(p)
    return _prime_fields[p]


def polynomial_ring(base: Ring) -> PolynomialRing:
    return PolynomialRing(base)


def ring_from_descriptor(doc) -> Ring:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise RingError(f"bad ring descriptor {doc!r}")
    kind = doc["kind"]
    if kind == "integers":
        return ZZ
    if kind == "rationals":
        return QQ
    if kind == "prime-field":
        try:
            return GF(_int_literal(doc["p"]))
        except (KeyError, TypeError, ValueError):
            raise RingError(f"bad prime-field descriptor {doc!r}")
    if kind == "polynomials-over":
        if "coefficients" not in doc:
            raise RingError("polynomial descriptor needs a coefficient field")
        return polynomial_ring(ring_from_descriptor(doc["coefficients"]))
    raise RingError(f"unknown ring kind {kind!r}")
