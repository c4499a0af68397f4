"""Exact coefficient fields: the rationals and prime fields of odd characteristic.

Field elements are plain Python values: over Q an int when the value is
integral and a Fraction otherwise, over F_p an int in [0, p).  The field
object supplies the arithmetic.  Keeping integral rationals as ints keeps
exact elimination on integer edge labels off Fraction normalization; values
that are not integers stay Fractions, so nothing is rounded.  Characteristic
2 is rejected, since every construction downstream assumes 2 is invertible.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import BPFloerError


def _q(x):
    """An int when the rational x is integral, else x itself."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


class Rationals:
    char = 0
    name = "Q"
    zero = 0
    one = 1

    def of(self, x):
        """Coerce an int or Fraction into the field (int when integral)."""
        if type(x) is int:
            return x
        return _q(Fraction(x))

    # add, sub and mul inline _q: they run millions of times per elimination
    def add(self, a, b):
        r = a + b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def sub(self, a, b):
        r = a - b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def mul(self, a, b):
        r = a * b
        return r if type(r) is int or r.denominator != 1 else r.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return int(a)
        return _q(1 / Fraction(a))

    def is_zero(self, a):
        return a == 0

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class PrimeField:
    """F_p for an odd prime p.  Elements are ints reduced into [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise BPFloerError("not a prime: %r" % (p,))
        if p == 2:
            raise BPFloerError("characteristic 2 is not allowed (2 must be invertible)")
        self.p = p
        self.char = p
        self.name = "F%d" % p

    def of(self, x):
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise BPFloerError("denominator divisible by %d" % self.p)
            return (x.numerator % self.p) * pow(den, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()


def parse_field(spec: str):
    """Parse a coefficient spec: 'q' for the rationals, 'fp:P' for F_P (P odd)."""
    s = spec.strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return QQ
    if s.startswith("fp:") and s[3:].strip().isdigit():
        return PrimeField(int(s[3:]))
    if s.startswith("f") and s[1:].isdigit():
        return PrimeField(int(s[1:]))
    raise BPFloerError("cannot parse coefficient field %r" % spec)
