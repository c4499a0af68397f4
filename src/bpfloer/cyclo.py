"""Cyclotomic arithmetic in the quotient ring Q[x]/(x^N - 1).

Elements represent complex numbers via x -> exp(2*pi*i/N).  Only ring
operations and conjugation are needed.  A value is stored by its nonzero
terms, {exponent k in [0, N): coefficient of x^k}, so a character value (one
or two roots of unity) costs one or two entries whatever N is.  Coefficients
follow the rule of fields.Rationals: an int when the value is integral, a
Fraction otherwise, and never a float; character values live in
Z[x]/(x^N - 1), so their arithmetic is plain int arithmetic.  Rationality of
a value is decided by reducing modulo the minimal relation of x, the monic
cyclotomic polynomial Phi_N with int coefficients, which needs no division.
This reduction (rational_value, ==, reduced) is dense in N, so it is not run
where it cannot change the answer: a value with only a constant term is that
rational.  Phi_N is obtained once per order as the polynomial gcd of the
sparse relations 1 + x^(N/d) + x^(2N/d) + ... for the primes d | N (no
factoring of x^N - 1 into irreducibles is ever performed).

evaluation_point gives a prime p = 1 (mod N) and a primitive N-th root of
unity w mod p; Cyclo.evaluate is then the ring homomorphism
Z[x]/(x^N - 1) -> F_p, x -> w, which kills Phi_N and so factors through
Z[zeta_N].  It proposes values (groups.product_decompose); it never decides
one, since distinct values can share an image.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, isqrt, lcm

from .errors import NonRationalResult
from .fields import QQ


def _coeff(x):
    """An int or Fraction x as a coefficient (int when integral); any other
    type, float included, raises TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(
            "cyclotomic coefficients and scalars must be int or Fraction, not %s"
            % type(x).__name__
        )
    return QQ.of(x)


def _collect(pairs):
    """The terms dict of the sum of (exponent, coefficient) pairs: equal
    exponents added, zero sums dropped, integral Fractions made ints."""
    acc = defaultdict(int)
    for k, a in pairs:
        acc[k] += a
    return {k: QQ.of(a) for k, a in acc.items() if a}


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a, b):
    """Divide polynomials over Q (coefficient lists, low degree first).

    A monic divisor needs no division, so int input gives int output; any
    other leading coefficient divides exactly, as a Fraction.
    """
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    terms = [(i, bc) for i, bc in enumerate(b) if bc]
    for k in range(len(a) - len(b), -1, -1):
        f = a[k + len(b) - 1]
        if f:
            if lead != 1:
                f = Fraction(f, lead)
            q[k] = f
            for i, bc in terms:
                a[k + i] -= f * bc
    return _poly_trim(q), _poly_trim(a[: len(b) - 1])


def _poly_gcd(a, b):
    """The monic gcd; its coefficients may be Fractions."""
    a, b = list(a), list(b)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    lead = a[-1]
    return [Fraction(c, lead) for c in a]


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


@lru_cache(maxsize=None)
def _min_relation(order: int):
    """Phi_N with int coefficients: the gcd over primes d | N of the relations
    sum_i x^(i*N/d); N=1 gives x-1."""
    if order == 1:
        return (-1, 1)
    g = None
    for d in _prime_factors(order):
        step = order // d
        rel = [0] * order
        for i in range(d):
            rel[i * step] = 1
        rel = _poly_trim(rel)
        g = rel if g is None else _poly_gcd(g, rel)
    return tuple(map(QQ.of, g))


@lru_cache(maxsize=None)
def _trace_weights(order: int):
    """mu(m)/phi(m), m = N/gcd(k, N), for k = 0..N-1: the normalized trace
    (mean over the Galois conjugates) of x^k, a primitive m-th root of unity."""
    out = []
    for k in range(order):
        m = order // gcd(k, order)
        phi, mu = m, 1
        for p in _prime_factors(m):
            phi, mu = phi // p * (p - 1), 0 if m % (p * p) == 0 else -mu
        out.append(Fraction(mu, phi))
    return tuple(out)


@lru_cache(maxsize=None)
def evaluation_point(order: int, floor: int):
    """(p, powers): the least prime p > floor with p = 1 (mod N), and
    powers[k] = w^k mod p for the least primitive N-th root of unity w mod p
    (w = h^((p-1)/N) for the least h whose power has order exactly N)."""
    p = order + 1
    while p <= floor or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += order
    for h in range(2, p):
        w = pow(h, (p - 1) // order, p)
        if all(pow(w, order // d, p) != 1 for d in _prime_factors(order)):
            break
    powers = [1]
    for _ in range(order - 1):
        powers.append(powers[-1] * w % p)
    return p, tuple(powers)


class Cyclo:
    """An element of Q[x]/(x^N - 1); immutable.  terms maps each exponent
    with a nonzero coefficient to that coefficient."""

    __slots__ = ("order", "terms")

    def __init__(self, order, coeffs):
        c = tuple(map(_coeff, coeffs))
        if len(c) != order:
            raise ValueError("coefficient vector must have length %d" % order)
        self.order = order
        self.terms = {k: a for k, a in enumerate(c) if a}

    @classmethod
    def _raw(cls, order, terms):
        """Trusted constructor: terms is already zero-free with exact coefficients."""
        out = object.__new__(cls)
        out.order = order
        out.terms = terms
        return out

    @property
    def coeffs(self):
        """The dense coefficient tuple of x^0, ..., x^(N-1)."""
        c = [0] * self.order
        for k, a in self.terms.items():
            c[k] = a
        return tuple(c)

    @classmethod
    def integer(cls, n, order):
        n = _coeff(n)
        return cls._raw(order, {0: n} if n else {})

    @classmethod
    def combination(cls, order, pairs):
        """sum s * v over the (scalar, value) pairs, collected in one pass."""
        pairs = [(_coeff(c), v) for c, v in pairs]
        return cls._raw(order, _collect(
            (k, a * c) for c, v in pairs for k, a in v.terms.items()
        ))

    @classmethod
    def root_power(cls, k, order):
        """x^k, i.e. the root of unity exp(2*pi*i*k/N)."""
        return cls._raw(order, {k % order: 1})

    def _check(self, other):
        if not isinstance(other, Cyclo):
            raise TypeError("cannot combine a cyclotomic value with %s" % type(other).__name__)
        if self.order != other.order:
            raise ValueError("mixed cyclotomic orders %d, %d" % (self.order, other.order))

    def __add__(self, other):
        self._check(other)
        return Cyclo._raw(self.order, _collect(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        return Cyclo._raw(self.order, {k: -a for k, a in self.terms.items()})

    def __mul__(self, other):
        n = self.order
        if not isinstance(other, Cyclo):
            s = _coeff(other)
            return Cyclo._raw(n, _collect((k, a * s) for k, a in self.terms.items()))
        self._check(other)
        return Cyclo._raw(n, _collect(
            ((i + j) % n, a * b) for i, a in self.terms.items() for j, b in other.terms.items()
        ))

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation: exponent k -> N - k mod N."""
        n = self.order
        return Cyclo._raw(n, {(n - k) % n: a for k, a in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def reduced(self):
        """Canonical representative modulo the minimal relation of x."""
        _, r = _poly_divmod(self.coeffs, _min_relation(self.order))
        return Cyclo._raw(self.order, _collect(enumerate(r)))

    def evaluate(self, p, powers):
        """The image in F_p under x -> w, as an int in [0, p), given
        (p, powers) from evaluation_point.  A Fraction coefficient maps
        through the inverse of its denominator mod p (ValueError when p
        divides it)."""
        s = 0
        for k, a in self.terms.items():
            if type(a) is not int:
                a = a.numerator * pow(a.denominator, -1, p)
            s += a * powers[k]
        return s % p

    def rational_value(self):
        """The value as an int or Fraction, or None when the value is irrational."""
        terms = self.terms
        if terms.keys() - {0}:
            # a constant is already reduced: Phi_N has degree >= 1
            terms = self.reduced().terms
        if terms.keys() - {0}:
            return None
        return terms.get(0, 0)

    def _lift(self, order):
        """The same value in Q[x]/(x^L - 1), L = order a multiple of N."""
        step = order // self.order  # x_N -> x_L^(L/N)
        return Cyclo._raw(order, {k * step: a for k, a in self.terms.items()})

    def __eq__(self, other):
        """Equality of values with a Cyclo of any order (compared at the lcm of
        the orders), an int or a Fraction; a float raises TypeError, as + does."""
        if isinstance(other, Cyclo):
            order = lcm(self.order, other.order)
            return (self._lift(order) - other._lift(order)).reduced().is_zero()
        if isinstance(other, (int, Fraction)):
            return self.rational_value() == other
        if isinstance(other, float):
            raise TypeError("cannot compare a cyclotomic value with float")
        return NotImplemented

    def __hash__(self):
        # the normalized trace depends on the value alone, in any order, and
        # is the value when that is rational: hash agrees with ==
        w = _trace_weights(self.order)
        return hash(sum(a * w[k] for k, a in self.terms.items()))

    def __repr__(self):
        terms = []
        for k, a in sorted(self.terms.items()):
            if k == 0:
                terms.append(str(a))
            else:
                terms.append("%s*z%d^%d" % (a, self.order, k))
        return " + ".join(terms) if terms else "0"


def cyclo_inner(chi, psi, class_sizes, group_order):
    """Hermitian character pairing (1/|G|) sum_c |c| chi(c) conj(psi(c)).

    The sum is exact in the coefficients and divided by |G| once, at the end;
    the result is an int when integral, else a Fraction.  Raises
    NonRationalResult when the reduction leaves a nonrational value.
    """
    if not (len(chi) == len(psi) == len(class_sizes)):
        raise ValueError("class value lists must have equal length")
    if sum(class_sizes) != group_order:
        raise ValueError("class sizes do not sum to the group order")
    order = chi[0].order
    # x^i conj(x^j) = x^(i - j): every term pair of every class in one sum
    total = Cyclo._raw(order, _collect(
        ((i - j) % order, x * y * size)
        for a, b, size in zip(chi, psi, class_sizes)
        for i, x in a.terms.items()
        for j, y in b.terms.items()
    ))
    val = total.rational_value()
    if val is None:
        raise NonRationalResult("inner product is not rational: %r" % (total,))
    return QQ.of(Fraction(val, group_order))
