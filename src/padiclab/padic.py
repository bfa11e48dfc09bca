"""Exact arithmetic in Z/p^N with precision tracking.

The substrate for every p-adic scalar in the library: truncated p-adic
integers, the Iwasawa logarithm and exponential on the relevant unit
balls (their coefficients, scaled to integers, defined here once and
evaluated by logtrunc at matrices too), q-analogues
[a]_q = (q^a - 1)/(q - 1) and their inverse bijection.  vp, ndigits,
ceil_logp, degree, check_odd_prime and binomials_mod_p answer the
integer questions about p (p = 2 is rejected: the convergence needs p
odd); power is the one square-and-multiply.

Precision model: every value carries its own precision N; binary
operations take the min; dividing by p^k costs k digits.  All
arithmetic is on exact integer residues.
"""

from __future__ import annotations

import functools
from math import ceil, comb, factorial, inf

from . import Frozen
from .errors import PrecisionError

INFINITY = inf


# Miller-Rabin on these 13 bases is exact below PSI_13, the least strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 86, 2017)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def _witness(a: int, p: int) -> bool:
    """Whether the base a proves the odd p composite: a^d != 1 and
    a^(d 2^r) != -1 for r < s, p - 1 = d 2^s with d odd."""
    s = vp(p - 1, 2)
    x = pow(a, (p - 1) >> s, p)
    return x != 1 and p - 1 not in (pow(x, 2 ** r, p) for r in range(s))


@functools.cache
def check_odd_prime(p: int):
    """ValueError unless p is an odd prime below PSI_13.  Memoised per p;
    a raise is not cached, so an invalid p raises on every call."""
    if p < 3 or p % 2 == 0 or any(_witness(a, p) for a in MR_BASES if a % p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if p >= PSI_13:
        raise ValueError(f"p = {p} is not below {PSI_13}, the bound up to which "
                         f"{len(MR_BASES)} Miller-Rabin bases prove primality")


def vp(k: int, p: int) -> int:
    """The exponent of p in the nonzero integer k."""
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def degree(q: int, p: int) -> int:
    """The f >= 1 with q = p^f; ValueError when q is not such a power."""
    if p < 2 or q < p or q != p ** vp(q, p):
        raise ValueError("q must be a power of p")
    return vp(q, p)


def ndigits(k: int, p: int) -> int:
    """The number of base-p digits of k >= 1."""
    n = 1
    while k >= p:
        k //= p
        n += 1
    return n


def ceil_logp(x, p: int) -> int:
    """The least k >= 0 with p^k >= x, x an int or a Fraction: p^k >= x
    iff p^k > ceil(x) - 1."""
    return ndigits(ceil(x) - 1, p) if x > 1 else 0


def binomials_mod_p(alpha, kmax: int, p: int) -> list:
    """[C(alpha, k) mod p for k = 0..kmax], alpha an int or a Fraction in
    Z_(p), read through its numerator and denominator: Lucas's theorem on
    the lift z of alpha mod p^t, p^t > kmax, since C(alpha, k) = C(z, k)
    mod p for every k < p^t."""
    if alpha.denominator % p == 0:
        raise ValueError("exponent not a p-adic integer")
    big = p ** ndigits(max(kmax, 1), p)
    z = alpha.numerator * pow(alpha.denominator, -1, big) % big
    out = []
    for k in range(kmax + 1):
        c, zr = 1, z
        while k and c:
            c = c * comb(zr % p, k % p) % p
            zr, k = zr // p, k // p
        out.append(c)
    return out


def power(x, k: int, mul, one):
    """x^k for k >= 0 under the associative product mul, by
    square-and-multiply: one when k = 0, else a product of squarings of
    x alone, so one is never multiplied in."""
    if not k:
        return one
    acc = None
    while True:
        if k & 1:
            acc = x if acc is None else mul(acc, x)
        k >>= 1
        if not k:
            return acc
        x = mul(x, x)


class PadicInt(Frozen):
    """Integer mod p^N, N = tracked precision."""

    _fields = ("p", "prec", "residue")

    def __init__(self, p: int, prec: int, residue: int):
        check_odd_prime(p)
        if prec < 1:
            raise PrecisionError("precision exhausted")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "residue", residue % p ** prec)

    # -- ring structure (min-precision semantics) --

    def _join(self, other):
        """other, an int lifted at self's precision, and the least precision."""
        if isinstance(other, int):
            other = PadicInt(self.p, self.prec, other)
        if not isinstance(other, PadicInt):
            raise TypeError(f"expected PadicInt, got {other!r}")
        if other.p != self.p:
            raise ValueError("prime mismatch")
        return other, min(self.prec, other.prec)

    def __add__(self, other):
        other, n = self._join(other)
        return PadicInt(self.p, n, self.residue + other.residue)

    __radd__ = __add__

    def __neg__(self):
        return PadicInt(self.p, self.prec, -self.residue)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other, n = self._join(other)
        return PadicInt(self.p, n, self.residue * other.residue)

    __rmul__ = __mul__

    def divide(self, other: "PadicInt") -> "PadicInt":
        """Exact division; costs v(other) digits of precision."""
        other, n = self._join(other)
        v = other.valuation()
        if v is INFINITY:
            raise ZeroDivisionError("division by zero-at-precision")
        if self.valuation() is not INFINITY and self.valuation() < v:
            raise ValueError("quotient not p-integral")
        if v >= n:
            raise PrecisionError("division eats all tracked digits")
        q = self.p ** v
        unit = pow(other.residue // q, -1, self.p ** (n - v))
        return PadicInt(self.p, n - v, (self.residue // q) * unit)

    def __eq__(self, other):
        """Equality of residues at the min tracked precision."""
        if isinstance(other, int):
            other = PadicInt(self.p, self.prec, other)
        if not isinstance(other, PadicInt) or other.p != self.p:
            return NotImplemented
        n = min(self.prec, other.prec)
        q = self.p ** n
        return self.residue % q == other.residue % q

    def __hash__(self):
        return hash((self.p, self.residue % self.p))

    def valuation(self):
        return valuation(self)

    def is_unit(self) -> bool:
        return self.residue % self.p != 0

    def lower_precision(self, n: int) -> "PadicInt":
        if n > self.prec:
            raise PrecisionError("cannot raise precision")
        return PadicInt(self.p, n, self.residue)

    def __repr__(self):
        return f"{self.residue} + O({self.p}^{self.prec})"


class PadicUnit(PadicInt):
    """A PadicInt whose residue is coprime to p."""

    def __init__(self, p: int, prec: int, residue: int):
        super().__init__(p, prec, residue)
        if self.residue % self.p == 0:
            raise ValueError(f"{self.residue} is not a unit mod {self.p}")


def valuation(x: PadicInt):
    """Largest k <= N with p^k | x; INFINITY when x = 0 at precision."""
    return INFINITY if x.residue == 0 else vp(x.residue, x.p)


def _series_cutoff_log(p: int, n: int, v: int) -> int:
    """The smallest I with I v - floor(log_p I) >= n, for v >= 1.

    The log term y^i / i has valuation at least i v - v_p(i) when
    v_p(y) >= v, and v_p(i) <= floor(log_p i); i v - floor(log_p i)
    does not decrease in i, so every term from I on vanishes mod p^n."""
    i = -(-n // v)
    while i * v - (ndigits(i, p) - 1) < n:
        i += 1
    return i


@functools.cache
def _log_coeffs(p: int, last: int, s: int, k: int) -> tuple:
    """c_0 = 0 and c_i = p^(s - v_p(i)) (i / p^(v_p(i)))^-1 mod p^k for
    0 < i <= last, s >= v_p(i): p^s / i as a residue, so that
    sum_i c_i y^i = -p^s log(1 - y) up to the terms past last."""
    mod = p ** k
    out = [0]
    for i in range(1, last + 1):
        v = vp(i, p)
        out.append(p ** (s - v) * pow(i // p ** v, -1, mod) % mod)
    return tuple(out)


@functools.cache
def _exp_coeffs(p: int, last: int, n: int) -> tuple:
    """(s, c): s = v_p(last!) and c_i = p^s / i! mod p^(n+s) for i <= last,
    so that sum_i c_i y^i = p^s exp(y) up to the terms past last.  One
    inversion, of last!'s unit part, gives c_last; then c_(i-1) = i c_i."""
    f = factorial(last)
    s = vp(f, p)
    mod = p ** (n + s)
    c = [pow(f // p ** s, -1, mod)]
    for i in range(last, 0, -1):
        c.append(i * c[-1] % mod)
    return s, tuple(reversed(c))


def _horner(coeffs, y: int, mod: int) -> int:
    """sum_i coeffs[i] y^i mod mod."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * y + c) % mod
    return acc


def _unscale(a: int, p: int, s: int, n: int) -> int:
    """a / p^s mod p^n; ArithmeticError unless p^s divides a."""
    if a % p ** s:
        raise ArithmeticError("a scaled series value is not divisible by its scale")
    return a // p ** s % p ** n


def log_unit(x: PadicInt) -> PadicInt:
    """log on 1 + pZ/p^N: -sum_i (1-x)^i / i, exact mod p^N.

    The result has the same valuation as x - 1 (p odd).
    """
    p, n = x.p, x.prec
    y = (1 - x).residue
    if y % p != 0:
        raise ValueError("log_unit needs x = 1 mod p")
    last = _series_cutoff_log(p, n, 1)
    s = ndigits(last, p) - 1                   # the largest v_p(i), i <= last
    acc = _horner(_log_coeffs(p, last, s, n + s), y, p ** (n + s))
    return PadicInt(p, n, _unscale(-acc, p, s, n))


def exp_unit(y: PadicInt) -> PadicInt:
    """exp on pZ/p^N (enough for p odd: 1 > 1/(p-1)); result is 1 mod p."""
    p, n = y.p, y.prec
    if y.residue % p != 0:
        raise ValueError("exp_unit needs v(y) >= 1")
    # v(y^i/i!) >= i(p-2)/(p-1) >= i/2 for p odd, so 2n+4 terms suffice
    s, coeffs = _exp_coeffs(p, 2 * n + 4, n)
    return PadicInt(p, n, _unscale(_horner(coeffs, y.residue, p ** (n + s)), p, s, n))


def pow_unit(q: PadicInt, a: PadicInt) -> PadicInt:
    """q^a = exp(a log q) for q = 1 mod p and a in Z_p."""
    return exp_unit(a * log_unit(q))


def _q_one(fn):
    """fn(a, q), [a]_q or its inverse, under the rules both share: at
    q = 1 + O(p^N) the answer is a, at the lesser precision; q != 1 mod p
    is refused (ValueError)."""
    @functools.wraps(fn)
    def wrapped(a: PadicInt, q: PadicInt) -> PadicInt:
        if (q - 1).residue == 0:
            return a.lower_precision(min(a.prec, q.prec))
        if (q - 1).residue % q.p != 0:
            raise ValueError("q must be 1 mod p")
        return fn(a, q)
    return wrapped


@_q_one
def q_analogue(a: PadicInt, q: PadicInt) -> PadicInt:
    """[a]_q: a itself if q = 1, else (q^a - 1)/(q - 1).

    Carries precision N - v(q-1); satisfies [a]_q = a mod p and
    v(a - 1) = v([a]_q - 1).  At q = 1 + O(p^N), [a]_q = a mod p^N only.
    """
    return (pow_unit(q, a) - 1).divide(q - 1)


@_q_one
def q_analogue_inverse(b: PadicInt, q: PadicInt) -> PadicInt:
    """The unique a with [a]_q = b: log(1 + (q-1)b) / log(q)."""
    return log_unit((q - 1) * b + 1).divide(log_unit(q))


def chi_tau(chi_g: PadicInt, chi_tau_base: PadicInt) -> PadicUnit:
    """The unique a with [a]_{chi(tau)} = chi(g); a is a unit since
    a = [a]_q mod p."""
    if not chi_g.is_unit():
        raise ValueError("chi(g) must be a unit")
    a = q_analogue_inverse(chi_g, chi_tau_base)
    return PadicUnit(a.p, a.prec, a.residue)
