"""Exact arithmetic in Z/p^N with precision tracking.

The substrate for every p-adic scalar in the library: truncated p-adic
integers, the Iwasawa logarithm and exponential on the relevant unit
balls, q-analogues [a]_q = (q^a - 1)/(q - 1) and their inverse
bijection.  vp, ndigits, ceil_logp, degree, check_odd_prime and
binomials_mod_p answer the integer questions about p (p = 2 is rejected:
the convergence needs p odd); power is the one square-and-multiply.

Precision model: every value carries its own precision N; binary
operations take the min; dividing by p^k costs k digits.  All
arithmetic is on exact integer residues.
"""

from __future__ import annotations

import functools
from math import ceil, comb, inf

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

    def __hash__(self):
        return super().__hash__()


def valuation(x: PadicInt):
    """Largest k <= N with p^k | x; INFINITY when x = 0 at precision."""
    return INFINITY if x.residue == 0 else vp(x.residue, x.p)


def _series_cutoff_log(p: int, n: int) -> int:
    # smallest I with I - floor(log_p I) >= n; i - log_p(i) is increasing,
    # so all terms beyond I vanish mod p^n when v(t) >= 1
    i = n
    while i - (ndigits(i, p) - 1) < n:
        i += 1
    return i


def log_unit(x: PadicInt) -> PadicInt:
    """log on 1 + pZ/p^N: sum (-1)^(i+1) (x-1)^i / i, exact mod p^N.

    The result has the same valuation as x - 1 (p odd).
    """
    p, n = x.p, x.prec
    t = (x - 1).residue
    if t % p != 0:
        raise ValueError("log_unit needs x = 1 mod p")
    cutoff = _series_cutoff_log(p, n)
    mod = p ** n
    acc = 0
    tpow = 1
    for i in range(1, cutoff + 1):
        tpow = tpow * t  # exact integer power of the lift
        vi = vp(i, p)
        term = (tpow // p ** vi) * pow(i // p ** vi, -1, mod)
        if i % 2 == 0:
            term = -term
        acc = (acc + term) % mod
    return PadicInt(p, n, acc)


def exp_unit(y: PadicInt) -> PadicInt:
    """exp on pZ/p^N (enough for p odd: 1 > 1/(p-1)); result is 1 mod p."""
    p, n = y.p, y.prec
    t = y.residue
    if t % p != 0:
        raise ValueError("exp_unit needs v(y) >= 1")
    mod = p ** n
    acc = 1
    term_num = 1  # t^i as exact integer
    fact_v = 0    # v_p(i!)
    fact_u = 1    # unit part of i! mod big modulus
    big = p ** (2 * n + 4)
    # v(t^i/i!) >= i(p-2)/(p-1) >= i/2 for p odd, so 2n+4 terms suffice
    for i in range(1, 2 * n + 5):
        term_num *= t
        iv = vp(i, p)
        fact_v += iv
        fact_u = (fact_u * (i // p ** iv)) % big
        term = (term_num // p ** fact_v) * pow(fact_u, -1, mod)
        acc = (acc + term) % mod
    return PadicInt(p, n, acc)


def pow_unit(q: PadicInt, a: PadicInt) -> PadicInt:
    """q^a = exp(a log q) for q = 1 mod p and a in Z_p."""
    if isinstance(a, int):
        a = PadicInt(q.p, q.prec, a)
    return exp_unit(a * log_unit(q))


def q_analogue(a: PadicInt, q: PadicInt) -> PadicInt:
    """[a]_q: a itself if q = 1, else (q^a - 1)/(q - 1).

    Carries precision N - v(q-1); satisfies [a]_q = a mod p and
    v(a - 1) = v([a]_q - 1).  At q = 1 + O(p^N), [a]_q = a mod p^N only.
    """
    if isinstance(a, int):
        a = PadicInt(q.p, q.prec, a)
    if (q - 1).residue == 0:
        return a.lower_precision(min(a.prec, q.prec))
    if (q - 1).residue % q.p != 0:
        raise ValueError("q must be 1 mod p")
    qa = pow_unit(q, a)
    return (qa - 1).divide(q - 1)


def q_analogue_inverse(b: PadicInt, q: PadicInt) -> PadicInt:
    """The unique a with [a]_q = b: log(1 + (q-1)b) / log(q)."""
    if isinstance(b, int):
        b = PadicInt(q.p, q.prec, b)
    if (q - 1).residue == 0:
        return b.lower_precision(min(b.prec, q.prec))
    if (q - 1).residue % q.p != 0:
        raise ValueError("q must be 1 mod p")
    num = log_unit((q - 1) * b + 1)
    den = log_unit(q)
    return num.divide(den)


def chi_tau(chi_g: PadicInt, chi_tau_base: PadicInt) -> PadicUnit:
    """The unique a with [a]_{chi(tau)} = chi(g); a is a unit since
    a = [a]_q mod p."""
    if not chi_g.is_unit():
        raise ValueError("chi(g) must be a unit")
    a = q_analogue_inverse(chi_g, chi_tau_base)
    return PadicUnit(a.p, a.prec, a.residue)
