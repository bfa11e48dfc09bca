"""Truncated logarithm calculus for matrices over Z/p^N.

log_m(a) = sum_{i=1}^{p^m - 1} (1-a)^i / i is a finite sum; the
divisions are performed on exact integer lifts with an explicit p-digit
budget, and every result carries a certified precision so the
congruences mod p^(m-1) are checked honestly rather than vacuously.
The sum is a polynomial in b = 1 - a, reduced mod the characteristic
polynomial of b and evaluated by Horner: by Cayley-Hamilton, which holds
over any commutative ring, the reduction leaves the matrix unchanged.

Matrices are plain tuples of int tuples; d stays small.
"""

from __future__ import annotations

import functools

from . import Frozen
from .errors import PrecisionError
from .padic import _series_cutoff_log, ndigits, power, vp

# --- exact integer matrices mod p^k ---


def mident(d: int):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def madd(A, B, mod):
    return tuple(tuple((a + b) % mod for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def msub(A, B, mod):
    return tuple(tuple((a - b) % mod for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mscale(A, k, mod):
    return tuple(tuple(a * k % mod for a in row) for row in A)


def mmul(A, B, mod):
    d, e = len(A), len(B[0])
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(len(B))) % mod
                       for j in range(e)) for i in range(d))


def mpow(A, k, mod):
    """A^k with its entries reduced mod mod, A's own included at k = 1."""
    return power(mscale(A, 1, mod), k, lambda X, Y: mmul(X, Y, mod), mident(len(A)))


def entry_valuation(A, p: int, cap: int) -> int:
    """min_p-valuation over entries, residues taken mod p^cap."""
    v = cap
    q = p ** cap
    for row in A:
        for a in row:
            a %= q
            if a:
                v = min(v, vp(a, p))
    return v


# ---------------------------------------------------------------------------


class BoundedOp(Frozen):
    """BoundedOp(p, prec, mat): the d x d matrix mat over Z/p^prec."""

    _fields = ("p", "prec", "mat")

    @property
    def d(self):
        return len(self.mat)

    @staticmethod
    def of(p, prec, rows) -> "BoundedOp":
        q = p ** prec
        return BoundedOp(p, prec, tuple(tuple(int(a) % q for a in r) for r in rows))


class ScaledMatrix(Frozen):
    """ScaledMatrix(p, mat, scale, certified): the integer matrix mat
    divided by p^scale, known mod p^certified (the digits of the value
    that are meaningful)."""

    _fields = ("p", "mat", "scale", "certified")

    def value_mod(self, k: int):
        """The value reduced mod p^k (requires p^scale | mat)."""
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        if k > self.certified:
            raise PrecisionError(f"value certified only mod p^{self.certified}")
        ps = self.p ** self.scale
        out = []
        q = self.p ** k
        for row in self.mat:
            r = []
            for a in row:
                if a % ps:
                    raise PrecisionError("value is not p-integral")
                r.append((a // ps) % q)
            out.append(tuple(r))
        return tuple(out)

    def add(self, other: "ScaledMatrix") -> "ScaledMatrix":
        a, b = _common_scale(self, other)
        cert = min(a.certified, b.certified)
        mod = a.p ** (cert + a.scale)
        return ScaledMatrix(a.p, madd(a.mat, b.mat, mod), a.scale, cert)

    def sub(self, other: "ScaledMatrix") -> "ScaledMatrix":
        return self.add(other.scale_int(-1))

    def scale_int(self, n: int) -> "ScaledMatrix":
        mod = self.p ** (self.certified + self.scale)
        return ScaledMatrix(self.p, mscale(self.mat, n % mod, mod), self.scale,
                            self.certified)

    def is_zero_mod(self, k: int) -> bool:
        """Whether the value is 0 mod p^k (i.e. v_p >= k entrywise)."""
        if k < 0:
            raise ValueError(f"k must be nonnegative, got {k}")
        if k > self.certified:
            raise PrecisionError(
                f"congruence mod p^{k} asked, certified only mod p^{self.certified}")
        return entry_valuation(self.mat, self.p, k + self.scale) >= k + self.scale


def _common_scale(a: ScaledMatrix, b: ScaledMatrix):
    if a.p != b.p:
        raise ValueError("prime mismatch")
    s = max(a.scale, b.scale)
    mod = a.p ** (s + min(a.certified, b.certified))
    if a.scale < s:
        a = ScaledMatrix(a.p, mscale(a.mat, a.p ** (s - a.scale), mod), s, a.certified)
    if b.scale < s:
        b = ScaledMatrix(b.p, mscale(b.mat, b.p ** (s - b.scale), mod), s, b.certified)
    return a, b


def congruent_mod(a: ScaledMatrix, b: ScaledMatrix, k: int) -> bool:
    return a.sub(b).is_zero_mod(k)


# ---------------------------------------------------------------------------

# log_m and is_bounded at order m run over p^m terms, about 3 and 12 us a
# term at d = 3, N = 40 (2-vCPU x86_64, Python 3.11; grid in CHANGES.md):
# up to this bound 0.2 and 0.8 s or less; at 3^11 terms, 0.6 and 2.1 s.
MAX_LOG_TERMS = 2 ** 16


def _check_order(p: int, m: int):
    """ValueError unless m >= 0 and p^m <= MAX_LOG_TERMS."""
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    if m >= ndigits(MAX_LOG_TERMS, p):
        raise ValueError(f"order {m} sums {p}^{m} terms, above logtrunc.MAX_LOG_TERMS = 2^16")


def log_m(A: BoundedOp, m: int) -> ScaledMatrix:
    """Truncated logarithm of order m: the finite sum up to i = p^m - 1
    of (1-A)^i / i, computed on exact lifts.

    With B = 1 - A the sum is the polynomial sum_i c_i x^i at x = B
    (_log_coeffs), reduced mod the characteristic polynomial chi_B by one
    Horner pass from the top (each step x r + c_i, x^d replaced by its
    remainder mod chi_B, only the top coefficient reduced mod p^(N+m))
    and evaluated at B by Horner.  chi_B(B) = 0 over Z by Cayley-Hamilton,
    so the remainder gives the same matrix mod p^(N+m) as the p^m - 1
    matrix powers would, with d - 1 matrix products.

    Certified precision: N - (m-1); the lift ambiguity of A enters
    (1-A)^i with valuation >= N, and the division by i costs at most
    v_p(i) <= m-1 digits.  PrecisionError when that leaves no digit,
    m > N; ValueError past MAX_LOG_TERMS terms.
    """
    from .matrix import charpoly

    if m > A.prec:
        raise PrecisionError(f"log_m of order {m} certifies no digit at precision {A.prec}")
    _check_order(A.p, m)
    p, N, d = A.p, A.prec, A.d
    work = N + m
    mod = p ** work
    one_minus = msub(mident(d), A.mat, mod)
    chi = [c % mod for c in charpoly(one_minus)]  # x^d + chi[d-1] x^(d-1) + ... + chi[0]
    low, high = chi[0], chi[1:]
    acc = [0] * d                                 # lowest degree first
    for c in reversed(_log_coeffs(p, m, N)):
        top = acc[-1] % mod
        acc = [c - top * low] + [a - top * h for a, h in zip(acc, high)]
    acc = [a % mod for a in acc]
    ident = mident(d)
    out = mscale(ident, acc[-1], mod)
    for c in reversed(acc[:-1]):
        out = madd(mmul(out, one_minus, mod), mscale(ident, c, mod), mod)
    cert = N - (m - 1) if m > 1 else N
    return ScaledMatrix(p, out, m, cert)


@functools.cache
def _log_coeffs(p: int, m: int, N: int) -> tuple:
    """c_0 = 0 and c_i = p^(m - v_p(i)) (i / p^(v_p(i)))^-1 mod p^(N+m)
    for 0 < i < p^m: p^m / i as a residue, the same for every matrix."""
    mod = p ** (N + m)
    out = [0]
    for i in range(1, p ** m):
        v = vp(i, p)
        out.append(p ** (m - v) * pow(i // p ** v, -1, mod) % mod)
    return tuple(out)


def is_bounded(A: BoundedOp, m: int, c: int = 0) -> bool:
    """Lambda-boundedness at order m, scale c: (1-A)^i / i must have
    entries in p^-c Z for every i <= p^m.

    It keeps the loop over every power (1-A)^i, where log_m reduces mod
    the characteristic polynomial: the test reads the entry valuations of
    each power, which a remainder does not carry.  ValueError past
    MAX_LOG_TERMS terms."""
    _check_order(A.p, m)
    p, N, d = A.p, A.prec, A.d
    mod = p ** N
    one_minus = msub(mident(d), A.mat, mod)
    power = mident(d)
    for i in range(1, p ** m + 1):
        power = mmul(power, one_minus, mod)
        need = vp(i, p) - c
        if need <= 0:
            continue
        if need > N:
            raise PrecisionError("budget too small to decide boundedness")
        if entry_valuation(power, p, N) < need:
            return False
    return True


def log_full(A: BoundedOp) -> ScaledMatrix:
    """Convergent log for A = id mod p, summed past the point where
    terms vanish mod p^N; certified to the full N digits."""
    p, N, d = A.p, A.prec, A.d
    t = msub(A.mat, mident(d), p ** N)
    if entry_valuation(t, p, N) < 1:
        raise ValueError("log_full needs A = id mod p")
    cutoff = _series_cutoff_log(p, N)
    extra = ndigits(cutoff, p)
    mod = p ** (N + extra)
    acc = tuple(tuple(0 for _ in range(d)) for _ in range(d))
    power = mident(d)
    for i in range(1, cutoff + 1):
        power = mmul(power, t, mod)
        v = vp(i, p)
        unit = i // p ** v
        coef = pow(unit, -1, mod)
        term = tuple(tuple(a // p ** v * coef % mod for a in row) for row in power)
        if entry_valuation(power, p, N + extra) < v:
            raise PrecisionError("series left the integral lattice")
        acc = madd(acc, term if i % 2 else mscale(term, -1, mod), mod)
    return ScaledMatrix(p, tuple(tuple(a % p ** N for a in r) for r in acc), 0, N)


def exp_full(B: BoundedOp) -> ScaledMatrix:
    """Convergent exp for B = 0 mod p (enough for p odd)."""
    p, N, d = B.p, B.prec, B.d
    if entry_valuation(B.mat, p, N) < 1:
        raise ValueError("exp_full needs B = 0 mod p")
    mod_big = p ** (2 * N + 6)
    acc = mident(d)
    power = mident(d)
    fact_v, fact_u = 0, 1
    for i in range(1, 2 * N + 5):
        power = mmul(power, B.mat, mod_big)
        fact_v += vp(i, p)
        fact_u = fact_u * (i // p ** vp(i, p)) % mod_big
        if entry_valuation(power, p, 2 * N + 6) < fact_v:
            raise PrecisionError("exp series left the integral lattice")
        term = tuple(tuple(a // p ** fact_v * pow(fact_u, -1, mod_big) % mod_big
                           for a in row) for row in power)
        acc = madd(acc, term, mod_big)
    return ScaledMatrix(p, tuple(tuple(a % p ** N for a in r) for r in acc), 0, N)


# ---------------------------------------------------------------------------


def rdc_valuation_check(f, p: int, prec: int, t: int, i: int) -> bool:
    """Whether every entry of (id - f^(p^t))^i has p-valuation at least
    ceil(p^t i / d) - 1.

    Hypotheses checked: d >= p^(t-1)(p-1), and f - id nilpotent mod p
    (equivalent to f^(p^n) = id mod p for some n)."""
    d = len(f)
    if t < 0 or i < 0:
        raise ValueError(f"t and i must be nonnegative, got t = {t}, i = {i}")
    if t >= 1 and d < p ** (t - 1) * (p - 1):
        raise ValueError(f"need d >= p^(t-1)(p-1) = {p ** (t - 1) * (p - 1)}")
    mod = p ** prec
    g = msub(f, mident(d), mod)
    nil = mpow(g, d, p)
    if any(any(row) for row in nil):
        raise ValueError("f - id is not nilpotent mod p")
    top = msub(mident(d), mpow(f, p ** t, mod), mod)
    powi = mpow(top, i, mod)
    bound = -((-p ** t * i) // d) - 1  # ceil(p^t i / d) - 1
    if bound >= prec:
        raise PrecisionError(f"bound {bound} exceeds working precision {prec}")
    return entry_valuation(powi, p, prec) >= bound
