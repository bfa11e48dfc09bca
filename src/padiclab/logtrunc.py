"""Truncated logarithm calculus for matrices over Z/p^N.

log_m(a) = sum_{i=1}^{p^m - 1} (1-a)^i / i is a finite sum; the
divisions are performed on exact integer lifts with an explicit p-digit
budget, and every result carries a certified precision so the
congruences mod p^(m-1) are checked honestly rather than vacuously.
Each sum is a polynomial in one matrix, with padic's coefficients, reduced
mod its characteristic polynomial and evaluated by Horner (_evaluate): by
Cayley-Hamilton, over any commutative ring, the matrix is unchanged.
log_m stops its sum where the valuation of 1 - a makes every later term
vanish at the working precision (padic._series_cutoff_log): for a = 1
mod p it sums a few terms, not p^m - 1, with the same residues.

Matrices are plain tuples of int tuples; d stays small.
"""

from __future__ import annotations

from operator import mul

from . import Frozen
from .errors import PrecisionError
from .padic import _log_coeffs, _series_cutoff_log, ndigits, power, vp

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
    cols = tuple(zip(*B))
    return tuple(tuple(sum(map(mul, row, col)) % mod for col in cols) for row in A)


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

# log_m and is_bounded at order m run over p^m terms (is_bounded over
# p^(m-c-1) at c >= 0), about 3 and 12 us a term at d = 3, N = 40 (2-vCPU
# x86_64, Python 3.11; grid in CHANGES.md): up to this bound 0.2 and 0.8 s
# or less.  When 1 - A = 0 mod p, log_m sums far fewer terms, but the
# bound is on the order m and stays.
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

    With B = 1 - A the sum is p^-m times the polynomial sum_i c_i x^i at
    x = B, c_i = p^m / i (padic._log_coeffs), evaluated by _evaluate with
    d - 1 matrix products in place of p^m - 1 matrix powers.

    The sum stops early when B = 0 mod p.  With v the least valuation of
    B's entries mod p^(N+m), c_i has valuation m - v_p(i) and B^i = 0 mod
    p^(i v), so c_i B^i = 0 mod p^(N+m) once i v - v_p(i) >= N; as
    v_p(i) <= floor(log_p i), every i from padic._series_cutoff_log(p, N,
    v) on qualifies.  Only terms that are zero mod p^(N+m) are dropped,
    so the residues are those of the full sum.  At v = 0 all p^m - 1
    terms are summed.

    Certified precision: N - (m-1); the lift ambiguity of A enters
    (1-A)^i with valuation >= N, and the division by i costs at most
    v_p(i) <= m-1 digits.  PrecisionError when that leaves no digit,
    m > N; ValueError past MAX_LOG_TERMS terms.
    """
    if m > A.prec:
        raise PrecisionError(f"log_m of order {m} certifies no digit at precision {A.prec}")
    _check_order(A.p, m)
    p, N, d = A.p, A.prec, A.d
    mod = p ** (N + m)
    X = msub(mident(d), A.mat, mod)
    last = p ** m - 1
    v = entry_valuation(X, p, N + m)
    if v:
        last = min(last, _series_cutoff_log(p, N, v))
    out = _evaluate(_log_coeffs(p, last, m, N + m), X, mod)
    return ScaledMatrix(p, out, m, N - (m - 1) if m > 1 else N)


def _evaluate(coeffs, X, mod):
    """sum_i coeffs[i] X^i mod mod: the polynomial reduced mod chi_X by
    one Horner pass from the top (each step x r + c_i, x^d replaced by its
    remainder mod chi_X, only the top coefficient reduced), the remainder
    evaluated at X by Horner.  chi_X(X) = 0 over Z (Cayley-Hamilton), so
    this is the matrix the powers of X give, from d - 1 products."""
    from .matrix import charpoly

    d = len(X)
    chi = [c % mod for c in charpoly(X)]          # x^d + chi[d-1] x^(d-1) + ... + chi[0]
    low, high = chi[0], chi[1:]
    acc = [0] * d                                 # lowest degree first
    for c in reversed(coeffs):
        top = acc[-1] % mod
        acc = [c - top * low] + [a - top * h for a, h in zip(acc, high)]
    acc = [a % mod for a in acc]
    out = mscale(mident(d), acc[-1], mod)
    for c in reversed(acc[:-1]):
        out = tuple(tuple((a + c) % mod if i == j else a for j, a in enumerate(row))
                    for i, row in enumerate(mmul(out, X, mod)))
    return out


def is_bounded(A: BoundedOp, m: int, c: int = 0) -> bool:
    """Lambda-boundedness at order m, scale c: (1-A)^i / i must have
    entries in p^-c Z for every i <= p^m.

    Only the i with v_p(i) > c ask anything, the multiples of step =
    p^max(c+1, 0): X = (1-A)^step is formed once, and each tested power
    is one more product by X, whose entry valuations are read (log_m's
    remainder does not carry them).  At c >= m no i is tested: True.
    ValueError past MAX_LOG_TERMS terms."""
    _check_order(A.p, m)
    if c >= m:
        return True
    p, N, d = A.p, A.prec, A.d
    mod, step = p ** N, p ** max(c + 1, 0)
    X = mpow(msub(mident(d), A.mat, mod), step, mod)
    power = mident(d)
    for i in range(step, p ** m + 1, step):
        power = mmul(power, X, mod)
        need = vp(i, p) - c
        if need > N:
            raise PrecisionError("budget too small to decide boundedness")
        if entry_valuation(power, p, N) < need:
            return False
    return True


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
