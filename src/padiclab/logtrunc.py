"""Truncated logarithm calculus for matrices over Z/p^N.

log_m(a) = sum_{i=1}^{p^m - 1} (1-a)^i / i is a finite sum; the
divisions are performed on exact integer lifts with an explicit p-digit
budget, and every result carries a certified precision so the
congruences mod p^(m-1) are checked honestly rather than vacuously.

Matrices are plain tuples of int tuples; d stays small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PrecisionError
from .padic import _series_cutoff_log, ndigits, vp

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
    d = len(A)
    result = mident(d)
    base = A
    while k:
        if k & 1:
            result = mmul(result, base, mod)
        base = mmul(base, base, mod)
        k >>= 1
    return result


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


@dataclass(frozen=True)
class BoundedOp:
    """d x d matrix over Z/p^prec with optional boundedness data."""

    p: int
    prec: int
    mat: tuple
    order_m: int | None = None
    scale_c: int = 0

    @property
    def d(self):
        return len(self.mat)

    @staticmethod
    def of(p, prec, rows) -> "BoundedOp":
        q = p ** prec
        return BoundedOp(p, prec, tuple(tuple(int(a) % q for a in r) for r in rows))


@dataclass(frozen=True)
class ScaledMatrix:
    """An integer matrix divided by p^scale, known mod p^(certified)."""

    p: int
    mat: tuple
    scale: int
    certified: int  # digits of the VALUE that are meaningful

    def value_mod(self, k: int):
        """The value reduced mod p^k (requires p^scale | mat)."""
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
        a, b = _common_scale(self, other)
        cert = min(a.certified, b.certified)
        mod = a.p ** (cert + a.scale)
        return ScaledMatrix(a.p, msub(a.mat, b.mat, mod), a.scale, cert)

    def scale_int(self, n: int) -> "ScaledMatrix":
        mod = self.p ** (self.certified + self.scale)
        return ScaledMatrix(self.p, mscale(self.mat, n % mod, mod), self.scale,
                            self.certified)

    def is_zero_mod(self, k: int) -> bool:
        """Whether the value is 0 mod p^k (i.e. v_p >= k entrywise)."""
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


def log_m(A: BoundedOp, m: int) -> ScaledMatrix:
    """Truncated logarithm of order m: the finite sum up to i = p^m - 1
    of (1-A)^i / i, computed on exact lifts.

    Certified precision: N - (m-1); the lift ambiguity of A enters
    (1-A)^i with valuation >= N, and the division by i costs at most
    v_p(i) <= m-1 digits.
    """
    p, N, d = A.p, A.prec, A.d
    work = N + m
    mod = p ** work
    one_minus = msub(mident(d), A.mat, mod)
    acc = tuple(tuple(0 for _ in range(d)) for _ in range(d))
    power = mident(d)
    for i in range(1, p ** m):
        power = mmul(power, one_minus, mod)
        v = vp(i, p)
        unit = i // p ** v
        coef = p ** (m - v) * pow(unit, -1, mod) % mod
        acc = madd(acc, mscale(power, coef, mod), mod)
    cert = N - (m - 1) if m > 1 else N
    return ScaledMatrix(p, acc, m, cert)


def is_bounded(A: BoundedOp, m: int, c: int = 0) -> bool:
    """Lambda-boundedness at order m, scale c: (1-A)^i / i must have
    entries in p^-c Z for every i <= p^m."""
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
