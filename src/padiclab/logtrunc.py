"""Truncated logarithm calculus for matrices over Z/p^N.

log_m(a) = sum_{i=1}^{p^m - 1} (1-a)^i / i is a finite sum; the
divisions are performed on exact integer lifts with an explicit p-digit
budget, and every result carries a certified precision so the
congruences mod p^(m-1) are checked honestly rather than vacuously.
Each sum is a polynomial in one matrix, with padic's coefficients, reduced
mod its characteristic polynomial (Berkowitz on int rows, _charpoly) and
evaluated at the matrix from its powers (_evaluate): by Cayley-Hamilton,
over any commutative ring, the matrix is unchanged.
log_m stops its sum where the valuation of 1 - a makes every later term
vanish at the working precision (padic._series_cutoff_log): for a = 1
mod p it sums a few terms, not p^m - 1, with the same residues.

Matrices are plain tuples of int tuples; d stays small.
"""

from __future__ import annotations

from math import gcd
from operator import mul

from . import Frozen
from .errors import PrecisionError
from .padic import _log_coeffs, _series_cutoff_log, ndigits, power, vp

# --- exact integer matrices mod p^k ---


def mident(d: int):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def madd(A, B, mod):
    return tuple([tuple([(a + b) % mod for a, b in zip(ra, rb)]) for ra, rb in zip(A, B)])


def msub(A, B, mod):
    return tuple([tuple([(a - b) % mod for a, b in zip(ra, rb)]) for ra, rb in zip(A, B)])


def mscale(A, k, mod):
    return tuple([tuple([a * k % mod for a in row]) for row in A])


def mmul(A, B, mod):
    cols = tuple(zip(*B))
    return tuple([tuple([sum(map(mul, row, col)) % mod for col in cols]) for row in A])


def _one_minus(A, mod):
    """1 - A mod mod, the identity entered on the diagonal only."""
    return tuple([tuple([((i == j) - a) % mod for j, a in enumerate(row)])
                  for i, row in enumerate(A)])


def mpow(A, k, mod):
    """A^k with its entries reduced mod mod, A's own included at k = 1;
    the identity at k = 0."""
    if not k:
        return mident(len(A))
    return power(mscale(A, 1, mod), k, lambda X, Y: mmul(X, Y, mod), None)


def entry_valuation(A, p: int, cap: int) -> int:
    """min_p-valuation over entries, residues taken mod p^cap: that of
    their gcd, cap when every residue is 0."""
    q = p ** cap
    g = gcd(*[a % q for row in A for a in row])
    return vp(g, p) if g else cap


# ---------------------------------------------------------------------------


class BoundedOp(Frozen):
    """BoundedOp(p, prec, mat): the d x d matrix mat over Z/p^prec."""

    _fields = ("p", "prec", "mat")

    @staticmethod
    def of(p, prec, rows) -> "BoundedOp":
        q = p ** prec
        return BoundedOp(p, prec, tuple([tuple([int(a) % q for a in r]) for r in rows]))


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
        return _combine(self, other, madd)

    def sub(self, other: "ScaledMatrix") -> "ScaledMatrix":
        return _combine(self, other, msub)

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
        q = self.p ** (k + self.scale)
        return not any(a % q for row in self.mat for a in row)


def _combine(a: ScaledMatrix, b: ScaledMatrix, op) -> ScaledMatrix:
    """a op b, op madd or msub, at the larger scale s (a matrix of a
    lesser scale times p^(s - scale)), certified to the lesser precision."""
    if a.p != b.p:
        raise ValueError("prime mismatch")
    p, s, cert = a.p, max(a.scale, b.scale), min(a.certified, b.certified)
    mod = p ** (s + cert)
    x = a.mat if a.scale == s else mscale(a.mat, p ** (s - a.scale), mod)
    y = b.mat if b.scale == s else mscale(b.mat, p ** (s - b.scale), mod)
    return ScaledMatrix(p, op(x, y, mod), s, cert)


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
    d - 2 matrix products in place of p^m - 1 matrix powers.

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
    p, N = A.p, A.prec
    mod = p ** (N + m)
    X = _one_minus(A.mat, mod)
    last = p ** m - 1
    v = entry_valuation(X, p, N + m)
    if v:
        last = min(last, _series_cutoff_log(p, N, v))
    out = _evaluate(_log_coeffs(p, last, m, N + m), X, mod)
    return ScaledMatrix(p, out, m, N - (m - 1) if m > 1 else N)


def _charpoly(X, mod):
    """[c_0, ..., c_(d-1)] with det(x I - X) = x^d + c_(d-1) x^(d-1) + ...
    + c_0 mod mod: matrix.charpoly's Berkowitz recurrence on int rows,
    each coefficient and each vector X_k^j C reduced as it is formed (a
    row zipped with a shorter vector reads only its leading block)."""
    P = []                      # det(x I - X_k) below its leading 1, highest first
    for k, row in enumerate(X):
        above = X[:k]
        v = [r[k] for r in above]
        t = [-row[k]]
        for j in range(k):
            t.append(-sum(map(mul, row, v)))
            if j + 1 < k:
                v = [sum(map(mul, r, v)) % mod for r in above]
        # (1, P) convolved with (1, t), as in matrix.charpoly
        t.reverse()
        P = [(sum(map(mul, t[k + 1 - i:], P)) + (t[0] if i == k else P[i] + t[k - i])) % mod
             for i in range(k + 1)]
    return P[::-1]


def _evaluate(coeffs, X, mod):
    """sum_i coeffs[i] X^i mod mod, coeffs residues mod mod: the
    polynomial reduced mod chi_X by one Horner pass from the top, the
    remainder r = sum_(j<d) r_j x^j evaluated at X in one pass over the
    powers X^j, 0 < j < d, with r_0 on the diagonal.  chi_X(X) = 0 over Z
    (Cayley-Hamilton), so this is the matrix the powers of X give, from
    d - 2 products.

    The Horner pass holds r packed, r_j in bits [j w, (j + 1) w): each
    step x r + c drops the top digit t, reduced mod mod, shifts the rest
    up and adds c + t (-chi_X mod mod).  A digit gains at most mod - 1 +
    d (mod - 1)^2 < d mod^2 < 2^w before it is the top one, so no digit
    carries into the next."""
    d = len(X)
    w = (d * mod * mod).bit_length()
    neg = 0                             # -chi_X mod mod below x^d, packed
    for c in reversed(_charpoly(X, mod)):
        neg = (neg << w) + -c % mod
    top_at = w * (d - 1)
    below_top = (1 << top_at) - 1
    acc = 0
    for c in reversed(coeffs):
        acc = ((acc & below_top) << w) + c + (acc >> top_at) % mod * neg
    digit = (1 << w) - 1
    r0, *rest = [(acc >> (w * j) & digit) % mod for j in range(d)]
    powers = [X]
    for _ in range(d - 2):
        powers.append(mmul(powers[-1], X, mod))
    return tuple([tuple([(sum(map(mul, rest, cell)) + (r0 if i == j else 0)) % mod
                         for j, cell in enumerate(zip(*rows))])
                  for i, rows in enumerate(zip(*powers))])


def is_bounded(A: BoundedOp, m: int, c: int = 0) -> bool:
    """Lambda-boundedness at order m, scale c: (1-A)^i / i must have
    entries in p^-c Z for every i <= p^m.

    Only the i with v_p(i) > c ask anything, the multiples of step =
    p^max(c+1, 0): X = (1-A)^step is formed once, and each tested power
    is one more product by X, whose entry valuations are read.  The
    first with v_p(i) - c > N, p^max(N+c+1, 0), is refused
    (PrecisionError) if it is <= p^m.  With v >= 1 the least valuation
    of 1 - A, (1-A)^i has valuation >= min(N, i v), and i v >= v_p(i) -
    c from i = padic._series_cutoff_log(p, max(-c, 1), v) on (i v -
    floor(log_p i) does not decrease), so every power below the refusal
    passes from there and none is formed.  At c >= m no i is tested:
    True.  ValueError past MAX_LOG_TERMS terms."""
    _check_order(A.p, m)
    if c >= m:
        return True
    p, N = A.p, A.prec
    mod, step, refuse = p ** N, p ** max(c + 1, 0), max(N + c + 1, 0)
    B = _one_minus(A.mat, mod)
    v = entry_valuation(B, p, N)
    stop = min(p ** m + 1, p ** min(refuse, m + 1))
    if v:
        stop = min(stop, _series_cutoff_log(p, max(-c, 1), v))
    X = None
    for i in range(step, stop, step):
        if X is None:
            X = power = mpow(B, step, mod)
        else:
            power = mmul(power, X, mod)
        if entry_valuation(power, p, N) < vp(i, p) - c:
            return False
    if refuse <= m:
        raise PrecisionError("budget too small to decide boundedness")
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
    if any(any(row) for row in mpow(_one_minus(f, mod), d, p)):
        raise ValueError("f - id is not nilpotent mod p")
    top = _one_minus(mpow(f, p ** t, mod), mod)
    powi = mpow(top, i, mod)
    bound = -((-p ** t * i) // d) - 1  # ceil(p^t i / d) - 1
    if bound >= prec:
        raise PrecisionError(f"bound {bound} exceeds working precision {prec}")
    return entry_valuation(powi, p, prec) >= bound
