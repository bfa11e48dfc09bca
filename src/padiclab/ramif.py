"""Exact piecewise-linear Herbrand transforms and the explicit
ramification bounds, with symbolic r0 + r1*log_p(x) expressions.

Everything is exact rational arithmetic; logarithm comparisons are
resolved by integer power bracketing (p^a against x^b), never floats.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from . import Frozen
from .padic import ceil_logp


class PLFunction(Frozen):
    """Continuous piecewise-linear function on [0, inf): the vertex list
    ((x0, y0), ..., (xk, yk)), x strictly increasing, plus the slope
    after the last vertex."""

    _fields = ("vertices", "final_slope")

    def __init__(self, vertices: tuple, final_slope: Fraction):
        xs = [v[0] for v in vertices]
        if not xs:
            raise ValueError("need at least one vertex")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("vertex abscissas must increase strictly")
        super().__init__(vertices, final_slope)

    def slopes(self):
        out = []
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            out.append(Fraction(y2 - y1, x2 - x1))
        out.append(Fraction(self.final_slope))
        return out

    def segment_index(self, x) -> int:
        """Index k such that x lies in [x_k, x_{k+1}) (last segment is
        unbounded)."""
        if x < self.vertices[0][0]:
            raise ValueError("argument below the domain")
        k = 0
        for i, (xv, _) in enumerate(self.vertices):
            if x >= xv:
                k = i
        return k

    def eval_on_segment(self, k: int, x):
        """Affine evaluation on segment k; no comparisons, so exact
        algebraic arguments work as long as they support + and *."""
        xk, yk = self.vertices[k]
        return yk + (x - xk) * self.slopes()[k]

    def __call__(self, x):
        return self.eval_on_segment(self.segment_index(x), x)

    def is_concave(self) -> bool:
        s = self.slopes()
        return all(a >= b for a, b in zip(s, s[1:]))

    def is_increasing(self) -> bool:
        return all(s > 0 for s in self.slopes())

    def inverse(self) -> "PLFunction":
        if not self.is_increasing():
            raise ValueError("only strictly increasing functions invert")
        verts = tuple((y, x) for x, y in self.vertices)
        return PLFunction(verts, 1 / Fraction(self.final_slope))


# ---------------------------------------------------------------------------


def herbrand_phi(jumps) -> PLFunction:
    """phi of a lower-numbering filtration given by jumps
    [(lambda_k, order_k)]: Card G_(t) = order_k on (lambda_{k-1},
    lambda_k] and 1 beyond the last jump; phi(x) is the integral of
    Card G_(t) / Card G_(1).

    Empty jumps mean the trivial filtration (identity transform).
    """
    jumps = [(Fraction(l), int(o)) for l, o in jumps]
    if any(l <= 0 for l, _ in jumps):
        raise ValueError("jump abscissas must be positive")
    if any(b <= a for (a, _), (b, _) in zip(jumps, jumps[1:])):
        raise ValueError("jump abscissas must increase")
    orders = [o for _, o in jumps]
    if any(o <= 0 for o in orders):
        raise ValueError("group orders must be positive")
    if any(b > a for a, b in zip(orders, orders[1:])):
        raise ValueError("group orders must be nonincreasing")
    norm = 1
    for l, o in jumps:
        if l >= 1:
            norm = o
            break
    verts = [(Fraction(0), Fraction(0))]
    y = Fraction(0)
    prev = Fraction(0)
    for l, o in jumps:
        y += (l - prev) * Fraction(o, norm)
        verts.append((l, y))
        prev = l
    return PLFunction(tuple(verts), Fraction(1, norm))


def phi_Kinf(e: int, p: int, s_max: int) -> PLFunction:
    """The Herbrand transform of the Kummer tower: vertices at
    lambda_s = 1 + e p^s/(p-1), mu_s = 1 + e(s + 1/(p-1)), slope p^-s
    in between, and the identity below lambda_1 (= mu_1)."""
    if s_max < 1:
        raise ValueError("s_max >= 1")
    verts = [(Fraction(0), Fraction(0))]
    for s in range(1, s_max + 1):
        lam = 1 + Fraction(e * p ** s, p - 1)
        mu = 1 + e * (s + Fraction(1, p - 1))
        verts.append((lam, mu))
    return PLFunction(tuple(verts), Fraction(1, p ** s_max))


# ---------------------------------------------------------------------------


def _logp_exact(x: Fraction, p: int):
    """log_p(x) when it is an integer, else None."""
    if x > 0 and p ** (k := ceil_logp(x, p)) == x:
        return k
    return None


class BoundExpr(Frozen):
    """BoundExpr(r0, r1, x, p): r0 + r1 * log_p(x), exact rationals;
    comparisons by integer power bracketing."""

    _fields = ("r0", "r1", "x", "p")

    @staticmethod
    def exact(value, p: int) -> "BoundExpr":
        return BoundExpr(Fraction(value), Fraction(0), Fraction(1), p)

    @staticmethod
    def of(r0, r1, x, p: int) -> "BoundExpr":
        return BoundExpr(Fraction(r0), Fraction(r1), Fraction(x), p)

    def is_exact(self) -> bool:
        return self.r1 == 0 or self.x == 1 or _logp_exact(self.x, self.p) is not None

    def as_fraction(self) -> Fraction:
        if self.r1 == 0 or self.x == 1:
            return self.r0
        k = _logp_exact(self.x, self.p)
        if k is None:
            raise ValueError(f"{self} is not rational")
        return self.r0 + self.r1 * k

    def compare(self, other) -> int:
        """-1, 0, 1 against a rational."""
        t = Fraction(other)
        if self.r1 == 0 or self.x == 1:
            return _sign(self.r0 - t)
        # r1 log_p(x) vs t - r0
        rhs = (t - self.r0) / self.r1
        a, b = rhs.numerator, rhs.denominator  # b > 0
        lhs_pow = self.x ** b
        rhs_pow = Fraction(self.p) ** a
        s = _sign(lhs_pow - rhs_pow)
        return s if self.r1 > 0 else -s

    def __str__(self):
        if self.is_exact():
            return str(self.as_fraction())
        return f"{self.r0} + {self.r1}*log_{self.p}({self.x})"


def _sign(x) -> int:
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# the bound calculators


def bound_Ginf(h: int, n: int, p: int) -> Fraction:
    """Ramification is trivial above max(1, h p^n/(p-1))."""
    if h < 0 or n < 1:
        raise ValueError("h >= 0 and n >= 1")
    return max(Fraction(1), Fraction(h * p ** n, p - 1))


def bound_GK(h: int, n: int, e: int, p: int, s0: int | None = None,
             c0: Fraction | None = None, tame: bool = False,
             refined: bool = False) -> BoundExpr:
    """c(K) + e * max(1/(p-1), n + log_p(h/e)), with the max resolved
    exactly.

    tame presets (s0, c0) = (1, 0); `refined` uses the constant
    1 + e/(p-1), valid as soon as h >= e.
    """
    if h < 1 or e < 1 or n < 1:
        raise ValueError("h, e, n >= 1")
    if refined:
        if h < e:
            raise ValueError("the refined constant needs h >= e")
        cK = 1 + Fraction(e, p - 1)
    else:
        if tame:
            s0, c0 = 1, Fraction(0)
        if s0 is None or c0 is None:
            raise ValueError("supply (s0, c0) or set tame=True")
        cK = 1 + Fraction(e, p - 1) + e * s0 + Fraction(c0)
    log_branch = BoundExpr.of(n, 1, Fraction(h, e), p)
    if log_branch.compare(Fraction(1, p - 1)) >= 0:
        return BoundExpr.of(cK + e * n, e, Fraction(h, e), p)
    return BoundExpr.exact(cK + Fraction(e, p - 1), p)


def bound_converse(h: int, e: int, p: int):
    """Threshold above which trivial ramification forces a lattice of
    u-height <= h*p: the pair (mu threshold, height bound)."""
    if h < 1 or e < 1:
        raise ValueError("h, e >= 1")
    thr = BoundExpr.of(1 + Fraction(e, p - 1) + e, e, Fraction(h, e), p)
    return thr, h * p


def bound_semistable(r: int, n: int, e: int, p: int) -> Fraction:
    """1 + e(n + alpha) + max(e beta - p^-(n+alpha), e/(p-1)) where
    r/(p-1) = p^alpha beta with 1/p < beta <= 1."""
    if r < 1 or n < 1 or e < 1:
        raise ValueError("r, n, e >= 1")
    alpha = ceil_logp(Fraction(r, p - 1), p)
    beta = Fraction(r, (p - 1) * p ** alpha)
    assert Fraction(1, p) < beta <= 1
    return 1 + e * (n + alpha) + max(e * beta - Fraction(1, p ** (n + alpha)),
                                     Fraction(e, p - 1))


def bound_tau_congruence(h: int, cprime: int, p: int) -> int:
    """Smallest integer >= log_p(h) + c'."""
    if h < 1 or cprime < 0:
        raise ValueError("h >= 1 and c' >= 0")
    return ceil_logp(h, p) + cprime


def gamma_lower_bound(s: int, e: int, c0) -> Fraction:
    """1 + e*s - c0, clamped at 0 (a ramification depth is never
    negative)."""
    if s < 0:
        raise ValueError("s >= 0")
    val = 1 + e * s - Fraction(c0)
    if val < 0:
        warnings.warn("c0 exceeds 1 + e*s; clamping the depth at 0")
        return Fraction(0)
    return val
