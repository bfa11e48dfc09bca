"""The calculus on truncated series: Newton polygons, Weierstrass
preparation over Z/p^n[[u]], Eisenstein data, the infinite-product
solution lambda of (E/E(0)) phi(f) = f and the derivation
N_nabla = -u*lambda*d/du.

It computes on series.TruncSeries, whose kernel it leaves to that
module.  Slopes and the coefficients of lambda are exact Fractions, so
a process that needs none of this never loads fractions through the
series kernel.
"""

from __future__ import annotations

from fractions import Fraction

from . import Frozen
from .padic import ceil_logp
from .rings import QRing, Zmod
from .series import TruncSeries, _divide_out_p, lift_mod_p


# ---------------------------------------------------------------------------
# Newton polygons


def newton_polygon(points):
    """Slopes of the Newton polygon of a polynomial, given as pairs
    (index, valuation of coefficient), valuation None meaning +infinity.

    Returns [(root valuation, multiplicity)] with valuations
    nondecreasing; factors u^k (zero low coefficients) are stripped
    first, consistent with reading off valuations of roots.  ValueError
    names an index given twice.
    """
    seen = set()
    for i, _ in points:
        if i in seen:
            raise ValueError(f"index {i} given twice")
        seen.add(i)
    pts = [(i, v) for i, v in points if v is not None]
    if not pts:
        raise ValueError("zero polynomial")
    pts.sort()
    deg = max(i for i, _ in pts)
    order = min(i for i, _ in pts)
    # lower convex hull (Andrew monotone chain, exact rationals)
    hull = []
    for pt in pts:
        x, y = Fraction(pt[0]), Fraction(pt[1])
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    out = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = (y2 - y1) / (x2 - x1)
        out.append((-slope, int(x2 - x1)))
    out.reverse()  # root valuations in nondecreasing order
    assert sum(m for _, m in out) == deg - order
    return out


# ---------------------------------------------------------------------------
# Weierstrass preparation over Z/p^n [[u]]


def weierstrass(f: TruncSeries):
    """Write f = unit * (u^d + p*(lower degree)) over Z/p^n[[u]].

    d is the u-valuation of f mod p; fails if f = 0 mod p at this
    truncation.  The factorization is exact at the truncation.  Every
    lifting step spends precision, even one whose error is zero at its
    precision: a truncated zero is not an exact zero.
    """
    ring = f.ring
    if not isinstance(ring, Zmod):
        raise ValueError("weierstrass preparation works over Z/p^n")
    if any(e < 0 for e in f.coeffs):
        raise ValueError("weierstrass preparation needs nonnegative exponents")
    fbar = f.reduce_mod_p()
    if fbar.is_zero():
        raise ValueError("f = 0 mod p: Weierstrass degree undefined at truncation")
    d = fbar.valuation()
    ubar_inv = fbar.shift(-d)
    unit = lift_mod_p(ubar_inv, ring)
    dist = TruncSeries.monomial(ring, d, ring.one, f.prec)
    ubar_inv_inv = ubar_inv.inverse()
    for k in range(1, ring.n):
        err = f - unit * dist
        eps = _divide_out_p(err, k)
        q = eps * ubar_inv_inv
        dP = TruncSeries(q.ring, {e: c for e, c in q.coeffs.items() if e < d}, q.prec)
        dU = TruncSeries(q.ring, {e - d: c for e, c in q.coeffs.items() if e >= d},
                         q.prec - d) * ubar_inv
        pk = ring.of_int(ring.p ** k)
        dist = dist + lift_mod_p(dP, ring).scale(pk)
        unit = unit + lift_mod_p(dU, ring).scale(pk)
    return unit, dist


# ---------------------------------------------------------------------------
# Eisenstein data and the operators lambda, N_nabla


class EisensteinPoly(Frozen):
    """E(u) = u^e + p(...) with constant term p*c, c a p-adic unit.

    Coefficients are exact integers (the W(F_p)-coefficient case, which
    is all the desk needs).
    """

    _fields = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) < 2:
            raise ValueError("degree must be >= 1")
        if coeffs[-1] != 1:
            raise ValueError("E must be monic")
        if any(c % p for c in coeffs[:-1]):
            raise ValueError("non-leading coefficients must be divisible by p")
        if (coeffs[0] // p) % p == 0:
            raise ValueError("E(0)/p must be a unit")
        super().__init__(p, coeffs)

    @property
    def e(self) -> int:
        return len(self.coeffs) - 1

    @property
    def c_unit(self) -> int:
        return self.coeffs[0] // self.p

    def constant(self) -> int:
        return self.coeffs[0]

    def as_series(self, ring, prec) -> TruncSeries:
        return TruncSeries.from_int_coeffs(ring, self.coeffs, prec)


def lambda_factor_count(E: EisensteinPoly, M: int) -> int:
    """Smallest K such that the K-factor partial product is exact to
    O(u^M): factor k is 1 + O(u^(m p^k)), m the least j >= 1 with c_j != 0."""
    m = next(j for j, c in enumerate(E.coeffs) if j and c)
    return ceil_logp(Fraction(M, m), E.p)


def kisin_lambda(E: EisensteinPoly, M: int) -> TruncSeries:
    """The truncated product over k of phi^k(E(u)/E(0)), the fixed
    point of f -> (E(u)/E(0)) phi(f) with constant term 1.

    Coefficients are exact rationals with p-power denominators.
    """
    ring = QRing(E.p)
    E0 = Fraction(E.constant())
    acc = TruncSeries.one(ring, M)
    for k in range(lambda_factor_count(E, M)):
        q = E.p ** k
        factor = TruncSeries(ring, {j * q: Fraction(cj) / E0
                                    for j, cj in enumerate(E.coeffs)}, M)
        acc = acc * factor
    return acc.truncate(M)


def lambda_residual(E: EisensteinPoly, lam: TruncSeries) -> TruncSeries:
    """(E/p) phi(lam) - c*lam; zero at truncation iff lam solves the
    defining equation (E/E(0)) phi(lam) = lam."""
    ring = lam.ring
    Eser = E.as_series(ring, lam.prec)
    lhs = Eser * lam.frobenius()
    lhs = TruncSeries(ring, {e: c / E.p for e, c in lhs.coeffs.items()}, lhs.prec)
    rhs = lam.scale(Fraction(E.c_unit))
    return (lhs - rhs).truncate(min(lam.prec, lhs.prec))


def n_nabla(f: TruncSeries, E: EisensteinPoly, lam: TruncSeries) -> TruncSeries:
    """The derivation -u * lambda * df/du, lam = kisin_lambda(E, M) for
    an M at least f's precision.

    Satisfies the Leibniz rule, and intertwines with Frobenius as
    N(phi(f)) = p * (E/E(0)) * phi(N(f)) exactly at truncation.
    """
    df = f.derivative()
    return -(df.shift(1) * lam)


def n_nabla_commutation_defect(f: TruncSeries, E: EisensteinPoly,
                               lam: TruncSeries | None = None) -> TruncSeries:
    """N(phi(f)) - p (E/E(0)) phi(N(f)); identically zero at truncation."""
    ring = f.ring
    if lam is None:
        lam = kisin_lambda(E, max(f.prec * E.p, f.prec))
    lhs = n_nabla(f.frobenius(), E, lam)
    nf = n_nabla(f, E, lam)
    Eser = E.as_series(ring, lhs.prec)
    rhs = Eser * nf.frobenius()
    rhs = TruncSeries(ring, {e: c / E.c_unit for e, c in rhs.coeffs.items()}, rhs.prec)
    return (lhs - rhs).truncate(min(lhs.prec, rhs.prec))
