"""Truncated (Laurent) series over Z/p^n, F_q, or Q, and the calculus
on them: Frobenius, Newton polygons, Weierstrass preparation,
Eisenstein data, the infinite-product solution of (E/E(0)) phi(f) = f,
the derivation -u*lambda*d/du, and the membership test for the module
of series sum P_n(u)/p^(n+1) u^(e(p^n-1)/(p-1)).

Every series carries a precision: coefficients of u^k are tracked for
k < prec and unknown beyond.  Products and inverses propagate precision
honestly; equality means equality at the shared precision.

SparseSeries is the shared kernel of the three truncated rings: this
module's TruncSeries (integer exponents), perfseries.PerfSeries
(exponents in a lattice (1/L) Z) and taumod.BivarSeries (exponents
(i, j) truncated by total degree i + j).  It holds the coefficient
dict, keyed by integer exponent codes, the precision as a code on the
same scale, sums, the one product loop, scaling, truncation, equality
and the inverse over a field by the coefficient recurrence (Knuth,
TAOCP vol. 2, 4.7), one product's work; each subclass keeps its
exponent model and code, its construction checks and its own
operators.  The kernel is Fraction-free: codes and precision codes are
ints, save a PerfSeries precision off its lattice, an exact Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from . import gf
from .errors import PrecisionError
from .padic import ceil_logp
from .rings import FFRing, OperatorRing, QRing, Zmod


class SparseSeries:
    """A dict exponent code -> nonzero coefficient, below a precision code.

    An exponent's code, and its degree, is the exponent itself unless a
    subclass says otherwise (PerfSeries: e*L for e in (1/L) Z; BivarSeries:
    the total degree i + j of (i, j)).  The precision code pc bounds the
    degree; prec reads the precision back from it (pc itself by default).
    Subclasses define _like (same model, new data keyed by codes, a
    precision code) and _model (what two series must share to combine),
    and may override prec, valuation, _veff (the least degree, or pc),
    terms and _codes.  shift and truncate take codes, and the field
    inverse assumes a code that is its own product code (decoder None).
    """

    __slots__ = ("coeffs", "pc")

    # --- structure ---

    @property
    def prec(self):
        return self.pc

    def valuation(self):
        """Least degree of a term; None when zero at this precision."""
        if not self.coeffs:
            return None
        return min(self.coeffs)

    def _veff(self):
        """The least degree of a term, or pc when zero at this precision."""
        v = self.valuation()
        return self.pc if v is None else v

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero series has no leading coefficient")
        return self.valuation(), self.coeffs[min(self.coeffs)]

    def terms(self):
        """The (exponent, coefficient) pairs in increasing order."""
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def _check(self, other):
        if type(other) is not type(self) or other._model() != self._model():
            raise ValueError("series from different models")

    # --- arithmetic ---

    def __add__(self, other):
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return self._like(out, min(self.pc, other.pc))

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()}, self.pc)

    def __sub__(self, other):
        return self + (-other)

    def _codes(self, other, pc):
        """The operands' coefficient dicts keyed by product codes, the
        bound on those codes, and the decoder back to the keys of coeffs.

        Product codes add as exponents do, and one is below the bound
        exactly when its degree is below pc.  By default they are the
        codes of coeffs (decoder None).
        """
        return self.coeffs, other.coeffs, pc, None

    def __mul__(self, other):
        """The one product loop.  Coefficients combine with Python
        operators; the constructor then normalises each finished
        coefficient and drops the zeros."""
        if not isinstance(other, SparseSeries):
            return self.scale(other)
        self._check(other)
        pc = min(self.pc + other._veff(), other.pc + self._veff())
        left, right, bound, decode = self._codes(other, pc)
        right = right.items()
        out: dict = {}
        for k1, c1 in left.items():
            for k2, c2 in right:
                k = k1 + k2
                if k < bound:
                    t = c1 * c2
                    out[k] = out[k] + t if k in out else t
        if decode is not None:
            out = {decode(k): c for k, c in out.items()}
        return self._like(out, pc)

    def scale(self, c):
        """Multiply by a coefficient (or int)."""
        return self._like({e: v * c for e, v in self.coeffs.items()}, self.pc)

    def __rmul__(self, c):
        return self.scale(c)

    def shift(self, k):
        """Multiply by u^k."""
        return self._like({e + k: c for e, c in self.coeffs.items()}, self.pc + k)

    def truncate(self, pc):
        if pc >= self.pc:
            return self
        return self._like(self.coeffs, pc)

    def __eq__(self, other):
        if type(other) is not type(self) or other._model() != self._model():
            return NotImplemented
        low, high = (self, other) if self.pc <= other.pc else (other, self)
        return low.coeffs == SparseSeries.truncate(high, low.pc).coeffs

    def __hash__(self):
        raise TypeError("equality is precision-relative; not hashable")

    def _field_inverse(self, inv):
        """Inverse of a unit over a field; inv inverts a coefficient.

        1/f = u^-v sum_n g_n u^n, v the leading code: g_0 = f_v^-1 and
        g_n = -f_v^-1 sum_(k > 0) f_(v+k) g_(n-k), over the product codes
        below the bound at precision pc - v.  A heap gives them in
        increasing order, each reached from f's support by a nonzero g_n,
        so the work is one product's.  The precision code is pc - 2v.
        """
        linv = inv(self.leading()[1])
        v = min(self.coeffs)
        left, _, bound, _ = self._codes(self, self.pc - v)
        tail = sorted((k - v, c) for k, c in left.items() if k != v)
        out, sums, heap = {}, {}, [0]
        while heap:
            n = heappop(heap)
            g = -sums.pop(n) * linv if n else linv
            if not g:
                continue
            out[n - v] = g
            for k, c in tail:
                m = n + k
                if m >= bound:
                    break
                if m in sums:
                    sums[m] = sums[m] + c * g
                else:
                    sums[m] = c * g
                    heappush(heap, m)
        return self._like(out, self.pc - 2 * v)


class TruncSeries(SparseSeries):
    """Series in u with integer exponents over a ring adapter; each
    coefficient is stored as the ring's reduced representative."""

    __slots__ = ("ring",)

    def __init__(self, ring, coeffs: dict, prec: int):
        self.ring = ring
        self.pc = prec
        self.coeffs = {e: r for e, c in coeffs.items() if e < prec and (r := ring.reduce(c))}

    def _like(self, coeffs, prec):
        return TruncSeries(self.ring, coeffs, prec)

    def _model(self):
        return (self.ring,)

    # --- constructors ---

    @staticmethod
    def zero(ring, prec):
        return TruncSeries(ring, {}, prec)

    @staticmethod
    def one(ring, prec):
        return TruncSeries(ring, {0: ring.one}, prec)

    @staticmethod
    def monomial(ring, exp, coeff, prec):
        return TruncSeries(ring, {exp: coeff}, prec)

    @staticmethod
    def from_int_coeffs(ring, coeffs, prec):
        """Polynomial from integer coefficients, low degree first."""
        return TruncSeries(ring, {i: ring.of_int(c) for i, c in enumerate(coeffs)}, prec)

    # --- structure ---

    def coeff(self, e):
        if e >= self.prec:
            raise PrecisionError(f"coefficient u^{e} beyond precision {self.prec}")
        return self.coeffs.get(e, self.ring.zero)

    # --- arithmetic: the shared kernel, bound here by name so that
    # perfbench's tracer, which looks methods up in the class itself,
    # counts TruncSeries calls apart from the other series ---

    def __add__(self, other):
        return SparseSeries.__add__(self, other)

    def __mul__(self, other):
        return SparseSeries.__mul__(self, other)

    def __repr__(self):
        terms = [f"{c!r}*u^{e}" for e, c in sorted(self.coeffs.items())[:6]]
        if len(self.coeffs) > 6:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(u^{self.prec}) over {self.ring!r}>"

    # --- calculus ---

    def derivative(self):
        ring = self.ring
        out = {}
        for e, c in self.coeffs.items():
            if e != 0:
                out[e - 1] = ring.of_int(e) * c
        return TruncSeries(ring, out, self.prec - 1)

    def frobenius(self):
        """u -> u^p with the coefficient Frobenius; exact, so the
        precision multiplies by p."""
        p = self.ring.p
        return TruncSeries(self.ring, {p * e: self.ring.frob(c) for e, c in self.coeffs.items()},
                           p * self.prec)

    def inverse(self):
        """Inverse of a unit in the truncated Laurent ring.

        Over a field: the coefficient recurrence of the shared kernel,
        one product's work.  Over Z/p^n: the mod-p reduction must be
        nonzero; Newton iteration then lifts the mod-p inverse.
        """
        ring = self.ring
        if isinstance(ring, (FFRing, QRing)):
            return self._field_inverse(ring.inv)
        if isinstance(ring, Zmod):
            fbar = self.reduce_mod_p()
            if fbar.is_zero():
                raise ZeroDivisionError("not a unit: zero mod p")
            y = lift_mod_p(fbar.inverse(), ring)
            # Newton doubling in the p-adic direction
            steps = max(1, (ring.n - 1).bit_length())
            two = TruncSeries(ring, {0: ring.of_int(2)}, y.prec)
            for _ in range(steps):
                y = y * (two - self * y)
            return y
        raise ValueError(f"no inversion over {ring!r}")

    def reduce_mod_p(self) -> "TruncSeries":
        """Reduction to F_p (ring must be Zmod)."""
        if not isinstance(self.ring, Zmod):
            raise ValueError("reduce_mod_p needs a Zmod coefficient ring")
        return _divide_out_p(self, 0)


def lift_mod_p(f: TruncSeries, target: Zmod) -> TruncSeries:
    """Lift an F_p-coefficient series into Z/p^n by coefficient codes."""
    fld = f.ring.field
    return TruncSeries(target, {e: target.of_int(fld.code(c)) for e, c in f.coeffs.items()},
                       f.prec)


# ---------------------------------------------------------------------------
# Newton polygons


def newton_polygon(points):
    """Slopes of the Newton polygon of a polynomial, given as pairs
    (index, valuation of coefficient), valuation None meaning +infinity.

    Returns [(root valuation, multiplicity)] with valuations
    nondecreasing; factors u^k (zero low coefficients) are stripped
    first, consistent with reading off valuations of roots.
    """
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


def merge_polygons(np1, np2):
    """Newton polygon of a product: concatenate and sort slopes."""
    slopes = []
    for s, m in np1 + np2:
        slopes.extend([s] * m)
    slopes.sort()
    out = []
    for s in slopes:
        if out and out[-1][0] == s:
            out[-1][1] += 1
        else:
            out.append([s, 1])
    return [(s, m) for s, m in out]


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


def _divide_out_p(f: TruncSeries, k: int) -> TruncSeries:
    """(f / p^k) mod p for a Zmod series with all coefficients in p^k Z."""
    ring: Zmod = f.ring
    q = ring.p ** k
    target = FFRing(gf.field(ring.p))
    out = {}
    for e, c in f.coeffs.items():
        if c % q:
            raise ArithmeticError("series not divisible by p^k")
        out[e] = target.of_int(c // q)
    return TruncSeries(target, out, f.prec)


# ---------------------------------------------------------------------------
# Eisenstein data and the operators lambda, N_nabla


class EisensteinPoly:
    """E(u) = u^e + p(...) with constant term p*c, c a p-adic unit.

    Coefficients are exact integers (the W(F_p)-coefficient case, which
    is all the desk needs).
    """

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
        self.p = p
        self.coeffs = coeffs
        self.e = len(coeffs) - 1

    @property
    def c_unit(self) -> int:
        return self.coeffs[0] // self.p

    def constant(self) -> int:
        return self.coeffs[0]

    def as_series(self, ring, prec) -> TruncSeries:
        return TruncSeries.from_int_coeffs(ring, self.coeffs, prec)

    def __repr__(self):
        return f"Eisenstein(p={self.p}, coeffs={self.coeffs})"


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


def n_nabla(f: TruncSeries, E: EisensteinPoly, lam: TruncSeries | None = None) -> TruncSeries:
    """The derivation -u * lambda * df/du.

    Satisfies the Leibniz rule, and intertwines with Frobenius as
    N(phi(f)) = p * (E/E(0)) * phi(N(f)) exactly at truncation.
    """
    if lam is None:
        lam = kisin_lambda(E, f.prec)
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


def s_nabla_member(f: TruncSeries, e: int) -> bool:
    """Membership in the module of series sum_n P_n(u)/p^(n+1) *
    u^(e(p^n-1)/(p-1)): at exponent k the allowed p-denominator is
    n(k) + 1 where n(k) = max { n >= 0 : e(p^n-1)/(p-1) <= k }."""
    ring = f.ring
    if not isinstance(ring, QRing):
        raise ValueError("membership test expects exact rational coefficients")
    p = ring.p
    for k, c in f.coeffs.items():
        v = ring.vp(c)
        if v is None or v >= 0:
            continue
        if k < 0:
            return False
        nk = 0
        while e * (p ** (nk + 1) - 1) // (p - 1) <= k:
            nk += 1
        if -v > nk + 1:
            return False
    return True


class TruncSeriesRing(OperatorRing):
    """Coefficient-ring adapter: Witt vectors over F_q[[u]]-truncations.

    The Frobenius here is the imperfect one (coefficientwise p-th power
    with u -> u^p); it is a ring map but not surjective, so p-th roots
    of coordinates are generally unavailable, unlike the
    fractional-exponent model.
    """

    char_p = True

    def __init__(self, base: FFRing, prec: int):
        self.base = base
        self.p = base.p
        self.prec = prec
        self.zero = TruncSeries.zero(base, prec)
        self.one = TruncSeries.one(base, prec)

    def of_int(self, k):
        return TruncSeries(self.base, {0: self.base.of_int(k)}, self.prec)

    def frob(self, a):
        return a.frobenius()

    def __eq__(self, other):
        return isinstance(other, TruncSeriesRing) and self.base == other.base \
            and self.prec == other.prec

    def __hash__(self):
        return hash(("TruncSeriesRing", self.base, self.prec))

    def __repr__(self):
        return f"W-coeff({self.base!r}[[u]]/u^{self.prec})"
