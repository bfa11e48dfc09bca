"""The Galois action on truncated two-variable series k((u, eta)) and
mod-p modules carrying a semilinear tau on top of phi.

A group element g acts through the substitution

    u   ->  u (1 + eta)^c(g)
    eta ->  (1 + eta)^chi(g) - 1

with p-adic exponents expanded by integer-valued binomials mod p
(Lucas).  Monomials u^i eta^j are truncated by a configurable weight;
eta's natural weight e*p/(p-1) is available but the default treats both
variables as weight one.

The commutation law (g (x) id) o tau_M = tau_M^(chi_tau(g)) on module
elements is an executable check here; tau_M^a for p-adic a is defined
through a verified p-power order of tau_M at the truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import gskel, matrix
from .errors import Indeterminate, PrecisionError
from .gf import GF
from .gskel import GaloisElt
from .padic import PadicInt, ndigits, vp
from .rings import FFRing
from .series import SparseSeries, TruncSeries


class BivarSeries(SparseSeries):
    """Series in u and eta with exponents (i, j), j >= 0, truncated by
    the weight i*wu + j*weta (both weights positive)."""

    __slots__ = ("field", "wu", "weta")

    def __init__(self, field: GF, coeffs: dict, prec, wu=1, weta=1):
        self.field = field
        self.wu = Fraction(wu)
        self.weta = Fraction(weta)
        if self.wu <= 0 or self.weta <= 0:
            raise ValueError("weights must be positive")
        self.prec = Fraction(prec)
        clean = {}
        for (i, j), c in coeffs.items():
            if j < 0:
                raise ValueError("eta-exponents are nonnegative")
            if c and i * self.wu + j * self.weta < self.prec:
                key = (i, j)
                clean[key] = clean[key] + c if key in clean else c
        self.coeffs = {k: c for k, c in clean.items() if c}

    def _like(self, coeffs, prec):
        return BivarSeries(self.field, coeffs, prec, self.wu, self.weta)

    def _model(self):
        return self.field, self.wu, self.weta

    def weight(self, i, j):
        return i * self.wu + j * self.weta

    def valuation(self):
        """Least weight of a term; None when zero at this precision."""
        if not self.coeffs:
            return None
        return min(self.weight(i, j) for i, j in self.coeffs)

    def _codes(self, other, prec):
        # Kronecker substitution u^i eta^j -> x^(W*B + j): W is the
        # weight in units of 1/den, and B exceeds every eta-degree of
        # the product, so codes add as exponents do and compare as
        # weights do; i comes back from W because wu > 0
        wu, weta = self.wu, self.weta
        den = math.lcm(wu.denominator, weta.denominator)
        a = wu.numerator * (den // wu.denominator)
        b = weta.numerator * (den // weta.denominator)
        B = 1 + sum(max((j for _, j in f.coeffs), default=0) for f in (self, other))

        def code(f):
            return {(i * a + j * b) * B + j: c for (i, j), c in f.coeffs.items()}

        def decode(k):
            w, j = divmod(k, B)
            return (w - j * b) // a, j

        return code(self), code(other), math.ceil(prec * den) * B, decode

    # the shared kernel, bound here by name for perfbench's tracer
    def __mul__(self, other):
        return SparseSeries.__mul__(self, other)

    def frobenius(self):
        p = self.field.p
        return self._like({(p * i, p * j): c ** p for (i, j), c in self.coeffs.items()},
                          p * self.prec)

    def __repr__(self):
        items = sorted(self.coeffs.items())[:6]
        body = " + ".join(f"{c!r}*u^{i}eta^{j}" for (i, j), c in items) or "0"
        if len(self.coeffs) > 6:
            body += " + ..."
        return f"<{body} + O(weight {self.prec})>"


def bivar_from_series(f: TruncSeries, prec, wu=1, weta=1) -> BivarSeries:
    fld = f.ring.field
    return BivarSeries(fld, {(e, 0): c for e, c in f.coeffs.items()},
                       min(Fraction(prec), Fraction(f.prec) * Fraction(wu)), wu, weta)


def bivar_one(field: GF, prec, wu=1, weta=1) -> BivarSeries:
    return BivarSeries(field, {(0, 0): field.one}, prec, wu, weta)


# ---------------------------------------------------------------------------


def _binom_lucas(z: int, k: int, p: int) -> int:
    """C(z, k) mod p by Lucas, z given as a (sufficiently long) lift."""
    out = 1
    while k:
        zd, kd = z % p, k % p
        z //= p
        k //= p
        if kd > zd:
            return 0
        num = den = 1
        for t in range(kd):
            num = num * (zd - t) % p
            den = den * (t + 1) % p
        out = out * num * pow(den, -1, p) % p
    return out


def binom_power(z, field: GF, prec, wu=1, weta=1) -> BivarSeries:
    """(1 + eta)^z truncated by weight; z may be an int, Fraction in
    Z_(p), or PadicInt with enough tracked digits."""
    p = field.p
    weta = Fraction(weta)
    kmax = int(Fraction(prec) / weta) + 1
    if isinstance(z, PadicInt):
        digits_needed = ndigits(kmax, p)
        if z.prec < digits_needed:
            raise PrecisionError(
                f"exponent needs {digits_needed} base-{p} digits, has {z.prec}")
        zlift = z.residue
    elif isinstance(z, Fraction):
        if z.denominator % p == 0:
            raise ValueError("exponent not a p-adic integer")
        big = p ** (len(bin(kmax)) + 4)
        zlift = z.numerator * pow(z.denominator, -1, big) % big
    else:
        zlift = int(z) % p ** (kmax.bit_length() + 4)
    coeffs = {}
    for k in range(kmax + 1):
        c = _binom_lucas(zlift, k, p)
        if c:
            coeffs[(0, k)] = field.el(c)
    return BivarSeries(field, coeffs, prec, wu, weta)


def galois_act(g: GaloisElt, f: BivarSeries) -> BivarSeries:
    """Substitute u -> u(1+eta)^c(g), eta -> (1+eta)^chi(g) - 1.

    Ring endomorphism; composing actions matches the group law:
    act(g, act(h, x)) = act(mul(g, h), x).
    """
    fld = f.field
    one = bivar_one(fld, f.prec, f.wu, f.weta)
    P = binom_power(g.chi, fld, f.prec, f.wu, f.weta) - one  # image of eta
    ppow_cache = {0: one}
    bin_cache: dict = {}
    out = BivarSeries(fld, {}, f.prec, f.wu, f.weta)
    for (i, j), c in sorted(f.coeffs.items()):
        if j not in ppow_cache:
            jprev = max(k for k in ppow_cache if k <= j)
            cur = ppow_cache[jprev]
            for t in range(jprev, j):
                cur = cur * P
                ppow_cache[t + 1] = cur
        exponent = g.c * i
        key = exponent.residue % exponent.p ** exponent.prec
        if key not in bin_cache:
            bin_cache[key] = binom_power(exponent, fld, f.prec - 0, f.wu, f.weta)
        term = bin_cache[key] * ppow_cache[j]
        shifted = BivarSeries(fld, {(a + i, b): v for (a, b), v in term.coeffs.items()},
                              term.prec + i * f.wu, f.wu, f.weta)
        out = out + shifted.scale(c)
    return out.truncate(f.prec)


# ---------------------------------------------------------------------------


@dataclass
class PhiTauModP:
    """Mod-p module with a Frobenius matrix G (one-variable) and a
    tau-matrix T over the bivariate model."""

    p: int
    d: int
    G: list           # d x d TruncSeries over F_q
    T: list           # d x d BivarSeries
    tau: GaloisElt
    order_cap: int = 6

    def model(self) -> BivarSeries:
        return self.T[0][0]

    def phi_apply(self, x):
        """phi_M on a coordinate vector of BivarSeries."""
        Gb = [[bivar_from_series(a, self.model().prec, self.model().wu,
                                 self.model().weta) for a in row] for row in self.G]
        fx = [xi.frobenius().truncate(self.model().prec) for xi in x]
        return matrix.mat_vec(Gb, fx)

    def tau_apply(self, x):
        tx = [galois_act(self.tau, xi) for xi in x]
        return matrix.mat_vec(self.T, tx)

    def _compose(self, op1, op2):
        """(T1, g1) after (T2, g2): x -> T1 g1(T2 g2(x))."""
        T1, g1 = op1
        T2, g2 = op2
        T2g = [[galois_act(g1, a) for a in row] for row in T2]
        return (matrix.mul(T1, T2g), gskel.mul(g1, g2))

    def tau_operator_power(self, k: int):
        """tau_M^k as a (matrix, group element) pair, by binary
        composition."""
        base = (self.T, self.tau)
        result = None
        while k:
            if k & 1:
                result = base if result is None else self._compose(result, base)
            k >>= 1
            if k:
                base = self._compose(base, base)
        if result is None:
            result = (self._identity(), gskel.identity(self.p, self.tau.c.prec))
        return result

    def _identity(self):
        m = self.model()
        return matrix.scalar(self.d, bivar_one(m.field, m.prec, m.wu, m.weta),
                             BivarSeries(m.field, {}, m.prec, m.wu, m.weta))

    def _is_identity_op(self, op) -> bool:
        T, g = op
        if T != self._identity():
            return False
        # the substitution must fix u and eta at truncation
        m = self.model()
        u = BivarSeries(m.field, {(1, 0): m.field.one}, m.prec, m.wu, m.weta)
        eta = BivarSeries(m.field, {(0, 1): m.field.one}, m.prec, m.wu, m.weta)
        return galois_act(g, u) == u and galois_act(g, eta) == eta

    def tau_order_exponent(self) -> int:
        """Smallest t with tau_M^(p^t) = id at this truncation."""
        for t in range(self.order_cap + 1):
            if self._is_identity_op(self.tau_operator_power(self.p ** t)):
                return t
        raise Indeterminate(f"tau_M^(p^t) not identity for t <= {self.order_cap}")

    def tau_power_apply(self, a, x):
        """tau_M^a for p-adic a, through the verified p-power order."""
        if isinstance(a, PadicInt):
            t = self.tau_order_exponent()
            if a.prec < t:
                raise Indeterminate("exponent precision below the order exponent")
            a = a.residue % self.p ** t
        T, g = self.tau_operator_power(a)
        gx = [galois_act(g, xi) for xi in x]
        return matrix.mat_vec(T, gx)


def trivial_restriction_module(tau_T, s: int, field: GF, tau: GaloisElt,
                               prec, wu=1, weta=1, order_cap: int = 6) -> PhiTauModP:
    """Module with trivial Frobenius part: G = id, tau-matrix the given
    constant matrix tensored with the coefficient action.

    tau_T must have exact p-power order <= p^s.
    """
    p = field.p
    d = len(tau_T)
    Tf = [[field.el(a) for a in row] for row in tau_T]
    order = matrix.order(Tf, field.one, field.zero, p ** s)
    if order is None:
        raise ValueError(f"tau_T has no order <= p^{s}")
    if order != p ** vp(order, p):
        raise ValueError(f"tau_T has order {order}, not a power of p")
    ring = FFRing(field)
    uprec = int(Fraction(prec) / Fraction(wu))
    G = matrix.scalar(d, TruncSeries.one(ring, uprec), TruncSeries.zero(ring, uprec))
    T = [[BivarSeries(field, {(0, 0): a}, prec, wu, weta) for a in row] for row in Tf]
    return PhiTauModP(p, d, G, T, tau, order_cap)


def check_commutation(M: PhiTauModP, g: GaloisElt, x) -> bool:
    """(g (x) id) o tau_M (x) = tau_M^(chi_tau(g)) (x) for a module
    element x (coordinates free of eta)."""
    lhs = [galois_act(g, v) for v in M.tau_apply(x)]
    a = gskel.chi_tau(g, M.tau)
    rhs = M.tau_power_apply(a, x)
    return all(l == r for l, r in zip(lhs, rhs))


def check_phi_tau_commute(M: PhiTauModP, x) -> bool:
    lhs = M.tau_apply(M.phi_apply(x))
    rhs = M.phi_apply(M.tau_apply(x))
    return all(l == r for l, r in zip(lhs, rhs))
