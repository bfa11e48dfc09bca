"""Truncated fractional-exponent series: the desk model of the
perfection side.

A PerfSeries has coefficients in a finite field and exponents in the
fixed lattice (1/(D*p^jmax)) Z, supported below a precision bound.
Operations that would need a finer lattice fail loudly with
LatticeTooCoarse instead of refining silently.

This module also houses the semilinear solvers: the (p-1)-st root
giving the nonzero solutions of x^p = U*x, the additive equation
x^p - U*x = a, and the Frobenius fixed-point construction of V with
phi(V) = U*V in length-n Witt vectors, by one residue root plus
successive coordinate corrections.  Their residue equations,
z^p = c z and z^p - u0 z = a0, are F_p-linear in z and solved as such
(gf.GF.frobenius_solutions), never by enumerating the field.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import witt
from .errors import ExtensionTooSmall, LatticeTooCoarse, PrecisionError
from .gf import GF, FFElt
from .rings import OperatorRing
from .series import SparseSeries


class PerfSeries(SparseSeries):
    """Series over a finite field with exponents in (1/L) Z, L = D p^jmax."""

    __slots__ = ("field", "D", "jmax")

    def __init__(self, field: GF, D: int, jmax: int, coeffs: dict, prec):
        self.field = field
        self.D = D
        self.jmax = jmax
        self.prec = Fraction(prec)
        L = D * field.p ** jmax
        clean = {}
        for e, c in coeffs.items():
            e = Fraction(e)
            if (e * L).denominator != 1:
                raise LatticeTooCoarse(f"exponent {e} outside lattice 1/{L} Z")
            if e < self.prec and c:
                clean[e] = clean.get(e, field.zero) + c if e in clean else c
        self.coeffs = {e: c for e, c in clean.items() if c}

    def _like(self, coeffs, prec):
        return PerfSeries(self.field, self.D, self.jmax, coeffs, prec)

    def _model(self):
        return self.field, self.D, self.jmax

    def _one(self, prec):
        return one_like(self, prec)

    @property
    def p(self):
        return self.field.p

    def lattice_den(self) -> int:
        return self.D * self.field.p ** self.jmax

    # --- arithmetic: the shared kernel, with __mul__ and inverse bound
    # here by name for perfbench's tracer ---

    def __mul__(self, other):
        return SparseSeries.__mul__(self, other)

    def inverse(self):
        return self._field_inverse(FFElt.inverse)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __repr__(self):
        items = sorted(self.coeffs.items())[:5]
        body = " + ".join(f"{c!r}*u^{e}" for e, c in items) or "0"
        if len(self.coeffs) > 5:
            body += " + ..."
        return f"<{body} + O(u^{self.prec})>"

    # --- Frobenius structure ---

    def pth_power(self):
        """Exact: no cross terms in characteristic p."""
        p = self.p
        return self._like({e * p: c ** p for e, c in self.coeffs.items()}, self.prec * p)

    def pth_root(self):
        p = self.p
        L = self.lattice_den()
        for e in self.coeffs:
            if (e / p * L).denominator != 1:
                raise LatticeTooCoarse(f"p-th root of u^{e} leaves the lattice")
        return self._like({e / p: self.field.pth_root(c) for e, c in self.coeffs.items()},
                          self.prec / p)

    def binomial_power(self, alpha: Fraction):
        """(1 + w)^alpha for self = 1 + w, v(w) > 0, alpha in Z_(p).

        Uses integer-valued binomial coefficients C(alpha, k) reduced
        mod p; exact at truncation since v(w^k) grows.
        """
        fld = self.field
        p = self.p
        onep = one_like(self, self.prec)
        w = self - onep
        if w.is_zero():
            return onep
        wv = w._veff()
        if wv <= 0:
            raise ValueError("binomial power needs constant term 1")
        alpha = Fraction(alpha)
        if alpha.denominator % p == 0:
            raise ValueError("exponent not a p-adic integer")
        acc = onep
        term = onep
        k = 0
        while (k + 1) * wv < self.prec:
            k += 1
            term = term * w
            ck = _binom_mod_p(alpha, k, p)
            if ck:
                acc = acc + term.scale(fld.el(ck))
        return acc


def _binom_mod_p(alpha: Fraction, k: int, p: int) -> int:
    num = Fraction(1)
    for i in range(k):
        num *= (alpha - i)
    c = num / factorial(k)
    den = c.denominator
    if den % p == 0:
        raise ArithmeticError("binomial left Z_(p)")
    return c.numerator * pow(den, -1, p) % p


def zero_series(field: GF, D: int, jmax: int, prec) -> PerfSeries:
    return PerfSeries(field, D, jmax, {}, prec)


def one_like(model: PerfSeries, prec=None) -> PerfSeries:
    return PerfSeries(model.field, model.D, model.jmax,
                      {Fraction(0): model.field.one},
                      model.prec if prec is None else prec)


def monomial(field: GF, D: int, jmax: int, exp, coeff, prec) -> PerfSeries:
    return PerfSeries(field, D, jmax, {Fraction(exp): coeff}, prec)


class PerfRing(OperatorRing):
    """Coefficient-ring adapter so Witt vectors can run over PerfSeries."""

    char_p = True

    def __init__(self, field: GF, D: int, jmax: int, prec):
        if D < 1:
            raise ValueError(f"lattice denominator D must be positive, got {D}")
        self.field = field
        self.p = field.p
        self.D = D
        self.jmax = jmax
        self.prec = Fraction(prec)
        self.zero = zero_series(field, D, jmax, self.prec)
        self.one = monomial(field, D, jmax, 0, field.one, self.prec)

    def of_int(self, k):
        return monomial(self.field, self.D, self.jmax, 0, self.field.el(k), self.prec)

    def frob(self, a):
        return a.pth_power()

    def __eq__(self, other):
        return isinstance(other, PerfRing) and self.field is other.field \
            and (self.D, self.jmax) == (other.D, other.jmax)

    def __hash__(self):
        return hash(("PerfRing", id(self.field), self.D, self.jmax))

    def __repr__(self):
        return f"Perf({self.field.tag}, 1/{self.D}*{self.p}^-{self.jmax})"


# ---------------------------------------------------------------------------
# semilinear solvers


def root_p_minus_1(U: PerfSeries) -> PerfSeries:
    """V with V^(p-1) = U, i.e. the nonzero solutions of x^p = U x are
    exactly the F_p^x multiples of V.

    Needs v(U)/(p-1) in the lattice and a (p-1)-st root of the leading
    coefficient in the field.
    """
    p = U.p
    h, lead = U.leading()
    L = U.lattice_den()
    if (h / (p - 1) * L).denominator != 1:
        raise LatticeTooCoarse(f"exponent {h}/{p - 1} not representable")
    roots = U.field.frobenius_solutions(lead)     # 0, then the roots
    if len(roots) < 2:
        raise ExtensionTooSmall(f"no {p - 1}-th root of {lead!r} in {U.field.tag}")
    zeta = roots[1]
    body = U.shift(-h).scale(lead.inverse())
    root_body = body.binomial_power(Fraction(1, p - 1))
    return root_body.scale(zeta).shift(h / (p - 1))


def solve_additive(U: PerfSeries, a: PerfSeries) -> PerfSeries:
    """x with x^p - U*x = a, certified to the returned precision.

    Leading-exponent peeling: compare v(a) with the balance point
    p*v(U)/(p-1); below it take a p-th root, above it divide by U, at
    it solve the residue equation over the field.

    Below the balance point the true solution's support has p-power
    denominators of unbounded depth (each peel divides the exponent by
    p), so the fixed lattice can certify only finitely many terms.
    When the next peel would leave the lattice, the partial solution is
    returned with its precision capped at v(remainder)/p, which is
    exactly where any completion of it starts to differ.  A pass that does
    not return lifts v(remainder) by 1/L or more, L = a.lattice_den()
    (else PrecisionError), so floor((target - v(a)) L) + 2 passes suffice.
    """
    p = U.p
    h = U.valuation()
    if h is None:
        raise ValueError("U must be nonzero")
    thresh = Fraction(p) * h / (p - 1)
    target = min(a.prec, U.prec + thresh / p)
    x = zero_series(a.field, a.D, a.jmax, max(target / p, target - h))
    rem = a
    U0 = U.leading()[1]
    for _ in range(int(max(target - a._veff(), 0) * a.lattice_den()) + 2):
        va = rem.valuation()
        if va is None or va >= target:
            return x
        if va > thresh:
            x0 = -(rem / U)
        elif va < thresh:
            try:
                x0 = rem.pth_root()
            except LatticeTooCoarse:
                return x.truncate(va / p)
        else:
            a0 = rem.coeffs[va]
            roots = U0.field.frobenius_solutions(U0, a0)
            if not roots:
                raise ExtensionTooSmall(f"residue equation x^{p} - {U0!r} x = {a0!r} "
                                        f"has no root in {U0.field.tag}")
            gamma = roots[0]
            L = a.lattice_den()
            if (va / p * L).denominator != 1:
                return x.truncate(va / p)
            x0 = monomial(a.field, a.D, a.jmax, va / p, gamma, rem.prec / p)
        x = x + x0
        rem = rem - (x0.pth_power() - U * x0)
        new_va = rem._veff()
        if new_va <= va and not rem.is_zero():
            raise PrecisionError("no progress in semilinear solve")
    raise PrecisionError("semilinear solve did not converge")


def zmod_series_to_witt(U_out, ring: PerfRing, n: int):
    """Embed a Z/p^n-coefficient polynomial/series into W_n(PerfSeries)
    by u -> Teichmuller(u) and integers through W_n(F_p)."""
    p = ring.p
    acc = witt.zero(p, n, ring)
    tu = witt.teichmuller(monomial(ring.field, ring.D, ring.jmax, 1, ring.field.one,
                                   ring.prec), p, n, ring)
    tu_pow = witt.one(p, n, ring)
    last = 0
    for e in sorted(U_out.coeffs):
        c = U_out.coeffs[e]
        if e < 0:
            raise ValueError("nonnegative exponents only")
        for _ in range(e - last):
            tu_pow = tu_pow * tu
        last = e
        acc = acc + witt.from_int(int(c), p, n, ring) * tu_pow
    return acc


def solve_frobenius_fixed(U, field: GF, n: int, D: int | None = None,
                          jmax: int | None = None, prec=None):
    """V in W_n(PerfSeries) with phi(V) = U*V, U a Z/p^n-coefficient
    series not divisible by p.

    Residue level: V_0 = U_0^(1/(p-1)).  Each further coordinate is a
    p^k-th root of the residual followed by one additive semilinear
    solve, mirroring the successive-approximation construction.
    Normalized by the choice of (p-1)-st root; the full solution set is
    Z_p^x times the result.
    """
    p = field.p
    if D is None:
        D = p - 1
    if jmax is None:
        jmax = n + 1
    if prec is None:
        prec = Fraction(U.prec)
    ring = PerfRing(field, D, jmax, prec)
    Ubar = PerfSeries(field, D, jmax,
                      {Fraction(e): field.el(int(c) % p) for e, c in U.coeffs.items()},
                      prec)
    if Ubar.is_zero():
        raise ValueError("U must not be divisible by p")
    UW = zmod_series_to_witt(U, ring, n)
    V0 = root_p_minus_1(Ubar)
    V = witt.WittVector(p, ring, [V0] + [ring.zero] * (n - 1))
    for k in range(1, n):
        resid = UW * V - witt.frobenius_w(V)
        for j in range(k):
            if not resid.coords[j].is_zero():
                raise PrecisionError("residual not divisible by p^k")
        rk = resid.coords[k]
        if rk.is_zero():
            continue
        try:
            a = rk
            for _ in range(k):
                a = a.pth_root()
        except LatticeTooCoarse:
            # the correction would start below the representable depth;
            # cap this coordinate's certified precision there instead
            cap = rk.valuation() / p
            coords = list(V.coords)
            coords[k] = coords[k].truncate(cap)
            V = witt.WittVector(p, ring, coords)
            continue
        x = solve_additive(Ubar, a)
        xpk = x
        for _ in range(k):
            xpk = xpk.pth_power()
        delta = witt.WittVector(p, ring, [ring.zero] * k + [xpk] + [ring.zero] * (n - 1 - k))
        V = V + delta
    return V


def frobenius_fixed_residual(U, V, ring: PerfRing, n: int):
    """phi(V) - U*V in W_n(PerfSeries); zero at truncation iff V solves."""
    UW = zmod_series_to_witt(U, ring, n)
    return witt.frobenius_w(V) - UW * V
