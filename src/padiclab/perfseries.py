"""Truncated fractional-exponent series: the desk model of the
perfection side.

A PerfSeries has coefficients in a finite field and exponents in the
fixed lattice (1/L) Z, L = D*p^jmax, below a precision held as its code
prec*L: an int on the lattice, an exact Fraction only off it; prec,
valuation, leading and terms read exact Fractions.  Operations that
would need a finer lattice fail loudly with LatticeTooCoarse instead of
refining silently.

This module also houses the semilinear solvers: the (p-1)-st root
giving the nonzero solutions of x^p = U*x, the additive equation
x^p - U*x = a, and the Frobenius fixed-point construction of V with
phi(V) = U*V in length-n Witt vectors, by one residue root plus
successive coordinate corrections.  The solvers' residue equations,
z^p = c z and z^p - u0 z = a0, are F_p-linear in z and solved as such
(gf.GF.frobenius_solutions), never by enumerating the field.
U's image in W_n(PerfSeries) and the fixed-point solver's residual
evaluate no Witt law: their coordinates come from ghost components over
Z/p^(k+1) (Serre, Local Fields, II.6), sum c_e u^(e p^k) for the image,
none more precise than U, U(u^(p^k)) and V for the residual.  Only
frobenius_fixed_residual, the check, stays on the laws.  The (p-1)-st
root's binomial power (1 + w)^alpha is a product over the base-p digits
of alpha of powers of 1 + w^(p^i), each the p-th power of the one before.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from . import witt
from .errors import ExtensionTooSmall, LatticeTooCoarse
from .gf import GF, FFElt
from .padic import power
from .rings import OperatorRing, Zmod
from .series import SparseSeries, TruncSeries


class PerfSeries(SparseSeries):
    """Series over a finite field with exponents in (1/L) Z, L = D p^jmax;
    coeffs is keyed by the integer code e*L of each exponent e, and pc
    is prec*L, a Fraction only off the lattice (after a p-th root or a
    cap at v/p)."""

    __slots__ = ("field", "D", "jmax", "L")

    def __init__(self, field: GF, D: int, jmax: int, coeffs: dict, prec):
        """coeffs maps exponents to coefficients; each exponent is coded once."""
        self.field, self.D, self.jmax = field, D, jmax
        self.L = L = D * field.p ** jmax
        codes = {}
        for e, c in coeffs.items():
            k = lattice_code(e, L)
            if type(k) is not int:
                raise LatticeTooCoarse(f"exponent {Fraction(e)} outside lattice 1/{L} Z")
            codes[k] = codes[k] + c if k in codes else c
        self.pc = pc = lattice_code(prec, L)
        self.coeffs = {k: c for k, c in codes.items() if k < pc and c}

    def _like(self, coeffs, pc):
        out = object.__new__(PerfSeries)
        out.field, out.D, out.jmax, out.L = self.field, self.D, self.jmax, self.L
        if type(pc) is not int and pc.denominator == 1:
            pc = pc.numerator
        out.pc = pc
        out.coeffs = {k: c for k, c in coeffs.items() if k < pc and c}
        return out

    def _model(self):
        return self.field, self.D, self.jmax

    @property
    def p(self):
        return self.field.p

    @property
    def prec(self):
        """The precision, a Fraction."""
        return Fraction(self.pc, self.L)

    def valuation(self):
        """Least exponent, a Fraction; None when zero at this precision."""
        return Fraction(min(self.coeffs), self.L) if self.coeffs else None

    def _veff(self):
        return min(self.coeffs) if self.coeffs else self.pc

    def terms(self):
        L = self.L
        return [(Fraction(k, L), c) for k, c in sorted(self.coeffs.items())]

    def shift(self, e):
        """Multiply by u^e."""
        k = lattice_code(e, self.L)
        if type(k) is not int and self.coeffs:
            raise LatticeTooCoarse(f"exponent {Fraction(min(self.coeffs), self.L) + e} "
                                   f"outside lattice 1/{self.L} Z")
        return self._like({c + k: v for c, v in self.coeffs.items()}, self.pc + k)

    def truncate(self, prec):
        return SparseSeries.truncate(self, lattice_code(prec, self.L))

    # --- arithmetic: the shared kernel, with __mul__ and inverse bound
    # here by name for perfbench's tracer ---

    def __mul__(self, other):
        return SparseSeries.__mul__(self, other)

    def inverse(self):
        return self._field_inverse(FFElt.inverse)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    # --- Frobenius structure ---

    def pth_power(self):
        """Exact: no cross terms in characteristic p."""
        p, frob = self.p, self.field.frob_p
        return self._like({k * p: frob(c) for k, c in self.coeffs.items()}, self.pc * p)

    def pth_root(self):
        p = self.p
        bad = min((k for k in self.coeffs if k % p), default=None)
        if bad is not None:
            raise LatticeTooCoarse(f"p-th root of u^{Fraction(bad, self.L)} leaves the lattice")
        pc = self.pc
        pc = pc // p if type(pc) is int and not pc % p else Fraction(pc, p)
        return self._like({k // p: self.field.frob_p(c, -1) for k, c in self.coeffs.items()}, pc)

    def binomial_power(self, alpha: Fraction):
        """(1 + w)^alpha for self = 1 + w, v(w) > 0, alpha in Z_(p).

        In characteristic p, the product over the base-p digits z_i of
        alpha mod p^t of (1 + w^(p^i))^(z_i), with p^t above the largest
        k with k v(w) < prec: alpha's other digits only add terms of
        valuation p^t v(w) >= prec.  Each 1 + w^(p^i) is the p-th power of
        the one before, cut at the precision code, so no product builds
        it; the term loop sum C(alpha, k) w^k gives the same coefficients
        and precision code.
        """
        onep = one_like(self)
        w = self - onep
        if w.is_zero():
            return onep
        wv, p, pc = w._veff(), self.p, self.pc
        if wv <= 0:
            raise ValueError("binomial power needs constant term 1")
        if alpha.denominator % p == 0:
            raise ValueError("exponent not a p-adic integer")
        top = p
        while top * wv < pc:                # p^t > k for every k v(w) < prec
            top *= p
        digits = alpha.numerator * pow(alpha.denominator, -1, top) % top
        acc, factor = None, self            # factor = 1 + w^(p^i)
        while digits:
            digits, z = divmod(digits, p)
            for _ in range(z):
                acc = factor if acc is None else acc * factor
            if digits:
                factor = SparseSeries.truncate(factor.pth_power(), pc)
        return onep if acc is None else acc


def one_like(model: PerfSeries) -> PerfSeries:
    return model._like({0: model.field.one}, model.pc)


def lattice_code(x, L: int):
    """x*L, an int when x lies on the lattice (1/L) Z, else the exact Fraction."""
    k = x * L if type(x) is int else Fraction(x) * L
    return k.numerator if type(k) is not int and k.denominator == 1 else k


def monomial(field: GF, D: int, jmax: int, exp, coeff, prec) -> PerfSeries:
    return PerfSeries(field, D, jmax, {exp: coeff}, prec)


class PerfRing(OperatorRing):
    """Coefficient-ring adapter so Witt vectors can run over PerfSeries.
    Two are equal when field, lattice and precision agree, as the
    constants of the ring carry its precision."""

    _fields = ("field", "D", "jmax", "prec")
    char_p = True

    def __init__(self, field: GF, D: int, jmax: int, prec):
        if D < 1:
            raise ValueError(f"lattice denominator D must be positive, got {D}")
        self.field = field
        self.p = field.p
        self.D = D
        self.jmax = jmax
        self.prec = Fraction(prec)
        self.zero = PerfSeries(field, D, jmax, {}, self.prec)
        self.one = self.zero._like({0: field.one}, self.zero.pc)

    def of_int(self, k):
        return self.one._like({0: self.field.el(k)}, self.one.pc)

    def times_int(self, k, a):
        return a.times_int(k, self.p, self.one.pc)

    def frob(self, a):
        return a.pth_power()


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
    if (h / (p - 1) * U.L).denominator != 1:
        raise LatticeTooCoarse(f"exponent {h}/{p - 1} not representable")
    roots = U.field.frobenius_solutions(lead)     # 0, then the roots
    if len(roots) < 2:
        raise ExtensionTooSmall(f"no {p - 1}-th root of {lead!r} in {U.field.tag}")
    body = U.shift(-h).scale(lead.inverse())
    return body.binomial_power(Fraction(1, p - 1)).scale(roots[1]).shift(h / (p - 1))


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
    not return lifts v(remainder) by 1/L or more, L = a.L, as it cancels
    the leading term with terms above it only (U x0 = -rem and p (va -
    v(U)) > va above the balance point, x0^p = rem and v(U) + va/p > va
    below it, the residue root and v(U - U0 u^v(U)) + va/p > va at it) on
    int codes, so floor((target - v(a)) L) + 2 passes suffice: the two
    ArithmeticErrors are self-checks.
    U and a share one lattice (else ValueError), which holds v(a)/p at the
    balance point: v(a) L = p v(U) L/(p-1) is an integer, p prime to p - 1.
    """
    U._check(a)
    p = U.p
    h = U.valuation()
    if h is None:
        raise ValueError("U must be nonzero")
    thresh = Fraction(p) * h / (p - 1)
    target = min(a.prec, U.prec + thresh / p)
    x = PerfSeries(a.field, a.D, a.jmax, {}, max(target / p, target - h))
    rem = a
    U0 = U.leading()[1]
    for _ in range(int(max(target * a.L - a._veff(), 0)) + 2):
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
            a0 = rem.leading()[1]
            roots = U0.field.frobenius_solutions(U0, a0)
            if not roots:
                raise ExtensionTooSmall(f"residue equation x^{p} - {U0!r} x = {a0!r} "
                                        f"has no root in {U0.field.tag}")
            x0 = monomial(a.field, a.D, a.jmax, va / p, roots[0], rem.prec / p)
        x = x + x0
        rem = rem - (x0.pth_power() - U * x0)
        if not rem.is_zero() and rem.valuation() <= va:
            raise ArithmeticError("no progress in semilinear solve")
    raise ArithmeticError("semilinear solve did not converge")


def _mod_p_image(U, ring: PerfRing, n: int) -> PerfSeries:
    """U mod p: coordinate 0 of U's image in W_n(PerfSeries), below the
    precision code of every coordinate, min(ring.prec, U.prec) L."""
    p, one, R = ring.p, ring.one, U.ring
    if type(R) is not Zmod or R.p != p or R.n < n:
        raise ValueError(f"U over {R!r} has no image in W_{n}: it needs Z/{p}^m, m >= {n}")
    if U.coeffs and min(U.coeffs) < 0:
        raise ValueError("nonnegative exponents only")
    return one._like({e * one.L: ring.field.el(c) for e, c in U.coeffs.items()},
                     min(one.pc, U.pc * one.L))


def zmod_series_to_witt(U, ring: PerfRing, n: int):
    """U = sum c_e u^e over Z/p^m, m >= n, in W_n(PerfSeries) as sum c_e [u]^e,
    from its ghost components w_k = sum c_e u^(e p^k) (Serre, Local Fields,
    II.6): x_k = (w_k - sum_(i<k) p^i x_i^(p^(k-i))) / p^k mod p reads each
    x_i only mod p, so x_i enters lifted to [0, p); x_0 is w_0 mod p.  Over
    U's ring, on the integer exponents below every coordinate's precision
    min(ring.prec, U.prec), each power the p-th power of the one before.
    ArithmeticError when a division by p^k is not exact."""
    p, R, coords = ring.p, U.ring, [_mod_p_image(U, ring, n)]
    L, el, pc = ring.one.L, ring.field.el, coords[0].pc
    top, x, pows = -(-pc // L), U.coeffs, []  # the integer e with e L < pc; x_k = x mod p
    for k in range(1, n):                   # pows: x_i^(p^(k-i)) over U's ring, i < k
        lift = TruncSeries(R, {e: c % p for e, c in x.items()}, top)
        pows = [power(y, p, mul, None) for y in pows + [lift]]
        w = TruncSeries(R, {e * p ** k: c for e, c in U.coeffs.items()}, top)
        for i, y in enumerate(pows):
            w = w - y.scale(p ** i)
        if any(c % p ** k for c in w.coeffs.values()):
            raise ArithmeticError(f"ghost component {k} less its lower terms is not p^{k} Z")
        x = {e: c // p ** k for e, c in w.coeffs.items()}
        coords.append(ring.one._like({e * L: el(c) for e, c in x.items()}, pc))
    return witt.WittVector(p, ring, coords)


def _ghost_residual(U, V: list, k: int, ring: PerfRing, Upc) -> PerfSeries:
    """Coordinate k of U V - phi(V), V_j = 0 for j >= k: w / p^k mod p, as its
    lower coordinates vanish, w = U(u^(p^k)) g - g(u^p) its ghost component k
    mod p^(k+1), g = sum_(i<k) p^i V_i^(p^(k-i)), V_i lifted to [0, p) and
    term i mod p^(k+1-i).  Product rule, U(u^(p^k)) at U's code Upc, each
    power cut at pc(V_i) + (p^k - p^i) v(V_0) as the Witt laws read it."""
    p, L, q, w, pc = ring.p, ring.one.L, ring.p ** k, {}, ring.one.pc
    code, v0, Uk = ring.field.code, V[0]._veff(), {e * L * q: c for e, c in U.coeffs.items()}
    for i, y in enumerate(V[:k]):
        R = Zmod(p, k + 1 - i)  # sparse products: codes reach p^k times the ring's, too wide to pack
        t = power(TruncSeries(R, {e: code(c) for e, c in y.coeffs.items()}, y.pc),
                  p ** (k - i), SparseSeries.__mul__, None)
        t = SparseSeries.truncate(t, y.pc + (q - p ** i) * v0)
        d = SparseSeries.__mul__(TruncSeries(R, Uk, Upc), t) - \
            TruncSeries(R, {e * p: c for e, c in t.coeffs.items()}, t.pc * p)
        pc = min(pc, d.pc)
        for e, c in d.coeffs.items():
            w[e] = (w.get(e, 0) + c * p ** i) % (q * p)
    # exact, a self-check: z_j = 0 mod p, j < k (z_0 as V_0^(p-1) = U mod p,
    # z_j by its correction), so p^j z_j^(p^(k-j)) = 0 mod p^(k+1), w = p^k z_k
    if any(c % q for e, c in w.items() if e < pc):
        raise ArithmeticError(f"ghost component {k} of the residual is not p^{k} Z")
    return ring.one._like({e: ring.field.el(c // q) for e, c in w.items() if e < pc}, pc)


def solve_frobenius_fixed(U, field: GF, n: int, *, D: int | None = None, jmax: int, prec):
    """V in W_n(PerfSeries) with phi(V) = U*V, U over Z/p^n not divisible by
    p, field F_p, on the lattice (1/(D p^jmax)) Z (D = p - 1 by default):
    V_0 = U_0^(1/(p-1)); each coordinate k > 0 is a p^k-th root of the
    residual's (_ghost_residual, no Witt law), one additive semilinear solve
    and its p^k-th power, written in place, as the Witt sum with it would.
    A residual zero at its precision is solved too: it bounds the
    coordinate's precision.  The solution set is Z_p^x times the result.
    """
    p = field.p
    if field.order != p:
        raise ValueError(f"the fixed-point solver works over F_{p}, not {field.tag}")
    ring = PerfRing(field, p - 1 if D is None else D, jmax, prec)
    Ubar = _mod_p_image(U, ring, n)
    if Ubar.is_zero():
        raise ValueError("U must not be divisible by p")
    V = [root_p_minus_1(Ubar)] + [ring.zero] * (n - 1)
    for k in range(1, n):
        rk = _ghost_residual(U, V, k, ring, Ubar.pc)
        try:
            a = rk
            for _ in range(k):
                a = a.pth_root()
        except LatticeTooCoarse:
            # the correction would start below the representable depth;
            # cap this coordinate's certified precision there instead
            V[k] = V[k].truncate(rk.valuation() / p)
            continue
        x = solve_additive(Ubar, a)
        for _ in range(k):
            x = x.pth_power()
        V[k] = SparseSeries.truncate(x, ring.one.pc)
    return witt.WittVector(p, ring, V)


def frobenius_fixed_residual(U, V, ring: PerfRing, n: int):
    """phi(V) - U*V in W_n(PerfSeries); zero at truncation iff V solves."""
    return witt.frobenius_w(V) - zmod_series_to_witt(U, ring, n) * V
