"""The Galois action on truncated two-variable series k((u, eta)) and
mod-p modules carrying a semilinear tau on top of phi.

A group element g acts through the substitution

    u   ->  u (1 + eta)^c(g)
    eta ->  (1 + eta)^chi(g) - 1

with p-adic exponents expanded by integer-valued binomials mod p
(Lucas).  Monomials u^i eta^j are truncated by total degree: a series
at precision W keeps the terms with i + j < W.

The commutation law (g (x) id) o tau_M = tau_M^(chi_tau(g)) on module
elements is an executable check here; tau_M^a for p-adic a is defined
through a verified p-power order of tau_M at the truncation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import gskel, matrix
from .errors import Indeterminate, PrecisionError
from .gf import GF, field
from .gskel import GaloisElt
from .padic import PadicInt, binomials_mod_p, ndigits, power, vp
from .rings import FFRing
from .series import SparseSeries, TruncSeries


class BivarSeries(SparseSeries):
    """Series in u and eta with exponents (i, j), j >= 0, truncated by
    total degree: the terms with i + j < prec, an int."""

    __slots__ = ("field",)

    def __init__(self, field: GF, coeffs: dict, prec: int):
        if any(j < 0 for _, j in coeffs):
            raise ValueError("eta-exponents are nonnegative")
        self.field = field
        self.pc = prec
        self.coeffs = {k: c for k, c in coeffs.items() if c and k[0] + k[1] < prec}

    def _like(self, coeffs, prec):
        return BivarSeries(self.field, coeffs, prec)

    def _model(self):
        return self.field

    def valuation(self):
        """Least total degree of a term; None when zero at this precision."""
        if not self.coeffs:
            return None
        return min(i + j for i, j in self.coeffs)

    def _codes(self, other, pc):
        # Kronecker substitution u^i eta^j -> x^((i + j)*B + j): B exceeds
        # every eta-degree of the product, so codes add as exponents do
        # and compare as total degrees do
        B = 1 + sum(max((j for _, j in f.coeffs), default=0) for f in (self, other))

        def code(f):
            return {(i + j) * B + j: c for (i, j), c in f.coeffs.items()}

        def decode(k):
            d, j = divmod(k, B)
            return d - j, j

        return code(self), code(other), pc * B, decode

    # the shared kernel, bound here by name for perfbench's tracer
    def __mul__(self, other):
        return SparseSeries.__mul__(self, other)

    def frobenius(self):
        p, frob = self.field.p, self.field.frob_p
        return self._like({(p * i, p * j): frob(c) for (i, j), c in self.coeffs.items()},
                          p * self.pc)

    def __repr__(self):
        body = " + ".join(f"{c!r}*u^{i}eta^{j}" for (i, j), c in self.terms()[:6]) or "0"
        if len(self.coeffs) > 6:
            body += " + ..."
        return f"<{body} + O(degree {self.prec})>"


def bivar_from_series(f: TruncSeries, prec: int) -> BivarSeries:
    return BivarSeries(f.ring.field, {(e, 0): c for e, c in f.coeffs.items()},
                       min(prec, f.prec))


def bivar_one(field: GF, prec: int) -> BivarSeries:
    return BivarSeries(field, {(0, 0): field.one}, prec)


# ---------------------------------------------------------------------------


def binom_power(z, field: GF, prec: int) -> BivarSeries:
    """(1 + eta)^z truncated by degree; z may be an int, Fraction in
    Z_(p), or PadicInt with enough tracked digits."""
    p = field.p
    kmax = prec + 1
    if isinstance(z, PadicInt):
        digits_needed = ndigits(kmax, p)
        if z.prec < digits_needed:
            raise PrecisionError(
                f"exponent needs {digits_needed} base-{p} digits, has {z.prec}")
        z = z.residue
    coeffs = {(0, k): field.el(c) for k, c in enumerate(binomials_mod_p(z, kmax, p)) if c}
    return BivarSeries(field, coeffs, prec)


def galois_act(g: GaloisElt, f: BivarSeries) -> BivarSeries:
    """Substitute u -> u(1+eta)^c(g), eta -> (1+eta)^chi(g) - 1.

    Ring endomorphism; composing actions matches the group law:
    act(g, act(h, x)) = act(mul(g, h), x).
    """
    fld = f.field
    one = bivar_one(fld, f.prec)
    P = binom_power(g.chi, fld, f.prec) - one  # image of eta
    ppow_cache = {0: one}
    bin_cache: dict = {}
    out = BivarSeries(fld, {}, f.prec)
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
            bin_cache[key] = binom_power(exponent, fld, f.prec)
        term = bin_cache[key] * ppow_cache[j]
        shifted = term._like({(a + i, b): v for (a, b), v in term.coeffs.items()},
                             term.prec + i)
        out = out + shifted.scale(c)
    return out.truncate(f.prec)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhiTauModP:
    """Mod-p module with a Frobenius matrix G (one-variable) and a
    tau-matrix T over the bivariate model.

    Frozen, so the p-power order of tau_M, found once and cached, cannot
    outlive a reassigned T, tau or order_cap; the lists G and T must not
    be changed in place either.  An Indeterminate from that search is not
    cached: it is raised again, after the same search, on every call."""

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
        Gb = [[bivar_from_series(a, self.model().prec) for a in row] for row in self.G]
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
        if not k:
            return self._identity(), gskel.identity(self.p, self.tau.c.prec)
        return power((self.T, self.tau), k, self._compose, None)

    def _identity(self):
        m = self.model()
        return matrix.scalar(self.d, bivar_one(m.field, m.prec), BivarSeries(m.field, {}, m.prec))

    def _is_identity_op(self, op) -> bool:
        T, g = op
        if T != self._identity():
            return False
        # the substitution must fix u and eta at truncation
        m = self.model()
        u = BivarSeries(m.field, {(1, 0): m.field.one}, m.prec)
        eta = BivarSeries(m.field, {(0, 1): m.field.one}, m.prec)
        return galois_act(g, u) == u and galois_act(g, eta) == eta

    @functools.cached_property
    def _order_exponent(self) -> int:
        op = (self.T, self.tau)
        for t in range(self.order_cap + 1):
            if t:
                op = power(op, self.p, self._compose, None)  # tau_M^(p^t)
            if self._is_identity_op(op):
                return t
        raise Indeterminate(f"tau_M^(p^t) not identity for t <= {self.order_cap}")

    def tau_order_exponent(self) -> int:
        """Smallest t with tau_M^(p^t) = id at this truncation, searched
        once per module, each tau_M^(p^t) the p-th power of the last."""
        return self._order_exponent

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
                               prec: int) -> PhiTauModP:
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
    G = matrix.scalar(d, TruncSeries.one(ring, prec), TruncSeries.zero(ring, prec))
    T = [[BivarSeries(field, {(0, 0): a}, prec) for a in row] for row in Tf]
    return PhiTauModP(p, d, G, T, tau)


def check_commutation(M: PhiTauModP, g: GaloisElt, x) -> bool:
    """(g (x) id) o tau_M (x) = tau_M^(chi_tau(g)) (x) for a module
    element x (coordinates free of eta)."""
    lhs = [galois_act(g, v) for v in M.tau_apply(x)]
    a = gskel.chi_tau(g, M.tau)
    rhs = M.tau_power_apply(a, x)
    return all(l == r for l, r in zip(lhs, rhs))


def cycle_module(p: int, N: int, W: int) -> PhiTauModP:
    """The module of `padiclab tau` and `suite tau`: over F_p, the p x p
    cyclic permutation (order p) as tau-matrix, tau = (1, 1) at precision
    N, truncation W."""
    perm = [[int(j == (i - 1) % p) for j in range(p)] for i in range(p)]
    return trivial_restriction_module(perm, 1, field(p), gskel.elt(p, N, 1, 1), W)


def sample_element(M: PhiTauModP, rng) -> list:
    """A seeded module element free of eta: three terms c u^i, i < 6, in
    each coordinate, each drawn exponent first, then coefficient."""
    m = M.model()
    return [BivarSeries(m.field, {(rng.randrange(0, 6), 0): m.field.random(rng)
                                  for _ in range(3)}, m.prec) for _ in range(M.d)]


def commutation_failures(M: PhiTauModP, trials: int, rng) -> int:
    """How many of trials seeded pairs (g, x) fail check_commutation: g =
    (0, chi), chi = 1 mod p at the precision of tau, drawn first, then x
    by sample_element."""
    p, N = M.p, M.tau.chi.prec
    return sum(not check_commutation(M, gskel.elt(p, N, 0, 1 + p * rng.randrange(p ** (N - 1))),
                                     sample_element(M, rng)) for _ in range(trials))


def check_phi_tau_commute(M: PhiTauModP, x) -> bool:
    lhs = M.tau_apply(M.phi_apply(x))
    rhs = M.phi_apply(M.tau_apply(x))
    return all(l == r for l, r in zip(lhs, rhs))
