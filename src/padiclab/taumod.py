"""The Galois action on truncated two-variable series k((u, eta)) and
mod-p modules carrying a semilinear tau on top of phi.

A group element g acts through the substitution

    u   ->  u (1 + eta)^c(g)
    eta ->  (1 + eta)^chi(g) - 1

with p-adic exponents expanded by integer-valued binomials mod p
(Lucas).  Monomials u^i eta^j are truncated by total degree: a series
at precision W keeps the terms with i + j < W.  The action builds
(1 + eta)^chi(g) - 1 only for a term with an eta and (1 + eta)^(c(g) i)
only where it is not 1; a negative u-exponent lowers the precision.

The commutation law (g (x) id) o tau_M = tau_M^(chi_tau(g)) on module
elements is an executable check here; tau_M^a for p-adic a is defined
through a verified p-power order p^t of tau_M at the truncation: rung
tau_M^(p^i) of the order search taken a_i times, a_i the digits of a.
"""

from __future__ import annotations

import functools

from . import Frozen, gskel, matrix
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
        self.field, self.pc = field, prec
        self.coeffs = {k: c for k, c in coeffs.items() if c and k[0] + k[1] < prec}

    def _like(self, coeffs, prec):
        # every caller keeps j >= 0, so only __init__ checks it
        s = object.__new__(BivarSeries)
        s.field, s.pc = self.field, prec
        s.coeffs = {k: c for k, c in coeffs.items() if c and k[0] + k[1] < prec}
        return s

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


def bivar_one(field: GF, prec: int) -> BivarSeries:
    return BivarSeries(field, {(0, 0): field.one}, prec)


# ---------------------------------------------------------------------------


def _exponent(z, p: int, kmax: int):
    """z as an int or Fraction: a PadicInt gives its residue if it has the
    base-p digits that C(z, k) mod p reads for every k <= kmax."""
    if isinstance(z, PadicInt):
        need = ndigits(kmax, p)
        if z.prec < need:
            raise PrecisionError(f"exponent needs {need} base-{p} digits, has {z.prec}")
        z = z.residue
    return z


def binom_power(z, field: GF, prec: int) -> BivarSeries:
    """(1 + eta)^z truncated by degree; z may be an int, Fraction in
    Z_(p), or PadicInt with enough tracked digits."""
    p, kmax = field.p, prec + 1
    z = _exponent(z, p, kmax)
    coeffs = {(0, k): field.el(c) for k, c in enumerate(binomials_mod_p(z, kmax, p)) if c}
    return BivarSeries(field, coeffs, prec)


def galois_act(g: GaloisElt, f: BivarSeries) -> BivarSeries:
    """Substitute u -> u(1+eta)^c(g), eta -> (1+eta)^chi(g) - 1, a ring
    endomorphism: act(g, act(h, x)) = act(mul(g, h), x).

    a u^i eta^j goes to a u^i (1+eta)^(c(g) i) P^j, P = (1+eta)^chi(g) - 1,
    with P^j built only for j > 0 and (1+eta)^(c(g) i) only when c(g) i
    is not 0 mod p^prec(c(g)); no factor 1 is multiplied in.  The image's
    precision is f's, lowered to each term's product precision plus i.
    chi(g)'s digits are checked first, then c(g)'s if f has a term.
    """
    fld, prec, p = f.field, f.prec, f.field.p
    chi = _exponent(g.chi, p, prec + 1)
    c = _exponent(g.c, p, prec + 1) if f.coeffs else 0
    one, mod = bivar_one(fld, prec), p ** g.c.prec
    powers, binoms = [one], {0: one}   # P^j and (1+eta)^(c i), on first use
    out, pc = {}, prec
    for (i, j), a in f.coeffs.items():
        while len(powers) <= j:
            if len(powers) == 1:
                P = binom_power(chi, fld, prec) - one
            powers.append(powers[-1] * P)
        key = c * i % mod
        if key not in binoms:
            binoms[key] = binom_power(key, fld, prec)
        b, pj = binoms[key], powers[j]
        pc = min(pc, b._product_pc(pj) + i)
        for (e, k), v in (pj if b is one else b if pj is one else b * pj).coeffs.items():
            e += i
            out[e, k] = out[e, k] + v * a if (e, k) in out else v * a
    return f._like(out, pc)


# ---------------------------------------------------------------------------


class PhiTauModP(Frozen):
    """Mod-p module PhiTauModP(p, d, G, T, tau, order_cap=6) with a
    Frobenius matrix G (d x d TruncSeries over F_q, one-variable) and a
    tau-matrix T (d x d BivarSeries) over the bivariate model.

    Frozen, so the ladder tau_M^(p^i), built once and cached, cannot
    outlive a reassigned T, tau or order_cap; the lists G and T must not
    be changed in place either.  An Indeterminate from that search is not
    cached: it is raised again, after the same search, on every call."""

    _fields = ("p", "d", "G", "T", "tau", "order_cap")

    def __init__(self, p: int, d: int, G: list, T: list, tau: GaloisElt, order_cap: int = 6):
        super().__init__(p, d, G, T, tau, order_cap)

    def model(self) -> BivarSeries:
        return self.T[0][0]

    def _apply(self, op, x):
        """The operator (T, g) on x: x -> T g(x)."""
        T, g = op
        return matrix.mat_vec(T, [galois_act(g, xi) for xi in x])

    def tau_apply(self, x):
        return self._apply((self.T, self.tau), x)

    def _compose(self, op1, op2):
        """(T1, g1) after (T2, g2): x -> T1 g1(T2 g2(x))."""
        T1, g1 = op1
        T2, g2 = op2
        T2g = [[galois_act(g1, a) for a in row] for row in T2]
        return (matrix.mul(T1, T2g), gskel.mul(g1, g2))

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
    def _ladder(self) -> list:
        """[tau_M^(p^i) for i < t], t the least with tau_M^(p^t) = id at
        this truncation, each rung the p-th power of the one before."""
        op, ladder = (self.T, self.tau), []
        while not self._is_identity_op(op):
            if len(ladder) == self.order_cap:
                raise Indeterminate(f"tau_M^(p^t) not identity for t <= {self.order_cap}")
            ladder.append(op)
            op = power(op, self.p, self._compose, None)
        return ladder

    def tau_order_exponent(self) -> int:
        """Smallest t with tau_M^(p^t) = id at this truncation: the
        length of the ladder."""
        return len(self._ladder)

    def tau_power_apply(self, a: PadicInt, x):
        """tau_M^a for p-adic a: rung i composed a_i times, a_i the base-p
        digits of a mod p^t, applied once; at a = 0 mod p^t the empty
        product, the identity, exact: x itself."""
        ladder, p = self._ladder, self.p
        if a.prec < len(ladder):
            raise Indeterminate("exponent precision below the order exponent")
        ops = [rung for i, rung in enumerate(ladder) for _ in range(a.residue // p ** i % p)]
        return self._apply(functools.reduce(self._compose, ops), x) if ops else list(x)


def trivial_restriction_module(tau_T, s: int, field: GF, tau: GaloisElt,
                               prec: int) -> PhiTauModP:
    """Module with trivial Frobenius part: G = id, tau-matrix the given
    constant matrix tensored with the coefficient action.

    tau_T must have exact p-power order <= p^s.
    """
    p = field.p
    d = len(tau_T)
    Tf = [[field.el(a) for a in row] for row in tau_T]
    order = field.matrix_order(Tf, p ** s)
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


def corrupted(M: PhiTauModP) -> PhiTauModP:
    """M with u added to its tau-matrix entry (0, 1): the mutant that
    `suite tau` and demo 08 require check_commutation to refuse."""
    m = M.model()
    T = [row[:] for row in M.T]
    T[0][1] = T[0][1] + BivarSeries(m.field, {(1, 0): m.field.one}, m.prec)
    return PhiTauModP(M.p, M.d, M.G, T, M.tau, M.order_cap)


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
