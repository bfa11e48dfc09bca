"""Finite-precision model of G_K/H_infty as pairs (c, chi) in Z_p x Z_p^x.

The group law is the semidirect one: (c1, chi1)(c2, chi2) =
(c1 + chi1*c2, chi1*chi2).  Elements with c = 0 form the subgroup that
fixes the compatible system of p-power roots of the uniformizer; the
default test fixture tau has c(tau) = 1.
"""

from __future__ import annotations

from . import Frozen, padic
from .padic import PadicInt, q_analogue, q_analogue_inverse


class GaloisElt(Frozen):
    """GaloisElt(c, chi), two PadicInts at one prime, chi a unit."""

    _fields = ("c", "chi")

    def __init__(self, c: PadicInt, chi: PadicInt):
        if c.p != chi.p:
            raise ValueError("mismatched primes")
        if not chi.is_unit():
            raise ValueError("chi must be a unit")
        super().__init__(c, chi)

    @property
    def p(self) -> int:
        return self.c.p

    def in_Ginf(self) -> bool:
        return self.c == 0

    def __repr__(self):
        return f"({self.c.residue}, {self.chi.residue})@{self.p}^{min(self.c.prec, self.chi.prec)}"


def elt(p: int, prec: int, c: int, chi: int) -> GaloisElt:
    return GaloisElt(PadicInt(p, prec, c), PadicInt(p, prec, chi))


def identity(p: int, prec: int) -> GaloisElt:
    return elt(p, prec, 0, 1)


def mul(g: GaloisElt, h: GaloisElt) -> GaloisElt:
    """Cocycle law: c(gh) = c(g) + chi(g) c(h), chi multiplicative."""
    if g.p != h.p:
        raise ValueError("mismatched primes")
    return GaloisElt(g.c + g.chi * h.c, g.chi * h.chi)


def pow(g: GaloisElt, a) -> GaloisElt:
    """g^a for a in Z_p; needs chi(g) = 1 mod p (pro-p part of the group).

    c(g^a) = c(g) [a]_{chi(g)} and chi(g^a) = chi(g)^a.
    """
    if isinstance(a, int):
        a = PadicInt(g.p, min(g.c.prec, g.chi.prec), a)
    if (g.chi - 1).residue % g.p != 0:
        raise ValueError("pow needs chi(g) = 1 mod p")
    c_new = g.c * q_analogue(a, g.chi)
    if g.chi == 1:
        chi_new = g.chi
    else:
        chi_new = padic.pow_unit(g.chi, a)
    return GaloisElt(c_new, chi_new)


def chi_tau(g: GaloisElt, tau: GaloisElt) -> PadicInt:
    """The unique a with [a]_{chi(tau)} = chi(g)."""
    return padic.chi_tau(g.chi, tau.chi)


def decompose(g: GaloisElt, tau: GaloisElt):
    """Write g = tau^a g' with c(g') = 0, uniquely at precision.

    tau must satisfy c(tau) = 1 and chi(tau) = 1 mod p.
    """
    if tau.c != 1:
        raise ValueError("decompose needs c(tau) = 1")
    if (tau.chi - 1).residue % tau.p != 0:
        raise ValueError("decompose needs chi(tau) = 1 mod p")
    a = q_analogue_inverse(g.c, tau.chi)
    gprime = mul(pow(tau, -a), g)
    return a, gprime


def conj_into_Ginf(g: GaloisElt, tau: GaloisElt) -> GaloisElt:
    """tau^(-chi_tau(g)) g tau, which lands back in the c = 0 subgroup."""
    if not g.in_Ginf():
        raise ValueError("conj_into_Ginf needs c(g) = 0")
    a = chi_tau(g, tau)
    return mul(mul(pow(tau, -a), g), tau)
