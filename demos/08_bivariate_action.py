"""The two-variable model k((u, eta)) and the commutation law.

A group element (c, chi) substitutes u -> u(1+eta)^c and
eta -> (1+eta)^chi - 1; p-adic exponents expand through integer-valued
binomials mod p.  On a module with trivial Frobenius part and a
permutation tau-matrix, (g (x) id) o tau_M equals tau_M^chi_tau(g) on
module elements, and corrupting the matrix is caught immediately.
"""

import random

from padiclab import gf, gskel, taumod
from padiclab.taumod import BivarSeries, binom_power, bivar_one, galois_act

F3 = gf.field(3)
W = 12
rng = random.Random(8)

print("(1+eta)^3 =", sorted(binom_power(3, F3, W).coeffs), " (freshman's dream)")
print("(1+eta)^(-1) coefficients:",
      [F3.code(binom_power(-1, F3, 8).coeffs.get((0, k), F3.zero)) for k in range(6)])

tau = gskel.elt(3, 8, 1, 1)
u = BivarSeries(F3, {(1, 0): F3.one}, W)
eta = BivarSeries(F3, {(0, 1): F3.one}, W)
print(f"\ntau moves u to u(1+eta): {galois_act(tau, u) == u * (bivar_one(F3, W) + eta)}")
print(f"tau fixes eta: {galois_act(tau, eta) == eta}")

g1 = gskel.elt(3, 8, 5, 4)
g2 = gskel.elt(3, 8, 2, 7)
f = BivarSeries(F3, {(2, 1): F3.el(2), (-1, 0): F3.one}, 10)
print(f"action composes along the group law: "
      f"{galois_act(g1, galois_act(g2, f)) == galois_act(gskel.mul(g1, g2), f)}")

M = taumod.cycle_module(3, 8, W)
print(f"\norder-p module: tau_M^(3^{M.tau_order_exponent()}) = id at weight {W}")

g = gskel.elt(3, 8, 0, 4)
print(f"commutation (g x id) tau_M = tau_M^chi_tau(g) on module elements: "
      f"{taumod.check_commutation(M, g, taumod.sample_element(M, rng))}")
Tbad = [row[:] for row in M.T]
Tbad[0][1] = Tbad[0][1] + BivarSeries(F3, {(1, 0): F3.one}, W)
Mbad = taumod.PhiTauModP(3, 3, M.G, Tbad, tau, 6)
print(f"after corrupting one matrix entry: "
      f"{taumod.check_commutation(Mbad, g, taumod.sample_element(M, rng))}")
