"""Etale phi-modules, lattices, and two independent height computations.

A lattice's u-height is the largest elementary divisor exponent of its
Frobenius matrix; the same number falls out of brute-force membership
testing through the adjugate.  The cyclotomic family shows both the
positive twists (height e per twist) and the negative twist whose
coordinate basis is not even phi-stable.
"""

import random

from padiclab import gf, phimod
from padiclab.calculus import EisensteinPoly
from padiclab.rings import FFRing
from padiclab.series import TruncSeries

M = 24
R3 = FFRing(gf.field(3))
rng = random.Random(4)

while True:
    W = [[TruncSeries(R3, {e: R3.field.random(rng) for e in range(8)}, M)
          for _ in range(2)] for _ in range(2)]
    for i in range(2):
        W[i][i] = W[i][i] + TruncSeries.one(R3, M)
    if phimod.mat_det(W).valuation() == 0:
        break
u = TruncSeries.monomial(R3, 1, R3.one, M)
z = TruncSeries.zero(R3, M)
G = phimod.mat_mul([[u, z], [z, u * u * u]], W)
L = phimod.PhiLattice(phimod.PhiModule(3, 3, 1, G))
print(f"G = diag(u, u^3) * (random unit): u-height by Smith form = "
      f"{phimod.u_height(L)}")
for h in range(5):
    ans = phimod.height_divides(L, TruncSeries.monomial(R3, h, R3.one, M))
    print(f"  u^{h} kills the cokernel: {ans}")

E = EisensteinPoly(3, (3, 0, 1))
print(f"\ncyclotomic family for E = u^2 + 3 (e = {E.e}):")
for m in (0, 1, 2):
    c = phimod.cyclotomic_module(m, 1, E)
    print(f"  twist {m}: u-height {phimod.u_height(phimod.PhiLattice(c))}")
cm1 = phimod.cyclotomic_module(-1, 1, E)
print(f"  twist -1: coordinate basis phi-stable? -> height never divides E^k:")
Ek = TruncSeries.one(R3, M)
Eser = E.as_series(R3, M)
for k in range(3):
    print(f"    E^{k}: {phimod.height_divides(cm1, Ek)}")
    Ek = Ek * Eser

print("\nstabilization: G = u^-1 needs the basis scaled by u^1:")
L2 = phimod.stabilize_lattice(phimod.PhiModule(3, 3, 1, [[TruncSeries.monomial(
    R3, -1, R3.one, M)]]))
print(f"  lattice Frobenius becomes {sorted(L2.lattice_frobenius[0][0].coeffs)}")
