"""Solving phi(V) = U V in truncated Witt vectors, and the ideal
inclusion it certifies.

The residue coordinate is a (p-1)-st root; each deeper coordinate k
solves its own additive equation x^p - U_0^(p^k) x = residual.  For an
honest Eisenstein U the deeper coordinates genuinely need unboundedly
fine exponents, so their certified precision caps just below
e*p/(p-1): the library reports that honestly instead of refining the
lattice behind your back.
"""

from fractions import Fraction as F

from padiclab import gf, witt
from padiclab.perfseries import PerfRing, frobenius_fixed_residual, solve_frobenius_fixed
from padiclab.rings import Zmod
from padiclab.series import TruncSeries

p, n = 3, 2
F3 = gf.field(3)
Z9 = Zmod(p, n)

U = TruncSeries(Z9, {0: 3, 1: 1}, 10)  # u + 3, Eisenstein
V = solve_frobenius_fixed(U, F3, n, jmax=6, prec=F(10))
ring = PerfRing(F3, p - 1, 6, F(10))
res = frobenius_fixed_residual(U, V, ring, n)
print("U = u + 3 (Eisenstein):")
print(f"  V_0 has valuation {V.coords[0].valuation()} = 1/(p-1)")
print(f"  coordinate precisions: {[str(c.prec) for c in V.coords]}")
print(f"  residual phi(V) - UV vanishes at those truncations: "
      f"{all(c.is_zero() for c in res.coords)}")

U2 = TruncSeries(Z9, {1: 1, 2: 1}, 12)  # u(1+u): no p-part, stays shallow
V2 = solve_frobenius_fixed(U2, F3, n, jmax=4, prec=F(12))
ring2 = PerfRing(F3, p - 1, 4, F(12))
print(f"\nU = u(1+u): coordinate precisions {[str(c.prec) for c in V2.coords]} "
      f"(full depth retained)")

Z = witt.frobenius_w(V2)  # = U V2, as phi(V2) = U V2
m = F(1 * p ** n, p - 1)
print(f"\nthe product UV generates the deep Witt ideal: v((UV)_0) = "
      f"{Z.coords[0].valuation()}, threshold m = {m}")
from padiclab.perfseries import PerfSeries

x = witt.WittVector(p, ring2, [
    PerfSeries(F3, 2, 4, {F(5): F3.one, F(11, 2): F3.el(2)}, F(12)),
    PerfSeries(F3, 2, 4, {F(13, 2): F3.one}, F(12))])
y = witt.witt_divide(x, Z)
print(f"a vector with coordinate valuations > {m} divides exactly: "
      f"{(Z * y) == x and witt.in_maximal_ideal(y)}")
