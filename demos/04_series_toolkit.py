"""Series-level machinery: Newton polygons, Weierstrass preparation,
the fixed-point series lambda, and the twisted derivation.

lambda is the truncated infinite product of Frobenius twists of
E(u)/E(0); it satisfies (E/E(0)) phi(lambda) = lambda identically at
the truncation, and the derivation -u lambda d/du intertwines with
Frobenius up to the factor p E(u)/E(0).
"""

from fractions import Fraction

from padiclab.calculus import (EisensteinPoly, kisin_lambda, lambda_factor_count,
                               lambda_residual, n_nabla, n_nabla_commutation_defect,
                               newton_polygon, weierstrass)
from padiclab.rings import QRing, Zmod
from padiclab.series import TruncSeries

print("Newton polygon of x^2 + 3x + 3 (3-adic):",
      newton_polygon([(0, 1), (1, 1), (2, 0)]))
print("  two roots of valuation 1/2, as the discriminant predicts")

Z9 = Zmod(3, 2)
one = TruncSeries.one(Z9, 12)
u = TruncSeries.monomial(Z9, 1, 1, 12)
f = (one + u) * (u * u + u.scale(3))
unit, dist = weierstrass(f)
print(f"\nWeierstrass preparation of (1+u)(u^2 + 3u) over Z/9[[u]]:")
print(f"  distinguished part: {sorted(dist.coeffs.items())}")
print(f"  reconstruction exact: {unit * dist == f}")

E = EisensteinPoly(3, (3, 0, 1))  # u^2 + 3
M = 30
lam = kisin_lambda(E, M)
print(f"\nlambda for E = u^2 + 3 to O(u^{M}) needs {lambda_factor_count(E, M)} factors")
print(f"  first coefficients: "
      f"{[(k, lam.coeffs[k]) for k in sorted(lam.coeffs)[:4]]}")
print(f"  defining identity residual is zero: {lambda_residual(E, lam).is_zero()}")

QR = QRing(3)
f = TruncSeries(QR, {k: Fraction(k * k - 2) for k in range(10)}, 14)
print(f"\nN(phi(f)) - p (E/E(0)) phi(N(f)) vanishes: "
      f"{n_nabla_commutation_defect(f, E).is_zero()}")
nf = n_nabla(f, E, lam)
print(f"  N(f) support starts at u^{nf.valuation()}")
