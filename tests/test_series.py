import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import gf
from padiclab.calculus import (EisensteinPoly, kisin_lambda, lambda_factor_count,
                               lambda_residual, n_nabla, n_nabla_commutation_defect,
                               newton_polygon, weierstrass)
from padiclab.rings import FFRing, QRing, Zmod
from padiclab.series import TruncSeries
from test_padic import vp_q

F9R = FFRing(gf.field(3, 2))
Z9 = Zmod(3, 2)


def merge_polygons(np1, np2):
    """Newton polygon of a product: concatenate and sort slopes (the
    merge law that newton_polygon is checked against)."""
    slopes = []
    for s, m in np1 + np2:
        slopes.extend([s] * m)
    slopes.sort()
    out = []
    for s in slopes:
        if out and out[-1][0] == s:
            out[-1][1] += 1
        else:
            out.append([s, 1])
    return [(s, m) for s, m in out]


def rand_series(rng, ring, lo, hi, prec):
    return TruncSeries(ring, {e: ring.field.random(rng) for e in range(lo, hi)}, prec)


def test_frobenius_examples():
    u = TruncSeries.monomial(F9R, 1, F9R.one, 10)
    assert u.frobenius().coeffs == {3: F9R.one}
    a, b = F9R.field.gen, F9R.field.gen ** 5
    f = TruncSeries(F9R, {0: a, 1: b}, 10)
    assert f.frobenius().coeffs == {0: a ** 3, 3: b ** 3}


def test_frobenius_multiplicative_sweep():
    rng = random.Random(16)
    for _ in range(300):
        f = rand_series(rng, F9R, -3, 9, 12)
        g = rand_series(rng, F9R, -2, 9, 12)
        assert (f * g).frobenius() == f.frobenius() * g.frobenius()


def test_frobenius_scales_valuation():
    rng = random.Random(17)
    for _ in range(100):
        f = rand_series(rng, F9R, 1, 9, 12)
        if f.is_zero():
            continue
        assert f.frobenius().valuation() == 3 * f.valuation()


def test_newton_polygon_examples():
    assert newton_polygon([(0, 1), (1, 0)]) == [(Fraction(1), 1)]
    assert newton_polygon([(0, 1), (1, 1), (2, 0)]) == [(Fraction(1, 2), 2)]
    assert newton_polygon([(0, None), (1, 1), (2, 0)]) == [(Fraction(1), 1)]
    with pytest.raises(ValueError):
        newton_polygon([(0, None)])


@pytest.mark.parametrize("points, index", [
    ([(0, 1), (0, 1)], 0), ([(1, 0), (0, 1), (1, 5)], 1), ([(0, None), (0, 1), (2, 0)], 0),
    ([(0, 1), (2, None), (2, None)], 2)])
def test_newton_polygon_refuses_an_index_given_twice(points, index):
    """Not a division by zero, nor a polygon of whichever point came last."""
    with pytest.raises(ValueError, match=f"^index {index} given twice$"):
        newton_polygon(points)


def test_newton_polygon_merge_under_products():
    # products of (x - p^a) factors: polygon = sorted multiset of the a's
    rng = random.Random(18)
    for _ in range(60):
        vals = sorted(rng.randrange(0, 4) for _ in range(rng.randrange(1, 5)))
        coeffs = [Fraction(1)]
        p = 3
        for a in vals:
            # multiply by (x - p^a) over Q, tracking exact coefficients
            new = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= c * p ** a
            coeffs = new
        pts = [(i, vp_q(c, 3)) for i, c in enumerate(coeffs)]
        got = newton_polygon(pts)
        want = []
        for a in vals:
            if want and want[-1][0] == a:
                want[-1] = (a, want[-1][1] + 1)
            else:
                want.append((a, 1))
        assert got == [(Fraction(a), m) for a, m in want]
        # merge law
        assert merge_polygons(got, got) == [(Fraction(a), 2 * m) for a, m in want]


def test_weierstrass_examples():
    f = TruncSeries(Z9, {1: 1, 0: 3}, 8)
    unit, dist = weierstrass(f)
    assert unit == TruncSeries.one(Z9, 8)
    assert dist == f
    one = TruncSeries.one(Z9, 10)
    u = TruncSeries.monomial(Z9, 1, 1, 10)
    f2 = (one + u) * (u * u + u.scale(3))
    u2, d2 = weierstrass(f2)
    assert u2 * d2 == f2
    assert d2.coeffs.get(2) == 1
    assert all(c % 3 == 0 for e, c in d2.coeffs.items() if e < 2)
    f3 = one + u.scale(3)
    u3, d3 = weierstrass(f3)
    assert d3 == one and u3 == f3
    with pytest.raises(ValueError):
        weierstrass(TruncSeries(Z9, {0: 3, 1: 6}, 8))


def test_weierstrass_random_reconstruction():
    rng = random.Random(19)
    for _ in range(60):
        f = TruncSeries(Z9, {e: rng.randrange(9) for e in range(0, 9)}, 14)
        if f.reduce_mod_p().is_zero():
            continue
        unit, dist = weierstrass(f)
        assert unit * dist == f
        d = dist.valuation() if dist.coeffs else 0


@settings(max_examples=150)
@given(st.sampled_from([(3, 2), (5, 2), (3, 3), (3, 4)]), st.integers(2, 12), st.data())
def test_weierstrass_claims_only_digits_every_completion_shares(pn, M, data):
    """Perturbation oracle: the unit and distinguished part of f at
    precision M agree with those of four completions of f to precision
    3M wherever both claim digits.  The factorization is unique, so a
    disagreement is a digit claimed without being determined: a lifting
    step whose correction is zero still spends precision."""
    p, n = pn
    R = Zmod(p, n)
    d = data.draw(st.integers(0, M - 1))
    cs = data.draw(st.lists(st.integers(0, p ** n - 1), min_size=M, max_size=M))
    cs = [c - c % p for c in cs[:d]] + [cs[d] - cs[d] % p + 1] + cs[d + 1:]
    unit, dist = weierstrass(TruncSeries(R, dict(enumerate(cs)), M))
    for _ in range(4):
        tail = data.draw(st.lists(st.integers(0, p ** n - 1), min_size=2 * M, max_size=2 * M))
        unit_g, dist_g = weierstrass(TruncSeries(R, dict(enumerate(cs + tail)), 3 * M))
        assert dist == dist_g and unit == unit_g


@settings(max_examples=150)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.integers(1, 30), st.data())
def test_lambda_claims_only_digits_every_finer_truncation_shares(p, e, M, data):
    """Perturbation oracle: lambda to O(u^M) is lambda to O(u^(3M))
    truncated to M, for Eisenstein E of degree e <= 3, E(0)/p a unit and
    the middle coefficients any multiples of p, zero among them.  A
    product of too few factors phi^k(E/E(0)) leaves out terms below M."""
    unit = data.draw(st.integers(-3 * p, 3 * p).filter(lambda c: c % p))
    middle = data.draw(st.lists(st.integers(-2, 2), min_size=e - 1, max_size=e - 1))
    E = EisensteinPoly(p, (p * unit, *(p * c for c in middle), 1))
    lam, fine = kisin_lambda(E, M), kisin_lambda(E, 3 * M).truncate(M)
    assert (lam.prec, lam.coeffs) == (fine.prec, fine.coeffs)


def test_eisenstein_validation():
    EisensteinPoly(3, (3, 0, 1))
    with pytest.raises(ValueError):
        EisensteinPoly(3, (9, 0, 1))  # constant p^2: E(0)/p not a unit
    with pytest.raises(ValueError):
        EisensteinPoly(3, (3, 1, 1))  # middle coefficient not divisible by p
    with pytest.raises(ValueError):
        EisensteinPoly(3, (3, 0, 2))  # not monic


def test_lambda_fixed_point():
    E = EisensteinPoly(3, (3, 0, 1))
    lam = kisin_lambda(E, 30)
    assert lam.coeffs.get(0) == 1
    assert lambda_residual(E, lam).is_zero()
    assert lambda_factor_count(E, 30) == 3
    E1 = EisensteinPoly(3, (6, 1))
    lam1 = kisin_lambda(E1, 30)
    assert lambda_residual(E1, lam1).is_zero()
    # minimal factor count never exceeds ceil(log_p(M/e)) + 1
    import math
    for (e, M) in ((1, 30), (2, 30), (1, 27), (2, 54)):
        Ee = EisensteinPoly(3, tuple([3] + [0] * (e - 1) + [1]))
        K = lambda_factor_count(Ee, M)
        assert 3 ** (K - 1) * e < M <= 3 ** K * e or K == 0
        assert K <= math.ceil(math.log(M / e, 3)) + 1


def test_n_nabla():
    E = EisensteinPoly(3, (3, 0, 1))
    QR = QRing(3)
    lam = kisin_lambda(E, 30)
    c = TruncSeries(QR, {0: Fraction(5)}, 30)
    assert n_nabla(c, E, lam).is_zero()
    u1 = TruncSeries.monomial(QR, 1, Fraction(1), 30)
    nu = n_nabla(u1, E, lam)
    assert nu == -(lam.shift(1)).truncate(nu.prec)
    # Leibniz rule
    rng = random.Random(20)
    for _ in range(40):
        f = TruncSeries(QR, {e: Fraction(rng.randrange(-5, 6)) for e in range(8)}, 16)
        g = TruncSeries(QR, {e: Fraction(rng.randrange(-5, 6)) for e in range(8)}, 16)
        lhs = n_nabla(f * g, E, lam)
        rhs = n_nabla(f, E, lam) * g + f * n_nabla(g, E, lam)
        assert lhs == rhs


@pytest.mark.parametrize("e", [1, 2])
def test_n_nabla_frobenius_commutation(e):
    E = EisensteinPoly(3, tuple([3] + [0] * (e - 1) + [1]))
    QR = QRing(3)
    rng = random.Random(21 + e)
    for _ in range(30):
        f = TruncSeries(QR, {k: Fraction(rng.randrange(-9, 9)) for k in range(12)}, 14)
        assert n_nabla_commutation_defect(f, E).is_zero()


def test_zmod_laurent_inverse():
    f = TruncSeries(Z9, {0: 3, 1: 1}, 12)  # p + u is a Laurent unit
    fi = f.inverse()
    assert f * fi == TruncSeries.one(Z9, min(f.prec, fi.prec))
    with pytest.raises(ZeroDivisionError):
        TruncSeries(Z9, {0: 3, 2: 6}, 8).inverse()


def test_newton_polygon_unit_invariance():
    # multiplying by a polynomial of pure slope 0 (a p-adic unit with
    # unit leading term) leaves the finite slopes untouched
    rng = random.Random(46)
    for _ in range(40):
        vals = sorted(rng.randrange(0, 4) for _ in range(rng.randrange(1, 4)))
        coeffs = [Fraction(1)]
        for a in vals:
            new = [Fraction(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= c * 3 ** a
            coeffs = new
        unit = [Fraction(rng.randrange(1, 9)) for _ in range(rng.randrange(1, 4))]
        while unit[0].numerator % 3 == 0:
            unit[0] += 1
        while unit[-1].numerator % 3 == 0:
            unit[-1] += 1
        prod = [Fraction(0)] * (len(coeffs) + len(unit) - 1)
        for i, c in enumerate(coeffs):
            for j, d in enumerate(unit):
                prod[i + j] += c * d
        np1 = newton_polygon([(i, vp_q(c, 3)) for i, c in enumerate(coeffs)])
        np2 = newton_polygon([(i, vp_q(c, 3)) for i, c in enumerate(prod)])
        zero_part = [(s, m) for s, m in np2 if s == 0]
        rest = [(s, m) for s, m in np2 if s != 0]
        assert rest == [(s, m) for s, m in np1 if s != 0]
        assert merge_polygons(np1, [(Fraction(0), len(unit) - 1)]) == np2 or \
            len(unit) == 1
