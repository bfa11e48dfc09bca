import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab.ramif import (BoundExpr, PLFunction, bound_GK, bound_Ginf,
                            bound_converse, bound_converse_torsion,
                            bound_semistable, bound_tau_congruence,
                            gamma_lower_bound, herbrand_phi, herbrand_psi,
                            phi_Kinf, phi_Kinf_closed_form_ok)


def test_herbrand_trivial():
    t = herbrand_phi([])
    assert t(F(7, 2)) == F(7, 2)


def test_herbrand_single_break():
    hb = herbrand_phi([(1, 3)])
    assert hb.slopes() == [F(1), F(1, 3)]
    assert hb(F(1)) == 1 and hb(F(4)) == 2


def test_herbrand_inversion():
    rng = random.Random(42)
    jumps = [(1, 9), (F(3, 2), 3), (4, 3)]
    hb = herbrand_phi(jumps)
    ps = hb.inverse()
    assert hb.is_concave()
    for _ in range(150):
        x = F(rng.randrange(0, 500), rng.randrange(1, 50))
        assert ps(hb(x)) == x
        assert hb(ps(x)) == x
    psd = herbrand_psi(jumps)
    assert psd(hb(F(5, 3))) == F(5, 3)


def test_herbrand_validation():
    with pytest.raises(ValueError):
        herbrand_phi([(1, 3), (2, 9)])  # orders increase
    with pytest.raises(ValueError):
        herbrand_phi([(2, 3), (1, 3)])  # abscissas decrease


def test_phi_kinf_fixed_point():
    f = phi_Kinf(1, 3, 5)
    assert f.vertices[1] == (F(5, 2), F(5, 2))
    assert f(F(11, 2)) == F(7, 2)
    assert f(F(2)) == F(2)


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 1)])
def test_phi_kinf_breakpoints(p, e):
    f = phi_Kinf(e, p, 6)
    assert f.is_concave()
    for s in range(1, 6):
        lam = 1 + F(e * p ** s, p - 1)
        assert f(lam) == 1 + e * (s + F(1, p - 1))
    inv = f.inverse()
    for x in (F(1), F(7, 3), F(19, 4)):
        assert inv(f(x)) == x


def test_phi_kinf_closed_form():
    rng = random.Random(43)
    for _ in range(200):
        p, e = rng.choice([(3, 1), (3, 2), (5, 1)])
        den = rng.randrange(1, 7)
        assert phi_Kinf_closed_form_ok(e, p, rng.randrange(1, 5),
                                       rng.randrange(0, den), den)


def test_bound_ginf():
    assert bound_Ginf(0, 1, 3) == 1
    assert bound_Ginf(1, 1, 3) == F(3, 2)
    assert bound_Ginf(2, 2, 3) == 9


def test_bound_gk_values():
    assert bound_GK(1, 1, 1, 3, tame=True).as_fraction() == F(7, 2)
    assert bound_GK(1, 1, 1, 3, refined=True).as_fraction() == F(5, 2)
    assert bound_GK(1, 1, 1, 3, s0=1, c0=0).as_fraction() == F(7, 2)
    with pytest.raises(ValueError):
        bound_GK(1, 1, 2, 3, refined=True)  # needs h >= e
    with pytest.raises(ValueError):
        bound_GK(1, 1, 1, 3)  # neither tame nor (s0, c0)


def test_bound_gk_symbolic_branch():
    b5 = bound_GK(5, 1, 1, 3, tame=True)
    assert not b5.is_exact()
    assert b5.compare(F(7, 2)) > 0
    assert str(b5) == "7/2 + 1*log_3(5)"
    # tame minus refined is exactly e whenever h >= e
    for e in (1, 2, 3):
        for h in (e, 2 * e, 5 * e):
            t1 = bound_GK(h, 1, e, 3, tame=True)
            t2 = bound_GK(h, 1, e, 3, refined=True)
            assert BoundExpr.of(t1.r0 - e, t1.r1, t1.x, 3).compare(t2) == 0


def test_bound_gk_monotone():
    prev = None
    for h in range(1, 15):
        cur = bound_GK(h, 1, 1, 3, tame=True)
        if prev is not None:
            assert cur.compare(prev) >= 0
        prev = cur


def test_boundexpr_bracketing():
    A = BoundExpr.of(0, 1, 5, 3)
    B = BoundExpr.of(0, 1, 4, 3)
    C = BoundExpr.of(0, 2, 2, 3)  # log_3 4 again
    assert A.compare(B) > 0 and B.compare(A) < 0 and B.compare(C) == 0
    assert BoundExpr.of(1, 1, 9, 3).as_fraction() == 3
    with pytest.raises(ValueError):
        BoundExpr.of(0, 1, 5, 3).as_fraction()


def test_bound_converse():
    thr, hb = bound_converse(1, 1, 3)
    assert thr.as_fraction() == F(5, 2) and hb == 3
    # e = h kills the log term
    thr2, _ = bound_converse(2, 2, 3)
    assert thr2.is_exact()
    prev = None
    for h in range(1, 10):
        cur, _ = bound_converse(h, 1, 3)
        if prev is not None:
            assert cur.compare(prev) >= 0
        prev = cur
    assert bound_converse_torsion(2, 1, 3, 4)[1] == 4


def test_bound_semistable():
    assert bound_semistable(2, 1, 1, 3) == F(8, 3)
    assert bound_semistable(1, 1, 1, 3) == F(5, 2)
    # beta boundary continuity: r = (p-1)p^a gives beta = 1
    prev = F(0)
    for r in range(1, 15):
        cur = bound_semistable(r, 1, 1, 3)
        assert cur >= prev
        prev = cur


def test_bound_tau_congruence():
    assert bound_tau_congruence(1, 0, 3) == 0
    assert bound_tau_congruence(9, 1, 3) == 3
    assert bound_tau_congruence(10, 0, 3) == 3


def test_gamma_lower_bound():
    assert gamma_lower_bound(0, 1, 0) == 1
    assert gamma_lower_bound(3, 2, 0) == 7
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        assert gamma_lower_bound(0, 1, 5) == 0
        assert w


def test_plfunction_validation():
    with pytest.raises(ValueError):
        PLFunction(((F(1), F(0)), (F(1), F(2))), F(1))
    f = PLFunction(((F(0), F(0)), (F(2), F(2))), F(1, 2))
    with pytest.raises(ValueError):
        f(F(-1))


def test_phi_kinf_minus_log_bounded():
    # beyond the first vertex the transform is e*log_p plus a bounded
    # function; bracket the logarithm exactly at rational samples
    for (p, e) in ((3, 1), (3, 2), (5, 1)):
        f = phi_Kinf(e, p, 8)
        C = F(1 + 2 * e)
        for num in range(1, 60):
            lam = f.vertices[1][0] + F(num, 7) * 3
            val = f(lam)
            logterm = BoundExpr.of(0, e, lam, p)
            assert logterm.compare(val - C) > 0
            assert logterm.compare(val + C) < 0


def ref_compare(a, b):
    """BoundExpr.compare on two BoundExprs before the D-scaled reduction
    alone: same x, then an exact operand, then the reduction."""
    if b.x == a.x:
        return BoundExpr(a.r0 - b.r0, a.r1 - b.r1, a.x, a.p).compare(0)
    if b.is_exact():
        return a.compare(b.as_fraction())
    if a.is_exact():
        return -b.compare(a.as_fraction())
    return a.compare(b)


FRACTIONS = st.fractions(min_value=-4, max_value=4, max_denominator=4)
XS = st.sampled_from([F(1), F(3), F(9), F(1, 3), F(2), F(5, 2), F(4), F(6), F(1, 2)])


@settings(max_examples=300)
@given(FRACTIONS, FRACTIONS, XS, FRACTIONS, FRACTIONS, XS)
def test_compare_by_one_reduction_agrees_with_the_old_branches(r0, r1, x, s0, s1, y):
    """The D-scaled reduction decides the pairs the same-x and exact-operand
    branches took: powers of p, x = 1, r1 = 0 and equal x among them."""
    a, b = BoundExpr(r0, r1, x, 3), BoundExpr(s0, s1, y, 3)
    assert a.compare(b) == ref_compare(a, b) == -b.compare(a)
