import random
from fractions import Fraction

import pytest

from padiclab import galrep, gf
from padiclab.errors import Unsupported
from padiclab.galrep import (charpoly_mod_p, frobenius_action, solve_rank1,
                             solve_unit_root, unramified_to_phimod)
from padiclab.perfseries import _binom_mod_p
from padiclab.rings import FFRing
from padiclab.series import TruncSeries

F3 = gf.field(3)
R3 = FFRing(F3)
F9 = gf.field(3, 2)
R9 = FFRing(F9)


def rand_unit_root(rng, base, d, prec=20):
    while True:
        G = [[TruncSeries(base, {e: base.field.random(rng) for e in range(6)}, prec)
              for _ in range(d)] for _ in range(d)]
        G0 = [[a.coeffs.get(0, base.field.zero) for a in row] for row in G]
        try:
            galrep.ff_mat_inv(G0)
            return G
        except ZeroDivisionError:
            continue


def test_constants_G1():
    S = solve_unit_root([[TruncSeries.one(R3, 20)]])
    assert S.cardinality == 3 and S.s == 1
    # solutions are the constants F_p
    codes = sorted(F3.code(s[0].coeffs.get(0, F3.zero)) for s in S.solutions())
    assert codes == [0, 1, 2]
    assert frobenius_action(S).matrix == [[1]]


def test_G2_needs_F9():
    S = solve_unit_root([[TruncSeries(R3, {0: F3.el(2)}, 20)]])
    assert S.cardinality == 3 and S.s == 2
    assert frobenius_action(S).matrix == [[2]]
    # cross-check by enumeration over F9: x^3 = 2x
    sols = [x for x in F9.elements() if x ** 3 == F9.el(2) * x]
    assert len(sols) == 3


def test_binomial_series_solution():
    # G = 1 + u: solutions x0 * (1+u)^(1/(p-1))
    S = solve_unit_root([[TruncSeries(R3, {0: F3.one, 1: F3.one}, 20)]])
    assert S.cardinality == 3
    sol = S.basis[0][0]
    h = sol * sol.coeffs[0].inverse()
    for k in range(18):
        ck = _binom_mod_p(Fraction(1, 2), k, 3)
        assert h.coeffs.get(k, F3.zero) == F3.el(ck)


def test_solution_count_and_linearity():
    rng = random.Random(29)
    for _ in range(12):
        d = rng.choice([1, 2, 3])
        base = rng.choice([R3, R9])
        S = solve_unit_root(rand_unit_root(rng, base, d))
        assert S.cardinality == 3 ** d
        sols = S.solutions()
        assert len(sols) == 3 ** d
        s1, s2 = rng.choice(sols), rng.choice(sols)
        summed = tuple(a + b for a, b in zip(s1, s2))
        assert any(all((x - y).is_zero() for x, y in zip(summed, t)) for t in sols)


def test_enumeration_matches_linearization():
    rng = random.Random(30)
    for _ in range(10):
        G = rand_unit_root(rng, R3, 2, prec=12)
        S1 = solve_unit_root(G, enumeration=True)
        S2 = solve_unit_root(G, enumeration=False)
        assert S1.cardinality == S2.cardinality and S1.s == S2.s


def test_direct_sum_functorial():
    z = TruncSeries.zero(R3, 16)
    G1 = TruncSeries(R3, {0: F3.el(2), 1: F3.one}, 16)
    G2 = TruncSeries(R3, {0: F3.one, 2: F3.el(2)}, 16)
    S = solve_unit_root([[G1, z], [z, G2]])
    assert S.cardinality == 9
    Sa, Sb = solve_unit_root([[G1]]), solve_unit_root([[G2]])
    firsts = {galrep._residue_key((s[0],)) for s in S.solutions()}
    assert {galrep._residue_key(x) for x in Sa.solutions()} <= firsts or \
        Sa.field.order <= S.field.order


def test_non_unit_root_rejected():
    u = TruncSeries.monomial(R3, 1, F3.one, 12)
    with pytest.raises(Unsupported):
        solve_unit_root([[u]])


def test_unramified_round_trip():
    rng = random.Random(31)
    for _ in range(15):
        d = rng.choice([1, 2, 3])
        while True:
            A = [[rng.randrange(3) for _ in range(d)] for _ in range(d)]
            try:
                gf.fp_inverse(A, 3)
                break
            except ZeroDivisionError:
                continue
        act = frobenius_action(solve_unit_root(unramified_to_phimod(A, 3)))
        assert charpoly_mod_p(act.matrix, 3) == charpoly_mod_p(A, 3)
        assert act.order() >= 1


def test_companion_round_trip():
    # companion matrix of x^2 + x + 2 over F_3
    C = [[0, 1], [1, 2]]
    act = frobenius_action(solve_unit_root(unramified_to_phimod(C, 3)))
    assert charpoly_mod_p(act.matrix, 3) == charpoly_mod_p(C, 3)


def test_rank1():
    S = solve_rank1(1, 1, F3)
    assert S.cardinality == 3
    xs = [x[0] for x in S.solutions()]
    assert sum(1 for x in xs if x.is_zero()) == 1
    assert all(x.is_zero() or x.valuation() == Fraction(1, 2) for x in xs)
    S2 = solve_rank1(2, 1, F3, prec=8)
    assert all(x[0].is_zero() or x[0].valuation() == 1 for x in S2.solutions())
    S0 = solve_rank1(0, 2, F3)
    assert S0.cardinality == 3  # unit-root fallback
