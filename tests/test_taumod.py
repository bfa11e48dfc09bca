import random
from fractions import Fraction as F

import pytest

from padiclab import gf, gskel, taumod
from padiclab.errors import Indeterminate, PrecisionError
from padiclab.padic import PadicInt, ndigits, power
from padiclab.taumod import (BivarSeries, binom_power, bivar_one, check_commutation,
                             galois_act, trivial_restriction_module)

F3 = gf.field(3)
W = 12


def rand_g(rng, p=3, N=8):
    return gskel.elt(p, N, 0, 1 + p * rng.randrange(p ** (N - 1)))


def sample_x(rng, d=3, w=W):
    return [BivarSeries(F3, {(rng.randrange(0, 6), 0): F3.random(rng)
                             for _ in range(3)}, w) for _ in range(d)]


def test_binom_power_examples():
    b = binom_power(3, F3, W)
    assert b.coeffs == {(0, 0): F3.one, (0, 3): F3.one}
    bm1 = binom_power(-1, F3, 8)
    for k in range(8):
        assert bm1.coeffs.get((0, k), F3.zero) == F3.el((-1) ** k)
    zh = binom_power(F(-1, 2), F3, 8)
    assert zh * zh == bm1
    # additivity of exponents
    assert binom_power(2, F3, 8) * binom_power(5, F3, 8) == binom_power(7, F3, 8)


def test_binom_power_precision_gate():
    z = PadicInt(3, 1, 1)
    with pytest.raises(PrecisionError):
        binom_power(z, F3, 12)


@pytest.mark.parametrize("p", [3, 5])
def test_binom_power_accepts_exactly_the_digits_it_needs(p):
    # C(z, k) mod p for k <= prec reads the base-p digits of z up to
    # those of prec + 1: that many are enough, one fewer is refused
    field = gf.field(p)
    rng = random.Random(p)
    for prec in range(p - 1, 3 * p ** 2):   # from prec + 1 = p on, k >= 2
        k = ndigits(prec + 1, p)
        r = rng.randrange(p ** k)
        assert binom_power(PadicInt(p, k, r), field, prec) == binom_power(r, field, prec)
        with pytest.raises(PrecisionError, match=f"needs {k} base-{p} digits"):
            binom_power(PadicInt(p, k - 1, r), field, prec)


def test_galois_act_examples():
    p, N = 3, 8
    tau = gskel.elt(p, N, 1, 1)
    u = BivarSeries(F3, {(1, 0): F3.one}, W)
    eta = BivarSeries(F3, {(0, 1): F3.one}, W)
    assert galois_act(tau, u) == u * (bivar_one(F3, W) + eta)
    assert galois_act(tau, eta) == eta
    f = BivarSeries(F3, {(2, 1): F3.el(2), (-1, 0): F3.one}, W)
    assert galois_act(gskel.elt(p, N, 0, 1), f) == f
    # g in the c = 0 subgroup fixes u
    g = gskel.elt(p, N, 0, 4)
    assert galois_act(g, u) == u


def test_galois_act_is_ring_hom():
    rng = random.Random(32)
    for _ in range(150):
        g = gskel.elt(3, 8, rng.randrange(3 ** 8), 1 + 3 * rng.randrange(3 ** 7))
        f1 = BivarSeries(F3, {(rng.randrange(-2, 5), rng.randrange(4)): F3.random(rng)
                              for _ in range(4)}, 10)
        f2 = BivarSeries(F3, {(rng.randrange(-2, 5), rng.randrange(4)): F3.random(rng)
                              for _ in range(4)}, 10)
        assert galois_act(g, f1 * f2) == galois_act(g, f1) * galois_act(g, f2)
        assert galois_act(g, f1 + f2) == galois_act(g, f1) + galois_act(g, f2)


def test_action_respects_group_law():
    rng = random.Random(33)
    for _ in range(60):
        g1 = gskel.elt(3, 8, rng.randrange(3 ** 8), 1 + 3 * rng.randrange(3 ** 7))
        g2 = gskel.elt(3, 8, rng.randrange(3 ** 8), 1 + 3 * rng.randrange(3 ** 7))
        f = BivarSeries(F3, {(rng.randrange(-1, 4), rng.randrange(3)): F3.random(rng)
                             for _ in range(3)}, 9)
        assert galois_act(g1, galois_act(g2, f)) == galois_act(gskel.mul(g1, g2), f)


def test_monomial_independence():
    # the monomials u^i eta^j stay independent in the model
    f = BivarSeries(F3, {(i, j): F3.one for i in range(4) for j in range(4)
                         if i + j <= 6}, 8)
    assert len(f.coeffs) == sum(1 for i in range(4) for j in range(4) if i + j <= 6)


def test_trivial_restriction_module():
    tau = gskel.elt(3, 8, 1, 1)
    M = trivial_restriction_module([[1]], 0, F3, tau, W)
    assert M.d == 1
    perm = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    M3 = trivial_restriction_module(perm, 1, F3, tau, W)
    assert M3.tau_order_exponent() <= 3
    with pytest.raises(ValueError):
        trivial_restriction_module([[0, 1], [1, 0]], 1, F3, tau, W)  # order 2


def test_commutation_example1():
    rng = random.Random(34)
    tau = gskel.elt(3, 8, 1, 1)
    M = trivial_restriction_module([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1, F3, tau, W)
    for _ in range(25):
        assert check_commutation(M, rand_g(rng), sample_x(rng))
    # chi(g) = 1 + p explicitly
    assert check_commutation(M, gskel.elt(3, 8, 0, 4), sample_x(rng))


def test_commutation_general_tau():
    rng = random.Random(35)
    tau = gskel.elt(3, 8, 1, 4)  # chi(tau) = 4, not 1
    M = trivial_restriction_module([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1, F3, tau, W)
    for _ in range(10):
        assert check_commutation(M, rand_g(rng), sample_x(rng))


def test_mutation_control():
    rng = random.Random(36)
    tau = gskel.elt(3, 8, 1, 1)
    M = trivial_restriction_module([[0, 0, 1], [1, 0, 0], [0, 1, 0]], 1, F3, tau, W)
    Tbad = [row[:] for row in M.T]
    Tbad[0][1] = Tbad[0][1] + BivarSeries(F3, {(1, 0): F3.one}, W)
    Mbad = taumod.PhiTauModP(3, 3, M.G, Tbad, tau, 6)
    assert not check_commutation(Mbad, gskel.elt(3, 8, 0, 4), sample_x(rng))


def ref_operator_power(M, k):
    """Reference for tau_power_apply's operator: tau_M^k as a (matrix,
    group element) pair by binary composition, as the deleted
    PhiTauModP.tau_operator_power built it."""
    if not k:
        return M._identity(), gskel.elt(M.p, M.tau.c.prec, 0, 1)
    return power((M.T, M.tau), k, M._compose, None)


def order_exponent_from_scratch(M):
    """Reference for tau_order_exponent: each tau_M^(p^t) rebuilt by
    binary composition from tau_M itself."""
    for t in range(M.order_cap + 1):
        if M._is_identity_op(ref_operator_power(M, M.p ** t)):
            return t
    raise Indeterminate(f"tau_M^(p^t) not identity for t <= {M.order_cap}")


def _order_modules():
    tau = gskel.elt(3, 8, 1, 1)
    perm = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    M = trivial_restriction_module(perm, 1, F3, tau, W)  # the tau suite's module
    Tbad = [row[:] for row in M.T]
    Tbad[0][1] = Tbad[0][1] + BivarSeries(F3, {(1, 0): F3.one}, W)
    return {"suite": M,
            "mutant": taumod.PhiTauModP(3, 3, M.G, Tbad, tau, 6),
            "order-p^2": trivial_restriction_module(perm, 1, F3, tau, 9),
            "rank-1": trivial_restriction_module([[1]], 0, F3, tau, W),
            "chi-4": trivial_restriction_module(perm, 1, F3, gskel.elt(3, 8, 1, 4), W),
            "capped": taumod.PhiTauModP(3, 3, M.G, Tbad, tau, 3)}


@pytest.mark.parametrize("name,t", [("suite", 3), ("mutant", 4), ("order-p^2", 2),
                                    ("rank-1", 3), ("chi-4", 3)])
def test_order_exponent_matches_from_scratch(name, t):
    M = _order_modules()[name]
    assert order_exponent_from_scratch(M) == M.tau_order_exponent() == t


def test_order_cap_refusal_is_raised_on_every_call():
    M = _order_modules()["capped"]
    with pytest.raises(Indeterminate, match="t <= 3"):
        order_exponent_from_scratch(M)
    for _ in range(2):
        with pytest.raises(Indeterminate, match="t <= 3"):
            M.tau_order_exponent()


def test_order_search_reaches_its_cap():
    # the suite's module needs t = 3: a cap of 3 finds it, a cap of 2 refuses
    M = _order_modules()["suite"]
    assert taumod.PhiTauModP(3, 3, M.G, M.T, M.tau, 3).tau_order_exponent() == 3
    with pytest.raises(Indeterminate, match="t <= 2"):
        taumod.PhiTauModP(3, 3, M.G, M.T, M.tau, 2).tau_order_exponent()


def test_order_search_asks_eta_itself_to_be_fixed():
    # at W = 4, g = (0, 4) sends eta to (1+eta)^4 - 1 = eta + eta^3, whose
    # square is eta^2 there: only g^3 = (0, 64) fixes eta
    g = gskel.elt(3, 8, 0, 4)
    eta = BivarSeries(F3, {(0, 1): F3.one}, 4)
    assert galois_act(g, eta) == eta + BivarSeries(F3, {(0, 3): F3.one}, 4)
    eta2 = BivarSeries(F3, {(0, 2): F3.one}, 4)
    assert galois_act(g, eta2) == eta2
    assert trivial_restriction_module([[1]], 0, F3, g, 4).tau_order_exponent() == 1


def test_order_is_searched_once(monkeypatch):
    calls = []
    is_identity = taumod.PhiTauModP._is_identity_op

    def counting(self, op):
        calls.append(op)
        return is_identity(self, op)

    monkeypatch.setattr(taumod.PhiTauModP, "_is_identity_op", counting)
    rng = random.Random(42)
    M = _order_modules()["suite"]
    for _ in range(20):
        assert check_commutation(M, rand_g(rng), sample_x(rng))
    assert len(calls) == M.tau_order_exponent() + 1 == 4
    # the cached order cannot outlive a changed tau-matrix
    with pytest.raises(AttributeError):
        M.T = []


def _negative_x(rng, d, w):
    """A seeded element with a u^-2 term in each coordinate, so applying
    any operator, the identity included, lowers its precision."""
    return [BivarSeries(F3, {**{(rng.randrange(-2, 4), 0): F3.random(rng) for _ in range(2)},
                             (-2, 0): F3.one}, w) for _ in range(d)]


@pytest.mark.parametrize("name", ["suite", "mutant", "order-p^2", "rank-1", "chi-4", "identity"])
def test_tau_power_apply_matches_binary_composition(name):
    """Every a < p^t: the ladder's digit product applied to x equals
    tau_M^a by binary composition, coefficients and precision; at a = 0
    it is the empty product, the identity, exact: x itself, whose
    precision the truncated identity operator would lower."""
    if name == "identity":   # tau_M = id, so t = 0 and only a = 0 is read
        M = trivial_restriction_module([[1]], 0, F3, gskel.elt(3, 8, 0, 1), W)
    else:
        M = _order_modules()[name]
    t, rng = M.tau_order_exponent(), random.Random(name)
    for a in range(M.p ** t):
        x = _negative_x(rng, M.d, M.model().prec)
        got = M.tau_power_apply(PadicInt(3, 8, a + 3 ** t * rng.randrange(3 ** (8 - t))), x)
        ref = M._apply(ref_operator_power(M, a), x)
        if a:
            assert [(v.coeffs, v.pc) for v in got] == [(v.coeffs, v.pc) for v in ref], a
        else:
            assert got == x and got is not x
            assert [(v.coeffs, v.pc) for v in got] == [(v.coeffs, v.pc) for v in x]
            assert [v.coeffs for v in got] == [v.coeffs for v in ref]
            assert [v.pc for v in ref] != [v.pc for v in x]


def test_tau_power_apply_refuses_an_exponent_below_the_order():
    M = _order_modules()["suite"]
    x = sample_x(random.Random(1))
    with pytest.raises(Indeterminate, match="below the order exponent"):
        M.tau_power_apply(PadicInt(3, 2, 1), x)
    assert M.tau_power_apply(PadicInt(3, 3, 1), x) == M.tau_apply(x)


def ref_commutation_failures(p, N, W, trials, seed):
    """The loop `padiclab tau commutation` ran before taumod held it."""
    rng = random.Random(seed)
    F = gf.field(p)
    tau = gskel.elt(p, N, 1, 1)
    perm = [[int(j == (i - 1) % p) for j in range(p)] for i in range(p)]
    M = trivial_restriction_module(perm, 1, F, tau, W)
    bad = 0
    for _ in range(trials):
        g = gskel.elt(p, N, 0, 1 + p * rng.randrange(p ** (N - 1)))
        x = [BivarSeries(F, {(rng.randrange(0, 6), 0): F.random(rng)
                             for _ in range(3)}, W) for _ in range(p)]
        if not check_commutation(M, g, x):
            bad += 1
    return bad, rng.random()


@pytest.mark.parametrize("p, N, W, trials, seed", [(3, 8, 12, 5, 4), (5, 6, 8, 3, 9)])
def test_cycle_module_and_its_sample_are_the_old_loop(p, N, W, trials, seed):
    """cycle_module, sample_element and commutation_failures draw what the
    old loop drew, in the same order, and count the same failures; the
    mutated module fails every pair."""
    M = taumod.cycle_module(p, N, W)
    assert (M.p, M.d, M.tau) == (p, p, gskel.elt(p, N, 1, 1))
    if p == 3:      # the tau-matrix of the suite's module and of perfbench's fixture
        assert M.T == _order_modules()["suite"].T
    rng = random.Random(seed)
    assert (taumod.commutation_failures(M, trials, rng), rng.random()) == \
        ref_commutation_failures(p, N, W, trials, seed)
    Tbad = [row[:] for row in M.T]
    Tbad[0][1] = Tbad[0][1] + BivarSeries(M.model().field, {(1, 0): M.model().field.one}, W)
    Mbad = taumod.PhiTauModP(p, p, M.G, Tbad, M.tau, 6)
    assert taumod.corrupted(M) == Mbad
    assert taumod.commutation_failures(Mbad, 2, random.Random(seed)) == 2
