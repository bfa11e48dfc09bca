import random

import pytest

from padiclab import gskel
from padiclab.padic import PadicInt


def rand_ginf(rng, p=3, prec=8):
    chi = rng.randrange(1, p ** prec)
    while chi % p == 0:
        chi = rng.randrange(1, p ** prec)
    return gskel.elt(p, prec, 0, chi)


def test_mul_examples():
    p, n = 3, 8
    g = gskel.elt(p, n, 5, 7)
    assert gskel.mul(g, gskel.elt(p, n, 0, 1)).c == g.c
    tau = gskel.elt(p, n, 1, 4)
    h = gskel.elt(p, n, 0, 5)
    ht = gskel.mul(h, tau)
    assert ht.c == 5 and ht.chi == 20


def test_associativity_sweep():
    rng = random.Random(5)

    def unit(rng):
        c = rng.randrange(1, 3 ** 8)
        return c + 1 if c % 3 == 0 else c

    for _ in range(400):
        g, h, k = (gskel.elt(3, 8, rng.randrange(3 ** 8), unit(rng))
                   for _ in range(3))
        a = gskel.mul(gskel.mul(g, h), k)
        b = gskel.mul(g, gskel.mul(h, k))
        assert a.c == b.c and a.chi == b.chi


def test_pow():
    p, n = 3, 8
    g = gskel.elt(p, n, 1, 4)
    assert gskel.pow(g, 0).c == 0 and gskel.pow(g, 0).chi == 1
    # a = 2: (c(1+chi), chi^2)
    sq = gskel.pow(g, 2)
    assert sq.c == 1 + 4 and sq.chi == 16
    # integer powers match iterated multiplication
    acc = gskel.elt(p, n, 0, 1)
    for k in range(1, 7):
        acc = gskel.mul(acc, g)
        pk = gskel.pow(g, k)
        assert pk.c == acc.c and pk.chi == acc.chi
    # a = p^N converges to identity at precision
    big = gskel.pow(g, p ** n)
    assert big.c == 0 and big.chi == 1
    with pytest.raises(ValueError):
        gskel.pow(gskel.elt(p, n, 0, 2), 2)


def test_decompose():
    rng = random.Random(6)
    p, n = 3, 8
    tau = gskel.elt(p, n, 1, 4)
    g0 = gskel.elt(p, n, 0, 5)
    a, gp = gskel.decompose(g0, tau)
    assert a == 0 and gp.c == g0.c
    a, gp = gskel.decompose(tau, tau)
    assert a == 1 and gp.in_Ginf() and gp.chi == 1
    for _ in range(200):
        a0 = PadicInt(p, n, rng.randrange(p ** n))
        h = rand_ginf(rng)
        g = gskel.mul(gskel.pow(tau, a0), h)
        a, gp = gskel.decompose(g, tau)
        assert gp.in_Ginf()
        assert a == a0.lower_precision(a.prec)


def test_conj_into_Ginf():
    rng = random.Random(7)
    p, n = 3, 8
    tau = gskel.elt(p, n, 1, 4)
    ident = gskel.elt(p, n, 0, 1)
    r = gskel.conj_into_Ginf(ident, tau)
    assert r.c == 0 and r.chi == 1
    # chi(tau) = 1: the exponent is chi(g) itself
    tau1 = gskel.elt(p, n, 1, 1)
    g = gskel.elt(p, n, 0, 7)
    assert gskel.chi_tau(g, tau1) == 7
    for _ in range(200):
        g = rand_ginf(rng)
        assert gskel.conj_into_Ginf(g, tau).in_Ginf()
    with pytest.raises(ValueError):
        gskel.conj_into_Ginf(tau, tau)


def test_extension_relation():
    # g tau = tau^(chi_tau(g)) * (tau^(-chi_tau(g)) g tau) exactly
    rng = random.Random(8)
    p, n = 3, 8
    tau = gskel.elt(p, n, 1, 4)
    for _ in range(300):
        g = rand_ginf(rng)
        a = gskel.chi_tau(g, tau)
        lhs = gskel.mul(g, tau)
        rhs = gskel.mul(gskel.pow(tau, a), gskel.conj_into_Ginf(g, tau))
        assert lhs.c == rhs.c and lhs.chi == rhs.chi


def test_semidirect_presentation():
    # with c(tau) = 1, chi(tau) = 1: (a,g)(b,h) = (a + b chi(g), psi^b(g) h)
    rng = random.Random(9)
    p, n = 3, 8
    tau = gskel.elt(p, n, 1, 1)
    for _ in range(300):
        x = gskel.mul(gskel.pow(tau, rng.randrange(p ** n)), rand_ginf(rng))
        y = gskel.mul(gskel.pow(tau, rng.randrange(p ** n)), rand_ginf(rng))
        ax, gx = gskel.decompose(x, tau)
        ay, gy = gskel.decompose(y, tau)
        a_new = ax + ay * gx.chi
        psi = gskel.mul(gskel.mul(gskel.pow(tau, -(ay * gx.chi)), gx),
                        gskel.pow(tau, ay))
        combined = gskel.mul(gskel.pow(tau, a_new), gskel.mul(psi, gy))
        direct = gskel.mul(x, y)
        assert combined.c == direct.c and combined.chi == direct.chi
