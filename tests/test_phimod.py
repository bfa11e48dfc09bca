import random

import pytest

from padiclab import galrep, gf, matrix, phimod
from padiclab.errors import Indeterminate, Unsupported
from padiclab.phimod import (PhiLattice, PhiModule, cyclotomic_module, height_divides,
                             is_etale, lattice_contains, mat_det, mat_mul,
                             stabilize_lattice, tensor_lattice, u_height)
from padiclab.rings import FFRing, Zmod
from padiclab.series import EisensteinPoly, TruncSeries

M = 24
R3 = FFRing(gf.field(3))


def mat_identity(ring, d, prec):
    return matrix.scalar(d, TruncSeries.one(ring, prec), TruncSeries.zero(ring, prec))


def rand_unit_matrix(rng, ring, d, prec):
    while True:
        A = [[TruncSeries(ring, {e: ring.field.random(rng) for e in range(8)}, prec)
              for _ in range(d)] for _ in range(d)]
        for i in range(d):
            A[i][i] = A[i][i] + TruncSeries.one(ring, prec)
        if mat_det(A).valuation() == 0:
            return A


def u_mono(a, prec=M, ring=R3):
    return TruncSeries.monomial(ring, a, ring.one, prec)


def test_is_etale():
    assert is_etale(PhiModule(3, 3, 1, mat_identity(R3, 2, M)))
    z = TruncSeries.zero(R3, M)
    one = TruncSeries.one(R3, M)
    assert is_etale(PhiModule(3, 3, 1, [[u_mono(1), z], [z, one]]))
    # a truncation cannot certify a non-unit
    with pytest.raises(Indeterminate):
        is_etale(PhiModule(3, 3, 1, [[z, z], [z, z]]))
    # n = 2: p + u is a Laurent unit although p | constant term
    Z9 = Zmod(3, 2)
    f = TruncSeries(Z9, {0: 3, 1: 1}, M)
    assert is_etale(PhiModule(3, 3, 2, [[f]]))
    with pytest.raises(Indeterminate):
        is_etale(PhiModule(3, 3, 2, [[f.scale(3)]]))


def test_u_height_examples():
    rng = random.Random(24)
    assert u_height(PhiLattice(PhiModule(3, 3, 1, mat_identity(R3, 2, M)))) == 0
    for _ in range(20):
        W = rand_unit_matrix(rng, R3, 2, M)
        z = TruncSeries.zero(R3, M)
        G = mat_mul([[u_mono(1), z], [z, u_mono(3)]], W)
        assert u_height(PhiLattice(PhiModule(3, 3, 1, G))) == 3
    for a in range(5):
        assert u_height(PhiLattice(PhiModule(3, 3, 1, [[u_mono(a)]]))) == a
    with pytest.raises(Unsupported):
        u_height(PhiLattice(PhiModule(3, 3, 2, [[TruncSeries.one(Zmod(3, 2), M)]])))


def test_module_ring_and_the_unsupported_torsion_levels():
    """One coefficient ring per (p, q, n); n >= 2 with q != p is refused
    alike by PhiModule and by the cyclotomic family built on it."""
    assert phimod.module_ring(3, 9, 1) == FFRing(gf.field(3, 2))
    assert phimod.module_ring(5, 5, 3) == Zmod(5, 3)
    E = EisensteinPoly(3, (3, 0, 1))
    for build in (lambda: PhiModule(3, 9, 2, [[TruncSeries.one(Zmod(3, 2), M)]]),
                  lambda: cyclotomic_module(1, 2, E, q=9, prec=M)):
        with pytest.raises(Unsupported, match="torsion level n >= 2 implemented for q = p"):
            build()
    assert cyclotomic_module(1, 2, E, q=3, prec=M).ring == Zmod(3, 2)


def test_height_divides():
    rng = random.Random(25)
    W = rand_unit_matrix(rng, R3, 2, M)
    z = TruncSeries.zero(R3, M)
    G = mat_mul([[u_mono(1), z], [z, u_mono(3)]], W)
    L = PhiLattice(PhiModule(3, 3, 1, G))
    assert not height_divides(L, u_mono(2))
    assert height_divides(L, u_mono(3))
    # adjugate identity: height always divides det G
    assert height_divides(L, mat_det(G))
    # agreement with u_height at n = 1
    h = u_height(L)
    assert all(height_divides(L, u_mono(k)) == (k >= h) for k in range(6))


def test_stabilize_lattice():
    # already stable: k = 0
    mod = PhiModule(3, 3, 1, [[u_mono(2)]])
    L = stabilize_lattice(mod)
    assert L.basis[0][0].valuation() == 0
    # G = u^-1: phi(u^k e) = u^(3k-1) e needs k = 1
    mod2 = PhiModule(3, 3, 1, [[u_mono(-1)]])
    L2 = stabilize_lattice(mod2)
    assert L2.basis[0][0].valuation() == 1
    assert L2.lattice_frobenius[0][0] == u_mono(1).truncate(
        L2.lattice_frobenius[0][0].prec)
    # random Laurent: returned lattice is phi-stable by construction
    rng = random.Random(26)
    for _ in range(20):
        G = [[TruncSeries(R3, {e: R3.field.random(rng) for e in range(-3, 6)}, M)]]
        if G[0][0].is_zero():
            continue
        stabilize_lattice(PhiModule(3, 3, 1, G))


def test_cyclotomic_module():
    E = EisensteinPoly(3, (3, 0, 1))
    c0 = cyclotomic_module(0, 1, E)
    assert u_height(PhiLattice(c0)) == 0
    c1 = cyclotomic_module(1, 1, E)
    assert is_etale(c1)
    assert u_height(PhiLattice(c1)) == E.e
    # height divides E at torsion level 2
    c1n2 = cyclotomic_module(1, 2, E)
    assert height_divides(c1n2, E.as_series(Zmod(3, 2), M))
    # negative twist: the coordinate basis is not phi-stable, so no
    # power of E divides its height
    cm1 = cyclotomic_module(-1, 1, E)
    Ek = E.as_series(R3, M)
    cur = TruncSeries.one(R3, M)
    for _ in range(4):
        assert not height_divides(cm1, cur)
        cur = cur * Ek


def test_lattice_contains():
    E = EisensteinPoly(3, (3, 0, 1))
    Ek = E.as_series(R3, M)
    base = PhiModule(3, 3, 1, [[Ek]])
    L1 = PhiLattice(base)
    L2 = PhiLattice(base, [[Ek]])
    I1 = mat_identity(R3, 1, M)
    assert lattice_contains(L1, L1, I1)
    assert not lattice_contains(L1, L2, I1)
    assert lattice_contains(L2, L1, I1)


def test_tensor_height_subadditive():
    rng = random.Random(27)
    for _ in range(12):
        ds = [rng.choice([1, 2]), rng.choice([1, 2])]
        lats = []
        for d in ds:
            W = rand_unit_matrix(rng, R3, d, M)
            z = TruncSeries.zero(R3, M)
            D = [[u_mono(rng.randrange(3)) if i == j else z for j in range(d)]
                 for i in range(d)]
            lats.append(PhiLattice(PhiModule(3, 3, 1, mat_mul(D, W))))
        hT = u_height(tensor_lattice(lats[0], lats[1]))
        assert hT <= u_height(lats[0]) + u_height(lats[1])


def _solve_phi_eigen(Wser, prec):
    """gamma with phi(gamma) = Wser * gamma over k((u)), engineered so
    the residue root lives in the base field."""
    a = Wser.valuation()
    p = 3
    assert a % (p - 1) == 0
    t = a // (p - 1)
    W0 = Wser.shift(-a)
    S = galrep.solve_unit_root([[W0]])
    delta = next(s[0] for s in S.solutions() if not s[0].is_zero())
    return delta.shift(t), S


def test_propB_rank1_smoke():
    """Pairs of finite-height rank-1 lattices joined by a semilinear
    map: the map always carries one lattice into the other."""
    rng = random.Random(28)
    E = EisensteinPoly(3, (3, 0, 1))
    Ek = E.as_series(R3, M)
    checked = 0
    while checked < 50:
        r1 = rng.randrange(0, 3)
        r2 = rng.randrange(0, r1 + 1)
        if (E.e * (r1 - r2)) % 2:
            continue
        w1 = TruncSeries(R3, {0: R3.one, **{e: R3.field.random(rng)
                                            for e in range(1, 5)}}, M)
        w2 = TruncSeries(R3, {0: R3.one, **{e: R3.field.random(rng)
                                            for e in range(1, 5)}}, M)
        G1 = w1
        for _ in range(r1):
            G1 = G1 * Ek
        G2 = w2
        for _ in range(r2):
            G2 = G2 * Ek
        Wser = G1 * G2.inverse()
        gamma, S = _solve_phi_eigen(Wser, M)
        if gamma.ring != R3:
            continue  # residue solution needed an extension; resample
        mod2 = PhiModule(3, 3, 1, [[G2]])
        L2 = PhiLattice(mod2)
        # gamma conjugates G2 to G1; the lattice it spans is phi-stable
        L1 = PhiLattice(mod2, [[gamma]])
        assert lattice_contains(L1, L2, mat_identity(R3, 1, M))
        checked += 1


def test_snf_indeterminate_paths():
    # pivot valuation too close to the truncation
    tiny = 5
    G = [[TruncSeries.monomial(R3, 3, R3.one, tiny)]]
    with pytest.raises(Indeterminate):
        phimod.snf_u_exponents(G)
    # block that vanishes at the truncation entirely
    G2 = [[TruncSeries.zero(R3, tiny)]]
    with pytest.raises(Indeterminate):
        phimod.snf_u_exponents(G2)


def test_height_divides_indeterminate():
    # inverting u^3 at precision 5 leaves no certified digits for the
    # constant-term membership question
    G = [[TruncSeries.monomial(R3, 3, R3.one, 5)]]
    mod = PhiModule(3, 3, 1, G)
    with pytest.raises(Indeterminate):
        height_divides(mod, TruncSeries.one(R3, 5))
    # while a shifted question is honestly decidable at the same precision
    assert not height_divides(mod, TruncSeries.monomial(R3, 1, R3.one, 5))
