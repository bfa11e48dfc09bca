import operator
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import galrep, gf, matrix, phimod
from padiclab.errors import Indeterminate, Unsupported
from padiclab.padic import power
from padiclab.calculus import EisensteinPoly
from padiclab.phimod import (PhiLattice, PhiModule, cyclotomic_module, height_divides,
                             is_etale, mat_adjugate, mat_det, mat_mul, stabilize_lattice,
                             u_height)
from padiclab.rings import FFRing, Zmod, module_ring
from padiclab.series import TruncSeries

M = 24
R3 = FFRing(gf.field(3))


def lattice_contains(L1: PhiLattice, L2: PhiLattice, fmat) -> bool:
    """Whether f(L1) sits inside L2, for f given by a matrix over the
    Laurent ring in module coordinates: the lattice tests' oracle."""
    det, adj = mat_adjugate(L2.basis)
    target = mat_mul(fmat, L1.basis)
    return phimod._all_integral((adj, det.inverse()), zip(*target))


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
    assert module_ring(3, 9, 1) == FFRing(gf.field(3, 2))
    assert module_ring(5, 5, 3) == Zmod(5, 3)
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


def test_cyclotomic_module_keeps_the_linear_power_loops():
    """Below valuation 0 a product's precision depends on the order of
    the products: at m = -4 the loop's entry holds to u^-1, and
    square-and-multiply on the same inverse would claim u^0."""
    E = EisensteinPoly(3, (3, 1))
    g = cyclotomic_module(-4, 1, E, prec=5).G[0][0]
    ring = module_ring(3, 3, 1)
    binv = E.as_series(ring, 5).scale(ring.inv(ring.of_int(E.c_unit))).inverse()
    by_squares = power(binv, 4, operator.mul, None)
    assert g == by_squares and g.terms() == [(-4, ring.one)]
    assert (g.prec, by_squares.prec) == (-1, 0)


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
    tiny = 5
    # u^3 + O(u^5): every completion is u^3 times a unit
    assert phimod.snf_u_exponents([[TruncSeries.monomial(R3, 3, R3.one, tiny)]]) == [3]
    # least visible valuation 3 at or above the block's least precision 2:
    # the O(u^2) entries may hide a pivot of valuation 2
    z = TruncSeries.zero(R3, 2)
    G = [[TruncSeries.monomial(R3, 3, R3.one, tiny), z],
         [z, TruncSeries.monomial(R3, 3, R3.one, tiny)]]
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


# --- the det/adjugate pair from one characteristic polynomial


def ref_adjugate(A, one):
    """adj(A) by Cayley-Hamilton and Horner in A, from a characteristic
    polynomial of its own: matrix.adjugate before det_adjugate."""
    d = len(A)
    if d == 1:
        return [[one]]
    c = matrix.charpoly(A)
    Q = [row[:] for row in A]
    for k in range(d - 1, 0, -1):
        if k < d - 1:
            Q = matrix.mul(Q, A)
        for i in range(d):
            Q[i][i] = Q[i][i] + c[k]
    return Q if d % 2 == 1 else [[-a for a in row] for row in Q]


def ref_mat_adjugate(A):
    """mat_adjugate before it returned the det: the adjugate alone."""
    r, c, B = phimod._balanced(A)
    s = sum(r) + sum(c)
    adj = ref_adjugate(B, TruncSeries.one(A[0][0].ring, A[0][0].prec))
    return [[a.shift(s - ci - rj) for a, rj in zip(row, r)] for row, ci in zip(adj, c)]


def same_series(a, b):
    return type(a.prec) is type(b.prec) and a.prec == b.prec and a.coeffs == b.coeffs


PAIR_RINGS = {"F3": R3, "F9": FFRing(gf.field(3, 2)), "Z/9": Zmod(3, 2)}


@pytest.mark.parametrize("name", sorted(PAIR_RINGS))
@settings(max_examples=40)
@given(data=st.data())
def test_det_adjugate_pair_matches_det_and_the_old_adjugate(name, data):
    """Entries u^(r_i + c_j) a_ij with row and column valuations up to 14,
    where _balanced matters, and zero entries among them."""
    ring = PAIR_RINGS[name]
    d = data.draw(st.integers(1, 3))
    prec = data.draw(st.integers(4, 24))
    coeff = (st.integers(0, 8) if isinstance(ring, Zmod)
             else st.integers(0, ring.field.order - 1).map(ring.field.from_code))
    r = data.draw(st.lists(st.integers(-3, 14), min_size=d, max_size=d))
    c = data.draw(st.lists(st.integers(-3, 14), min_size=d, max_size=d))
    A = [[TruncSeries(ring, data.draw(st.dictionaries(st.integers(0, 7), coeff, max_size=5)),
                      prec).shift(r[i] + c[j]) for j in range(d)] for i in range(d)]
    det, adj = phimod.mat_adjugate(A)
    assert same_series(det, mat_det(A))
    for row, ref_row in zip(adj, ref_mat_adjugate(A)):
        assert all(same_series(a, b) for a, b in zip(row, ref_row))


def test_one_charpoly_per_lattice_and_per_lattice_frobenius():
    """PhiLattice takes det and adjugate of its basis from one
    characteristic polynomial, and height_divides those of the lattice
    Frobenius from one more, however many U are asked."""
    rng = random.Random(27)
    z = TruncSeries.zero(R3, M)
    G = mat_mul([[u_mono(1), z, z], [z, u_mono(2), z], [z, z, u_mono(0)]],
                rand_unit_matrix(rng, R3, 3, M))
    basis = rand_unit_matrix(rng, R3, 3, M)
    with mock.patch.object(matrix, "charpoly", side_effect=matrix.charpoly) as cp:
        L = PhiLattice(PhiModule(3, 3, 1, G), basis)
        assert cp.call_count == 1
        cp.reset_mock()
        for h in range(5):
            phimod.height_divides(L, u_mono(h))
        assert cp.call_count == 1


# --- perturbation oracle: decided heights hold for every completion


def _decided(thunk):
    """The answer, or Indeterminate (the class) when the truncation cannot decide."""
    try:
        return thunk()
    except Indeterminate:
        return Indeterminate


@settings(max_examples=150)
@given(st.sampled_from([3, 5]), st.integers(1, 3), st.integers(4, 10), st.data())
def test_heights_claim_only_what_every_completion_shares(p, d, M, data):
    """Perturbation oracle: the elementary-divisor exponents of G and the
    answer of height_divides(G, U), decided on entries each known to its
    own precision in [2, M], are those of two completions of every entry
    and of U to precision 3M.  G = A diag(u^a) B with A, B invertible
    and a in [0, M], truncated; the first completion is that product, the
    second random above each precision."""
    ring = FFRing(gf.field(p))
    N = 3 * M
    digits = lambda n: data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))

    def series(cs, prec):
        return TruncSeries(ring, {e: ring.field.el(c) for e, c in enumerate(cs[:prec])}, prec)

    def invertible(upper):
        """Random entries whose constant terms form a unitriangular matrix."""
        cs = [[digits(N) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                if i == j or (j < i) == upper:
                    cs[i][j][0] = int(i == j)
        return [[series(c, N) for c in row] for row in cs]

    diag = [[u_mono(data.draw(st.integers(0, M)), N, ring) if i == j
             else TruncSeries.zero(ring, N) for j in range(d)] for i in range(d)]
    G = mat_mul(mat_mul(invertible(True), diag), invertible(False))
    G = [[[ring.field.code(g.coeffs.get(e, ring.zero)) for e in range(N)] for g in row]
         for row in G]
    precs = [[data.draw(st.integers(2, M)) for _ in range(d)] for _ in range(d)]
    h = data.draw(st.integers(0, M - 1))
    U, U_prec = [0] * h + [1] + digits(N - h - 1), data.draw(st.integers(h + 1, M))

    def answers(G, U, precs, U_prec):
        A = [[series(g, k) for g, k in zip(row, ks)] for row, ks in zip(G, precs)]
        return (_decided(lambda: phimod.snf_u_exponents(A)),
                _decided(lambda: height_divides(PhiModule(p, p, 1, A), series(U, U_prec))))

    at_M = answers(G, U, precs, U_prec)
    full = [N] * d
    random_tails = ([[g[:k] + digits(N - k) for g, k in zip(row, ks)] for row, ks in zip(G, precs)],
                    U[:U_prec] + digits(N - U_prec))
    for G2, U2 in ((G, U), random_tails):
        got = answers(G2, U2, [full] * d, N)
        assert [b for a, b in zip(at_M, got) if a is not Indeterminate] == \
            [a for a in at_M if a is not Indeterminate]


@settings(max_examples=150)
@given(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2)]), st.integers(1, 3), st.integers(3, 8),
       st.data())
def test_etale_claims_only_what_every_completion_shares(pn, d, M, data):
    """Perturbation oracle: is_etale's True, decided on entries each known
    to its own precision in [1, M], holds for two completions of every
    entry to precision 3M.  G = A D B with A, B invertible and D diagonal
    of u^a, p u^a (n = 2) or 0, a in [0, 2], so that the first
    completion, that product, may have det 0 mod p; the second is random
    above each precision."""
    p, n = pn
    ring = FFRing(gf.field(p)) if n == 1 else Zmod(p, n)
    code = ring.field.code if n == 1 else int
    N = 3 * M
    digits = lambda k: data.draw(st.lists(st.integers(0, p ** n - 1), min_size=k, max_size=k))

    def series(cs, prec):
        return TruncSeries.from_int_coeffs(ring, cs[:prec], prec)

    def invertible(upper):
        """Random entries whose constant terms form a unitriangular matrix."""
        cs = [[digits(N) for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                if i == j or (j < i) == upper:
                    cs[i][j][0] = int(i == j)
        return [[series(c, N) for c in row] for row in cs]

    def diagonal():
        a, k = data.draw(st.integers(0, 2)), data.draw(st.sampled_from([1, p, 0]))
        return TruncSeries.monomial(ring, a, ring.of_int(k), N)

    D = [[diagonal() if i == j else TruncSeries.zero(ring, N) for j in range(d)]
         for i in range(d)]
    G = mat_mul(mat_mul(invertible(True), D), invertible(False))
    G = [[[code(g.coeffs.get(e, ring.zero)) for e in range(N)] for g in row] for row in G]
    precs = [[data.draw(st.integers(1, M)) for _ in range(d)] for _ in range(d)]

    def etale(G, precs):
        A = [[series(g, k) for g, k in zip(row, ks)] for row, ks in zip(G, precs)]
        return _decided(lambda: is_etale(PhiModule(p, p, n, A)))

    if etale(G, precs) is True:
        random_tails = [[g[:k] + digits(N - k) for g, k in zip(row, ks)]
                        for row, ks in zip(G, precs)]
        for G2 in (G, random_tails):
            assert etale(G2, [[N] * d] * d) is True
