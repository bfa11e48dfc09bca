"""The computed splitting degree and the Ben-Or modulus search against
slow references kept here.

solve_unit_root takes the residue extension degree s as the order of
N = G0 sigma(G0) ... sigma^(f-1)(G0); the reference instead counts the
residue solutions in F_(q^s) for s = 1, 2, ... until there are p^d.
solve_rank1 takes s as the order of the norm c^((q-1)/(p-1)); the
reference scans each field in turn for a (p-1)-st root.  The modulus
search must return the first monic irreducible in lexicographic order,
which the reference finds with Rabin's test on the Frobenius matrix.
"""

import functools
import time
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiclab import galrep, gf, matrix
from padiclab.errors import ExtensionCapExceeded
from padiclab.galrep import solve_rank1, solve_unit_root, unramified_to_phimod
from padiclab.rings import FFRing
from padiclab.series import TruncSeries

SETTINGS = settings(max_examples=30)


def residue_rank(G0, ext, p):
    """dim over F_p of {x in ext^d : x^p = x G0}: the kernel of
    x -> x^p - x G0 on the F_p-basis of ext^d, by powering."""
    d, m = len(G0), ext.fp_degree
    G0e = [[ext.coerce(a) for a in row] for row in G0]
    cols = []
    for j in range(d):
        for k in range(m):
            xj = ext.from_fp([int(i == k) for i in range(m)])
            img = [(xj ** p if i == j else ext.zero) - xj * G0e[j][i] for i in range(d)]
            cols.append([c for y in img for c in y.coeffs])
    _, pivots = gf.fp_rref(list(zip(*cols)), p)
    return d * m - len(pivots)


def reference_s(G0, base):
    """The least s with p^d residue solutions in F_(q^s)."""
    for s in range(1, 65):
        if residue_rank(G0, gf.extension(base, s), base.p) == len(G0):
            return s
    raise AssertionError("no splitting degree up to 64")


@st.composite
def unit_root(draw):
    base = gf.field(3, draw(st.sampled_from([1, 2])))
    d = draw(st.integers(1, 3))
    codes = st.integers(0, base.order - 1)
    G0 = [[base.from_code(draw(codes)) for _ in range(d)] for _ in range(d)]
    assume(matrix.det(G0))
    ring = FFRing(base)
    G = [[TruncSeries(ring, {0: a, 1: base.from_code(draw(codes))}, 4) for a in row]
         for row in G0]
    return base, G0, G


@SETTINGS
@given(unit_root())
def test_splitting_degree_matches_the_s_loop(case):
    base, G0, G = case
    S = solve_unit_root(G)
    assert S.s == reference_s(G0, base)
    assert S.cardinality == base.p ** len(G0)


def _order_mod_3(A):
    """The order of the int matrix A in GL_d(F_3), by int powers reduced
    mod 3: a reference apart from gf.GF.matrix_order, which the solver uses."""
    ident = matrix.scalar(len(A), 1, 0)
    power, k = [[a % 3 for a in row] for row in A], 1
    while power != ident:
        power, k = [[a % 3 for a in row] for row in matrix.mul(power, A)], k + 1
    return k


@SETTINGS
@given(st.sampled_from([1, 2]),
       st.integers(1, 3).flatmap(lambda d: st.lists(
           st.lists(st.integers(0, 2), min_size=d, max_size=d), min_size=d, max_size=d)))
def test_splitting_degree_of_a_constant_matrix_is_the_order_of_a_power(f, A):
    assume(matrix.det(A) % 3)
    Af = A if f == 1 else matrix.mul(A, A)
    S = solve_unit_root(unramified_to_phimod(A, 3, f, prec=4))
    assert S.s == _order_mod_3(Af)


def _refused_at_once(solve, *args):
    """solve(*args) raises ExtensionCapExceeded within a second and
    builds no field."""
    before = set(gf._cache)
    t0 = time.perf_counter()
    with pytest.raises(ExtensionCapExceeded, match="MAX_ORDER"):
        solve(*args)
    assert time.perf_counter() - t0 < 1.0
    assert set(gf._cache) == before


# the companion matrix of x^3 + 2x + 1, primitive over F_3: order 26
CUBIC = [[0, 1, 0], [0, 0, 1], [2, 1, 0]]


def test_refusal_is_immediate_and_builds_no_field():
    # over F_(3^5), N = CUBIC^5 has order 26, and 243^26 = 3^130 > 2^128
    assert _order_mod_3(CUBIC) == 26
    assert _order_mod_3(functools.reduce(matrix.mul, [CUBIC] * 5)) == 26
    G = unramified_to_phimod(CUBIC, 3, 5, prec=4)
    _refused_at_once(solve_unit_root, G)


@pytest.mark.parametrize("p, c", [(1009, 11), (10007, 5)])
def test_rank1_refusal_is_immediate_and_builds_no_field(p, c):
    _refused_at_once(solve_rank1, 1, c, gf.field(p))
    _refused_at_once(solve_rank1, 0, c, gf.field(p))


def test_an_order_80_matrix_over_F3_solves_at_the_limit():
    # the companion matrix of x^4 + x + 2, primitive over F_3: 3^80 <= 2^128
    C = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 2, 0, 0]]
    assert _order_mod_3(C) == 80
    assert 3 ** 80 <= gf.MAX_ORDER < 3 ** 81
    S = solve_unit_root(unramified_to_phimod(C, 3, prec=2))
    assert S.s == 80 and S.field is gf.field(3, 80)


def _power_order(A, one, zero):
    """The least k >= 1 with A^k = I, by an unbounded power loop."""
    ident = matrix.scalar(len(A), one, zero)
    power, k = A, 1
    while power != ident:
        power, k = matrix.mul(power, A), k + 1
    return k


@SETTINGS
@given(st.sampled_from([(3, 2), (5, 2), (3, 3)]).flatmap(lambda pf: st.tuples(
    st.just(pf), st.integers(1, 3).flatmap(lambda d: st.lists(st.lists(
        st.integers(0, pf[0] ** pf[1] - 1), min_size=d, max_size=d), min_size=d, max_size=d)))))
def test_the_frobenius_norm_is_conjugate_into_GL_d_F_p(case):
    # Lang: N = G0 sigma(G0) ... sigma^(f-1)(G0) is conjugate into
    # GL_d(F_p), so its characteristic polynomial is over F_p and its
    # order is at most p^d - 1
    (p, f), codes = case
    base = gf.field(p, f)
    G0 = [[base.from_code(c) for c in row] for row in codes]
    assume(matrix.det(G0))
    N = galrep._frobenius_norm(G0, base)
    assert all(base.frob_p(c) == c for c in matrix.charpoly(N))
    assert _power_order(N, base.one, base.zero) <= p ** len(G0) - 1


def test_splitting_degree_is_the_power_loop_on_all_of_GL2_F9():
    F9 = gf.field(3, 2)
    els = [F9.from_code(c) for c in range(9)]
    count = 0
    for a, b, c, d in product(els, repeat=4):
        G0 = [[a, b], [c, d]]
        if not matrix.det(G0):
            continue
        count += 1
        N = matrix.mul(G0, [[F9.frob_p(x) for x in row] for row in G0])
        assert galrep._splitting_degree(G0, F9) == _power_order(N, F9.one, F9.zero)
    assert count == (81 - 1) * (81 - 9)


def least_root(F, x, n):
    """The nonzero y with y^n = x least in code order, or None: a scan."""
    return next((y for y in map(F.from_code, range(F.order)) if y and y ** n == x), None)


@pytest.mark.parametrize("p, f", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_rank1_degree_matches_the_root_search(p, f):
    base = gf.field(p, f)
    for code in range(1, base.order):
        c = base.from_code(code)
        S = solve_rank1(1, c, base)
        # the power scan that the order loop replaced: the least k with
        # N^k = 1, N = c^((q-1)/(p-1)) the norm of c
        norm = c ** ((base.order - 1) // (p - 1))
        assert S.s == next(k for k in range(1, p) if norm ** k == base.one)
        for s in range(1, p):
            if base.order ** s > 5000:
                break
            ext = gf.extension(base, s)
            gamma = least_root(ext, ext.coerce(c), p - 1)
            if gamma is not None:
                assert S.s == s and S.field is ext
                assert S.basis[0][0].leading()[1] == gamma
                break


def test_rank1_solves_beyond_a_searchable_field():
    # 2 generates F_11^x: its (p-1)-st root lies in F_(11^10), 2.6e10 elements
    F11 = gf.field(11)
    S = solve_rank1(1, 2, F11)
    assert S.s == 10 and S.field.order == 11 ** 10
    sols = S.solutions()
    assert len(sols) == S.cardinality == 11
    gamma = S.basis[0][0].leading()[1]
    assert gamma ** 10 == S.field.coerce(F11.el(2))
    assert len({x.leading()[1] for (x,) in sols[1:]}) == 10


def poly_gcd_degree(a, b, p):
    """Degree of gcd(a, b) over F_p, coefficient lists low degree first."""
    def trim(u):
        while u and u[-1] % p == 0:
            u = u[:-1]
        return u
    a, b = trim([int(c) for c in a]), trim([int(c) for c in b])
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, shift = a[-1] * inv, len(a) - len(b)
            a = trim([(x - c * b[i - shift]) % p if i >= shift else x
                      for i, x in enumerate(a)])
        a, b = b, a
    return len(a) - 1


def rabin_irreducible(coeffs, p):
    """Rabin's test for x^s + sum coeffs[i] x^i: f | x^(p^s) - x and
    gcd(x^(p^(s/r)) - x, f) = 1 for each prime r | s.  Frobenius acts on
    F_p[x]/f through the matrix whose row i is x^(p i) mod f."""
    s = len(coeffs)
    row = [1] + [0] * (s - 1)
    Q = []
    for j in range(p * (s - 1) + 1):
        if j % p == 0:
            Q.append(row)
        row = [(a - row[-1] * c) % p for a, c in zip([0] + row[:-1], coeffs)]
    x = [0, 1] + [0] * (s - 2)
    powers = [x]
    for _ in range(s):
        v = powers[-1]
        powers.append([sum(v[i] * Q[i][j] for i in range(s)) % p for j in range(s)])
    if powers[s] != x:
        return False
    primes = [r for r in range(2, s + 1) if s % r == 0 and all(r % k for k in range(2, r))]
    full = list(coeffs) + [1]
    return all(poly_gcd_degree([(a - b) % p for a, b in zip(powers[s // r], x)], full, p) == 0
               for r in primes)


def rabin_first_irreducible(p, s):
    for code in range(p ** s):
        coeffs = [code // p ** i % p for i in range(s)]
        if rabin_irreducible(coeffs, p):
            return tuple(coeffs)


@pytest.mark.parametrize("p, degrees", [(3, range(2, 31)), (5, range(2, 13)), (7, range(2, 9)),
                                        (3, [52])])
def test_ben_or_modulus_is_the_first_irreducible(p, degrees):
    for s in degrees:
        assert gf._find_modulus_prime(p, s) == rabin_first_irreducible(p, s), s
