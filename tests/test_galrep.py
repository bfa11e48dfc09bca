import hashlib
import json
import os
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import galrep, gf, matrix, padic, phimod
from padiclab.errors import ExtensionCapExceeded, Unsupported
from padiclab.galrep import (charpoly_mod_p, frobenius_action, solve_rank1,
                             solve_unit_root, unramified_to_phimod)
from padiclab.padic import binomials_mod_p
from padiclab.rings import FFRing
from padiclab.series import TruncSeries
from test_modp_fast_paths import reference_frobenius_minus

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
    sols = [x for x in map(F9.from_code, range(F9.order)) if x ** 3 == F9.el(2) * x]
    assert len(sols) == 3


def test_binomial_series_solution():
    # G = 1 + u: solutions x0 * (1+u)^(1/(p-1))
    S = solve_unit_root([[TruncSeries(R3, {0: F3.one, 1: F3.one}, 20)]])
    assert S.cardinality == 3
    sol = S.basis[0][0]
    h = sol * sol.coeffs[0].inverse()
    for k, ck in enumerate(binomials_mod_p(Fraction(1, 2), 17, 3)):
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


def test_direct_sum_functorial():
    # over F_5 the blocks split in F_(5^4) and F_(5^2), the sum in F_(5^4)
    F5 = gf.field(5)
    R5 = FFRing(F5)
    z = TruncSeries.zero(R5, 16)
    G1 = TruncSeries(R5, {0: F5.el(2), 1: F5.one}, 16)
    G2 = TruncSeries(R5, {0: F5.el(4), 2: F5.el(2)}, 16)
    S = solve_unit_root([[G1, z], [z, G2]])
    Sa, Sb = solve_unit_root([[G1]]), solve_unit_root([[G2]])
    assert (S.s, Sa.s, Sb.s) == (4, 4, 2)
    assert S.cardinality == Sa.cardinality * Sb.cardinality == 25
    big, ring = S.field, FFRing(S.field)

    def embedded(T):
        if T.field is not big:
            big.register_embedding(T.field)
        return {_series_key(TruncSeries(ring, {e: big.coerce(c) for e, c in x.coeffs.items()},
                                        x.prec)) for (x,) in T.solutions()}

    assert {_series_key(x) for x, _ in S.solutions()} == embedded(Sa)
    assert {_series_key(y) for _, y in S.solutions()} == embedded(Sb)


@pytest.mark.parametrize("p, f", [(3, 1), (3, 2), (5, 1), (5, 2)])
def test_det_functorial(p, f):
    # the action on the solutions of det(G), a rank-1 module, is det of the
    # action on those of G.  Rank d against rank 1, so a defect common to
    # every action cancels; a lost sign (-1)^d of det shows at q = 3 and 5,
    # where the norm of -1 is -1, and not at q = 9 or 25, where it is 1.
    base = FFRing(gf.field(p, f))
    rng = random.Random(p ** f)
    for d in (1, 2, 3):
        for _ in range(6):
            while True:     # a unit-root G splitting within solve_unit_root's cap
                G = rand_unit_root(rng, base, d, prec=8)
                try:
                    S = solve_unit_root(G)
                    break
                except ExtensionCapExceeded:
                    continue
            (a,), = frobenius_action(solve_unit_root([[phimod.mat_det(G)]])).matrix
            assert a == matrix.det(frobenius_action(S).matrix) % p


def _series_key(x):
    return x.prec, tuple(sorted((e, x.ring.field.code(c)) for e, c in x.coeffs.items()))


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
            if matrix.det(A) % 3:
                break
        act = frobenius_action(solve_unit_root(unramified_to_phimod(A, 3)))
        assert charpoly_mod_p(act.matrix, 3) == charpoly_mod_p(A, 3)
        assert gf.field(3).matrix_order(act.matrix, 3 ** d - 1) is not None


def test_unramified_module_over_a_large_field_finds_p_at_once():
    """p and f are given, as gf.field takes them: no factor of q is
    searched for, so F_(3^40) is built at once."""
    A = [[1, 2], [0, 1]]
    M = unramified_to_phimod(A, 3, 40, prec=3)
    F = gf.field(3, 40)
    assert (M.p, M.q, M.n) == (3, 3 ** 40, 1)
    assert all(a.ring == FFRing(F) and a.prec == 3 for row in M.G for a in row)
    assert [[a.coeffs.get(0, F.zero) for a in row] for row in M.G] == \
        [[F.el(c) for c in row] for row in A]
    for p, f in ((3, 1), (5, 2), (7, 3), (101, 1)):
        M = unramified_to_phimod([[1]], p, f, prec=2)
        assert (M.p, M.q, M.ring) == (p, p ** f, FFRing(gf.field(p, f)))
    assert unramified_to_phimod([[1]], 3).q == 3


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


@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("F", [F3, F9], ids=["F3", "F9"])
def test_rank1_frobenius_action_is_c_to_the_q_minus_1_over_p_minus_1(F, a):
    # gamma u^(a/(p-1)) has no term at exponent 0: the action is read at
    # the basis's least exponent, where x^(q) = gamma^(q-1) x = c^((q-1)/(p-1)) x
    q, p = F.order, F.p
    for code in range(1, q):
        c = F.from_code(code)
        act = frobenius_action(solve_rank1(a, c, F))
        assert act.matrix == [[F.code(c ** ((q - 1) // (p - 1)))]]


def test_frobenius_action_refuses_a_singular_action():
    S = solve_unit_root(matrix.scalar(2, TruncSeries.one(R3, 8), TruncSeries.zero(R3, 8)))
    S.basis = [S.basis[0], S.basis[0]]
    with pytest.raises(ArithmeticError, match="singular"):
        frobenius_action(S)


# --- the parent solver's residue enumeration, coefficient recursion and
# substitution check, kept as independent references ---

ENUM_CAP = 20_000


def _fp_coords(x, ext):
    return [a for c in x for a in c.coeffs]


def _residue_solutions_enum(G0, ext, p):
    """Brute force over ext^d; deterministic order by codes."""
    d = len(G0)
    cols = list(zip(*[[ext.coerce(a) for a in row] for row in G0]))
    sols = []
    for codes in product(range(ext.order), repeat=d):
        x = [ext.from_code(c) for c in codes]
        if all(xj ** p == matrix.dot(x, col) for xj, col in zip(x, cols)):
            sols.append(x)
    return sols


def _fp_span_basis(vectors, ext, p):
    """The residue solutions, sorted by codes, that are independent of
    the ones before them: the pivot columns of one row reduction."""
    xs = sorted(vectors, key=lambda x: tuple(ext.code(c) for c in x))
    _, pivots = gf.fp_rref(list(zip(*[_fp_coords(x, ext) for x in xs])), p)
    return [xs[k] for k in pivots]


def _extend_solution(G, x0, ext, prec):
    """Coefficient recursion from the residue solution x0, over ext."""
    ring = FFRing(ext)
    d = len(G)
    p = ext.p
    Gcoef = {}
    for i in range(d):
        for j in range(d):
            for e, c in G[i][j].coeffs.items():
                Gcoef.setdefault(e, [[ext.zero] * d for _ in range(d)])[i][j] = ext.coerce(c)
    G0inv = matrix.inverse(Gcoef[0], ext.one)
    xs = [list(x0)]
    for mdeg in range(1, prec):
        rhs = [ext.zero] * d
        if mdeg % p == 0:
            rhs = [ext.frob_p(c) for c in xs[mdeg // p]]
        acc = [ext.zero] * d
        for j, Gj in Gcoef.items():
            if 1 <= j <= mdeg:
                acc = [a + b for a, b in zip(acc, matrix.vec_mat(xs[mdeg - j], Gj))]
        vec = [r - a for r, a in zip(rhs, acc)]
        xs.append(matrix.vec_mat(vec, G0inv))
    return tuple(TruncSeries(ring, {m: xs[m][i] for m in range(prec)}, prec) for i in range(d))


def _verify_solution(G, sol, ext):
    """Substitution: x^(p) = x G over ext, at the solution's precision."""
    ring = FFRing(ext)
    Ge = [[TruncSeries(ring, {e: ext.coerce(c) for e, c in a.coeffs.items()}, a.prec)
           for a in row] for row in G]
    for xj, rhs in zip(sol, matrix.vec_mat(sol, Ge)):
        if not (xj.frobenius() - rhs).is_zero():
            raise ArithmeticError("recursion produced a non-solution")


def _trivialisation_by_products(G, G0, G0inv, prec):
    """Q_0, ..., Q_(M-1) over F_q as FFElt matrices, by the recursion
    with one vector-matrix product over F_q per row."""
    base = G0[0][0].field
    d, p = len(G), base.p
    Gj = {}
    for i, row in enumerate(G):
        for k, a in enumerate(row):
            for e, c in a.coeffs.items():
                if 0 < e < prec:
                    Gj.setdefault(e, [[base.zero] * d for _ in range(d)])[i][k] = c
    Q = [matrix.scalar(d, base.one, base.zero)]
    for m in range(1, prec):
        if m % p:
            rhs = [[base.zero] * d for _ in range(d)]
        else:
            rhs = matrix.mul(G0, [[base.frob_p(a) for a in row] for row in Q[m // p]])
        for j, Gm in Gj.items():
            if j <= m:
                QG = matrix.mul(Q[m - j], Gm)
                rhs = [[a - b for a, b in zip(r, t)] for r, t in zip(rhs, QG)]
        Q.append([galrep.ff_vec_mat(row, G0inv) for row in rhs])
    return Q


def _check_by_series(G, Q, prec):
    """G0 phi(Q) = Q G over F_q[[u]]/u^M, Q given by its digits, by
    series products."""
    ring, d = G[0][0].ring, len(G)
    base, f = ring.field, ring.field.fp_degree
    Qs = [[TruncSeries(ring, {m: base.from_fp(Qm[(i * d + j) * f:(i * d + j + 1) * f])
                              for m, Qm in enumerate(Q)}, prec)
           for j in range(d)] for i in range(d)]
    G0 = [[TruncSeries(ring, {0: c}, prec) for c in row] for row in galrep._residue_matrix(G)]
    lhs = matrix.mul(G0, [[a.frobenius() for a in row] for row in Qs])
    return all((a - b).truncate(prec).is_zero()
               for lrow, rrow in zip(lhs, matrix.mul(Qs, G)) for a, b in zip(lrow, rrow))


SETTINGS = settings(max_examples=40)
BASES = {3: FFRing(F3), 9: R9, 25: FFRing(gf.field(5, 2))}
COST_BUDGET = 40_000    # p^d solutions x (degree of F_(q^s))^2 x M: under a second


def _reference_cost(G0, fld, d, prec):
    try:
        s = galrep._splitting_degree(G0, fld)
    except ExtensionCapExceeded:
        return float("inf")
    return fld.p ** d * (fld.fp_degree * s) ** 2 * prec


@st.composite
def unit_root_matrices(draw):
    """A unit-root G over F_q[[u]]/u^M, d <= 3, q in {3, 9, 25}, M <= 20.

    G0 is random; where the reference recursion over F_(q^s) would cost
    more than COST_BUDGET, G0 becomes upper triangular with diagonal in
    F_p^x, then diagonal, whose splitting degrees are small."""
    q = draw(st.sampled_from(sorted(BASES)))
    d = draw(st.integers(1, 3))
    prec = draw(st.integers(1, 20))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    ring = BASES[q]
    fld = ring.field
    G = rand_unit_root(rng, ring, d, prec)
    G0 = [[a.coeffs.get(0, fld.zero) for a in row] for row in G]
    diag = [fld.el(rng.randrange(1, fld.p)) for _ in range(d)]
    for upper in (True, False):
        if _reference_cost(G0, fld, d, prec) <= COST_BUDGET:
            break
        G0 = [[diag[i] if i == j else (fld.random(rng) if upper and i < j else fld.zero)
               for j in range(d)] for i in range(d)]
    return [[TruncSeries(ring, {**a.coeffs, 0: c}, prec) for a, c in zip(row, row0)]
            for row, row0 in zip(G, G0)]


@SETTINGS
@given(unit_root_matrices())
def test_solutions_match_the_reference_recursion(G):
    S = solve_unit_root(G)
    ext, d, p = S.field, S.d, S.base_field.p
    prec = min(a.prec for row in G for a in row)
    assert S.prec == prec and S.cardinality == p ** d
    sols = S.solutions()
    assert len(sols) == p ** d
    for sol in sols:
        x0 = [x.coeffs.get(0, ext.zero) for x in sol]
        ref = _extend_solution(G, x0, ext, prec)
        assert [(x.coeffs, x.prec) for x in sol] == [(y.coeffs, y.prec) for y in ref]
        _verify_solution(G, sol, ext)
    if ext.order ** d <= ENUM_CAP:
        G0 = [[a.coeffs.get(0, S.base_field.zero) for a in row] for row in G]
        enum = _residue_solutions_enum(G0, ext, p)
        assert len(enum) == p ** d
        residues = [[x.coeffs.get(0, ext.zero) for x in b] for b in S.basis]
        assert residues == _fp_span_basis(enum, ext, p)


@SETTINGS
@given(unit_root_matrices(), st.integers(0, 2 ** 32))
def test_solutions_claim_only_what_every_completion_shares(G, seed):
    """Perturbation oracle: complete every entry of G, known mod u^M, by
    random coefficients to 3M and solve again.  The splitting degree and
    its field are the same, and every solution of the completion,
    truncated to M, is the solution at M in the same place."""
    rng = random.Random(seed)
    M = min(a.prec for row in G for a in row)
    fld = G[0][0].ring.field
    full = [[TruncSeries(a.ring, {**{e: fld.random(rng) for e in range(M, 3 * M)}, **a.coeffs},
                         3 * M) for a in row] for row in G]
    S, T = solve_unit_root(G), solve_unit_root(full)
    assert (T.s, T.field, T.prec) == (S.s, S.field, 3 * M)
    truncated = [[(x.truncate(M).coeffs, M) for x in sol] for sol in T.solutions()]
    assert truncated == [[(x.coeffs, x.prec) for x in sol] for sol in S.solutions()]


@SETTINGS
@given(st.sampled_from([3, 5, 7]), st.integers(1, 6), st.data())
def test_reversed_echelon_rows_are_the_greedy_basis(p, n, data):
    """The rows of the reduced echelon form of V, last first, are the
    greedy pick over V sorted lexicographically: the least vector outside
    the span of the rows below is the next row up."""
    k = data.draw(st.integers(0, min(n, 6 if p == 3 else 4)))
    gens = [data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
            for _ in range(k)]
    rows, pivots = gf.fp_rref(gens, p) if gens else ([], [])
    span = {tuple([0] * n)}
    for g in gens:
        span = {tuple((a + c * b) % p for a, b in zip(v, g)) for v in span for c in range(p)}
    assert _greedy(span, p, n) == list(reversed(rows[:len(pivots)]))


def _greedy(space, p, n):
    """The greedy basis of an F_p-space given by all its vectors: over the
    vectors sorted lexicographically, each one outside the span of those
    picked before it."""
    greedy, picked = [], {tuple([0] * n)}
    for v in sorted(space):
        if v not in picked:
            greedy.append(list(v))
            picked = {tuple((a + c * b) % p for a, b in zip(w, v))
                      for w in picked for c in range(p)}
    return greedy


@SETTINGS
@given(st.sampled_from([3, 5, 7]), st.data())
def test_kernel_on_reversed_columns_is_the_greedy_basis(p, data):
    """fp_kernel with the columns least significant first gives the greedy
    basis of the kernel, least first, as _residues_by_elimination reads
    it: each vector is 1 at its own free column, 0 at the others and
    supported before it, the reduced echelon basis in lexicographic order."""
    n = data.draw(st.integers(1, 6 if p == 3 else 4))
    rows = data.draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
                              min_size=1, max_size=n))
    kernel = {v for v in product(range(p), repeat=n)
              if not any(sum(a * b for a, b in zip(row, v)) % p for row in rows)}
    basis = gf.fp_kernel([row[::-1] for row in rows], p)
    assert [v[::-1] for v in basis] == _greedy(kernel, p, n)


# --- residues by the trace against the elimination that found them
# before the trace, kept as the reference; the action's one elimination
# against its former solve per basis vector ---

def _residues_by_elimination(G0e, ext):
    """The kernel of sigma - (. G0) (the column loops of
    test_modp_fast_paths.reference_frobenius_minus) by fp_kernel, its
    columns least significant first: the residue basis least in code
    order."""
    d, m = len(G0e), ext.fp_degree
    blocks = range((d - 1) * m, -1, -m)
    rows = [[c for j in blocks for c in row[j:j + m]]
            for row in reference_frobenius_minus(ext, G0e)]
    return [[ext.from_fp(v[j:j + m]) for j in reversed(range(0, d * m, m))]
            for v in gf.fp_kernel(rows, ext.p)]


def _invertible(rng, F, d):
    while True:
        A = [[F.random(rng) for _ in range(d)] for _ in range(d)]
        if matrix.det(A):
            return A


def _descent_case(rng, p, f, d):
    """G0 = P D sigma(P)^(-1) over F_q with P random in GL_d(F_q) and D in
    GL_d(F_p) block diagonal, blocks of size <= 2, so that N = P D^f P^(-1):
    redrawn until F_(q^s) fits gf.MAX_ORDER and d n <= 120.  Returns F_q,
    G0 and F_(q^s)."""
    base, prime = gf.field(p, f), gf.field(p)
    while True:
        D = [[base.zero] * d for _ in range(d)]
        i = 0
        while i < d:
            k = min(rng.choice((1, 2)), d - i)
            for r, row in enumerate(_invertible(rng, prime, k)):
                D[i + r][i:i + k] = [base.coerce(a) for a in row]
            i += k
        P = _invertible(rng, base, d)
        G0 = matrix.mul(matrix.mul(P, D), galrep.ff_mat_inv([[base.frob_p(a) for a in row]
                                                            for row in P]))
        try:
            s = galrep._splitting_degree(G0, base)
        except ExtensionCapExceeded:
            continue
        if d * f * s <= 120:
            return base, G0, gf.extension(base, s)


GRID = [(p, f, d) for p in (3, 5, 7, 11) for f in (1, 2, 3) for d in (1, 2, 3, 4)]


def test_residue_trace_matches_the_elimination():
    """Two seeded draws per (p, f, d), p in {3, 5, 7, 11}, f <= 3, d <= 4,
    d n from 1 to 120: the trace gives the elimination's basis."""
    rng = random.Random(2031)
    for (p, f, d), _ in product(GRID, range(2)):
        base, G0, ext = _descent_case(rng, p, f, d)
        G0e = [[ext.coerce(a) for a in row] for row in G0]
        G0inv = galrep.ff_mat_inv(G0)
        ref = _residues_by_elimination(G0e, ext)
        assert len(ref) == d
        assert galrep._residue_basis(G0inv, ext) == ref, (p, f, d)


def _trace_by_definition(G0, ext):
    """y -> the rows T(y e_j) = sum_(k<n) sigma^k(y) e_j C_k^(-1), C_0 = I
    and C_(k+1) = G0 sigma(C_k), by matrix products and inverses over ext,
    as digit lists x_0's top coordinate first; C_n = I is checked."""
    d, n = len(G0), ext.fp_degree
    G0e = [[ext.coerce(a) for a in row] for row in G0]
    C = one = matrix.scalar(d, ext.one, ext.zero)
    inverses = []
    for _ in range(n):
        inverses.append(matrix.inverse(C, ext.one))
        C = matrix.mul(G0e, [[ext.frob_p(a) for a in row] for row in C])
    assert C == one

    def trace(y):
        total = [[ext.zero] * d for _ in range(d)]
        for k, inverse in enumerate(inverses):
            yk = ext.frob_p(y, k)
            total = [[t + yk * c for t, c in zip(trow, crow)] for trow, crow in zip(total, inverse)]
        return [[c for a in row for c in reversed(a.coeffs)] for row in total]
    return trace


def test_trace_rows_match_the_definition():
    """Over the grid, for y = 1 + x + ... + x^(n-1), a random y and x^(n-1),
    and r < 3: each packed row of block r is T(sigma^r(y) e_j) as defined,
    which solves sigma(x) = x G0."""
    rng = random.Random(2034)
    for p, f, d in GRID:
        base, G0, ext = _descent_case(rng, p, f, d)
        n = ext.fp_degree
        trace = galrep._trace_map(galrep.ff_mat_inv(G0), ext)
        reference = _trace_by_definition(G0, ext)
        G0e = [[ext.coerce(a) for a in row] for row in G0]
        for y in (ext.from_fp([1] * n), ext.random(rng), ext.gen ** (n - 1)):
            blocks = list(trace(y))
            assert len(blocks) == n
            for r, rows in zip(range(3), blocks):
                assert rows == reference(ext.frob_p(y, r)), (p, f, d, r)
            for row in blocks[0]:
                x = [ext.from_fp(row[i:i + n][::-1]) for i in range(0, d * n, n)]
                assert [ext.frob_p(a) for a in x] == matrix.vec_mat(x, G0e)


def test_small_residue_traces_are_the_greedy_basis():
    """Where ext^d has at most 3^8 vectors, V enumerated and picked greedily
    in code order (_greedy on digit tuples, x_0's top coordinate first) is
    the trace's basis."""
    rng = random.Random(2032)
    checked = 0
    for p, f, d in GRID:
        base, G0, ext = _descent_case(rng, p, f, d)
        n = ext.fp_degree
        if p ** (d * n) > 3 ** 8:
            continue
        G0e = [[ext.coerce(a) for a in row] for row in G0]

        def vector(v):
            return [ext.from_fp(v[i:i + n][::-1]) for i in range(0, d * n, n)]
        space = {v for v in product(range(p), repeat=d * n)
                 if [ext.frob_p(a) for a in vector(v)] == matrix.vec_mat(vector(v), G0e)}
        trace = galrep._residue_basis(galrep.ff_mat_inv(G0), ext)
        assert [[c for a in x for c in reversed(a.coeffs)] for x in trace] == \
            _greedy(space, p, d * n)
        checked += 1
    assert checked >= 8


def test_a_wrong_splitting_degree_is_refused_at_small_and_large_sizes(monkeypatch):
    """With s + 1 in place of the order s >= 2 of N, N^(s+1) != I: the
    residues of F_(q^(s+1)) no longer span a d-dimensional V, and
    solve_unit_root raises ArithmeticError, at d n below 18 and from 18
    on (n = [F_(q^(s+1)) : F_p])."""
    rng = random.Random(2035)
    sides = set()
    while sides != {False, True}:
        p, f, d = rng.choice([(3, 1, 2), (3, 2, 2), (3, 1, 3), (3, 2, 3)])
        base, G0, ext = _descent_case(rng, p, f, d)
        s = ext.fp_degree // f
        if s < 2 or d * f * (s + 1) > 120:
            continue
        sides.add(d * f * (s + 1) >= 18)
        ring = FFRing(base)
        G = [[TruncSeries(ring, {0: a}, 4) for a in row] for row in G0]
        with monkeypatch.context() as m:
            m.setattr(galrep, "_splitting_degree", lambda G0, base: s + 1)
            with pytest.raises(ArithmeticError):
                solve_unit_root(G)


def _action_by_solves(S):
    """frobenius_action as it was: one fp_solve of the basis matrix per
    basis vector's image under x -> x^(q), the matrix or the refusal."""
    ext, f, p = S.field, S.base_field.fp_degree, S.base_field.p
    low = min(x.valuation() for b in S.basis for x in b if x)
    res = [[dict(x.terms()).get(low, ext.zero) for x in b] for b in S.basis]
    basis_mat = list(zip(*[ext.digits([x]) for x in res]))
    A = []
    for x in res:
        coords = gf.fp_solve(basis_mat, ext.digits([[ext.frob_p(c, f) for c in x]]), p)
        if coords is None:
            return "q-Frobenius does not preserve the solution space"
        A.append(coords)
    if matrix.det(A) % p == 0:
        return "the q-Frobenius action is singular mod p"
    return [list(col) for col in zip(*A)]


def _action(S):
    try:
        return frobenius_action(S).matrix
    except ArithmeticError as e:
        return str(e)


def test_action_matches_one_solve_per_basis_vector():
    """Unit-root draws over F_3 and F_9 with d <= 3, rank-1 solutions over
    F_9, and the unit-root bases with their first vector scaled by x (not
    q-Frobenius stable) or repeated (singular): the same coordinates, or
    the same refusal."""
    rng = random.Random(2033)
    sets = [solve_unit_root(rand_unit_root(rng, base, d, prec=4))
            for base, d in product((R3, R9), (1, 2, 3)) for _ in range(3)]
    sets += [solve_rank1(1, F9.from_code(c), F9) for c in range(1, 9)]
    for S in sets:
        assert _action(S) == _action_by_solves(S)
    refusals = set()
    for S in sets[:18]:
        first, rest = S.basis[0], S.basis[1:]
        for changed in ([tuple(x.scale(S.field.gen) for x in first)], [first, first]):
            S.basis = changed + rest
            out = _action(S)
            assert out == _action_by_solves(S)
            if isinstance(out, str):
                refusals.add(out)
    assert {"q-Frobenius does not preserve the solution space",
            "the q-Frobenius action is singular mod p"} <= refusals


# --- the check is not vacuous: one changed coefficient fails it ---

def _check_inputs():
    rng = random.Random(41)
    while True:
        G = rand_unit_root(rng, R9, 2, prec=12)
        G0 = galrep._residue_matrix(G)
        if all(row != [F9.one if i == j else F9.zero for j in range(2)]
               for i, row in enumerate(G0)):
            break
    ext = gf.extension(F9, galrep._splitting_degree(G0, F9))
    G0e = [[ext.coerce(a) for a in row] for row in G0]
    G0inv = galrep.ff_mat_inv(G0)
    residues = galrep._residue_basis(G0inv, ext)
    Q = galrep._trivialisation(G, G0, G0inv, 12)
    galrep._check_solutions(G, G0e, Q, residues, 12)
    assert _check_by_series(G, Q, 12)
    return G, G0e, Q, residues


def test_check_rejects_a_changed_coefficient_of_Q():
    """Every m >= 1, every entry of Q_m, every nonzero shift in F_9: each
    F_p digit alone and both together."""
    G, G0e, Q, residues = _check_inputs()
    for m, e, code in product(range(1, len(Q)), range(0, len(Q[0]), 2), range(1, 9)):
        bad = [list(Qm) for Qm in Q]
        bad[m][e:e + 2] = [(a + b) % 3 for a, b in zip(bad[m][e:e + 2], F9.from_code(code).coeffs)]
        with pytest.raises(ArithmeticError):
            galrep._check_solutions(G, G0e, bad, residues, 12)
        if (m, e, code) == (len(Q) - 1, len(Q[0]) - 2, 8):
            assert not _check_by_series(G, bad, 12)


def test_check_rejects_a_changed_coefficient_of_G():
    """Q solves for G, not for G with one coefficient G_j changed: every
    j < M, every entry, every nonzero shift in F_9."""
    G, G0e, Q, residues = _check_inputs()
    for j, i, k, code in product(range(12), range(2), range(2), range(1, 9)):
        bad = [list(row) for row in G]
        a = bad[i][k]
        bad[i][k] = TruncSeries(a.ring, {**a.coeffs,
                                         j: a.coeffs.get(j, F9.zero) + F9.from_code(code)},
                                a.prec)
        with pytest.raises(ArithmeticError):
            galrep._check_solutions(bad, G0e, Q, residues, 12)


def test_check_rejects_a_changed_residue_entry():
    G, G0e, Q, residues = _check_inputs()
    ext = G0e[0][0].field
    for k, i in product(range(len(residues)), range(2)):
        bad = [list(x) for x in residues]
        bad[k][i] = bad[k][i] + ext.one
        with pytest.raises(ArithmeticError):
            galrep._check_solutions(G, G0e, Q, bad, 12)


def test_basis_is_the_greedy_basis_of_the_enumeration():
    """Where the parent solver enumerated (d = 2, q^(s d) <= 20 000), and
    at d = 3, the basis is the greedy pick over the code-sorted residue
    solutions, so the action is unchanged.  Draws with q^(s d) > 3^8 are
    skipped to keep the enumeration quick."""
    rng = random.Random(43)
    seen = {2: 0, 3: 0}
    while min(seen.values()) < 8:
        d = rng.choice(sorted(seen))
        base = rng.choice([R3, R9])
        G = rand_unit_root(rng, base, d, prec=4)
        G0 = galrep._residue_matrix(G)
        s = galrep._splitting_degree(G0, base.field)
        if base.field.order ** (s * d) > 3 ** 8 or seen[d] == 8:
            continue
        seen[d] += 1
        ext = gf.extension(base.field, s)
        S = solve_unit_root(G)
        residues = [[x.coeffs.get(0, ext.zero) for x in b] for b in S.basis]
        assert residues == _fp_span_basis(_residue_solutions_enum(G0, ext, 3), ext, 3)


# --- big-field products, one per entry, kept as references for the
# packed F_p-linear maps that replaced them in the solver ---

def _operator_by_products(G0e, ext):
    """sigma - (. G0) column by column: the image of x^k in slot j by one
    vector-matrix product over ext each."""
    d, m = len(G0e), ext.fp_degree
    cols = []
    for j in range(d):
        for k in range(m):
            e = ext.from_fp([int(i == k) for i in range(m)])
            x = [e if i == j else ext.zero for i in range(d)]
            img = [ext.frob_p(a) - b for a, b in zip(x, galrep.ff_vec_mat(x, G0e))]
            cols.append(_fp_coords(img, ext))
    return [list(r) for r in zip(*cols)]


def _times_Q_by_products(residues, Q, ext):
    """x0 Q_m = ff_vec_mat(x0, lift(Q_m)) for every m, as series."""
    ring, d, prec = FFRing(ext), len(Q[0]), len(Q)
    basis = []
    for x0 in residues:
        xs = [galrep.ff_vec_mat(x0, [[ext.coerce(a) for a in row] for row in Qm]) for Qm in Q]
        basis.append(tuple(TruncSeries(ring, {m: x[i] for m, x in enumerate(xs)}, prec)
                           for i in range(d)))
    return basis


def _solutions_by_scale_and_add(S):
    """Every F_p-combination of the basis by scalings and additions of
    series, sorted by the residue key."""
    ring = FFRing(S.field)
    combos = []
    for coeffs in product(range(S.base_field.p), repeat=len(S.basis)):
        vec = [TruncSeries.zero(ring, S.prec) for _ in range(S.d)]
        for c, b in zip(coeffs, S.basis):
            if c:
                vec = [v + bi.scale(c) for v, bi in zip(vec, b)]
        combos.append(tuple(vec))
    combos.sort(key=lambda v: tuple(S.field.code(x.coeffs.get(0, S.field.zero)) for x in v))
    return combos


PACKED_SETTINGS = settings(max_examples=15)
PACKED_P = pytest.mark.parametrize("p", [3, 5, 7, 17])


@st.composite
def packed_fields(draw, p):
    """F_q and F_(q^s) with f <= 2, s <= 3 (s <= 2 at p = 17), d <= 3,
    and a seeded rng.  At p = 17 every digit is two bytes wide, as
    (p - 1)^2 = 256, and at d f >= 2 random sums carry past one byte; the
    smaller p have one-byte digits."""
    f = draw(st.integers(1, 2))
    s = draw(st.integers(1, 2 if p == 17 else 3))
    base = gf.field(p, f)
    return (base, gf.extension(base, s), draw(st.integers(1, 3)),
            random.Random(draw(st.integers(0, 2 ** 32))))


def _series_data(vecs):
    return [[(x.coeffs, x.prec) for x in v] for v in vecs]


@PACKED_P
@PACKED_SETTINGS
@given(data=st.data())
def test_packed_residue_operator_matches_the_products(p, data):
    """The rows of x -> x^p - a x (gf.GF._frobenius_rows at k = 1) against
    one product per column, a zero, one or random."""
    _, ext, _, rng = data.draw(packed_fields(p))
    a = rng.choice([ext.zero, ext.one, ext.random(rng)])
    assert ext._frobenius_rows(1, a) == _operator_by_products([[a]], ext)


@PACKED_P
@PACKED_SETTINGS
@given(data=st.data())
def test_packed_x0_Q_matches_the_products(p, data):
    base, ext, d, rng = data.draw(packed_fields(p))
    prec = data.draw(st.integers(1, 6))
    Q = [[[base.random(rng) for _ in range(d)] for _ in range(d)] for _ in range(prec)]
    residues = [[ext.random(rng) for _ in range(d)] for _ in range(rng.randint(1, d))]
    got = galrep._times_Q(residues, [base.digits(Qm) for Qm in Q], base)
    assert _series_data(got) == _series_data(_times_Q_by_products(residues, Q, ext))


@PACKED_P
@PACKED_SETTINGS
@given(data=st.data())
def test_packed_solutions_match_scale_and_add(p, data):
    base, ext, d, rng = data.draw(packed_fields(p))
    prec = data.draw(st.integers(1, 5))
    ring = FFRing(ext)
    k = rng.randint(1, d)
    while p ** k > 343:
        k -= 1
    basis = [tuple(TruncSeries(ring, {m: ext.random(rng) for m in range(prec)
                                      if rng.random() < 0.7}, prec) for _ in range(d))
             for _ in range(k)]
    S = galrep.SolutionSet(base, ext, 1, d, prec, basis)
    assert _series_data(S.solutions()) == _series_data(_solutions_by_scale_and_add(S))


@PACKED_P
@PACKED_SETTINGS
@given(data=st.data())
def test_packed_trivialisation_matches_the_products(p, data):
    """M up to 20, so p | m occurs at every p here, and G_j may vanish."""
    base, _, d, rng = data.draw(packed_fields(p))
    prec = data.draw(st.integers(1, 20))
    ring = FFRing(base)
    while True:
        G = [[TruncSeries(ring, {e: base.random(rng) for e in range(prec)
                                 if e == 0 or rng.random() < 0.5}, prec)
              for _ in range(d)] for _ in range(d)]
        G0 = galrep._residue_matrix(G)
        try:
            G0inv = galrep.ff_mat_inv(G0)
            break
        except ZeroDivisionError:
            continue
    Q = galrep._trivialisation(G, G0, G0inv, prec)
    assert Q == [base.digits(Qm) for Qm in _trivialisation_by_products(G, G0, G0inv, prec)]
    assert _check_by_series(G, Q, prec)


# --- outputs pinned before the solver moved onto packed digits ---

PINNED = os.path.join(os.path.dirname(__file__), "data", "modp_pinned.json")


def _codes(x):
    return [x.prec, sorted([e, x.ring.field.code(c)] for e, c in x.coeffs.items())]


def test_pinned_outputs():
    """s, the basis, the ordered solutions (coefficients and precision,
    as a sha256 of their codes) and the action, for d in {1, 2, 3},
    q in {3, 9} and s up to 26: at q = 9, d = 3, F_(3^26) once and
    F_(3^52) twice, the largest fields."""
    with open(PINNED) as fh:
        cases = json.load(fh)
    assert {(len(c["G"]), c["q"]) for c in cases} == set(product((1, 2, 3), (3, 9)))
    assert max(c["s"] for c in cases) == 26
    assert sorted(c["s"] for c in cases if (c["q"], len(c["G"])) == (9, 3))[-3:] == [13, 26, 26]
    for case in cases:
        ring = FFRing(gf.field(3, padic.degree(case["q"], 3)))
        fld = ring.field
        G = [[TruncSeries(ring, {e: fld.from_code(c) for e, c in enumerate(entry)}, case["M"])
              for entry in row] for row in case["G"]]
        S = solve_unit_root(G)
        assert S.s == case["s"]
        assert [[_codes(x) for x in b] for b in S.basis] == case["basis"]
        sols = json.dumps([[_codes(x) for x in v] for v in S.solutions()])
        assert hashlib.sha256(sols.encode()).hexdigest() == case["solutions_sha256"]
        assert frobenius_action(S).matrix == case["action"]
