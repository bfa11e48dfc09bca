"""padiclab.matrix against a permutation-expansion reference.

Berkowitz's characteristic polynomial, det and the Cayley-Hamilton
adjugate must equal the Leibniz expansions written here, at the shared
precision, over truncated series rings with zero divisors (Z/9) and
over fields (F_3, F_9), and over ints mod p; beyond d = 4, where the
reference is slow, A adj(A) = det(A) I is checked instead.
"""

from collections import namedtuple
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import gf, matrix
from padiclab.galrep import charpoly_mod_p
from padiclab.rings import FFRing, Zmod
from padiclab.series import TruncSeries

F9 = gf.field(3, 2)

# the ring's constants, at a precision that never binds
Ring = namedtuple("Ring", "zero one")


def _series(ring, code):
    # Laurent entries: exponents from -2, precisions 1..10
    entry = st.builds(lambda t, prec: TruncSeries(ring, {e: code(c) for e, c in t.items()}, prec),
                      st.dictionaries(st.integers(-2, 6), st.integers(0, 8), max_size=4),
                      st.integers(1, 10))
    big = 10 ** 6
    return entry, Ring(TruncSeries.zero(ring, big), TruncSeries.one(ring, big))


RINGS = {
    "trunc-F3": _series(FFRing(gf.field(3)), gf.field(3).el),
    "trunc-Z/9": _series(Zmod(3, 2), lambda c: c),
    "trunc-F9": _series(FFRing(F9), F9.from_code),
    "int-mod-5": (st.integers(-30, 30), Ring(0, 1)),
}

SETTINGS = settings(max_examples=60)


def matrices(entry, dims):
    return st.integers(*dims).flatmap(
        lambda d: st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d))


def sign(perm):
    return (-1) ** sum(perm[i] > perm[j] for i in range(len(perm))
                       for j in range(i + 1, len(perm)))


def leibniz(A, zero):
    acc = zero
    for perm in permutations(range(len(A))):
        term = A[0][perm[0]]
        for i in range(1, len(A)):
            term = term * A[i][perm[i]]
        acc = acc + term if sign(perm) > 0 else acc - term
    return acc


def ref_charpoly(A, R):
    """det(x I - A) by Leibniz over polynomials (coefficient lists, low first)."""
    def pmul(f, g):
        out = [R.zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
        return out

    d = len(A)
    acc = [R.zero] * (d + 1)
    for perm in permutations(range(d)):
        term = [R.one]
        for i in range(d):
            term = pmul(term, [-A[i][perm[i]]] + ([R.one] if perm[i] == i else []))
        s = sign(perm)
        acc = [a + t * s for a, t in zip(acc, term + [R.zero] * (d + 1 - len(term)))]
    return acc


def ref_adjugate(A, R):
    d = len(A)
    if d == 1:
        return [[R.one]]
    return [[leibniz([[A[r][c] for c in range(d) if c != j]
                      for r in range(d) if r != i], R.zero) * (-1) ** (i + j)
             for i in range(d)] for j in range(d)]


def same(name, a, b):
    if name.startswith("int"):
        return (a - b) % 5 == 0
    return a == b


@pytest.mark.parametrize("name", sorted(RINGS))
@SETTINGS
@given(data=st.data())
def test_berkowitz_matches_permutation_expansion(name, data):
    entry, R = RINGS[name]
    A = data.draw(matrices(entry, (1, 4)))
    d = len(A)
    cp, ref = matrix.charpoly(A), ref_charpoly(A, R)
    assert len(cp) == d and same(name, ref[d], R.one)
    assert all(same(name, a, b) for a, b in zip(cp, ref))
    assert same(name, matrix.det(A), leibniz(A, R.zero))
    det, adj = matrix.det_adjugate(A, R.one)
    assert same(name, det, leibniz(A, R.zero))
    assert all(same(name, a, b) for r1, r2 in zip(adj, ref_adjugate(A, R)) for a, b in zip(r1, r2))


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(SETTINGS, max_examples=10)
@given(data=st.data())
def test_adjugate_identity_beyond_the_reference(name, data):
    entry, R = RINGS[name]
    A = data.draw(matrices(entry, (5, 6)))
    det, adj = matrix.det_adjugate(A, R.one)
    assert same(name, det, matrix.det(A))
    prod = matrix.mul(A, adj)
    assert all(same(name, prod[i][j], det if i == j else R.zero)
               for i in range(len(A)) for j in range(len(A)))


def test_inverse_over_a_field():
    A = [[F9.from_code(c) for c in row] for row in ([4, 1], [1, 1])]
    assert matrix.mul(A, matrix.inverse(A, F9.one)) == matrix.scalar(2, F9.one, F9.zero)
    with pytest.raises(ZeroDivisionError):
        matrix.inverse([[F9.one, F9.one], [F9.one, F9.one]], F9.one)


def _gauss_jordan_inverse(A, one, zero):
    """The Gauss-Jordan inverse that matrix.inverse replaced: the
    reference for it.  ZeroDivisionError when A is singular."""
    d = len(A)
    work = [list(row) + e for row, e in zip(A, matrix.scalar(d, one, zero))]
    for c in range(d):
        piv = next((r for r in range(c, d) if work[r][c]), None)
        if piv is None:
            raise ZeroDivisionError("matrix not invertible")
        work[c], work[piv] = work[piv], work[c]
        inv = work[c][c].inverse()
        work[c] = [x * inv for x in work[c]]
        for r in range(d):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[d:] for row in work]


@SETTINGS
@given(st.sampled_from([gf.field(3), F9]), st.integers(1, 4), st.data())
def test_inverse_matches_gauss_jordan(F, d, data):
    """adj(A) det(A)^-1 against the row reduction, singular A included:
    both raise ZeroDivisionError there."""
    codes = st.integers(0, F.order - 1) | st.just(0)      # favour rank drops
    A = [[F.from_code(data.draw(codes)) for _ in range(d)] for _ in range(d)]
    try:
        want = _gauss_jordan_inverse(A, F.one, F.zero)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            matrix.inverse(A, F.one)
    else:
        assert matrix.inverse(A, F.one) == want


def test_order_in_gl_d_fp():
    # companion matrix of x^3 - x - 2, primitive over F_3: a Singer cycle,
    # whose order p^d - 1 = 26 is the largest in GL_3(F_3)
    C = [[0, 0, 2], [1, 0, 1], [0, 1, 0]]
    assert charpoly_mod_p(C, 3) == (1, 2, 0, 1)
    assert gf.field(3).matrix_order(C, 26) == 26
    assert gf.field(3).matrix_order(C, 25) is None


def _order_mod(A, p, bound):
    """The int power loop, reducing after every product: the reference
    for gf.GF.matrix_order on int matrices over F_p."""
    ident = matrix.scalar(len(A), 1, 0)
    acc = [[a % p for a in row] for row in A]
    for k in range(1, bound + 1):
        if acc == ident:
            return k
        acc = [[a % p for a in row] for row in matrix.mul(acc, A)]
    return None


@SETTINGS
@given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.data())
def test_order_matches_the_int_power_loop(p, d, data):
    """Every bound up to p^d - 1 and one below the order, so that both
    the found and the not-found answers are compared; singular A too."""
    A = data.draw(st.lists(st.lists(st.integers(-p, 2 * p), min_size=d, max_size=d),
                           min_size=d, max_size=d))
    bound = data.draw(st.integers(1, p ** d - 1))
    F = gf.field(p)
    assert F.matrix_order(A, bound) == _order_mod(A, p, bound)
    k = _order_mod(A, p, p ** d - 1)
    if k is not None:
        assert F.matrix_order(A, k) == k
        assert F.matrix_order(A, k - 1) is None
