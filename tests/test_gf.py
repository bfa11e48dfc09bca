import functools
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import gf


def test_prime_field():
    F3 = gf.field(3)
    assert F3.order == 3
    assert list(F3.elements())[2] == F3.el(2)
    assert F3.el(2) * F3.el(2) == F3.one


def test_f9():
    F9 = gf.field(3, 2)
    assert len(list(F9.elements())) == 9
    a = F9.gen
    assert a ** 8 == F9.one
    for x in F9.elements():
        assert F9.frob_p(x) == x ** 3
        if x:
            assert x * x.inverse() == F9.one
        assert F9.pth_root(x) ** 3 == x


def test_field_axioms_random():
    rng = random.Random(10)
    for fld in (gf.field(3, 2), gf.field(5, 2), gf.field(3, 3)):
        for _ in range(100):
            a, b, c = (fld.random(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)


def test_extension_and_embedding():
    rng = random.Random(11)
    F9 = gf.field(3, 2)
    big = gf.extension(F9, 4)
    assert big.order == 3 ** 8
    for _ in range(100):
        x, y = F9.random(rng), F9.random(rng)
        assert big.coerce(x * y) == big.coerce(x) * big.coerce(y)
        assert big.coerce(x + y) == big.coerce(x) + big.coerce(y)
    assert big.coerce(F9.gen) ** 8 == big.one


def test_codes_roundtrip():
    fld = gf.field(5, 2)
    for c in range(fld.order):
        assert fld.code(fld.from_code(c)) == c


def test_square_roots_of_2_in_F3_and_F9():
    # at p = 3 the (p-1)-st roots are the square roots: z^3 = 2 z
    F3 = gf.field(3)
    assert F3.frobenius_solutions(F3.el(2)) == [F3.zero]    # 2 is not a square mod 3
    F9 = gf.field(3, 2)
    zero, r, s = F9.frobenius_solutions(F9.el(2))
    assert not zero and r * r == s * s == F9.el(2) and s == -r


def test_fp_linear_algebra():
    ker = gf.fp_kernel([[1, 2], [2, 1]], 3)
    assert len(ker) == 1
    M = [[1, 1], [0, 1]]
    x = gf.fp_solve(M, [0, 2], 3)
    assert x is not None and [(x[0] + x[1]) % 3, x[1] % 3] == [0, 2]
    assert gf.fp_inverse(M, 3) == [[1, 2], [0, 1]]
    with pytest.raises(ZeroDivisionError):
        gf.fp_inverse([[1, 1], [2, 2]], 3)


def test_degree_of_prime_power():
    assert [gf.degree(q, 3) for q in (3, 9, 27)] == [1, 2, 3]
    for q, p in [(1, 3), (0, 3), (6, 3), (2, 3), (-3, 3), (4, 1)]:
        with pytest.raises(ValueError):
            gf.degree(q, p)


def _degree_loop(q, p):
    """The division loop gf.degree ran before it called padic.vp: the
    reference for it."""
    if p < 2 or q < p:
        raise ValueError("q must be a power of p")
    f = 0
    while q % p == 0:
        q //= p
        f += 1
    if q != 1:
        raise ValueError("q must be a power of p")
    return f


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(-5, 3 ** 12), st.sampled_from([1, 2, 3, 5, 7, 31]))
def test_degree_matches_the_division_loop(q, p):
    assert _outcome(gf.degree, q, p) == _outcome(_degree_loop, q, p)
    assert _outcome(gf.degree, p ** (q % 9), p) == _outcome(_degree_loop, p ** (q % 9), p)


def _from_code_loop(F, code):
    """GF.from_code's digit loop before the shared _base_p: the reference."""
    coeffs = []
    for _ in range(F.fp_degree):
        coeffs.append(code % F.p)
        code //= F.p
    return tuple(coeffs)


@pytest.mark.parametrize("p, f", [(3, 1), (3, 4), (5, 3), (17, 2)])
def test_codes_match_the_digit_loop(p, f):
    F = gf.field(p, f)
    codes = range(F.order) if F.order < 1000 else range(0, F.order, 7)
    assert all(F.from_code(c).coeffs == _from_code_loop(F, c) for c in codes)


# --- differential tests against brute force and plain powering ---

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def vectors(p, n):
    return [list(v) for v in product(range(p), repeat=n)]


def apply(A, x, p):
    return [sum(a * b for a, b in zip(row, x)) % p for row in A]


@st.composite
def fp_matrix(draw, square=False):
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, 5))
    r = n if square else draw(st.integers(1, 5))
    entries = st.integers(0, p - 1) | st.sampled_from([0, 0, p - 1])   # favour rank drops
    A = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return p, A


@SETTINGS
@given(fp_matrix())
def test_fp_kernel_is_the_enumerated_kernel(case):
    p, A = case
    n = len(A[0])
    kernel = [x for x in vectors(p, n) if not any(apply(A, x, p))]
    basis = gf.fp_kernel(A, p)
    span = {tuple(sum(c * b[i] for c, b in zip(cs, basis)) % p for i in range(n))
            for cs in product(range(p), repeat=len(basis))}
    assert p ** len(basis) == len(kernel) == len(span)
    assert span == {tuple(x) for x in kernel}


@SETTINGS
@given(fp_matrix(), st.data())
def test_fp_solve_finds_a_solution_iff_one_exists(case, data):
    p, A = case
    b = data.draw(st.lists(st.integers(0, p - 1), min_size=len(A), max_size=len(A)))
    if data.draw(st.booleans()):     # a consistent right-hand side half the time
        b = apply(A, data.draw(st.sampled_from(vectors(p, len(A[0])))), p)
    solutions = [x for x in vectors(p, len(A[0])) if apply(A, x, p) == b]
    x = gf.fp_solve(A, b, p)
    if solutions:
        assert x in solutions
    else:
        assert x is None


@SETTINGS
@given(fp_matrix(square=True))
def test_fp_inverse_against_enumeration(case):
    p, A = case
    n = len(A)
    columns = []
    for j in range(n):
        e = [int(i == j) for i in range(n)]
        columns.append([x for x in vectors(p, n) if apply(A, x, p) == e])
    if all(len(c) == 1 for c in columns):
        inv = gf.fp_inverse(A, p)
        assert inv == [list(row) for row in zip(*(c[0] for c in columns))]
    else:
        with pytest.raises(ZeroDivisionError):
            gf.fp_inverse(A, p)


def _fp_rref_lists(rows, p):
    """Row reduction on lists of ints, one list comprehension per row
    operation: the reference for the packed fp_rref."""
    m = [[a % p for a in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        top = m[r] = [a * inv % p for a in m[r]]
        for i in range(nrows):
            k = m[i][c]
            if k and i != r:
                m[i] = [(a - k * b) % p for a, b in zip(m[i], top)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


@SETTINGS
@given(st.sampled_from([3, 5, 7, 13, 17, 31, 131, 257, 65521, 65537]), st.integers(0, 12),
       st.integers(1, 30), st.data())
def test_packed_rref_matches_the_list_elimination(p, nrows, ncols, data):
    """p <= 13 has one-byte digits, 17, 31 and 131 two-byte ones, 257
    and 65521 four-byte ones and 65537 eight-byte ones; entries outside
    [0, p) and dependent rows occur too."""
    entries = st.integers(-2 * p, 2 * p) | st.sampled_from([0, 0, 1, p - 1])
    rows = [data.draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows > 1 and data.draw(st.booleans()):
        rows[-1] = [(a + 2 * b) for a, b in zip(rows[0], rows[1])]
    assert gf.fp_rref(rows, p) == _fp_rref_lists(rows, p)


# (p, f): F_(3^52) is the largest field the mod-p functor builds; at p = 7,
# 17 and 31 the packed Frobenius digit is two bytes wide
FROB_FIELDS = [(3, 1), (3, 2), (3, 7), (3, 52), (5, 1), (5, 12), (7, 8), (17, 3), (31, 2)]


@SETTINGS
@given(st.sampled_from(FROB_FIELDS), st.data())
def test_packed_frobenius_matches_powering(pf, data):
    F = gf.field(*pf)
    p = F.p
    x = F.from_fp(data.draw(st.lists(st.integers(0, p - 1), min_size=F.fp_degree,
                                     max_size=F.fp_degree)))
    assert F.frob_p(x) == x ** p
    y = F.pth_root(x)
    assert y ** p == x
    assert F.pth_root(x ** p) == x
    k = data.draw(st.integers(-2 * p, 2 * p))
    assert x * k == k * x == x * F.el(k)


def test_packed_digit_widths():
    assert [gf.field(*pf)._w for pf in FROB_FIELDS] == [1, 1, 1, 1, 1, 1, 2, 2, 2]


@SETTINGS
@given(st.sampled_from([3, 5, 13, 17, 31, 131, 257, 65521, 65537]),
       st.sampled_from([1, 2, 3, 4, 8]), st.integers(0, 12), st.data())
def test_codec_round_trips_at_one_and_two_bytes(p, w, n, data):
    """fp_pack puts entry i at digit i, fp_unpack reads the digits back
    reduced mod p, and fp_reduce reduces them in place: by translated
    byte planes at w = 1 and 2, through little-endian machine words at
    the wider widths fp_width gives, 4 and 8, and digit by digit at any
    other width, the path the words must agree with.  The
    byte planes hold residues only for p < 256, and fp_width never gives
    one or two bytes for larger p."""
    vec = data.draw(st.lists(st.integers(0, 256 ** w - 1), min_size=n, max_size=n))
    for words in (gf._WORDS, {}):
        with mock.patch.object(gf, "_WORDS", words):
            acc = gf.fp_pack(vec, w)
            assert [acc >> 8 * w * i & (256 ** w - 1) for i in range(n)] == vec
            assert acc < 256 ** (w * n)
            assert gf.fp_unpack(acc, n, w, p) == tuple(a % p for a in vec)
            if p < 256 or w > 2:
                assert gf.fp_reduce(acc, n, w, p) == gf.fp_pack([a % p for a in vec], w)


def test_widths_are_powers_of_two():
    """The least power of two w with bound < 256^w, the bound of every
    digit sum; 4 and 8 are the machine-word widths."""
    for bound in [1, 255, 256, 65535, 65536, 256 ** 3, 256 ** 4 - 1, 256 ** 4, 256 ** 8,
                  257 * 256, 65521 * 65520, 65537 * 65536]:
        w = gf.fp_width(bound)
        assert w & (w - 1) == 0 and bound < 256 ** w and (w == 1 or bound >= 256 ** (w // 2))
    assert set(gf._WORDS) == {4, 8}


@pytest.mark.parametrize("p", [3, 17, 127, 131, 251])
def test_two_byte_reduction_on_every_digit_value(p):
    """Every two-byte digit value, for p on both sides of 128, where the
    sum of the two reduced byte planes stops fitting one byte, up to 251,
    the largest p with two-byte digits."""
    vec = list(range(256 ** 2))
    assert gf.fp_reduce(gf.fp_pack(vec, 2), len(vec), 2, p) == gf.fp_pack([a % p for a in vec], 2)


def _apply_loop(F, cols, x):
    """GF._apply's own loop before the shared gf.fp_combine: the reference."""
    acc = 0
    for a, col in zip(x.coeffs, cols):
        if a:
            acc += a * col
    return gf.FFElt(F, gf.fp_unpack(acc, F.fp_degree, F._w, F.p))


@SETTINGS
@given(st.sampled_from(FROB_FIELDS + [(257, 2), (65521, 1)]), st.data())
def test_packed_column_image_matches_the_apply_loop(pf, data):
    """F._apply through gf.fp_combine, on the Frobenius columns and on
    random packed columns, against the loop it replaced."""
    F = gf.field(*pf)
    n, p = F.fp_degree, F.p
    digits = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    x = F.from_fp(data.draw(digits))
    F.frob_p(F.one)
    for cols in (F._frob_cols, [gf.fp_pack(data.draw(digits), F._w) for _ in range(n)]):
        assert F._apply(cols, x) == _apply_loop(F, cols, x)


@SETTINGS
@given(st.sampled_from([3, 5, 7, 13, 17, 31]), st.integers(1, 8), st.integers(1, 4), st.data())
def test_packed_combinations_match_the_loop(p, n, k, data):
    """An F_p-combination of k packed vectors, unpacked, is the
    combination computed entry by entry, at the width fp_width gives for
    k (p-1)^2; one byte less carries at p = 17, where (p-1)^2 = 256."""
    vec = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    vs = [data.draw(vec) for _ in range(k)]
    cs = data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    w = gf.fp_width(k * (p - 1) ** 2)
    assert 256 ** (w - 1) <= k * (p - 1) ** 2 < 256 ** w
    acc = sum(c * gf.fp_pack(v, w) for c, v in zip(cs, vs))
    assert gf.fp_unpack(acc, n, w, p) == tuple(sum(c * v[i] for c, v in zip(cs, vs)) % p
                                               for i in range(n))


# every field of at most 5000 elements at these p
SMALL_FIELDS = [(p, f) for p in (3, 5, 7, 11, 13, 17, 31) for f in range(1, 8) if p ** f <= 5000]
SOLVE_SETTINGS = settings(max_examples=8, deadline=None, derandomize=True, database=None)


@functools.cache
def powers_table(p, f):
    """(g, g^p, g^(p-1)) for every g of F_(p^f) in code order, by powering."""
    F = gf.field(p, f)
    return [(g, g ** p, g ** (p - 1)) for g in F.elements()]


@pytest.mark.parametrize("p, f", SMALL_FIELDS)
@SOLVE_SETTINGS
@given(data=st.data())
def test_frobenius_solutions_are_the_enumerated_ones(p, f, data):
    """frobenius_solutions(a, b) is the code-sorted list of g with
    g^p - a g = b, and frobenius_solutions(c)[1:] the code-sorted
    (p-1)-st roots of c.  a is a (p-1)-st power and b an image half the
    time each, so the kernel line and unsolvable b both occur."""
    F, table = gf.field(p, f), powers_table(p, f)
    codes = st.integers(0, F.order - 1)
    a = F.from_code(data.draw(codes))
    if data.draw(st.booleans()):
        a = table[data.draw(codes)][2]
    b = F.from_code(data.draw(codes))
    if data.draw(st.booleans()):
        g, gp, _ = table[data.draw(codes)]
        b = gp - a * g
    assert F.frobenius_solutions(a, b) == [g for g, gp, _ in table if gp - a * g == b]
    assert F.frobenius_solutions(a)[1:] == [g for g, _, gq in table if g and gq == a]
