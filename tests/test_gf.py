import functools
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import gf
from padiclab.errors import ExtensionCapExceeded


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
        assert F9.frob_p(x, -1) ** 3 == x


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
    for rhs in ([0], [0, 2, 1]):
        with pytest.raises(ValueError):
            gf.fp_solve(M, rhs, 3)


def test_frobenius_solutions_coerce_a_and_b():
    """x^3 - a x = b over F_9 with b an element of F_9, of F_3 or an int,
    and a of F_9, of F_3 or an int: one list, the enumerated solutions.
    A b from F_3 once lost one of the two rows of the solve."""
    F3, F9 = gf.field(3), gf.field(3, 2)
    for code, k in product(range(9), range(3)):
        a = F9.from_code(code)
        want = [x for x in F9.elements() if x ** 3 - a * x == k]
        assert F9.frobenius_solutions(a, F9.el(k)) == want
        assert F9.frobenius_solutions(a, F3.el(k)) == F9.frobenius_solutions(a, k) == want
        if code < 3:
            assert F9.frobenius_solutions(F3.el(code), k) == F9.frobenius_solutions(code, k) == want
    assert F9.frobenius_solutions(F9.from_code(4), F3.el(1))


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

SETTINGS = settings(max_examples=40)


def vectors(p, n):
    return [list(v) for v in product(range(p), repeat=n)]


def apply(A, x, p):
    return [sum(a * b for a, b in zip(row, x)) % p for row in A]


@st.composite
def fp_matrix(draw):
    p = draw(st.sampled_from([3, 5]))
    n = draw(st.integers(1, 5))
    r = draw(st.integers(1, 5))
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
    n = F.fp_degree
    assert F.frob_p(x) == x ** p
    y = F.frob_p(x, -1)
    assert y ** p == x
    assert F.frob_p(x ** p, -1) == x
    k = data.draw(st.integers(-2 * n, 2 * n))
    assert F.frob_p(x, k) == x ** (p ** (k % n))
    k = data.draw(st.integers(-2 * p, 2 * p))
    assert x * k == k * x == x * F.el(k)


def test_packed_digit_widths():
    assert [gf.field(*pf)._w for pf in FROB_FIELDS] == [1, 1, 1, 1, 1, 1, 2, 2, 2]


def _coerce_loop(big, x):
    """GF.coerce's FFElt loop before the packed embedding columns: the
    reference, summing c_i y^i for the root y that x's generator maps to."""
    col = big._embeddings[id(x.field)][1]
    y = gf.FFElt(big, gf.fp_unpack(col, big.fp_degree, big._w, big.p))
    acc = big.zero
    for c, img in zip(x.coeffs, big._powers(y, x.field.fp_degree)):
        if c:
            acc = acc + img * c
    return acc


# (p, f, s): F_(p^f) into F_(p^(f s)), at one- and two-byte digit widths
EMBEDDINGS = [(3, 2, 2), (3, 2, 3), (3, 3, 2), (3, 4, 3), (5, 2, 2), (5, 3, 2), (7, 2, 3),
              (17, 2, 2)]


@SETTINGS
@given(st.sampled_from(EMBEDDINGS), st.data())
def test_packed_embedding_matches_the_coerce_loop(pfs, data):
    """coerce applies the embedding's packed columns; the image of the
    generator is a root of the small field's modulus, and every image is
    the FFElt sum the columns replaced."""
    p, f, s = pfs
    small = gf.field(p, f)
    big = gf.extension(small, s)
    y = big.coerce(small.gen)
    acc = big.one
    for c in reversed(small.modulus):
        acc = acc * y + c
    assert not acc
    x = small.from_fp(data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f)))
    assert big.coerce(x) == _coerce_loop(big, x)


@SETTINGS
@given(st.sampled_from([3, 5, 13, 17, 31, 131, 257, 65521, 65537]),
       st.sampled_from([1, 2, 3, 4, 8]), st.integers(0, 12), st.data())
def test_codec_round_trips_at_one_and_two_bytes(p, w, n, data):
    """fp_pack puts entry i at digit i, fp_unpack reads the digits back
    reduced mod p, and fp_reduce reduces them in place: by one translate
    at w = 1, through little-endian machine words at w = 2, 4 and 8, and
    digit by digit at any other width or with no words, the path the
    words must agree with."""
    vec = data.draw(st.lists(st.integers(0, 256 ** w - 1), min_size=n, max_size=n))
    for words in (gf._WORDS, {}):
        with mock.patch.object(gf, "_WORDS", words):
            acc = gf.fp_pack(vec, w)
            assert [acc >> 8 * w * i & (256 ** w - 1) for i in range(n)] == vec
            assert acc < 256 ** (w * n)
            assert gf.fp_unpack(acc, n, w, p) == tuple(a % p for a in vec)
            assert gf.fp_reduce(acc, n, w, p) == gf.fp_pack([a % p for a in vec], w)


def test_widths_are_powers_of_two():
    """The least power of two w with bound < 256^w, the bound of every
    digit sum; 2, 4 and 8 are the machine-word widths."""
    for bound in [1, 255, 256, 65535, 65536, 256 ** 3, 256 ** 4 - 1, 256 ** 4, 256 ** 8,
                  257 * 256, 65521 * 65520, 65537 * 65536]:
        w = gf.fp_width(bound)
        assert w & (w - 1) == 0 and bound < 256 ** w and (w == 1 or bound >= 256 ** (w // 2))
    assert set(gf._WORDS) == {2, 4, 8}


@pytest.mark.parametrize("p", [3, 17, 127, 131, 251])
def test_two_byte_reduction_on_every_digit_value(p):
    """Every two-byte digit value, for p on both sides of 128 up to 251,
    the largest p whose digit sums fp_width gives two bytes."""
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
SOLVE_SETTINGS = settings(max_examples=8)


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


@pytest.mark.parametrize("p, f", [(3, 81), (5, 56), (1009, 13), (10007, 10)])
def test_fields_past_max_order_are_refused_before_the_search(p, f):
    assert p ** (f - 1) <= gf.MAX_ORDER < p ** f
    before = dict(gf._cache)
    with mock.patch.object(gf, "_find_modulus_prime") as search:
        with pytest.raises(ExtensionCapExceeded, match=rf"F_\({p}\^{f}\)"):
            gf.field(p, f)
        with pytest.raises(ExtensionCapExceeded):
            gf.extension(gf.field(p), f)
    search.assert_not_called()
    assert gf._cache.keys() - before.keys() <= {(p, 1)}
    assert (p, f) not in gf._cache


def test_field_checks_the_prime_first():
    with pytest.raises(ValueError, match="odd prime"):
        gf.field(9, 100)


# --- Kronecker products against the schoolbook loop they replaced, kept
# as the reference ---

def _mulmod_schoolbook(u, v, mod, p):
    """u v mod (p, x^d + mod(x)): every coefficient product summed, then
    the top d - 1 coefficients reduced from the highest down."""
    d = len(u)
    raw = [0] * (2 * d - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            raw[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        c = raw[k] % p
        for j in range(d):
            raw[k - d + j] -= c * mod[j]
    return tuple(x % p for x in raw[:d])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 101])
def test_products_match_the_schoolbook(p):
    """Every degree below 2^128 (up to 24, and 26 and 52 at p = 3), by
    the Kronecker fold from degree 2 on, mod random monic moduli,
    irreducible or not as in the modulus search, and x^d - 1 and
    x^d + (p-1)(1 + ... + x^(d-1)): random operands and the all-(p-1)
    pair, whose product digits sum highest.  The digit layouts met: one
    byte with and without the low digits reduced first, and wider digits."""
    rng = random.Random(p)
    top = [d for d in range(1, 25) if p ** d <= gf.MAX_ORDER] + ([26, 52] if p == 3 else [])
    for d in top:
        moduli = [(p - 1,) + (0,) * (d - 1), (p - 1,) * d]
        moduli += [tuple(rng.randrange(p) for _ in range(d)) for _ in range(3)]
        for mod in moduli:
            pairs = [((p - 1,) * d, (p - 1,) * d)]
            pairs += [tuple(tuple(rng.randrange(p) for _ in range(d)) for _ in "uv")
                      for _ in range(12)]
            fold = gf._folding(mod, p) if d > 1 else None
            for u, v in pairs:
                assert gf._mulmod(u, v, fold, p) == _mulmod_schoolbook(u, v, mod, p), (d, mod)
    if p == 3:
        assert {gf._folding((0,) * d, 3)[:2] for d in (2, 52)} == {(1, False), (1, True)}
    if p == 101:
        assert gf._folding((0,) * 5, 101)[0] == 4


def test_field_products_match_the_schoolbook():
    """FFElt products in F_(3^52), F_(5^20) and F_(101^12), and x^(2d-2),
    the top power that folds back."""
    rng = random.Random(52)
    for F in (gf.field(3, 52), gf.field(5, 20), gf.field(101, 12)):
        d = F.fp_degree
        for _ in range(40):
            a, b = F.random(rng), F.random(rng)
            assert (a * b).coeffs == _mulmod_schoolbook(a.coeffs, b.coeffs, F.modulus, F.p)
        top = F.gen ** (d - 1)
        assert (top * top).coeffs == _mulmod_schoolbook(top.coeffs, top.coeffs, F.modulus, F.p)


def test_each_field_holds_its_own_folding():
    """Products taken in turn in F_(3^k), k = 2 .. 21, more fields than
    any few kept foldings would hold: each field's folding is its own
    modulus', and every product the schoolbook's."""
    fields = [gf.field(3, k) for k in range(2, 22)]
    for F in fields:
        assert F._fold == gf._folding(F.modulus, F.p)
    rng = random.Random(21)
    for _ in range(5):
        for F in fields:
            a, b = F.random(rng), F.random(rng)
            assert (a * b).coeffs == _mulmod_schoolbook(a.coeffs, b.coeffs, F.modulus, F.p)


# --- the extended Euclid that inverted field elements and answered
# Ben-Or's question by raising, kept as the reference for _coprime and
# for inverses by powering ---

def _invmod_reference(u, mod, p):
    """u^-1 in F_p[x]/(x^d + mod(x)) by the extended Euclidean algorithm,
    each remainder kept without zero top coefficients, so its degree is
    its length less one; ZeroDivisionError when u and the modulus are
    not coprime."""
    d = len(u)
    if d == 1:
        return (pow(u[0], -1, p),)
    r0, r1, s0, s1 = list(mod) + [1], list(u), [0], [1]
    while r1 and not r1[-1]:
        r1.pop()
    while len(r1) != 1:
        if not r1:
            raise ZeroDivisionError("element not invertible")
        if len(r0) < len(r1):
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        c, shift = r0[-1] * pow(r1[-1], -1, p) % p, len(r0) - len(r1)
        for j, a in enumerate(r1):
            r0[j + shift] = (r0[j + shift] - c * a) % p
        s0 += [0] * (shift + len(s1) - len(s0))
        for j, a in enumerate(s1):
            s0[j + shift] = (s0[j + shift] - c * a) % p
        while r0 and not r0[-1]:
            r0.pop()
    c = pow(r1[0], -1, p)
    return tuple([a * c % p for a in s1] + [0] * (d - len(s1)))[:d]


def _invertible_reference(u, mod, p):
    try:
        _invmod_reference(tuple(u), mod, p)
    except ZeroDivisionError:
        return False
    return True


def _find_modulus_prime_reference(p, s):
    """The Ben-Or search as it asked through the extended Euclid: the
    first monic f of degree s with x^(p^k) - x invertible mod f for
    k = 1 .. s/2."""
    x, one = (0, 1) + (0,) * (s - 2), (1,) + (0,) * (s - 1)
    for code in range(p ** s):
        if s > 1 and code % p == 0:
            continue
        mod = gf._base_p(code, p, s)
        g, fold = x, gf._folding(mod, p)
        for _ in range(s // 2):
            g = gf.power(g, p, lambda u, v: gf._mulmod(u, v, fold, p), one)
            if not _invertible_reference([(a - b) % p for a, b in zip(g, x)], mod, p):
                break
        else:
            return mod


def _poly_mul(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = (out[i + j] + a * b) % p
    return out


def _grid(p):
    return [d for d in range(2, 53) if p ** d <= gf.MAX_ORDER]


@pytest.mark.parametrize("p", [3, 5, 101])
def test_inverses_invert_and_common_factors_are_refused(p):
    """In F_(p^d) for every d from 2 to 52 below 2^128: x x.inverse() = 1
    for 1, x, x^(d-1), the all-(p-1) element and random ones, each of
    them coprime to the modulus.  Mod the reducible (x + a) g(x), g monic
    of degree d - 1: not coprime for (x + a) h(x), h nonzero of degree
    below d - 1, zero top coefficients included, and for 0."""
    rng = random.Random(p)
    for d in _grid(p):
        F = gf.field(p, d)
        xs = [(1,) + (0,) * (d - 1), (0, 1) + (0,) * (d - 2), (0,) * (d - 1) + (1,),
              (p - 1,) * d] + [F.random_nonzero(rng).coeffs for _ in range(6)]
        for x in map(F.from_fp, xs):
            assert x * x.inverse() == F.one
            assert gf._coprime(x.coeffs, F.modulus, p)
        for _ in range(4):
            a = rng.randrange(p)
            mod = tuple(_poly_mul([a, 1], [rng.randrange(p) for _ in range(d - 1)] + [1], p)[:d])
            h = [rng.randrange(p) for _ in range(rng.randrange(1, d))]
            h[0] = h[0] or 1
            u = _poly_mul([a, 1], h, p)
            u += [0] * (d - len(u))
            for bad in (tuple(u), (0,) * d):
                assert not gf._coprime(bad, mod, p)


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_coprimality_moduli_and_inverses_match_the_extended_euclid(p):
    """Seeded differential against the extended Euclid: _coprime answers
    as the reference inverts or refuses, for random u (some sharing a
    factor of low degree with the modulus) mod random monic moduli of
    every degree in the grid; the modulus search returns the reference
    search's modulus; and x.inverse() is the reference inverse."""
    rng = random.Random(40 + p)
    for d in _grid(p):
        for _ in range(8):
            mod = tuple(rng.randrange(p) for _ in range(d))
            if rng.randrange(2):
                k = rng.randrange(1, d)
                g = [rng.randrange(p) for _ in range(k)] + [1]
                f = _poly_mul(g, [rng.randrange(p) for _ in range(d - k)] + [1], p)
                mod = tuple(f[:d])
                u = _poly_mul(g, [rng.randrange(p) for _ in range(rng.randrange(1, d - k + 1))], p)
            else:
                u = [rng.randrange(p) for _ in range(d)]
            u = tuple(u + [0] * (d - len(u)))
            assert gf._coprime(u, mod, p) == _invertible_reference(u, mod, p), (d, mod, u)
        F = gf.field(p, d)
        assert F.modulus == _find_modulus_prime_reference(p, d), d
        for x in [F.gen] + [F.random_nonzero(rng) for _ in range(3)]:
            assert x.inverse().coeffs == _invmod_reference(x.coeffs, F.modulus, p), (d, x)
    F = gf.field(p)
    assert [x.inverse().coeffs for x in F.elements() if x] == \
        [_invmod_reference(x.coeffs, None, p) for x in F.elements() if x]


def test_entries_read_the_digit_layout():
    F = gf.field(3, 2)
    rng = random.Random(5)
    for d in (1, 2, 3):
        A = [[F.random(rng) for _ in range(d)] for _ in range(d)]
        assert F.entries(F.digits(A)) == [[a.coeffs for a in row] for row in A]
        cols = list(range(d * d * 2))
        assert F.entries(cols)[d - 1][0] == [(d - 1) * d * 2, (d - 1) * d * 2 + 1]
