"""The two digit layouts, each with one home, against the code they
replaced, kept here as references.

A series' digits are series.TruncSeries.digits and from_digits: one
block per coefficient of u^v, u^(v+1), ..., a residue over Zmod or the f
F_p coordinates of an element of F_(p^f).  They replaced series._digits
and the packed product's result builder (residues over Zmod or a prime
field only), galrep._series (F_q, from u^0) and the coefficient walk of
galrep.SolutionSet.solutions().  A matrix's digits are gf.GF.digits:
entry (i, k) of a d-column matrix at digits (i d + k) f ... (i d + k)
f + f - 1.  It replaced galrep._digits, the flattenings inside
gf.GF.matrix_order and gf.GF.frobenius_minus, and the two spellings of
the identity's digits.  Equal digits and equal series (coeffs, pc and
ring) over Zmod(3, 1), Zmod(3, 3), Zmod(5, 2), F_3, F_9, F_27 and
F_(3^26), with negative valuations, empty series and cuts at prec.
"""

from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from padiclab import galrep, gf, matrix
from padiclab.rings import FFRing, Zmod
from padiclab.series import TruncSeries

FIELDS = [gf.field(3), gf.field(3, 2), gf.field(3, 3), gf.field(3, 26)]
RINGS = [Zmod(3, 1), Zmod(3, 3), Zmod(5, 2)] + [FFRing(F) for F in FIELDS]
RESIDUE_RINGS = RINGS[:4]       # the packed product's: ints mod m, one digit each


# --- the replaced code ---

def ref_digits(coeffs, v, n, ints):
    """series._digits: the residues of coeffs at codes v, v + 1, ... as a
    list of ints, cut to the first n codes and to the last term."""
    out = [0] * min(max(coeffs) - v + 1, n)
    top = len(out) + v
    for e, c in coeffs.items():
        if e < top:
            out[e - v] = c if ints else c.coeffs[0]
    return out


def ref_product_result(ring, digits, v, pc):
    """The packed product's result builder: the unpacked residues of the
    product from u^v, every one below pc."""
    if isinstance(ring, Zmod):
        out = {v + i: c for i, c in enumerate(digits) if c}
    else:
        F = ring.field
        out = {v + i: gf.FFElt(F, (c,)) for i, c in enumerate(digits) if c}
    return TruncSeries._reduced(ring, out, pc)


def ref_packed_product(x, y):
    """TruncSeries.__mul__'s packed path over residues mod m, as it was."""
    ring = x.ring
    m = ring.modulus if isinstance(ring, Zmod) else ring.p
    a, b = x.coeffs, y.coeffs
    pc = x._product_pc(y)
    va, vb = min(a), min(b)
    n = pc - va - vb
    if n <= 0:
        return TruncSeries(ring, {}, pc)
    ints = isinstance(ring, Zmod)
    da, db = ref_digits(a, va, n, ints), ref_digits(b, vb, n, ints)
    w = gf.fp_width(min(len(a), len(b)) * (m - 1) ** 2)
    n = min(n, len(da) + len(db) - 1)
    acc = (gf.fp_pack(da, w) * gf.fp_pack(db, w)) & ((1 << 8 * w * n) - 1)
    return ref_product_result(ring, gf.fp_unpack(acc, n, w, m), va + vb, pc)


def ref_series(digits, ext, prec):
    """galrep._series: series over ext at precision prec from their F_p
    coordinates, in order, each from its nonzero blocks of u^m, m < prec."""
    ring, zero = FFRing(ext), ext.zero.coeffs
    blocks = list(zip(*[iter(digits)] * ext.fp_degree))
    return tuple(TruncSeries._reduced(ring, {m: gf.FFElt(ext, c) for m, c
                                             in enumerate(blocks[i:i + prec]) if c != zero}, prec)
                 for i in range(0, len(blocks), prec))


def ref_walk(x, v, n):
    """The coefficient walk of SolutionSet.solutions(), from u^v, over any
    ring: every coefficient of u^v ... u^(v+n-1), zero where absent."""
    ring = x.ring
    if isinstance(ring, Zmod):
        return [x.coeffs.get(m, 0) for m in range(v, v + n)]
    zero = ring.field.zero
    return [a for m in range(v, v + n) for a in x.coeffs.get(m, zero).coeffs]


def ref_solutions(S):
    """SolutionSet.solutions() as it was: the walk, packed sums, _series."""
    ext, p, prec = S.field, S.base_field.p, S.prec
    w = gf.fp_width(len(S.basis) * (p - 1) ** 2)
    packed = [gf.fp_pack([a for x in b for m in range(prec)
                          for a in x.coeffs.get(m, ext.zero).coeffs], w)
              for b in S.basis]
    combos = [ref_series(gf.fp_unpack(sum(c * v for c, v in zip(cs, packed)),
                                      S.d * prec * ext.fp_degree, w, p), ext, prec)
              for cs in product(range(p), repeat=len(S.basis))]
    return sorted(combos, key=lambda v: tuple(ext.code(x.coeffs.get(0, ext.zero)) for x in v))


def ref_galrep_digits(A):
    """galrep._digits: FFElt entries only."""
    return tuple(c for row in A for a in row for c in a.coeffs)


def ref_order_digits(F, A):
    """gf.GF.matrix_order's flattening: entries coerced, ints mod p."""
    return tuple(c for row in A for a in row for c in F.coerce(a).coeffs)


def ref_frobenius_minus_digits(A):
    """gf.GF.frobenius_minus's flattening: FFElt entries only, a list."""
    return [c for row in A for a in row for c in a.coeffs]


def ref_coefficients(G, prec):
    """galrep._coefficients: {j: digits of G_j}, one entry written at a time."""
    d, f = len(G), G[0][0].ring.field.fp_degree
    Gj = {}
    for i, row in enumerate(G):
        for k, a in enumerate(row):
            for e, c in a.coeffs.items():
                if e < prec and c:
                    at = (i * d + k) * f
                    Gj.setdefault(e, [0] * (d * d * f))[at:at + f] = c.coeffs
    return Gj


# --- strategies ---

def element(draw, ring):
    """A coefficient, zero a third of the time, the top one often."""
    top = ring.modulus if isinstance(ring, Zmod) else ring.field.order
    code = draw(st.one_of(st.just(0), st.just(top - 1), st.integers(0, top - 1)))
    return code if isinstance(ring, Zmod) else ring.field.from_code(code)


@st.composite
def series(draw, ring):
    """Terms at exponents -6 .. 14, dense or sparse, the precision from
    below the first term to past the last."""
    exps = draw(st.lists(st.integers(-6, 14), max_size=12, unique=True))
    return TruncSeries(ring, {e: element(draw, ring) for e in exps}, draw(st.integers(-8, 16)))


def same(got, ref):
    assert got.ring == ref.ring
    assert (got.coeffs, got.pc, type(got.pc)) == (ref.coeffs, ref.pc, type(ref.pc))
    assert all(c and e < got.pc for e, c in got.coeffs.items())


rings = st.sampled_from(RINGS)


# --- series digits ---

@settings(max_examples=300)
@given(rings, st.data())
def test_series_digits_match_the_walk(ring, data):
    """Any window: below, across and past the terms, empty series too."""
    x = data.draw(series(ring))
    v, n = data.draw(st.integers(-10, 16)), data.draw(st.integers(0, 24))
    f = 1 if isinstance(ring, Zmod) else ring.field.fp_degree
    got = x.digits(v, n)
    assert got == ref_walk(x, v, n)
    assert len(got) == n * f


@settings(max_examples=300)
@given(st.sampled_from(RESIDUE_RINGS), st.data())
def test_series_digits_match_the_product_operands(ring, data):
    """From the valuation, cut at n or at the last term, as the product
    packs its operands."""
    x = data.draw(series(ring))
    assume(x.coeffs)
    v, n = min(x.coeffs), data.draw(st.integers(1, 24))
    got = x.digits(v, min(max(x.coeffs) - v + 1, n))
    assert got == ref_digits(x.coeffs, v, n, isinstance(ring, Zmod))


@settings(max_examples=300)
@given(st.sampled_from(RESIDUE_RINGS), st.data())
def test_from_digits_matches_the_product_result_builder(ring, data):
    m = ring.modulus if isinstance(ring, Zmod) else ring.p
    digits = tuple(data.draw(st.lists(st.sampled_from([0, 0, 1, m - 1, m // 2]), max_size=20)))
    v = data.draw(st.integers(-12, 6))
    pc = v + len(digits) + data.draw(st.integers(0, 4))
    same(TruncSeries.from_digits(ring, digits, v, pc),
         ref_product_result(ring, digits, v, pc))


@settings(max_examples=300)
@given(st.sampled_from(RESIDUE_RINGS), st.data())
def test_products_match_the_old_packed_path(ring, data):
    a = data.draw(series(ring))
    b = a if data.draw(st.booleans()) else data.draw(series(ring))
    assume(a.coeffs and b.coeffs)
    same(a * b, ref_packed_product(a, b))


@settings(max_examples=200)
@given(st.sampled_from(FIELDS), st.integers(1, 8), st.integers(1, 3), st.data())
def test_unpacked_solutions_match_galrep_series(F, prec, d, data):
    """galrep._unpack, through from_digits, against galrep._series on the
    same digits: zero blocks anywhere, the last one included."""
    blocks = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, F.order - 1)),
                                min_size=prec * d, max_size=prec * d))
    digits = tuple(c for code in blocks for c in F.from_code(code).coeffs)
    got = galrep._unpack(gf.fp_pack(digits, 1), F, d, prec, 1)
    ref = ref_series(digits, F, prec)
    assert len(got) == len(ref) == d
    for x, y in zip(got, ref):
        same(x, y)


@settings(max_examples=300)
@given(rings, st.data())
def test_from_digits_matches_the_filtering_constructor(ring, data):
    """Any start, precision below, inside or past the digits: the
    constructor reduces and cuts every block itself."""
    f = 1 if isinstance(ring, Zmod) else ring.field.fp_degree
    elts = [element(data.draw, ring) for _ in range(data.draw(st.integers(0, 12)))]
    digits = tuple(c for a in elts for c in ((a,) if isinstance(ring, Zmod) else a.coeffs))
    v, prec = data.draw(st.integers(-8, 8)), data.draw(st.integers(-10, 22))
    ref = TruncSeries(ring, {v + i: a for i, a in enumerate(elts)}, prec)
    same(TruncSeries.from_digits(ring, digits, v, prec), ref)
    assert len(digits) == len(elts) * f


@settings(max_examples=300)
@given(rings, st.data())
def test_digits_round_trip(ring, data):
    """from_digits(digits(v, n), v, prec) is the series cut to u^v ... at
    precision prec, for windows that cut terms on either side."""
    x = data.draw(series(ring))
    v, n = data.draw(st.integers(-10, 16)), data.draw(st.integers(0, 24))
    prec = data.draw(st.integers(-10, 30))
    got = TruncSeries.from_digits(ring, x.digits(v, n), v, prec)
    same(got, TruncSeries(ring, {e: c for e, c in x.coeffs.items() if v <= e < v + n}, prec))


@settings(max_examples=150)
@given(st.sampled_from(FIELDS[:3]), st.integers(1, 2), st.integers(1, 5), st.data())
def test_solutions_match_the_walk_and_galrep_series(F, d, prec, data):
    ring = FFRing(F)
    k = data.draw(st.integers(1, d))
    basis = [tuple(TruncSeries(ring, {m: element(data.draw, ring) for m in range(prec)}, prec)
                   for _ in range(d)) for _ in range(k)]
    S = galrep.SolutionSet(F, F, 1, d, prec, basis)
    got, ref = S.solutions(), ref_solutions(S)
    assert len(got) == len(ref) == 3 ** k
    for xs, ys in zip(got, ref):
        for x, y in zip(xs, ys):
            same(x, y)


# --- matrix digits ---

@st.composite
def matrices(draw, F):
    """d x d, d <= 3, entries FFElts, ints (negative and past p among
    them) or a mix."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["elt", "int", "mixed"]))

    def entry():
        use_int = kind == "int" or (kind == "mixed" and draw(st.booleans()))
        if use_int:
            return draw(st.integers(-2 * F.p, 2 * F.p))
        return F.from_code(draw(st.integers(0, F.order - 1)))

    return [[entry() for _ in range(d)] for _ in range(d)]


@settings(max_examples=300)
@given(st.sampled_from(FIELDS[:2]), st.data())
def test_matrix_digits_match_the_three_flattenings(F, data):
    A = data.draw(matrices(F))
    elts = [[F.coerce(a) for a in row] for row in A]
    got = F.digits(A)
    assert got == ref_order_digits(F, A)
    assert got == F.digits(elts) == ref_galrep_digits(elts)
    assert list(got) == ref_frobenius_minus_digits(elts)
    assert len(got) == len(A) ** 2 * F.fp_degree


def test_identity_digits_have_one_spelling():
    for F, d in product(FIELDS[:2], (1, 2, 3)):
        n, f = d * d * F.fp_degree, F.fp_degree
        got = F.digits(matrix.scalar(d, 1, 0))
        assert got == tuple(int(k % ((d + 1) * f) == 0) for k in range(n))
        assert got == ref_galrep_digits(matrix.scalar(d, F.one, F.zero))


@settings(max_examples=150)
@given(st.sampled_from(FIELDS[:3]), st.integers(1, 3), st.integers(1, 12), st.data())
def test_coefficient_digits_match_the_entry_walk(F, d, prec, data):
    ring = FFRing(F)
    G = [[data.draw(series(ring)) for _ in range(d)] for _ in range(d)]
    got, ref = galrep._coefficients(G, prec), ref_coefficients(G, prec)
    assert sorted(got) == sorted(ref)
    assert all(got[j] == tuple(ref[j]) for j in ref)
